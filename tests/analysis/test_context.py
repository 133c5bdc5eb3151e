"""``ModuleSource``: the memoized walk and the comment table."""

import ast
import textwrap
import tokenize
from pathlib import Path

import pytest

import repro.analysis
from repro.analysis.context import ModuleSource

ANALYSIS_DIR = Path(repro.analysis.__file__).parent

FIXTURE = textwrap.dedent('''
    import math

    SCALE = [x * 2 for x in range(4)]


    def outer(a, b=lambda v: v + 1):
        total = 0

        def inner(c):
            return {k: c for k in range(c) if k}

        async def later(d):
            async for item in d:
                yield (lambda: item)()

        total += sum(inner(a))
        return total


    class Cell:
        width_m: float = 1.0

        def __init__(self, height_m):
            self.height_m = height_m

            class Local:
                def method(self):
                    return [lambda: n for n in range(3)]

            self.local = Local()

        @property
        def area_m2(self):
            return math.prod((self.width_m, self.height_m))
''')

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module(source, path="<fixture>"):
    return ModuleSource(path=path, source=source, tree=ast.parse(source))


def _analysis_modules():
    return sorted(ANALYSIS_DIR.rglob("*.py"))


def _check_parity(module):
    assert module.walk() == tuple(ast.walk(module.tree))
    scopes = [n for n in ast.walk(module.tree) if isinstance(n, _SCOPES)]
    for node in scopes:
        assert module.walk(node) == tuple(ast.walk(node))
    return scopes


class TestWalk:
    def test_fixture_parity_for_tree_and_every_scope(self):
        module = _module(FIXTURE)
        scopes = _check_parity(module)
        names = {node.name for node in scopes}
        assert {"outer", "inner", "later", "Cell", "Local", "method"} <= names

    @pytest.mark.parametrize(
        "path", _analysis_modules(),
        ids=lambda p: p.relative_to(ANALYSIS_DIR).as_posix(),
    )
    def test_analysis_module_parity(self, path):
        _check_parity(_module(path.read_text(), str(path)))

    def test_repeat_calls_return_the_same_object(self):
        module = _module(FIXTURE)
        assert module.walk() is module.walk()
        assert module.walk(module.tree) is module.walk()
        for node in module.walk():
            if isinstance(node, _SCOPES):
                assert module.walk(node) is module.walk(node)

    def test_foreign_nodes_are_rejected(self):
        module = _module(FIXTURE)
        twin = ast.parse(FIXTURE)
        with pytest.raises(ValueError):
            module.walk(twin)
        with pytest.raises(ValueError):
            module.walk(twin.body[-1])
        # An expression of the module's own tree is not a scope.
        with pytest.raises(ValueError):
            module.walk(module.tree.body[1].value)

    def test_def_walk_orders_assigns_like_a_walk_of_its_body(self):
        # Escape analysis reads a def's Assign statements from
        # ``walk(def)`` instead of a walk of a synthetic module holding
        # the body; both orders must agree.
        for path in [None, *_analysis_modules()]:
            source = FIXTURE if path is None else path.read_text()
            module = _module(source)
            for node in module.walk():
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                body = ast.Module(body=node.body, type_ignores=[])
                expected = [
                    n for n in ast.walk(body) if isinstance(n, ast.Assign)
                ]
                assert [
                    n for n in module.walk(node)
                    if isinstance(n, ast.Assign)
                ] == expected


class TestComments:
    def test_source_without_directive_is_not_tokenized(self, monkeypatch):
        def fail(readline):
            raise AssertionError("tokenized a source without repro:")

        monkeypatch.setattr(tokenize, "generate_tokens", fail)
        assert _module("x = 1  # plain comment\n").comments == ()

    def test_directive_comments_are_returned(self):
        module = _module(
            "x = 1  # plain\n"
            "y = 2  # repro: noqa[NUM001]\n"
            "s = '# repro: not a comment'\n"
        )
        assert module.comments == (
            (1, "# plain"), (2, "# repro: noqa[NUM001]"),
        )
