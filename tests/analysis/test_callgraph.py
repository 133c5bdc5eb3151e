"""The project model, its name resolver and the fixpoint loop in
``callgraph``."""

import ast
import textwrap

from repro.analysis.callgraph import (
    Binding,
    build_project,
    fixpoint,
)
from repro.analysis.concurrency import build_concurrency_model
from repro.analysis.context import ModuleSource

USER = """\
import pkg.mod as m
import pkg.sub
from pkg import mod
from pkg.mod import f as g

LIMIT = 3
WIDTH: int = 4
left, right = 1, 2


def local():
    return m.f() + mod.f() + g()


class Span:
    @classmethod
    def from_dict(cls, data):
        return cls()
"""


def _source(path):
    text = path.read_text()
    return ModuleSource(path=str(path), source=text, tree=ast.parse(text))


def _user_module(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("def f():\n    return 1\n")
    user = tmp_path / "user.py"
    user.write_text(USER)
    project = build_project([
        _source(path) for path in (pkg / "__init__.py", pkg / "mod.py", user)
    ])
    return project.modules[str(user)]


class TestBind:
    def test_each_binding_form(self, tmp_path):
        info = _user_module(tmp_path)
        assert info.bind("m") == Binding("pkg.mod", module=True, local=False)
        assert info.bind("pkg") == Binding("pkg", module=True, local=False)
        # ``from pkg import mod`` binds a symbol, whatever it names.
        assert info.bind("mod") == Binding(
            "pkg.mod", module=False, local=False,
        )
        assert info.bind("g") == Binding(
            "pkg.mod.f", module=False, local=False,
        )
        assert info.bind("local") == Binding(
            "user.local", module=False, local=True,
        )
        assert info.bind("Span") == Binding(
            "user.Span", module=False, local=True,
        )

    def test_unbound_names(self, tmp_path):
        info = _user_module(tmp_path)
        assert info.bind("unbound") is None
        assert info.bind("f") is None  # only imported as ``g``
        assert info.bind("LIMIT") is None  # an assignment, not a def


class TestQualify:
    def _qualify(self, info, text):
        return info.qualify(ast.parse(text, mode="eval").body)

    def test_imported_heads_are_replaced(self, tmp_path):
        info = _user_module(tmp_path)
        assert self._qualify(info, "m.f") == "pkg.mod.f"
        assert self._qualify(info, "mod.f") == "pkg.mod.f"
        assert self._qualify(info, "g") == "pkg.mod.f"
        assert self._qualify(info, "pkg.sub.h") == "pkg.sub.h"

    def test_other_heads_stay_as_written(self, tmp_path):
        info = _user_module(tmp_path)
        assert self._qualify(info, "Span.from_dict") == "Span.from_dict"
        assert self._qualify(info, "local") == "local"
        assert self._qualify(info, "unbound.x.y") == "unbound.x.y"

    def test_non_name_heads_have_no_dotted_name(self, tmp_path):
        info = _user_module(tmp_path)
        assert self._qualify(info, "m.f().x") is None
        assert self._qualify(info, "'text'.join") is None


class TestGlobalNames:
    def test_module_level_assigned_names(self, tmp_path):
        info = _user_module(tmp_path)
        # Tuple targets, defs, classes and imports are not included.
        assert info.global_names == {"LIMIT", "WIDTH"}
        assert info.global_names is info.global_names  # computed once


class TestFixpoint:
    def test_counts_sweeps_until_one_changes_nothing(self):
        moves = iter([True, True, False, True])
        assert fixpoint(lambda: next(moves), max_passes=10) == 3

    def test_stops_at_the_cap(self):
        calls = []

        def step():
            calls.append(1)
            return True

        assert fixpoint(step, max_passes=4) == 4
        assert len(calls) == 4


def _snippet_project(snippet, path="mod.py"):
    text = textwrap.dedent(snippet)
    return build_project([
        ModuleSource(path=path, source=text, tree=ast.parse(text)),
    ])


class TestCollection:
    def test_defs_under_compound_statements_are_collected(self):
        project = _snippet_project("""
            def outer(flag, items, lock):
                if flag:
                    def in_if(): ...
                else:
                    def in_else(): ...
                for _ in items:
                    def in_for(): ...
                while flag:
                    def in_while(): ...
                with lock:
                    def in_with(): ...
                try:
                    def in_try(): ...
                except ValueError:
                    def in_handler(): ...
                finally:
                    def in_finally(): ...
                match flag:
                    case 1:
                        def in_case(): ...
        """)
        assert list(project.functions) == ["mod.outer"] + [
            f"mod.outer.{name}" for name in (
                "in_if", "in_else", "in_for", "in_while", "in_with",
                "in_try", "in_handler", "in_finally", "in_case",
            )
        ]

    def test_a_later_def_replaces_the_earlier_everywhere(self):
        project = _snippet_project("""
            from typing import overload

            class Box:
                @overload
                def get(self, key: int) -> int: ...
                @overload
                def get(self, key: str) -> str: ...
                def get(self, key):
                    return key
        """)
        live = project.functions["mod.Box.get"]
        assert live.tree.lineno == 9
        assert project.classes["mod.Box"].methods["get"] is live
        assert project.attr_funcs["get"] == [live]


class TestResolveName:
    SNIPPET = """
        from pkg import helper

        def top():
            def helper():
                return 1

            def inner():
                return 2

            return inner() + helper() + (lambda: inner())()
    """

    def test_module_binding_wins_then_a_nested_def(self):
        project = _snippet_project(self.SNIPPET)
        module = project.by_qual["mod"]
        top = project.functions["mod.top"]
        assert project.resolve_name(module, "inner", top) is \
            project.functions["mod.top.inner"]
        # The import binds ``helper`` at module scope, so a nested def
        # of the same name does not shadow it.
        assert project.resolve_name(module, "helper", top) is None
        assert project.resolve_name(module, "top", None) is top
        assert project.resolve_name(module, "inner", None) is None

    def test_a_lambda_resolves_in_its_enclosing_def(self):
        model, _ = build_concurrency_model([ModuleSource(
            path="mod.py", source=textwrap.dedent(self.SNIPPET),
            tree=ast.parse(textwrap.dedent(self.SNIPPET)),
        )])
        inner = model.project.functions["mod.top.inner"]
        (lam,) = model.lambda_nodes
        assert [edge.callee for edge in lam.calls] == [inner]


#: Every kind of edge the context pass resolves: plain and nested
#: calls, a method by receiver type, a spawn, a callable argument
#: (lambda, ``partial`` and a def), and a project decorator.
EDGES = """
    import functools
    import threading
    from concurrent.futures import ThreadPoolExecutor


    def traced(fn):
        def wrapper(*args):
            return fn(*args)
        return wrapper


    @traced
    def solve(x):
        return x


    class Memo:
        def get_or_compute(self, key, compute):
            return compute()


    MEMO = Memo()


    def scaled(x, factor):
        return x * factor


    def drive(points):
        def work(p):
            return MEMO.get_or_compute(p, lambda: solve(p))

        pool = ThreadPoolExecutor(max_workers=2)
        threading.Thread(target=work, args=(1,)).start()
        MEMO.get_or_compute(0, functools.partial(scaled, 2, 3))
        MEMO.get_or_compute(1, work)
        return [pool.submit(work, p) for p in points]
"""


class TestOneRecordPerDef:
    def test_every_edge_endpoint_is_the_project_record(self):
        model, _ = build_concurrency_model([ModuleSource(
            path="mod.py", source=textwrap.dedent(EDGES),
            tree=ast.parse(textwrap.dedent(EDGES)),
        )])
        functions = model.project.functions
        lambdas = {id(lam) for lam in model.lambda_nodes}

        def is_the_record(node):
            if id(node) in lambdas:
                return node.enclosing is not None
            return functions.get(node.qualname) is node

        endpoints = []
        for node in model.all_nodes():
            endpoints += [edge.callee for edge in node.calls]
            endpoints += [spawn.target for spawn in node.spawns]
            for carg in node.callable_args:
                endpoints += [carg.callee, *carg.candidates]
        for bound in model.decorator_bindings.values():
            endpoints += bound
        names = {node.qualname for node in endpoints}
        # The fixture reaches every kind of edge it sets out to.
        assert {"mod.solve", "mod.scaled", "mod.drive.work",
                "mod.Memo.get_or_compute", "mod.traced"} <= names
        assert any(node.enclosing is not None for node in endpoints)
        assert all(is_the_record(node) for node in endpoints)
