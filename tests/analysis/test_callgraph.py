"""The module-scope resolver and the fixpoint loop in ``callgraph``."""

import ast

from repro.analysis.context import ModuleSource
from repro.analysis.dimensional.callgraph import (
    Binding,
    build_project,
    fixpoint,
)

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
