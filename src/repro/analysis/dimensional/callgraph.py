"""Project-wide symbol collection shared by the whole-program passes.

One cheap pre-pass over every parsed module builds the structures the
dimensional, concurrency and keysound passes consume: every
function/method definition with its parameter and return *pins*
(suffix- or annotation-derived dimensions), every class with its field
pins, and name-indexed views used for duck-typed attribute resolution
when the receiver's class is statically unknown.

Module-scope name binding is answered here and only here:
:meth:`ModuleInfo.bind` says what a bare name denotes,
:meth:`ModuleInfo.qualify` renders a dotted chain, and
:attr:`ModuleInfo.global_names` lists the module-level assigned names.
:func:`fixpoint` is the one loop every pass iterates its facts with.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from repro.analysis.context import ModuleSource
from repro.analysis.dimensional.dim import UNKNOWN, Dim, DimValue
from repro.analysis.dimensional.seeds import (
    CONSTANT_DIMS,
    DimComments,
    parse_dim_comments,
    suffix_dim,
)
from repro.fastpath import cached_property


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ParamSlot:
    """One formal parameter of a collected function.

    ``pin`` is the seeded dimension (annotation beats suffix); ``value``
    is the call-site join the fixpoint accumulates for unpinned params.
    """

    name: str
    pin: Dim | None
    value: DimValue = UNKNOWN

    @property
    def dim(self) -> DimValue:
        return self.pin if self.pin is not None else self.value


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class FunctionInfo:
    """One function/method definition and its evolving dimension facts."""

    qualname: str
    module_qual: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[ParamSlot]
    return_pin: Dim | None
    self_name: str | None = None  # bound receiver name for methods
    class_qual: str | None = None
    is_property: bool = False
    return_value: DimValue = UNKNOWN

    @property
    def return_dim(self) -> DimValue:
        return self.return_pin if self.return_pin is not None \
            else self.return_value

    @property
    def bindable(self) -> list[ParamSlot]:
        """Parameters that call arguments bind to (receiver excluded)."""
        if self.self_name is not None:
            return self.params[1:]
        return self.params


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ClassInfo:
    """One class definition: field pins plus its methods by name."""

    qualname: str
    name: str
    module_qual: str
    fields: dict[str, Dim | None] = field(default_factory=dict)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


class Binding(NamedTuple):
    """What a bare name denotes at module scope.

    ``target`` is the dotted qualname of a module-level def or class of
    the module (``local``), or else the name's import target; ``module``
    is true when an ``import`` statement bound the name to a module.
    """

    target: str
    module: bool
    local: bool


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ModuleInfo:
    """One module's contribution to the project tables."""

    qualname: str
    source: ModuleSource
    dims: DimComments
    # local name -> ("module", qualname) or ("symbol", qualname)
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    # module-level constant dims, filled by the engine's constant pass
    constants: dict[str, DimValue] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return self.source.path

    @property
    def tree(self) -> ast.Module:
        return self.source.tree

    @cached_property
    def _defined(self) -> frozenset[str]:
        """Names of the module-level defs and classes."""
        return frozenset(
            stmt.name for stmt in self.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        )

    @cached_property
    def global_names(self) -> frozenset[str]:
        """Names a module-level ``=`` or annotated assignment binds."""
        names: set[str] = set()
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        return frozenset(names)

    def bind(self, name: str) -> Binding | None:
        """What ``name`` denotes at module scope, or None if unbound.

        A module-level def or class of this module wins over an import
        of the same name.
        """
        if name in self._defined:
            return Binding(f"{self.qualname}.{name}", module=False,
                           local=True)
        imported = self.imports.get(name)
        if imported is None:
            return None
        kind, target = imported
        return Binding(target, module=kind == "module", local=False)

    def qualify(self, expr: ast.expr) -> str | None:
        """Dotted name of a ``Name``/``Attribute`` chain (``a.b.c``).

        Only an imported head is replaced by its import target; any
        other head, a local def included, is kept as written.
        """
        parts: list[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        imported = self.imports.get(expr.id)
        parts.append(imported[1] if imported is not None else expr.id)
        return ".".join(reversed(parts))


def fixpoint(step: Callable[[], bool], max_passes: int) -> int:
    """Run round-robin ``step`` sweeps until one changes nothing.

    ``step`` makes one sweep over its facts in a fixed order and returns
    whether any fact moved. Stops after ``max_passes`` sweeps at most;
    returns the number of sweeps run.
    """
    for sweep in range(1, max_passes + 1):
        if not step():
            return sweep
    return max_passes


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class Project:
    """Everything the inference engine knows about the code base."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)  # by path
    by_qual: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    class_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    #: method/property name -> definitions, for duck-typed resolution
    attr_funcs: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    #: field name -> pins across all classes
    attr_fields: dict[str, list[Dim | None]] = field(default_factory=dict)
    #: module-level function name -> definitions
    func_by_name: dict[str, list[FunctionInfo]] = field(default_factory=dict)

    def constant_dim(self, module_qual: str, name: str) -> DimValue | None:
        """Dim of ``module_qual.name`` if it is a known module constant."""
        if module_qual == "repro.units" and name in CONSTANT_DIMS:
            return CONSTANT_DIMS[name]
        info = self.by_qual.get(module_qual)
        if info is not None and name in info.constants:
            return info.constants[name]
        return None


def module_qualname(path: str) -> str:
    """Dotted module name for a file path (``repro.tech.wire``).

    Falls back to the file stem for paths outside the package (test
    files, in-memory snippets).
    """
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[start:]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    stem = Path(path).stem or "snippet"
    return "".join(c if c.isalnum() or c == "_" else "_" for c in stem)


_PROPERTY_DECORATORS = frozenset({"property", "cached_property"})


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _signature_pins(
    node: ast.FunctionDef | ast.AsyncFunctionDef, comments: DimComments
) -> dict[str, Dim]:
    """dim[] annotations attached to a def's signature lines."""
    last = node.body[0].lineno - 1 if node.body else node.lineno
    return comments.in_range(node.lineno, max(node.lineno, last))


def _collect_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleInfo,
    owner: ClassInfo | None,
    qual_prefix: str,
) -> FunctionInfo:
    pins = _signature_pins(node, module.dims)
    decorators = _decorator_names(node)
    args = node.args
    formals = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    params = []
    for arg in formals:
        pin = pins.get(arg.arg)
        if pin is None:
            pin = suffix_dim(arg.arg)
        params.append(ParamSlot(name=arg.arg, pin=pin))
    self_name = None
    if owner is not None and formals and not (
        {"staticmethod", "classmethod"} & decorators
    ):
        self_name = formals[0].arg
    return_pin = pins.get("return")
    if return_pin is None:
        return_pin = suffix_dim(node.name)
    return FunctionInfo(
        qualname=f"{qual_prefix}.{node.name}",
        module_qual=module.qualname,
        node=node,
        params=params,
        return_pin=return_pin,
        self_name=self_name,
        class_qual=owner.qualname if owner is not None else None,
        is_property=bool(_PROPERTY_DECORATORS & decorators),
    )


def _collect_imports(
    source: ModuleSource, imports: dict[str, tuple[str, str]],
) -> None:
    for node in source.walk():
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = ("module", alias.name)
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = ("module", head)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = ("symbol", f"{base}.{alias.name}")


def _register_function(project: Project, info: FunctionInfo) -> None:
    project.functions[info.qualname] = info
    terminal = info.node.name
    if info.class_qual is None:
        project.func_by_name.setdefault(terminal, []).append(info)
    else:
        project.attr_funcs.setdefault(terminal, []).append(info)


def _collect_body(
    project: Project,
    module: ModuleInfo,
    body: list[ast.stmt],
    owner: ClassInfo | None,
    qual_prefix: str,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _collect_function(stmt, module, owner, qual_prefix)
            if owner is not None:
                owner.methods[stmt.name] = info
            _register_function(project, info)
            # Nested defs become plain functions; the receiver context
            # does not propagate into them.
            _collect_body(project, module, stmt.body, None, info.qualname)
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{qual_prefix}.{stmt.name}",
                name=stmt.name,
                module_qual=module.qualname,
            )
            project.classes[cls.qualname] = cls
            project.class_by_name.setdefault(stmt.name, []).append(cls)
            for inner in stmt.body:
                if isinstance(inner, ast.AnnAssign) and isinstance(
                    inner.target, ast.Name
                ):
                    name = inner.target.id
                    line_pins = module.dims.in_range(
                        inner.lineno, inner.end_lineno or inner.lineno
                    )
                    pin = line_pins.get(name) or suffix_dim(name)
                    cls.fields[name] = pin
                    project.attr_fields.setdefault(name, []).append(pin)
            _collect_body(project, module, stmt.body, cls, cls.qualname)


def build_project(modules: list[ModuleSource]) -> Project:
    """Collect symbols from every parsed module."""
    project = Project()
    seen_ids: set[int] = set()
    for source in modules:
        if id(source) in seen_ids:
            continue
        seen_ids.add(id(source))
        qualname = module_qualname(source.path)
        while qualname in project.by_qual:
            qualname += "_"
        info = ModuleInfo(
            qualname=qualname,
            source=source,
            dims=parse_dim_comments(source.comments),
        )
        _collect_imports(source, info.imports)
        project.modules[source.path] = info
        project.by_qual[qualname] = info
        _collect_body(project, info, source.tree.body, None, qualname)
    return project
