"""The project model shared by the whole-program passes.

One cheap pre-pass over every parsed module builds the structures the
dimensional, concurrency and keysound passes consume: one :class:`Node`
per function/method definition (with its parameter and return *pins*,
suffix- or annotation-derived dimensions), every class with its field
pins, and name-indexed views used for duck-typed attribute resolution
when the receiver's class is statically unknown. The dimensional pass
fills each node's dimension facts; the concurrency pass fills its call,
spawn and callable-argument edges and adds one node per inline lambda.

Name binding is answered here and only here: :meth:`ModuleInfo.bind`
says what a bare name denotes at module scope,
:meth:`ModuleInfo.qualify` renders a dotted chain,
:attr:`ModuleInfo.global_names` lists the module-level assigned names,
and :meth:`Project.resolve_name` / :meth:`Project.lookup` give the def
or class a name or qualname denotes, for every pass.
:func:`fixpoint` is the one loop every pass iterates its facts with.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

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
class Node:
    """One unit of executable code: a def, an async def, or a lambda.

    :func:`build_project` makes one per def; the concurrency pass makes
    one per inline lambda, with ``enclosing`` set to the node it sits
    in (a lambda shares its enclosing node's ``owner``/``self_name``).
    """

    qualname: str
    module: ModuleInfo
    tree: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    slots: list[ParamSlot]
    owner: ClassInfo | None = None
    self_name: str | None = None  # bound receiver name for methods
    enclosing: Node | None = None  # set for lambdas only
    # -- dimension facts, solved by the dimensional pass -------------------
    return_pin: Dim | None = None
    is_property: bool = False
    return_value: DimValue = UNKNOWN
    # -- edges, filled by the concurrency pass ------------------------------
    calls: list[CallEdge] = field(default_factory=list)
    spawns: list[SpawnEdge] = field(default_factory=list)
    callable_args: list[CallableArg] = field(default_factory=list)
    inline_lambdas: list[Node] = field(default_factory=list)
    in_degree: int = 0
    is_spawn_target: bool = False
    #: every formal parameter name, receiver included.
    params: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _items: list[ast.AST] | None = field(
        default=None, init=False, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        self.params = tuple(slot.name for slot in self.slots)

    @property
    def items(self) -> list[ast.AST]:
        """Every AST item this node owns (nested def/class bodies
        excluded), in :func:`iter_own_statements` order; walked once, on
        first use, and read by every pass. A lambda's items start with a
        synthetic ``Expr``."""
        if self._items is None:
            body = self.body
            statements = body if isinstance(body, list) \
                else [ast.Expr(body)]
            self._items = list(iter_own_statements(statements))
        return self._items

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def short(self) -> str:
        """Class-qualified display name (``Memo.get_or_compute``)."""
        if self.owner is not None:
            return f"{self.owner.name}.{self.name}"
        return self.name

    @property
    def body(self) -> list[ast.stmt] | ast.expr:
        return self.tree.body

    @property
    def is_async(self) -> bool:
        return isinstance(self.tree, ast.AsyncFunctionDef)

    @property
    def bindable(self) -> list[ParamSlot]:
        """Parameters that call arguments bind to (receiver excluded)."""
        if self.self_name is not None:
            return self.slots[1:]
        return self.slots

    @property
    def return_dim(self) -> DimValue:
        return self.return_pin if self.return_pin is not None \
            else self.return_value


def iter_own_statements(body: list[ast.stmt]):
    """Walk statements/expressions of a body, skipping nested defs.

    Yields every AST node that belongs to *this* function — nested
    ``def``/``async def``/``class`` bodies are separate nodes; lambda
    bodies are yielded too (and also become nodes of their own).
    """
    stack: list[ast.AST] = list(body)
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield item
        stack.extend(ast.iter_child_nodes(item))


@dataclass(frozen=True)
class CallEdge:
    """A plain (same-context) call from one node to another."""

    callee: Node
    line: int


@dataclass(frozen=True)
class SpawnEdge:
    """A call that moves its target into another execution context."""

    target: Node
    context: str
    line: int
    how: str  # e.g. "submitted to a thread executor"


@dataclass(frozen=True)
class CallableArg:
    """A callable bound to a callee parameter (higher-order tracking)."""

    callee: Node
    param: str
    candidates: tuple[Node, ...]
    caller_param: str | None  # set when the arg is a param of the caller
    line: int


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ClassInfo:
    """One class definition: field pins plus its methods by name."""

    qualname: str
    module: ModuleInfo
    tree: ast.ClassDef
    fields: dict[str, Dim | None] = field(default_factory=dict)
    methods: dict[str, Node] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.tree.name


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
        """Names of the module-level defs and classes, those under a
        module-level ``if``/``try``/... included."""
        names: set[str] = set()
        stack = list(self.tree.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(stmt.name)
            else:
                stack.extend(compound_body(stmt))
        return frozenset(names)

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
    functions: dict[str, Node] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    class_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    #: method/property name -> definitions, for duck-typed resolution
    attr_funcs: dict[str, list[Node]] = field(default_factory=dict)
    #: field name -> pins across all classes
    attr_fields: dict[str, list[Dim | None]] = field(default_factory=dict)
    #: module-level function name -> definitions
    func_by_name: dict[str, list[Node]] = field(default_factory=dict)

    def constant_dim(self, module_qual: str, name: str) -> DimValue | None:
        """Dim of ``module_qual.name`` if it is a known module constant."""
        if module_qual == "repro.units" and name in CONSTANT_DIMS:
            return CONSTANT_DIMS[name]
        info = self.by_qual.get(module_qual)
        if info is not None and name in info.constants:
            return info.constants[name]
        return None

    def lookup(self, qualname: str,
               unique_terminal: bool = False) -> Node | ClassInfo | None:
        """The def, else the class, that a dotted qualname names.

        With ``unique_terminal``, a miss falls back to the only
        class-less def, else the only class, with the same terminal
        name: a cheap stand-in for following package re-exports.
        """
        found = self.functions.get(qualname)
        if found is not None:
            return found
        cls = self.classes.get(qualname)
        if cls is not None or not unique_terminal:
            return cls
        terminal = qualname.rsplit(".", 1)[-1]
        for table in (self.func_by_name, self.class_by_name):
            candidates = table.get(terminal, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def scopes(self, node: Node) -> Iterator[Node]:
        """``node``, then every def it is nested in, innermost first."""
        yield node
        qual = node.qualname
        while "." in qual:
            qual = qual.rsplit(".", 1)[0]
            outer = self.functions.get(qual)
            if outer is not None:
                yield outer

    def resolve_name(
        self, module: ModuleInfo, name: str, scope: Node | None,
        unique_terminal: bool = False,
    ) -> Node | ClassInfo | None:
        """The def or class a bare name used in ``scope`` denotes.

        A name bound at module scope (a def or class of the module, or
        an import) is looked up by its target. Any other name is a def
        nested directly in ``scope``; a lambda's scope is the node it
        sits in.
        """
        binding = module.bind(name)
        if binding is not None and not binding.module:
            return self.lookup(binding.target, unique_terminal)
        if scope is None:
            return None
        scope = scope.enclosing or scope
        return self.functions.get(f"{scope.qualname}.{name}")


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
) -> Node:
    pins = _signature_pins(node, module.dims)
    decorators = _decorator_names(node)
    args = node.args
    formals = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    slots = []
    for arg in formals:
        pin = pins.get(arg.arg)
        if pin is None:
            pin = suffix_dim(arg.arg)
        slots.append(ParamSlot(name=arg.arg, pin=pin))
    self_name = None
    if owner is not None and formals and not (
        {"staticmethod", "classmethod"} & decorators
    ):
        self_name = formals[0].arg
    return_pin = pins.get("return")
    if return_pin is None:
        return_pin = suffix_dim(node.name)
    return Node(
        qualname=f"{qual_prefix}.{node.name}",
        module=module,
        tree=node,
        slots=slots,
        owner=owner,
        self_name=self_name,
        return_pin=return_pin,
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


def _register_function(project: Project, info: Node) -> None:
    """Index a def; a later def of the same qualname (the implementation
    after its ``@overload`` stubs) replaces the earlier one everywhere."""
    shadowed = project.functions.get(info.qualname)
    project.functions[info.qualname] = info
    index = project.func_by_name if info.owner is None \
        else project.attr_funcs
    bucket = index.setdefault(info.tree.name, [])
    if shadowed is not None:
        bucket[:] = [fn for fn in bucket if fn is not shadowed]
    bucket.append(info)


def compound_body(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements nested in an ``if``/``for``/``while``/``with``/
    ``try``/``match`` (every branch and handler), in source order; empty
    for a simple statement."""
    nested: list[ast.stmt] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            nested.append(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            nested.extend(child.body)
    return nested


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
                module=module,
                tree=stmt,
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
        else:
            _collect_body(project, module, compound_body(stmt), owner,
                          qual_prefix)


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
