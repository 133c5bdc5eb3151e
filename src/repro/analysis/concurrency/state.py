"""Shared-state and lock modeling for the concurrency analysis.

This module answers, for every :class:`~.contexts.Node`, four questions
the CONC rules combine with the execution contexts:

* which *shared state keys* (module globals and instance fields of
  escaping classes) the node reads and writes, and whether each write is
  a GIL-atomic rebind or a compound operation (``+=``, subscript store,
  mutating container method);
* which writes are *lock guarded* — lexically under ``with lock:`` or
  between ``lock.acquire()`` / ``lock.release()`` statements — and which
  state is covered by a trusted ``# repro: guarded-by[lockname]``
  annotation (same comment grammar as the PR 5 ``dim[...]`` pins);
* which state keys hold *fork-unsafe resources* (locks, open files,
  sockets, executors) and which of those are reinitialized in an
  ``os.register_at_fork(after_in_child=...)`` callback;
* which blocking primitives (``time.sleep``, sync file I/O,
  ``subprocess``, ``Lock.acquire``, the scalar evaluation pipeline) the
  node calls directly, for the CONC002 reachability walk.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.callgraph import Node, fixpoint
from repro.analysis.concurrency.contexts import (
    ContextModel,
    T_FILE,
    T_LOCK,
    T_PROCESS_EXECUTOR,
    T_SOCKET,
    T_THREAD_EXECUTOR,
    ctor_type,
)
from repro.analysis.context import CommentTokens, ModuleSource

#: A shared-state key: ("global", module_qual, name) or
#: ("field", class_qual, attr).
StateKey = tuple[str, str, str]

#: Special guard name meaning "single bytecode op, the GIL suffices".
GIL_GUARD = "gil"

_GUARDED_BY_RE = re.compile(
    r"#\s*repro:\s*guarded-by\[(?P<body>[^\]]*)\]"
)
_GUARDED_BY_LOOSE_RE = re.compile(r"#\s*repro:\s*guarded-by\b")

#: Container/obj methods that mutate their receiver in place.
MUTATING_METHODS: frozenset[str] = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "sort",
    "reverse", "appendleft", "popleft",
})

#: Dotted stdlib chains that block the calling thread.
BLOCKING_CHAINS: dict[str, str] = {
    "time.sleep": "time.sleep",
    "os.system": "os.system",
    "os.wait": "os.wait",
    "os.waitpid": "os.waitpid",
    "subprocess.run": "subprocess.run",
    "subprocess.call": "subprocess.call",
    "subprocess.check_call": "subprocess.check_call",
    "subprocess.check_output": "subprocess.check_output",
    "subprocess.Popen": "subprocess.Popen",
    "socket.create_connection": "socket.create_connection",
    "select.select": "select.select",
    "urllib.request.urlopen": "urllib.request.urlopen",
    "requests.get": "requests.get",
    "requests.post": "requests.post",
}

#: Attribute-call names that block unless awaited (sync lock
#: acquisition, sync file/socket I/O). An ``await x.acquire()`` is an
#: asyncio primitive and is exempt at the collection site.
BLOCKING_ATTRS: dict[str, str] = {
    "acquire": "sync lock acquisition",
    "read_text": "sync file read",
    "read_bytes": "sync file read",
    "write_text": "sync file write",
    "write_bytes": "sync file write",
    "recv": "sync socket read",
    "sendall": "sync socket write",
    "accept": "sync socket accept",
}

#: Project functions that are themselves blocking primitives: the
#: scalar evaluation pipeline (CPU-bound for milliseconds per config)
#: and the cache's disk I/O. Reaching one of these from a coroutine
#: without an executor hop stalls the event loop.
BLOCKING_PROJECT: dict[str, str] = {
    "repro.engine.record.evaluate_config": "scalar config evaluation",
    "repro.engine.evaluate_many": "batch evaluation",
    "repro.engine.sweep.run_sweep": "sweep evaluation",
    "repro.chip.processor.Processor.report": "scalar report evaluation",
}

_RESOURCE_TYPES: dict[str, str] = {
    T_LOCK: "a threading lock",
    T_FILE: "an open file handle",
    T_SOCKET: "a live socket",
    T_THREAD_EXECUTOR: "a running thread executor",
    T_PROCESS_EXECUTOR: "a running process pool",
}


@dataclass(frozen=True)
class Access:
    """One read or write of a shared state key inside one node."""

    key: StateKey
    node: Node
    line: int
    write: bool
    atomic: bool  # plain rebind — a single STORE op under the GIL
    guard: str | None  # lock terminal name the site is under, if any
    op: str  # human description of the operation
    in_init: bool  # inside the owning class's __init__/__post_init__


@dataclass(frozen=True)
class BlockingCall:
    """One direct call to a blocking primitive inside one node."""

    node: Node
    line: int
    what: str  # "time.sleep", "sync lock acquisition", ...
    under_lock: bool  # ``with lock: ...`` bodies are not re-flagged


@dataclass(frozen=True)
class GuardIssue:
    """A malformed or unverifiable guarded-by annotation (CONCNOTE)."""

    path: str
    line: int
    message: str


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class StateModel:
    """Shared-state facts keyed alongside the context model."""

    accesses: list[Access] = field(default_factory=list)
    blocking: dict[str, list[BlockingCall]] = field(default_factory=dict)
    #: classes whose instances are reachable from module level.
    shared_classes: set[str] = field(default_factory=set)
    #: why each class is considered shared (for finding chains).
    shared_why: dict[str, str] = field(default_factory=dict)
    #: state key -> declared guard lock name (trusted annotation).
    guard_decls: dict[StateKey, str] = field(default_factory=dict)
    #: state key -> resource description, for CONC003.
    resources: dict[StateKey, str] = field(default_factory=dict)
    #: state keys rewritten inside an after-fork child callback.
    reinit_keys: set[StateKey] = field(default_factory=set)
    #: attr names rewritten in an after-fork callback on *any* class —
    #: fallback for untyped loops over registries.
    reinit_attrs: set[str] = field(default_factory=set)
    #: lock terminal names known per (scope kind, scope qual).
    known_locks: dict[tuple[str, str], set[str]] = field(
        default_factory=dict
    )
    guard_issues: list[GuardIssue] = field(default_factory=list)


def parse_guard_comments(
    comments: CommentTokens,
) -> tuple[dict[int, str], list[tuple[int, str]]]:
    """``# repro: guarded-by[lock]`` comments by line, plus errors."""
    by_line: dict[int, str] = {}
    errors: list[tuple[int, str]] = []
    for line, text in comments:
        match = _GUARDED_BY_RE.search(text)
        if match is None:
            if _GUARDED_BY_LOOSE_RE.search(text):
                errors.append((
                    line,
                    "malformed guarded-by comment: expected "
                    "'# repro: guarded-by[lockname]'",
                ))
            continue
        body = match.group("body").strip()
        if not body or not body.replace("_", "a").isidentifier():
            errors.append((
                line,
                f"guarded-by lock name {body!r} is not an identifier",
            ))
            continue
        by_line[line] = body
    return by_line, errors


def _terminal_name(expr: ast.expr) -> str | None:
    """Terminal identifier of a lock expression (``self._lock`` -> _lock)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Call):
        return _terminal_name(expr.func)
    return None


class _StateScanner:
    """Collect accesses, guards, and blocking calls from one node."""

    def __init__(self, model: ContextModel, state: StateModel,
                 node: Node) -> None:
        self.model = model
        self.state = state
        self.node = node
        self.module = node.module
        self.in_init = node.owner is not None and node.name in (
            "__init__", "__post_init__",
        )
        self.declared_globals: set[str] = set()
        self.locals_seen: set[str] = set(node.params)

    # -- key resolution --------------------------------------------------

    def _key_of(self, expr: ast.expr) -> StateKey | None:
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.locals_seen and name not in \
                    self.declared_globals:
                return None
            if name in self.module.global_names:
                return ("global", self.module.qualname, name)
            return None
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if (
                expr.value.id == self.node.self_name
                and self.node.owner is not None
            ):
                return ("field", self.node.owner.qualname, expr.attr)
            # Module attribute access: ``metrics._COUNTERS``.
            binding = self.module.bind(expr.value.id)
            if binding is not None and binding.module:
                target = self.model.project.by_qual.get(binding.target)
                if target is not None:
                    return ("global", target.qualname, expr.attr)
            # Typed receiver: ``memo.hits`` where memo: Memo.
            base = self._receiver_type(expr.value)
            if base is not None and not base.startswith("#"):
                return ("field", base, expr.attr)
        return None

    def _receiver_type(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            typ = self._local_types.get(expr.id)
            if typ is not None:
                return typ
            got = self.model.global_types.get(
                (self.module.qualname, expr.id)
            )
            return got
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if expr.value.id == self.node.self_name \
                    and self.node.owner is not None:
                return self.model.field_types.get(
                    (self.node.owner.qualname, expr.attr)
                )
        return None

    # -- scanning --------------------------------------------------------

    def scan(self) -> None:
        self._local_types: dict[str, str] = {}
        body = self.node.body
        statements = body if isinstance(body, list) \
            else [ast.Expr(body)]  # lambda: a single expression
        self._scan_block(statements, guards=[], acquired=set())

    def _scan_block(self, statements: list[ast.stmt],
                    guards: list[str], acquired: set[str]) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Global):
                self.declared_globals.update(stmt.names)
                continue
            if isinstance(stmt, ast.With) or isinstance(
                stmt, ast.AsyncWith
            ):
                names = []
                for item in stmt.items:
                    self._scan_expr(item.context_expr, guards, acquired)
                    name = _terminal_name(item.context_expr)
                    if name is not None and self._looks_like_lock(
                        item.context_expr, name,
                    ):
                        names.append(name)
                self._scan_block(
                    stmt.body, guards + names, acquired,
                )
                continue
            # lock.acquire() / lock.release() statement pairs.
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ) and isinstance(stmt.value.func, ast.Attribute):
                attr = stmt.value.func.attr
                name = _terminal_name(stmt.value.func.value)
                if attr == "acquire" and name is not None and \
                        self._looks_like_lock(stmt.value.func.value, name):
                    self._scan_expr(stmt.value, guards, acquired)
                    acquired.add(name)
                    continue
                if attr == "release" and name is not None:
                    acquired.discard(name)
                    self._scan_expr(stmt.value, guards, acquired)
                    continue
            self._scan_stmt(stmt, guards, acquired)

    def _looks_like_lock(self, expr: ast.expr, name: str) -> bool:
        typ = self._receiver_type(expr) if not isinstance(expr, ast.Call) \
            else None
        if typ == T_LOCK:
            return True
        if isinstance(expr, ast.Attribute) and self.node.owner is not None:
            if self.model.field_types.get(
                (self.node.owner.qualname, expr.attr)
            ) == T_LOCK:
                return True
        lower = name.lower()
        return "lock" in lower or "mutex" in lower or lower == "cond"

    def _scan_stmt(self, stmt: ast.stmt, guards: list[str],
                   acquired: set[str]) -> None:
        guard = guards[-1] if guards else (
            next(iter(acquired)) if acquired else None
        )
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_store(target, stmt.lineno, guard,
                                   augmented=False)
                if isinstance(target, ast.Name):
                    self.locals_seen.add(target.id)
            self._scan_expr(stmt.value, guards, acquired)
            self._note_local_type(stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_store(stmt.target, stmt.lineno, guard,
                                   augmented=False)
                self._scan_expr(stmt.value, guards, acquired)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_store(stmt.target, stmt.lineno, guard,
                               augmented=True)
            self._scan_expr(stmt.value, guards, acquired)
            return
        if isinstance(stmt, (ast.Delete,)):
            for target in stmt.targets:
                self._record_store(target, stmt.lineno, guard,
                                   augmented=True)
            return
        if isinstance(stmt, ast.For) and isinstance(
            stmt.target, ast.Name
        ):
            self.locals_seen.add(stmt.target.id)
            # ``for memo in _REGISTRY:`` — loop vars over an annotated
            # module container get the container's element type, so the
            # at-fork reinit pass can resolve ``memo._lock = Lock()``.
            if isinstance(stmt.iter, ast.Name):
                elem = self.model.elem_types.get(
                    (self.module.qualname, stmt.iter.id)
                )
                if elem is not None:
                    self._local_types[stmt.target.id] = elem
        # Compound statements: recurse into child blocks with the same
        # guard state; scan embedded expressions.
        for _field_name, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                self._scan_block(value, guards, set(acquired))
            elif isinstance(value, ast.expr):
                self._scan_expr(value, guards, acquired)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._scan_expr(item, guards, acquired)
                    elif isinstance(item, ast.excepthandler):
                        self._scan_block(item.body, guards,
                                         set(acquired))

    def _note_local_type(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            typ = ctor_type(stmt.value, self.module, self.model.project)
            if typ is not None:
                self._local_types[stmt.targets[0].id] = typ

    def _record_store(self, target: ast.expr, line: int,
                      guard: str | None, augmented: bool) -> None:
        # Plain rebind of a name or attribute is a single STORE op and
        # is atomic under the GIL; compound ops and container element
        # stores are read-modify-write and race.
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, line, guard, augmented)
            return
        if isinstance(target, ast.Subscript):
            key = self._key_of(target.value)
            if key is not None:
                self._add_access(key, line, write=True, atomic=False,
                                 guard=guard, op="subscript store")
            return
        if isinstance(target, ast.Name):
            # Assignment to a bare name only touches a module global
            # when the function declared it ``global`` (otherwise the
            # name is a function local, whatever the module defines).
            if target.id not in self.declared_globals:
                return
        key = self._key_of(target)
        if key is None:
            return
        op = "augmented assignment (read-modify-write)" if augmented \
            else "rebind"
        self._add_access(key, line, write=True, atomic=not augmented,
                         guard=guard, op=op)

    def _scan_expr(self, expr: ast.expr, guards: list[str],
                   acquired: set[str]) -> None:
        guard = guards[-1] if guards else (
            next(iter(acquired)) if acquired else None
        )
        for item in ast.walk(expr):
            if isinstance(item, ast.Lambda):
                continue  # scanned as its own node
            if isinstance(item, ast.Call):
                self._scan_call(item, guard, bool(guards or acquired))
            elif isinstance(item, (ast.Name, ast.Attribute)) and \
                    isinstance(item.ctx, ast.Load):
                key = self._key_of(item)
                if key is not None:
                    self._add_access(key, item.lineno, write=False,
                                     atomic=True, guard=guard, op="read")

    def _scan_call(self, call: ast.Call, guard: str | None,
                   under_lock: bool) -> None:
        func = call.func
        # Mutating method on shared state: ``_REGISTRY.append(...)``.
        if isinstance(func, ast.Attribute) and \
                func.attr in MUTATING_METHODS:
            key = self._key_of(func.value)
            if key is not None:
                self._add_access(
                    key, call.lineno, write=True, atomic=False,
                    guard=guard, op=f".{func.attr}() mutation",
                )
        # Blocking primitives for CONC002.
        what: str | None = None
        chain = self.module.qualify(func)
        if chain is not None and chain in BLOCKING_CHAINS:
            what = BLOCKING_CHAINS[chain]
        elif chain is not None and chain in BLOCKING_PROJECT:
            # Also resolved as a call edge when the callee module is
            # indexed; the rule dedupes by site. This chain match covers
            # callers linted without the full package in the index.
            what = BLOCKING_PROJECT[chain]
        elif isinstance(func, ast.Name) and func.id == "open":
            what = "sync file open"
        elif isinstance(func, ast.Attribute) and \
                func.attr in BLOCKING_ATTRS:
            if id(call) not in self._awaited:
                what = BLOCKING_ATTRS[func.attr]
        if what is not None:
            self.state.blocking.setdefault(
                self.node.qualname, [],
            ).append(BlockingCall(
                node=self.node, line=call.lineno, what=what,
                under_lock=under_lock,
            ))

    _awaited: frozenset[int] = frozenset()

    def collect_awaited(self) -> None:
        """Record calls that sit directly under ``await``."""
        self._awaited = frozenset(
            id(item.value) for item in self.node.items
            if isinstance(item, ast.Await)
            and isinstance(item.value, ast.Call)
        )

    def _add_access(self, key: StateKey, line: int, write: bool,
                    atomic: bool, guard: str | None, op: str) -> None:
        in_init = self.in_init and key[0] == "field" and \
            self.node.owner is not None and key[1] == \
            self.node.owner.qualname
        self.state.accesses.append(Access(
            key=key, node=self.node, line=line, write=write,
            atomic=atomic, guard=guard, op=op, in_init=in_init,
        ))


def bind_guard_comments(model: ContextModel, state: StateModel) -> None:
    """Parse and bind guarded-by annotations of every project module."""
    project = model.project
    for info in project.by_qual.values():
        by_line, errors = parse_guard_comments(info.source.comments)
        for line, message in errors:
            state.guard_issues.append(GuardIssue(
                path=info.path, line=line, message=message,
            ))
        if not by_line:
            continue
        claimed: set[int] = set()
        # Module-level globals.
        for stmt in info.tree.body:
            target_name: str | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target_name = stmt.targets[0].id
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                target_name = stmt.target.id
            if target_name is None:
                continue
            for line in range(stmt.lineno, (stmt.end_lineno or
                                            stmt.lineno) + 1):
                if line in by_line:
                    state.guard_decls[
                        ("global", info.qualname, target_name)
                    ] = by_line[line]
                    claimed.add(line)
        # Classes: class-line comments guard every field; class-body
        # AnnAssign and in-method self.x stores guard one field.
        for cls in project.classes.values():
            if cls.module is not info:
                continue
            class_node = cls.tree
            header_end = class_node.body[0].lineno - 1 \
                if class_node.body else class_node.lineno
            for line in range(class_node.lineno, header_end + 1):
                if line in by_line:
                    lock = by_line[line]
                    claimed.add(line)
                    for attr in _class_attrs(info.source, class_node):
                        state.guard_decls.setdefault(
                            ("field", cls.qualname, attr), lock,
                        )
            for stmt in class_node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ) and stmt.lineno in by_line:
                    state.guard_decls[
                        ("field", cls.qualname, stmt.target.id)
                    ] = by_line[stmt.lineno]
                    claimed.add(stmt.lineno)
            for method in cls.methods.values():
                self_name = method.self_name
                if self_name is None:
                    continue
                for stmt in info.source.walk(method.tree):
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    if stmt.lineno not in by_line:
                        continue
                    targets = stmt.targets if isinstance(
                        stmt, ast.Assign
                    ) else [stmt.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == self_name:
                            state.guard_decls[
                                ("field", cls.qualname, target.attr)
                            ] = by_line[stmt.lineno]
                            claimed.add(stmt.lineno)
        for line, lock in by_line.items():
            if line not in claimed:
                state.guard_issues.append(GuardIssue(
                    path=info.path, line=line,
                    message=(
                        f"guarded-by[{lock}] is not attached to a "
                        "module global, class, or self-field assignment"
                    ),
                ))
    _validate_guard_locks(model, state)


def _class_attrs(module: ModuleSource, class_node: ast.ClassDef) -> list[str]:
    attrs: list[str] = []
    for stmt in class_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            attrs.append(stmt.target.id)
    for item in module.walk(class_node):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = item.args
            formals = [*args.posonlyargs, *args.args]
            self_name = formals[0].arg if formals else None
            for sub in module.walk(item):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    targets = sub.targets if isinstance(sub, ast.Assign) \
                        else [sub.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == self_name:
                            attrs.append(target.attr)
    return attrs


def _validate_guard_locks(model: ContextModel, state: StateModel) -> None:
    """Soft check: a declared guard lock should exist in its scope."""
    # Known lock names per scope from the type maps.
    for (mod, name), typ in model.global_types.items():
        if typ == T_LOCK:
            state.known_locks.setdefault(("global", mod), set()).add(name)
    for (cls, attr), typ in model.field_types.items():
        if typ == T_LOCK:
            state.known_locks.setdefault(("field", cls), set()).add(attr)
    for key, lock in state.guard_decls.items():
        if lock == GIL_GUARD:
            continue
        kind, scope, _name = key
        scoped = state.known_locks.get((kind, scope), set())
        if kind == "field":
            cls = model.project.classes.get(scope)
            info = cls.module if cls is not None else None
        else:
            info = model.project.by_qual.get(scope)
        module_scope = state.known_locks.get(
            ("global", info.qualname), set(),
        ) if info is not None else set()
        if lock not in scoped and lock not in module_scope:
            path = info.path if info is not None else "<unknown>"
            state.guard_issues.append(GuardIssue(
                path=path, line=1,
                message=(
                    f"guarded-by[{lock}] on {_render_key(key)} names a "
                    f"lock that is not defined in its scope"
                ),
            ))


def _render_key(key: StateKey) -> str:
    kind, scope, name = key
    return f"{scope}.{name}"


def _collect_shared_classes(model: ContextModel,
                            state: StateModel) -> None:
    """Escape analysis: which classes' instances are module-reachable."""
    project = model.project

    def mark(qual: str, why: str) -> None:
        if qual in state.shared_classes or qual not in project.classes:
            return
        state.shared_classes.add(qual)
        state.shared_why[qual] = why

    # Module-level instantiation / annotation.
    for (mod, name), typ in model.global_types.items():
        if not typ.startswith("#") and typ in project.classes:
            cls = project.classes[typ]
            mark(typ, f"instantiated at module level as {mod}.{name}")
    for (mod, name), typ in model.elem_types.items():
        if typ in project.classes:
            mark(typ, f"stored in module-level container {mod}.{name}")
    # self stored into a module global inside any method.
    for cls in project.classes.values():
        info = cls.module
        module_globals = info.global_names
        for method in cls.methods.values():
            self_name = method.self_name
            if self_name is None:
                continue
            for item in info.source.walk(method.tree):
                stored = False
                where = ""
                if isinstance(item, ast.Call) and isinstance(
                    item.func, ast.Attribute
                ) and item.func.attr in MUTATING_METHODS:
                    receiver = item.func.value
                    if isinstance(receiver, ast.Name) and \
                            receiver.id in module_globals:
                        for arg in item.args:
                            if isinstance(arg, ast.Name) and \
                                    arg.id == self_name:
                                stored = True
                                where = f"registered into " \
                                        f"{info.qualname}.{receiver.id}"
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Subscript) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id in module_globals and \
                                isinstance(item.value, ast.Name) and \
                                item.value.id == self_name:
                            stored = True
                            where = f"stored into " \
                                    f"{info.qualname}.{target.value.id}"
                if stored:
                    mark(cls.qualname, where)
    # Instances constructed into module-level containers:
    # ``_HISTOGRAMS[name] = _HistogramState()``.
    for node in project.functions.values():
        module_globals = node.module.global_names
        # A def's walk yields the Assign statements of its body in the
        # same order as a walk of the body alone.
        for item in node.module.source.walk(node.tree):
            if not isinstance(item, ast.Assign):
                continue
            typ = ctor_type(item.value, node.module, project)
            if typ is None or typ.startswith("#"):
                continue
            for target in item.targets:
                escapes = (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in module_globals
                ) or (
                    isinstance(target, ast.Name)
                    and target.id in module_globals
                    and target.id not in node.params
                )
                if escapes:
                    mark(typ, f"stored into a module-level container "
                              f"by {node.short}")
    # Transitive: fields of shared classes are shared.
    def sweep() -> bool:
        changed = False
        for (cls, attr), typ in model.field_types.items():
            if cls in state.shared_classes and \
                    not typ.startswith("#") and \
                    typ in project.classes and \
                    typ not in state.shared_classes:
                mark(typ, f"held by shared class "
                          f"{project.classes[cls].name} as .{attr}")
                changed = True
        return changed

    # A changing sweep marks one more class named in field_types, so
    # this cap never binds.
    fixpoint(sweep, len(model.field_types) + 1)


def _collect_resources(model: ContextModel, state: StateModel) -> None:
    """State keys that hold fork-unsafe resources.

    Runs after :func:`_collect_reinit`: a class whose resource fields
    are all rebuilt in an after-fork child callback does not make the
    globals that hold its instances fork-unsafe.
    """
    for (mod, name), typ in model.global_types.items():
        desc = _RESOURCE_TYPES.get(typ)
        if desc is not None:
            state.resources[("global", mod, name)] = desc
        elif typ in model.project.classes:
            fields = _class_resource_fields(model, state, typ)
            if fields:
                attr, field_desc = fields[0]
                state.resources[("global", mod, name)] = (
                    f"an instance of {model.project.classes[typ].name} "
                    f"(which holds {field_desc} '{attr}')"
                )
    for (cls, attr), typ in model.field_types.items():
        desc = _RESOURCE_TYPES.get(typ)
        if desc is not None:
            state.resources[("field", cls, attr)] = desc


def _class_resource_fields(
    model: ContextModel, state: StateModel, qual: str,
) -> list[tuple[str, str]]:
    """A class's fork-unsafe fields, minus ones reinitialized at fork."""
    return [
        (attr, _RESOURCE_TYPES[typ])
        for (cls, attr), typ in sorted(model.field_types.items())
        if cls == qual and typ in _RESOURCE_TYPES
        and ("field", cls, attr) not in state.reinit_keys
    ]


def _collect_reinit(model: ContextModel, state: StateModel) -> None:
    """State rewritten in after-fork child callbacks is fork-safe."""
    for entry in model.atfork_child:
        stack = [entry]
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node.qualname in seen:
                continue
            seen.add(node.qualname)
            for access in state.accesses:
                if access.node is node and access.write:
                    state.reinit_keys.add(access.key)
                    state.reinit_attrs.add(access.key[2])
            for edge in node.calls:
                stack.append(edge.callee)
            for lam in node.inline_lambdas:
                stack.append(lam)


def build_state(model: ContextModel) -> StateModel:
    """Run every state collection pass for a solved context model."""
    state = StateModel()
    for node in model.all_nodes():
        scanner = _StateScanner(model, state, node)
        scanner.collect_awaited()
        scanner.scan()
    bind_guard_comments(model, state)
    _collect_shared_classes(model, state)
    _collect_reinit(model, state)
    _collect_resources(model, state)
    return state
