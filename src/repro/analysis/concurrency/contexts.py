"""Execution-context inference for the concurrency analysis.

Every function in the project runs in one or more *execution contexts*:

* ``main`` — ordinary synchronous code (module import, the CLI, tests);
* ``event-loop`` — the body of an ``async def`` and every synchronous
  function it calls without an executor hop;
* ``executor-thread`` — targets of ``ThreadPoolExecutor.submit`` /
  ``loop.run_in_executor`` / ``threading.Thread`` and everything they
  call (an executor is *always* multi-threaded, so this context alone
  implies concurrent execution);
* ``fork-worker`` — targets of ``ProcessPoolExecutor.submit`` /
  ``multiprocessing.Process`` and ``os.register_at_fork``
  ``after_in_child`` callbacks (a separate address space: it does not
  race with the parent, but it *inherits* the parent's locks and file
  handles, which is what ``CONC003`` checks).

Contexts propagate along the project call graph to a fixpoint. The
graph's nodes are the shared :class:`~repro.analysis.callgraph.Node`
records that :func:`~repro.analysis.callgraph.build_project` makes,
one per def, plus one per inline lambda made here; its edges come from
:meth:`FunctionScanner.resolve_callable`, the one resolver for
callable expressions, which the keysound pass reuses. Propagation also
runs through *escaping callable parameters*: when ``_admitted(work)``
hands ``work`` to ``run_in_executor``, every callable an outside caller
binds to ``work`` is marked ``executor-thread`` — that is how the serve
tier's evaluation lambdas are tracked onto the executor.

Each context a node acquires carries a human-readable *why* chain
(``"submitted to a thread executor at app.py:357 by _admitted"``) that
the CONC rules embed in their findings, mirroring the DIM inference
chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    CallableArg,
    CallEdge,
    ClassInfo,
    ModuleInfo,
    Node,
    ParamSlot,
    Project,
    SpawnEdge,
    fixpoint,
)

#: Context names (values appear verbatim in findings).
MAIN = "main"
LOOP = "event-loop"
THREAD = "executor-thread"
FORK = "fork-worker"

#: Safety cap on fixpoint sweeps; real projects converge in 3-6.
MAX_PASSES = 24

#: Cap on duck-typed method resolution: a method name this ambiguous is
#: skipped rather than fanning context facts across unrelated classes.
_MAX_DUCK_CANDIDATES = 12

#: Method names shared with the builtin container/str protocols; an
#: attribute call with an *unknown* receiver type and one of these names
#: is almost always a dict/list/str operation, so duck-typed resolution
#: would wire unrelated classes together (every ``payload.get(...)``
#: would reach ``EvalCache.get``). Typed receivers still resolve.
_BUILTIN_COLLISIONS: frozenset[str] = frozenset(
    set(dir(dict)) | set(dir(list)) | set(dir(set)) | set(dir(str))
    | set(dir(tuple)) | set(dir(bytes)) | set(dir(frozenset))
    | set(dir(int)) | set(dir(float))
)

#: Pseudo-types for stdlib concurrency objects (values of the type maps).
T_THREAD_EXECUTOR = "#thread-executor"
T_PROCESS_EXECUTOR = "#process-executor"
T_THREAD = "#thread"
T_PROCESS = "#process"
T_LOCK = "#lock"
T_FILE = "#file"
T_SOCKET = "#socket"

#: Constructor name -> pseudo-type, for stdlib concurrency/resource
#: objects resolved by terminal callable name.
_STDLIB_CTORS: dict[str, str] = {
    "ThreadPoolExecutor": T_THREAD_EXECUTOR,
    "ProcessPoolExecutor": T_PROCESS_EXECUTOR,
    "Pool": T_PROCESS_EXECUTOR,
    "Thread": T_THREAD,
    "Process": T_PROCESS,
    "Lock": T_LOCK,
    "RLock": T_LOCK,
    "Condition": T_LOCK,
    "Semaphore": T_LOCK,
    "BoundedSemaphore": T_LOCK,
    "open": T_FILE,
    "socket": T_SOCKET,
    "create_connection": T_SOCKET,
}

#: ``asyncio`` constructors whose pseudo-types must NOT be treated as
#: thread-level locks or resources (an ``asyncio.Lock`` lives on the
#: loop; an ``asyncio.Semaphore`` is not a fork hazard).
_ASYNC_MODULES = frozenset({"asyncio"})


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ContextModel:
    """Everything the CONC rules consume about who runs where."""

    project: Project
    lambda_nodes: list[Node] = field(default_factory=list)
    ctx: dict[str, set[str]] = field(default_factory=dict)
    why: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (node qual, param name) -> contexts the param escapes into.
    escapes: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    #: entry nodes of fork workers (spawn targets + at-fork callbacks).
    fork_entries: list[Node] = field(default_factory=list)
    #: nodes registered as ``os.register_at_fork(after_in_child=...)``.
    atfork_child: list[Node] = field(default_factory=list)
    #: (module_qual, name) -> pseudo/class type of a module global.
    global_types: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (class qual, attr) -> pseudo/class type of an instance field.
    field_types: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (module_qual, name) -> element type of an annotated container.
    elem_types: dict[tuple[str, str], str] = field(default_factory=dict)
    #: project-decorator qualname -> nodes decorated with it, so the
    #: analyses can resolve wrapper-internal calls of the bound callable
    #: parameter back to the real decorated functions.
    decorator_bindings: dict[str, list[Node]] = field(default_factory=dict)
    passes: int = 0

    def all_nodes(self) -> list[Node]:
        """Every def node in ``project.functions`` order, then every
        lambda node in creation order."""
        return [*self.project.functions.values(), *self.lambda_nodes]

    def contexts(self, node: Node) -> frozenset[str]:
        return frozenset(self.ctx.get(node.qualname, ()))

    def reason(self, node: Node, context: str) -> str:
        return self.why.get(
            (node.qualname, context), f"runs in {context}",
        )


def _short_why(why: str) -> str:
    if len(why) > 200:
        why = why[:197] + "..."
    return why


class _TypeEnv:
    """Per-function name -> type map (params, locals, module globals)."""

    def __init__(self, model: ContextModel, node: Node) -> None:
        self.model = model
        self.node = node
        self.local: dict[str, str] = {}

    def lookup(self, name: str) -> str | None:
        if name in self.local:
            return self.local[name]
        key = (self.node.module.qualname, name)
        got = self.model.global_types.get(key)
        if got is not None:
            return got
        # Imported symbol that is itself a class.
        binding = self.node.module.bind(name)
        if binding is not None and not binding.local and \
                binding.target in self.model.project.classes:
            return binding.target
        return None


def ctor_type(call: ast.expr, module: ModuleInfo,
              project: Project) -> str | None:
    """Type of a constructor-call expression, or None."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    terminal: str | None = None
    if isinstance(func, ast.Name):
        terminal = func.id
        binding = module.bind(terminal)
        if binding is not None:
            if binding.target in project.classes:
                return binding.target
            if binding.target.split(".")[0] in _ASYNC_MODULES:
                return None
    elif isinstance(func, ast.Attribute):
        terminal = func.attr
        chain = module.qualify(func)
        if chain is not None:
            head = chain.split(".")[0]
            if head in _ASYNC_MODULES:
                return None
            if chain in project.classes:
                return chain
    if terminal in _STDLIB_CTORS:
        return _STDLIB_CTORS[terminal]
    return None


def _annotation_classes(ann: ast.expr, module: ModuleInfo,
                        project: Project) -> list[str]:
    """Project classes named anywhere inside a type annotation."""
    found: list[str] = []
    for sub in ast.walk(ann):
        name: str | None = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value  # forward reference
        if name is None:
            continue
        binding = module.bind(name)
        if binding is not None and binding.target in project.classes:
            found.append(binding.target)
            continue
        for cls in project.class_by_name.get(name, []):
            found.append(cls.qualname)
            break
    return found


def _collect_types(model: ContextModel) -> None:
    """Pre-pass: module-global and instance-field types."""
    project = model.project
    for info in project.by_qual.values():
        for stmt in info.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            ann: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
                ann = stmt.annotation
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                key = (info.qualname, target.id)
                if value is not None:
                    typ = ctor_type(value, info, project)
                    if typ is not None:
                        model.global_types[key] = typ
                if ann is not None:
                    # list["Memo"]-style element types for containers.
                    if isinstance(ann, ast.Subscript):
                        elems = _annotation_classes(ann.slice, info, project)
                        if elems:
                            model.elem_types[key] = elems[0]
                    classes = _annotation_classes(ann, info, project)
                    if classes and key not in model.global_types:
                        model.global_types[key] = classes[0]
    for cls in project.classes.values():
        info = cls.module
        for method in cls.methods.values():
            self_name = method.self_name
            if self_name is None:
                continue
            for stmt in info.source.walk(method.tree):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                        and stmt.value is not None
                    ):
                        typ = ctor_type(stmt.value, info, project)
                        key = (cls.qualname, target.attr)
                        if typ is not None:
                            model.field_types.setdefault(key, typ)
    # Annotated constructor params often document field types
    # (``cache: EvalCache | None``); fold __init__ annotations in.
    for cls in project.classes.values():
        init = cls.methods.get("__init__")
        if init is None:
            continue
        args = init.tree.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            classes = _annotation_classes(arg.annotation, cls.module,
                                          project)
            if classes:
                model.field_types.setdefault(
                    (cls.qualname, arg.arg), classes[0],
                )


class FunctionScanner:
    """Extract call/spawn/callable-arg edges from one node's body."""

    def __init__(self, model: ContextModel, node: Node) -> None:
        self.model = model
        self.node = node
        self.env = _TypeEnv(model, node)
        self.aliases: dict[str, list[Node]] = {}

    # -- resolution ------------------------------------------------------

    def _function_by_name(self, name: str) -> Node | None:
        """The node a bare name calls: a def, or an imported class's
        ``__init__`` (a class of this module is not followed)."""
        module = self.node.module
        found = self.model.project.resolve_name(module, name, self.node)
        if isinstance(found, ClassInfo):
            if found.module is module:
                return None
            return found.methods.get("__init__")
        return found

    def _methods_named(self, attr: str,
                       receiver_type: str | None) -> list[Node]:
        project = self.model.project
        if receiver_type is not None and not receiver_type.startswith("#"):
            cls = project.classes.get(receiver_type)
            if cls is not None:
                method = cls.methods.get(attr)
                return [method] if method is not None else []
        if attr in _BUILTIN_COLLISIONS:
            return []
        candidates = project.attr_funcs.get(attr, [])
        if not candidates or len(candidates) > _MAX_DUCK_CANDIDATES:
            return []
        return list(candidates)

    def _expr_type(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return self.env.lookup(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if expr.value.id == self.node.self_name \
                    and self.node.owner is not None:
                return self.model.field_types.get(
                    (self.node.owner.qualname, expr.attr)
                )
            base = self.env.lookup(expr.value.id)
            if base is not None and not base.startswith("#"):
                return self.model.field_types.get((base, expr.attr))
        if isinstance(expr, ast.Call):
            return ctor_type(expr, self.node.module, self.model.project)
        return None

    def resolve_callable(
        self, expr: ast.expr,
    ) -> tuple[list[Node], str | None]:
        """Nodes an expression may refer to, plus the caller param name
        when the expression *is* one of this node's parameters.

        The one resolver for callable expressions, used by this pass
        and the keysound pass: a lambda, a local alias, a bare name (a
        def, nested ones included, or an imported class's
        ``__init__``), a dotted chain, a method by receiver type or by
        unique-enough name, both arms of ``a if c else b``, and
        ``functools.partial(fn, ...)``.
        """
        if isinstance(expr, ast.Lambda):
            return [self._lambda_node(expr)], None
        if isinstance(expr, ast.Name):
            if expr.id in self.aliases:
                return list(self.aliases[expr.id]), None
            if expr.id in self.node.params:
                return [], expr.id
            fn = self._function_by_name(expr.id)
            return ([fn] if fn is not None else []), None
        if isinstance(expr, ast.Attribute):
            receiver_type = None
            if isinstance(expr.value, ast.Name):
                if expr.value.id == self.node.self_name \
                        and self.node.owner is not None:
                    receiver_type = self.node.owner.qualname
                else:
                    receiver_type = self.env.lookup(expr.value.id)
            else:
                receiver_type = self._expr_type(expr.value)
            if receiver_type is None:
                chain = self.node.module.qualify(expr)
                direct = self.model.project.functions.get(chain) \
                    if chain is not None else None
                if direct is not None:
                    return [direct], None
            return self._methods_named(expr.attr, receiver_type), None
        if isinstance(expr, ast.IfExp):
            left, _ = self.resolve_callable(expr.body)
            right, _ = self.resolve_callable(expr.orelse)
            return left + right, None
        if isinstance(expr, ast.Call) and expr.args:
            # ``functools.partial(fn, ...)`` call sites: the partial
            # object runs ``fn``, so resolve through to it.
            chain = self.node.module.qualify(expr.func)
            if chain is not None and chain.rsplit(".", 1)[-1] == "partial":
                return self.resolve_callable(expr.args[0])
        return [], None

    def _lambda_node(self, expr: ast.Lambda) -> Node:
        for known in self.node.inline_lambdas:
            if known.tree is expr:
                return known
        made = Node(
            qualname=(f"{self.node.qualname}.<lambda:{expr.lineno}:"
                      f"{len(self.node.inline_lambdas) + 1}>"),
            module=self.node.module,
            tree=expr,
            slots=[ParamSlot(a.arg, None) for a in expr.args.args],
            owner=self.node.owner,
            self_name=self.node.self_name,
            enclosing=self.node,
        )
        self.node.inline_lambdas.append(made)
        self.model.lambda_nodes.append(made)
        return made

    # -- extraction ------------------------------------------------------

    def scan(self) -> None:
        self._collect_aliases()
        own = self.node.items
        lambda_bodies = [
            item for item in own if isinstance(item, ast.Lambda)
        ]
        skip: set[int] = set()
        for lam in lambda_bodies:
            node = self._lambda_node(lam)
            skip.update(id(item) for item in node.items)
            lam_scanner = FunctionScanner(self.model, node)
            lam_scanner.aliases = self.aliases
            lam_scanner._scan_calls(list(ast.walk(lam.body)), set())
        self._scan_calls(own, skip)

    def _collect_aliases(self) -> None:
        for item in self.node.items:
            if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name):
                name = item.targets[0].id
                candidates, _ = self.resolve_callable(item.value)
                if candidates:
                    self.aliases[name] = candidates
                typ = self._expr_type(item.value)
                if typ is not None:
                    self.env.local[name] = typ
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                classes = _annotation_classes(
                    item.annotation, self.node.module, self.model.project,
                )
                if classes:
                    self.env.local[item.target.id] = classes[0]
            elif isinstance(item, ast.With):
                for w in item.items:
                    if isinstance(w.optional_vars, ast.Name):
                        typ = self._expr_type(w.context_expr)
                        if typ is not None:
                            self.env.local[w.optional_vars.id] = typ
            elif isinstance(item, ast.For) and isinstance(
                item.target, ast.Name
            ) and isinstance(item.iter, ast.Name):
                key = (self.node.module.qualname, item.iter.id)
                elem = self.model.elem_types.get(key)
                if elem is not None:
                    self.env.local[item.target.id] = elem

    def _spawn_of(self, call: ast.Call) -> list[tuple[ast.expr, str, str]]:
        """(target expr, context, how) triples if ``call`` spawns work."""
        func = call.func
        out: list[tuple[ast.expr, str, str]] = []

        def kwarg(name: str) -> ast.expr | None:
            for kw in call.keywords:
                if kw.arg == name:
                    return kw.value
            return None

        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in ("submit", "map") and call.args:
                receiver = self._expr_type(func.value)
                if receiver == T_PROCESS_EXECUTOR:
                    out.append((call.args[0], FORK,
                                "submitted to a process pool"))
                else:
                    out.append((call.args[0], THREAD,
                                "submitted to a thread executor"))
                return out
            if attr == "run_in_executor" and len(call.args) >= 2:
                out.append((call.args[1], THREAD,
                            "handed to run_in_executor"))
                return out
        chain = self.node.module.qualify(func) or ""
        terminal = chain.rsplit(".", 1)[-1]
        if chain == "asyncio.to_thread" and call.args:
            out.append((call.args[0], THREAD, "handed to asyncio.to_thread"))
        elif terminal == "Thread" and chain.startswith(("threading.", "Thread")):
            target = kwarg("target") or (
                call.args[1] if len(call.args) >= 2 else None
            )
            if target is not None:
                out.append((target, THREAD, "made a threading.Thread target"))
        elif terminal == "Process" and chain.startswith(
            ("multiprocessing.", "Process")
        ):
            target = kwarg("target") or (
                call.args[1] if len(call.args) >= 2 else None
            )
            if target is not None:
                out.append((target, FORK,
                            "made a multiprocessing.Process target"))
        elif chain == "os.register_at_fork":
            child = kwarg("after_in_child")
            if child is not None:
                out.append((child, FORK,
                            "registered as an after-fork child callback"))
        return out

    def _scan_calls(self, own: list[ast.AST], skip: set[int]) -> None:
        for item in own:
            if id(item) in skip or not isinstance(item, ast.Call):
                continue
            spawned_args: set[int] = set()
            for target_expr, context, how in self._spawn_of(item):
                spawned_args.add(id(target_expr))
                candidates, caller_param = self.resolve_callable(
                    target_expr
                )
                for target in candidates:
                    target.is_spawn_target = True
                    self.node.spawns.append(SpawnEdge(
                        target=target, context=context,
                        line=item.lineno, how=how,
                    ))
                    if context == FORK:
                        if how.startswith("registered"):
                            self.model.atfork_child.append(target)
                        self.model.fork_entries.append(target)
                if caller_param is not None:
                    self.model.escapes.setdefault(
                        (self.node.qualname, caller_param), set(),
                    ).add(context)
            callees, _ = self.resolve_callable(item.func)
            for callee in callees:
                callee.in_degree += 1
                self.node.calls.append(CallEdge(
                    callee=callee, line=item.lineno,
                ))
            # Callable arguments bound to callee params (higher order).
            for callee in callees:
                params = [slot.name for slot in callee.bindable]
                for i, arg in enumerate(item.args):
                    if id(arg) in spawned_args or i >= len(params):
                        continue
                    self._note_callable_arg(callee, params[i], arg, item)
                for kw in item.keywords:
                    if kw.arg is None or id(kw.value) in spawned_args:
                        continue
                    if kw.arg in params:
                        self._note_callable_arg(
                            callee, kw.arg, kw.value, item,
                        )

    def _note_callable_arg(self, callee: Node, param: str,
                           arg: ast.expr, call: ast.Call) -> None:
        if not isinstance(arg, (ast.Lambda, ast.Name, ast.Attribute,
                                ast.Call)):
            return
        candidates, caller_param = self.resolve_callable(arg)
        if not candidates and caller_param is None:
            return
        self.node.callable_args.append(CallableArg(
            callee=callee, param=param,
            candidates=tuple(candidates),
            caller_param=caller_param, line=call.lineno,
        ))


def _bind_decorators(model: ContextModel) -> None:
    """Resolve project decorators (``functools.wraps``-style wrappers).

    ``@memoized def solve(...)`` binds ``solve`` to the decorator's
    first parameter; the wrapper closure then calls that parameter.
    Without this pass the wrapped function escapes every whole-program
    walk: the wrapper's ``fn(*args)`` resolves to nothing. Here every
    decorated function is (a) recorded in ``decorator_bindings`` for
    the keysound pass, (b) registered as a callable bound to the
    decorator's first parameter (so escape facts propagate), and (c)
    wired with real call edges from each wrapper-scope call of the
    parameter, so context and effect propagation reach it.
    """
    functions = model.project.functions
    for node in functions.values():
        for dec in node.tree.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            dec_qual: str | None = None
            if isinstance(target, ast.Name):
                binding = node.module.bind(target.id)
                dec_qual = binding.target if binding is not None else None
            elif isinstance(target, ast.Attribute):
                dec_qual = node.module.qualify(target)
            if dec_qual is None:
                continue
            dec_node = functions.get(dec_qual)
            if dec_node is None or not dec_node.params:
                continue
            model.decorator_bindings.setdefault(
                dec_node.qualname, [],
            ).append(node)
            dec_node.callable_args.append(CallableArg(
                callee=dec_node, param=dec_node.params[0],
                candidates=(node,), caller_param=None,
                line=node.tree.lineno,
            ))
    # Wrapper-scope calls of the bound parameter become real edges to
    # every decorated function.
    all_nodes = model.all_nodes()
    for dec_qual, bound in model.decorator_bindings.items():
        dec_node = functions[dec_qual]
        param = dec_node.params[0]
        prefix = dec_qual + "."
        scoped = [dec_node] + [
            n for n in all_nodes if n.qualname.startswith(prefix)
        ]
        for wrapper in scoped:
            for item in wrapper.items:
                if isinstance(item, ast.Call) and isinstance(
                    item.func, ast.Name
                ) and item.func.id == param:
                    for target in bound:
                        target.in_degree += 1
                        wrapper.calls.append(CallEdge(
                            callee=target, line=item.lineno,
                        ))


def _scan_module_atfork(model: ContextModel) -> None:
    """Module-level ``os.register_at_fork`` registrations.

    Reinit callbacks are conventionally registered at import time
    (often inside a ``hasattr`` guard); the function scanner only sees
    calls inside function bodies, so collect these from module bodies.
    """
    for info in model.project.by_qual.values():
        for call in _import_time_calls(info):
            if info.qualify(call.func) != "os.register_at_fork":
                continue
            for kw in call.keywords:
                if kw.arg != "after_in_child" or \
                        not isinstance(kw.value, ast.Name):
                    continue
                binding = info.bind(kw.value.id)
                target = model.project.functions.get(binding.target) \
                    if binding is not None else None
                if target is None:
                    continue
                target.is_spawn_target = True
                model.atfork_child.append(target)
                model.fork_entries.append(target)
                _add_ctx(
                    model, target, FORK,
                    "registered as an after-fork child callback "
                    f"at import time in {info.qualname}",
                )


def _import_time_calls(info: ModuleInfo):
    """Every call in a module's top-level statements, def and class
    bodies excluded."""
    for item in info.tree.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for sub in ast.walk(item):
            if isinstance(sub, ast.Call):
                yield sub


def _seed(model: ContextModel) -> None:
    """Initial contexts before propagation."""
    # Module-level calls run at import time: their callees are main.
    for info in model.project.by_qual.values():
        for call in _import_time_calls(info):
            binding = info.bind(call.func.id) \
                if isinstance(call.func, ast.Name) else None
            local = model.project.functions.get(binding.target) \
                if binding is not None and binding.local else None
            if local is not None:
                local.in_degree += 1
                _add_ctx(model, local, MAIN,
                         f"called at import time in {info.qualname}")
    for node in model.project.functions.values():
        if node.is_async:
            _add_ctx(model, node, LOOP,
                     "async def: its body runs on the event loop")
        elif node.in_degree == 0 and not node.is_spawn_target:
            _add_ctx(model, node, MAIN,
                     "assumed program entry (no in-project caller)")


def _add_ctx(model: ContextModel, node: Node, context: str,
             why: str) -> bool:
    bucket = model.ctx.setdefault(node.qualname, set())
    if context in bucket:
        return False
    bucket.add(context)
    model.why.setdefault((node.qualname, context), _short_why(why))
    return True


def solve_contexts(model: ContextModel) -> None:
    """Propagate contexts along call/spawn/escape edges to a fixpoint."""
    all_nodes = model.all_nodes()

    def sweep() -> bool:
        changed = False
        for node in all_nodes:
            # Lambdas run where their enclosing function runs, unless
            # they only exist to be spawned elsewhere.
            if node.enclosing is not None and not node.is_spawn_target:
                for context in model.contexts(node.enclosing):
                    changed |= _add_ctx(
                        model, node, context,
                        f"closure evaluated inline by {node.enclosing.short}"
                        f" ({model.reason(node.enclosing, context)})",
                    )
            contexts = model.contexts(node)
            # Escape facts are structural: propagate them regardless of
            # whether anything runs this node yet.
            for carg in node.callable_args:
                escaped = model.escapes.get(
                    (carg.callee.qualname, carg.param), set(),
                )
                for context in escaped:
                    why = (
                        f"bound to parameter '{carg.param}' of "
                        f"{carg.callee.short} at "
                        f"{node.module.path}:{carg.line}, which "
                        f"{model.why.get((carg.callee.qualname + ':escape', carg.param), 'hands it to an executor')}"
                    )
                    for cand in carg.candidates:
                        cand.is_spawn_target = True
                        changed |= _add_ctx(model, cand, context, why)
                    if carg.caller_param is not None:
                        bucket = model.escapes.setdefault(
                            (node.qualname, carg.caller_param), set(),
                        )
                        if context not in bucket:
                            bucket.add(context)
                            changed = True
            if not contexts:
                continue
            for spawn in node.spawns:
                changed |= _add_ctx(
                    model, spawn.target, spawn.context,
                    f"{spawn.how} at {node.module.path}:{spawn.line} "
                    f"by {node.short}",
                )
            for edge in node.calls:
                if edge.callee.is_async:
                    continue  # seeded with event-loop already
                for context in contexts:
                    changed |= _add_ctx(
                        model, edge.callee, context,
                        f"called from {node.short} "
                        f"({model.reason(node, context)})",
                    )
        return changed

    model.passes = fixpoint(sweep, MAX_PASSES)


def build_contexts(project: Project) -> ContextModel:
    """Resolve edges and solve execution contexts for a project.

    The edges are written onto the project's own nodes, so build one
    context model per project.
    """
    model = ContextModel(project=project)
    _collect_types(model)
    for node in list(project.functions.values()):
        FunctionScanner(model, node).scan()
    # Escaping spawn params get a readable description for why-chains.
    for (qual, param), contexts in model.escapes.items():
        for context in contexts:
            model.why.setdefault(
                (qual + ":escape", param),
                f"hands '{param}' to a {context} spawn",
            )
    _bind_decorators(model)
    _scan_module_atfork(model)
    _seed(model)
    solve_contexts(model)
    # A node spawned or registered at several sites is one entry.
    model.fork_entries = list({
        id(entry): entry for entry in model.fork_entries
    }.values())
    return model
