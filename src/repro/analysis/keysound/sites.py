"""Memoization-site discovery for the cache-key soundness pass.

A *site* is one place a computation's result is stored under a key:

* ``<memo>.get_or_compute(key, compute)`` — the :class:`repro.fastpath
  .Memo` protocol used by the array/gate/repeater/batch/serve layers;
* ``lru_cache`` / ``cache`` / ``cached_property`` decorated defs — the
  parameters *are* the key; the site is named by the import-resolved
  decorator (``repro.fastpath.cached_property[Unit.energy]``);
* ``<cache>.put(key, value)`` — the persistent ``EvalCache`` admission
  sites in the evaluation engine.

For each site the scanner resolves the *key component names* (which
identifiers flow into the key expression, tracing locals through
assignments and ``zip`` loop targets) and the *compute entry nodes*
(which call-graph nodes produce the cached value: decorator-bound
closure parameters via ``ContextModel.decorator_bindings``, traced
local producers and producing calls, and everything else through the
shared :meth:`~repro.analysis.concurrency.contexts.FunctionScanner
.resolve_callable`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import Node
from repro.analysis.concurrency.contexts import (
    ContextModel,
    FunctionScanner,
)

#: Terminal names of the decorators that memoize the decorated def on
#: its arguments, matched after import aliases are resolved.
LRU_DECORATORS: frozenset[str] = frozenset({
    "lru_cache", "cache", "cached_property",
})

#: Bounded depth for the intra-function producer trace.
_TRACE_DEPTH = 6

#: Names that appear in key expressions but are derivation machinery,
#: never key *data*.
_KEY_MACHINERY: frozenset[str] = frozenset({
    "stable_hash", "config_key", "extract_features", "sorted", "tuple",
    "frozenset", "str", "repr", "len", "asdict", "astuple", "dict",
    "hash", "id", "type", "isinstance", "min", "max", "round", "zip",
    "enumerate", "range",
})


@dataclass  # repro: noqa[SPEC001] -- declarations bind in post-pass
class MemoSite:
    """One memoization site and everything the rules need about it."""

    kind: str  # "memo" | "lru" | "cache-put"
    path: str
    line: int
    end_line: int
    node: Node  # the enclosing node (== compute node for "lru")
    cache_name: str  # display, e.g. "_OPTIMUM_MEMO.get_or_compute"
    key_names: frozenset[str]
    key_value_names: frozenset[str]  # plain-name subset, for KEY002
    key_opaque: bool
    compute: tuple[Node, ...]
    keyed_by: set[str] = field(default_factory=set)
    exempt: dict[str, str] = field(default_factory=dict)

    @property
    def where(self) -> str:
        return f"{self.path}:{self.line}"


class _Tracer:
    """Bounded intra-function producer trace for local names.

    Resolves ``cache.put(key, record)`` back to the expressions that
    produced ``key`` and ``record``: plain assignments, tuple-unpacking
    assignments, and ``for a, b in zip(xs, ys)`` loop targets.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        #: name -> (expr, tuple index | None); index selects a zip arm
        #: or a tuple-unpack slot.
        self.producers: dict[str, tuple[ast.expr, int | None]] = {}
        for item in node.items:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    self._note_target(target, item.value)
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                self._note_target(item.target, item.value)
            elif isinstance(item, ast.For):
                self._note_loop(item.target, item.iter)

    def _note_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.producers.setdefault(target.id, (value, None))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    self.producers.setdefault(
                        element.id, (value, index),
                    )

    def _note_loop(self, target: ast.expr, iterable: ast.expr) -> None:
        # ``for key, rec in zip(keys, records)``: position selects the
        # zip arm; a plain iterable maps every target to it whole.
        if isinstance(target, ast.Name):
            self.producers.setdefault(target.id, (iterable, None))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    self.producers.setdefault(
                        element.id, (iterable, index),
                    )

    def resolve(self, expr: ast.expr, depth: int = 0) -> ast.expr:
        """The most informative producer expression behind ``expr``."""
        if depth >= _TRACE_DEPTH:
            return expr
        if isinstance(expr, ast.Name):
            produced = self.producers.get(expr.id)
            if produced is None:
                return expr
            value, index = produced
            value = self._select(value, index)
            if value is expr:
                return expr
            return self.resolve(value, depth + 1)
        if isinstance(expr, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self.resolve(expr.elt, depth + 1)
        if isinstance(expr, ast.Starred):
            return self.resolve(expr.value, depth + 1)
        return expr

    def _select(self, value: ast.expr, index: int | None) -> ast.expr:
        if index is None:
            return value
        if isinstance(value, ast.Call) and isinstance(
            value.func, ast.Name
        ) and value.func.id == "zip" and index < len(value.args):
            return value.args[index]
        if isinstance(value, (ast.Tuple, ast.List)) and \
                index < len(value.elts):
            return value.elts[index]
        return value


def key_component_names(
    expr: ast.expr,
) -> tuple[frozenset[str], frozenset[str]]:
    """Identifier components of a key expression.

    Returns ``(all_names, value_names)``. ``all_names`` is every
    contributing identifier — loaded names plus attribute terminals,
    excluding callable heads (``stable_hash(...)`` contributes its
    arguments, not its own name) and derivation machinery — and feeds
    the KEY001 coverage check. ``value_names`` is the plain-name
    subset: names not reached through an attribute projection like
    ``record.key``, for which absence from the compute's mention set
    is a meaningful never-read test (KEY002). An attribute projection
    routinely stands in for a value the compute reads under another
    name (``record.key`` *is* ``config_key(config)``), so projections
    are exempt from the over-keying check.
    """
    heads: set[int] = set()
    in_attribute: set[int] = set()
    for item in ast.walk(expr):
        if isinstance(item, ast.Call):
            target = item.func
            while isinstance(target, ast.Attribute):
                heads.add(id(target))
                target = target.value
            heads.add(id(target))
        elif isinstance(item, ast.Attribute):
            for sub in ast.walk(item):
                if isinstance(sub, ast.Name):
                    in_attribute.add(id(sub))
    names: set[str] = set()
    plain: set[str] = set()
    for item in ast.walk(expr):
        if id(item) in heads:
            continue
        if isinstance(item, ast.Name) and isinstance(item.ctx, ast.Load):
            names.add(item.id)
            if id(item) not in in_attribute:
                plain.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
    return (
        frozenset(names - _KEY_MACHINERY),
        frozenset(plain - _KEY_MACHINERY),
    )


class _SiteScanner:
    """Discover the memo sites inside one node."""

    def __init__(self, model: ContextModel, node: Node) -> None:
        self.model = model
        self.node = node
        self.tracer = _Tracer(node)
        self.calls = FunctionScanner(model, node)

    # -- compute resolution ----------------------------------------------

    def _param_owner(self, name: str) -> Node | None:
        """This node, or else the nearest enclosing def, that has a
        parameter ``name``."""
        for scope in self.model.project.scopes(self.node):
            if name in scope.params:
                return scope
        return None

    def resolve_compute(self, expr: ast.expr) -> tuple[Node, ...]:
        """The nodes that compute a cached value.

        Steps of its own come first: a closure parameter of a decorator
        is every function it decorates, a local is traced to its
        producer, and a producing call resolves to its callee. Anything
        else goes to :meth:`FunctionScanner.resolve_callable`.
        """
        if isinstance(expr, ast.Name):
            owner = self._param_owner(expr.id)
            if owner is not None:
                # A closure/callable parameter: if the owner is a
                # decorator, the bound callables are the real computes.
                bound = self.model.decorator_bindings.get(
                    owner.qualname, [],
                )
                return tuple(bound)
            produced = self.tracer.resolve(expr)
            if produced is not expr:
                return self.resolve_compute(produced)
        found, _ = self.calls.resolve_callable(expr)
        if not found and isinstance(expr, ast.Call):
            # A producing call: the callee computes the cached value.
            return self.resolve_compute(expr.func)
        return tuple(found)

    # -- key resolution --------------------------------------------------

    def resolve_key(
        self, expr: ast.expr,
    ) -> tuple[frozenset[str], frozenset[str], bool]:
        produced = self.tracer.resolve(expr)
        names, value_names = key_component_names(produced)
        opaque = False
        if isinstance(produced, ast.Name):
            # An untraceable bare name (typically a key *parameter*):
            # the composition is invisible from here.
            opaque = True
        if names & self._packed_param_names():
            # ``stable_hash(args)`` over a ``*args`` pack: the key
            # covers an unknowable set of values, so over-keying can't
            # be judged (KEY001 name checks still apply).
            opaque = True
        return names, value_names, opaque

    def _packed_param_names(self) -> set[str]:
        """``*args``/``**kwargs`` names of this node and its closures."""
        names: set[str] = set()
        for scope in self.model.project.scopes(self.node):
            formals = scope.tree.args
            if formals.vararg is not None:
                names.add(formals.vararg.arg)
            if formals.kwarg is not None:
                names.add(formals.kwarg.arg)
        return names

    # -- discovery -------------------------------------------------------

    def scan(self) -> list[MemoSite]:
        sites: list[MemoSite] = []
        for item in self.node.items:
            if not isinstance(item, ast.Call):
                continue
            func = item.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "get_or_compute" and len(item.args) >= 2:
                sites.append(self._memo_site(item, func))
            elif func.attr == "put" and len(item.args) >= 2 and \
                    self._cache_receiver(func.value):
                sites.append(self._put_site(item, func))
        return sites

    def _memo_site(self, call: ast.Call,
                   func: ast.Attribute) -> MemoSite:
        receiver = _terminal(func.value) or "memo"
        key_names, value_names, opaque = self.resolve_key(call.args[0])
        return MemoSite(
            kind="memo",
            path=self.node.module.path,
            line=call.lineno,
            end_line=call.end_lineno or call.lineno,
            node=self.node,
            cache_name=f"{receiver}.get_or_compute",
            key_names=key_names,
            key_value_names=value_names,
            key_opaque=opaque,
            compute=self.resolve_compute(call.args[1]),
        )

    def _cache_receiver(self, expr: ast.expr) -> bool:
        """Whether a ``.put`` receiver looks like the EvalCache."""
        name = _terminal(expr)
        if name is not None and "cache" in name.lower():
            return True
        typ = None
        if isinstance(expr, ast.Name):
            typ = self.model.global_types.get(
                (self.node.module.qualname, expr.id)
            )
        elif isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ) and expr.value.id == self.node.self_name and \
                self.node.owner is not None:
            typ = self.model.field_types.get(
                (self.node.owner.qualname, expr.attr)
            )
        return typ is not None and typ.endswith(".EvalCache")

    def _put_site(self, call: ast.Call, func: ast.Attribute) -> MemoSite:
        receiver = _terminal(func.value) or "cache"
        key_names, value_names, opaque = self.resolve_key(call.args[0])
        return MemoSite(
            kind="cache-put",
            path=self.node.module.path,
            line=call.lineno,
            end_line=call.end_lineno or call.lineno,
            node=self.node,
            cache_name=f"{receiver}.put",
            key_names=key_names,
            key_value_names=value_names,
            key_opaque=opaque,
            compute=self.resolve_compute(call.args[1]),
        )


def _terminal(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _lru_sites(model: ContextModel) -> list[MemoSite]:
    sites: list[MemoSite] = []
    for node in model.project.functions.values():
        for dec in node.tree.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            chain = node.module.qualify(target)
            if chain is None or \
                    chain.rsplit(".", 1)[-1] not in LRU_DECORATORS:
                continue
            bindable = [slot.name for slot in node.bindable]
            sites.append(MemoSite(
                kind="lru",
                path=node.module.path,
                line=node.tree.lineno,
                end_line=node.tree.body[0].lineno - 1 if node.tree.body
                else node.tree.lineno,
                node=node,
                cache_name=f"{chain}[{node.short}]",
                key_names=frozenset(bindable),
                key_value_names=frozenset(bindable),
                key_opaque=False,
                compute=(node,),
            ))
            break
    return sites


def discover_sites(model: ContextModel) -> list[MemoSite]:
    """Every memoization site in the project, in a stable order."""
    sites: list[MemoSite] = []
    for node in model.all_nodes():
        sites.extend(_SiteScanner(model, node).scan())
    sites.extend(_lru_sites(model))
    sites.sort(key=lambda site: (site.path, site.line, site.cache_name))
    return sites
