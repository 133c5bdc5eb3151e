"""Parsed-module container and the project-wide memoization index.

The cache-purity rules need cross-file knowledge: ``tests/`` call sites
mutating the return of ``build_array`` can only be flagged if the linter
knows ``build_array`` (defined in ``repro.array``) is memoized. The
:class:`ProjectIndex` is that knowledge, built in a cheap pre-pass over
every module before any rule runs.

A function is considered *memoized* when its body calls
``<memo>.get_or_compute(...)`` (the :class:`repro.fastpath.Memo`
protocol) or builds a cache key through ``stable_hash`` /
``config_key``. The compute callback handed to ``get_or_compute`` is
memoized by extension: its return value is the object the memo shares.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field

from repro.fastpath import cached_property

#: Key-derivation callables that mark the enclosing function as part of
#: the content-hash cache contract.
KEY_FUNCTIONS = frozenset({"stable_hash", "config_key"})


#: ``(line, text)`` of every comment token in a module, in file order.
CommentTokens = tuple[tuple[int, str], ...]

#: Nodes :meth:`ModuleSource.walk` accepts besides the module tree.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def scan_comments(source: str) -> CommentTokens:
    """Every comment of ``source``, found with :mod:`tokenize`.

    Mentions inside strings and docstrings are not comments and are
    never returned. A file that does not tokenize yields no comments;
    the runner reports it as ``SYNTAX`` instead.
    """
    try:
        return tuple(
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return ()


@dataclass(frozen=True)
class ModuleSource:
    """One parsed Python module."""

    path: str
    source: str
    tree: ast.Module

    @cached_property
    def comments(self) -> CommentTokens:
        """The module's comment table, tokenized once per instance.

        Every ``# repro:`` grammar (``noqa``, ``dim``, ``guarded-by``,
        ``keyed-by``/``key-exempt``) reads this one table. Each grammar
        requires ``repro:`` in the comment, so a source without that
        substring is not tokenized and yields ``()``.
        """
        if "repro:" not in self.source:
            return ()
        return scan_comments(self.source)

    @cached_property
    def _walks(self) -> dict[int, tuple[ast.AST, ...] | None]:
        """``id`` of the tree and of each def/class in it -> its walk.

        The tree keeps every key's node alive, so an ``id`` here can
        never belong to another object. ``None`` marks a scope not
        walked yet.
        """
        order = tuple(ast.walk(self.tree))
        walks: dict[int, tuple[ast.AST, ...] | None] = {
            id(node): None for node in order if isinstance(node, _SCOPES)
        }
        walks[id(self.tree)] = order
        return walks

    def walk(self, node: ast.AST | None = None) -> tuple[ast.AST, ...]:
        """``tuple(ast.walk(node))``, computed once per node.

        ``node`` defaults to the module tree; otherwise it must be a
        def, async def or class of this module's tree. Rules and passes
        iterate this instead of calling :func:`ast.walk` over module and
        def nodes, so each subtree's traversal order is built once per
        lint run.

        Raises:
            ValueError: ``node`` is not the tree or one of its scopes.
        """
        if node is None:
            node = self.tree
        try:
            order = self._walks[id(node)]
        except KeyError:
            raise ValueError(
                f"{type(node).__name__} is not a def or class of "
                f"{self.path}"
            ) from None
        if order is None:
            order = self._walks[id(node)] = tuple(ast.walk(node))
        return order


def _call_name(node: ast.expr) -> str | None:
    """Terminal name of a callable expression (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _compute_target(node: ast.expr) -> str | None:
    """Name of the compute callback passed to ``get_or_compute``.

    Handles the three idioms in the tree: a bare function reference, a
    bound-method reference (``self._solve``), and a zero-arg lambda
    closing over the arguments (``lambda: _solve(a, b)``).
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _call_name(node)
    if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
        return _call_name(node.body.func)
    return None


@dataclass(frozen=True)
class ProjectIndex:
    """Cross-module facts the purity rules consume.

    Frozen bindings; the sets themselves are filled during
    :meth:`scan` and read-only afterwards.

    Attributes:
        memoized_defs: Names of function definitions whose bodies are
            subject to the purity contract (memo wrappers, compute
            callbacks, and key-building functions).
        memoized_callables: Names whose call (or attribute-access, for
            ``cached_property`` wrappers) results are shared memo
            entries and must not be mutated by callers.
    """

    memoized_defs: set[str] = field(default_factory=set)
    memoized_callables: set[str] = field(default_factory=set)

    def scan(self, module: ModuleSource) -> None:
        """Fold one module's memoization facts into the index."""
        for node in module.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in module.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                name = _call_name(inner.func)
                if name == "get_or_compute":
                    self.memoized_defs.add(node.name)
                    self.memoized_callables.add(node.name)
                    if len(inner.args) >= 2:
                        target = _compute_target(inner.args[1])
                        if target is not None:
                            self.memoized_defs.add(target)
                elif name in KEY_FUNCTIONS and node.name not in KEY_FUNCTIONS:
                    # Builds a content-hash key: part of the cache
                    # contract even if the memo lives elsewhere.
                    self.memoized_defs.add(node.name)


def build_index(modules: list[ModuleSource]) -> ProjectIndex:
    """Pre-pass: collect memoization facts across ``modules``."""
    index = ProjectIndex()
    for module in modules:
        index.scan(module)
    return index
