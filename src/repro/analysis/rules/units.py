"""Units and frozen-spec discipline rules (UNIT001, SPEC001).

All internal quantities are SI base units (see :mod:`repro.units`), and
the naming convention that makes that auditable is a canonical short
suffix per unit: ``tdp_w``, ``read_energy_j`` (or an unsuffixed name
documented in its docstring), never ``tdp_watts``. Spec/config
dataclasses feed content-hash cache keys and memoized results, so they
must be ``frozen=True``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleSource, ProjectIndex
from repro.analysis.finding import Finding

#: Verbose / non-canonical unit suffix -> the canonical repro.units one.
SUFFIX_ALIASES: dict[str, str] = {
    "second": "_s", "seconds": "_s", "sec": "_s", "secs": "_s",
    "watt": "_w", "watts": "_w",
    "joule": "_j", "joules": "_j",
    "farad": "_f", "farads": "_f",
    "meter": "_m", "meters": "_m", "metre": "_m", "metres": "_m",
    "sq_m": "_m2", "square_m": "_m2", "square_meters": "_m2",
    "volt": "_v", "volts": "_v",
    "amp": "_a", "amps": "_a", "ampere": "_a", "amperes": "_a",
    "ohms": "_ohm",
    "kelvin": "_k", "kelvins": "_k",
    "hertz": "_hz",
}


def _suffix_violation(name: str) -> tuple[str, str] | None:
    """(alias, canonical) when ``name`` ends in a non-canonical suffix.

    Rate and conversion names are exempt: in ``reads_per_second`` or
    ``celsius_to_kelvin`` the trailing unit is a denominator/target,
    not the unit of the stored quantity.
    """
    for alias, canonical in SUFFIX_ALIASES.items():
        if not name.endswith("_" + alias):
            continue
        stem = name[: -len(alias) - 1]
        if stem in ("per", "to") or stem.endswith(("_per", "_to")):
            continue
        return alias, canonical
    return None


def check_unit001(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """UNIT001: quantity names must use canonical unit suffixes."""
    del index

    def finding(name: str, node: ast.AST) -> Iterator[Finding]:
        hit = _suffix_violation(name)
        if hit is not None:
            alias, canonical = hit
            yield Finding(
                module.path, node.lineno, node.col_offset, "UNIT001",
                f"name {name!r} uses non-canonical unit suffix "
                f"'_{alias}'; the repro.units convention is "
                f"{canonical!r}",
            )

    for node in module.walk():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from finding(node.name, node)
        elif isinstance(node, ast.arg):
            yield from finding(node.arg, node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield from finding(node.id, node)


def _dataclass_decorator(node: ast.expr) -> ast.Call | None | bool:
    """Classify a decorator: a dataclass call, a bare dataclass, or no.

    Returns the ``ast.Call`` for ``@dataclass(...)``, ``True`` for a
    bare ``@dataclass`` / ``@dataclasses.dataclass``, ``None``
    otherwise.
    """
    def is_dataclass_ref(ref: ast.expr) -> bool:
        if isinstance(ref, ast.Name):
            return ref.id == "dataclass"
        if isinstance(ref, ast.Attribute):
            return ref.attr == "dataclass"
        return False

    if isinstance(node, ast.Call) and is_dataclass_ref(node.func):
        return node
    if is_dataclass_ref(node):
        return True
    return None


def check_spec001(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """SPEC001: dataclasses must be declared ``frozen=True``.

    Spec/config dataclasses flow into ``stable_hash`` cache keys and
    memoized results; a mutable one silently corrupts both. The rule
    covers every dataclass in the tree — internal result carriers
    benefit from the same discipline, and deliberate exceptions carry a
    ``# repro: noqa[SPEC001]``.
    """
    del index
    for node in module.walk():
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            kind = _dataclass_decorator(decorator)
            if kind is None:
                continue
            frozen = False
            if isinstance(kind, ast.Call):
                for keyword in kind.keywords:
                    if keyword.arg == "frozen" and isinstance(
                        keyword.value, ast.Constant
                    ):
                        frozen = bool(keyword.value.value)
            if not frozen:
                yield Finding(
                    module.path, decorator.lineno, decorator.col_offset,
                    "SPEC001",
                    f"dataclass {node.name!r} is not frozen=True; "
                    "spec/config/result dataclasses must be immutable "
                    "so cache keys and memoized results stay stable",
                )
