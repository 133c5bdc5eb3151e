"""Traced replay of ``mcpat-repro lint --all src``, one layer at a time.

Usage: ``python child_lint.py <path>`` with ``src`` on ``PYTHONPATH``.
The lint command has no spans, so this child times the public calls
``lint_paths`` makes: parsing, the shared call graph and models
(``SharedAnalysis`` + ``prepare``), then each pass alone on one thread.
Prints one JSON object.
"""

from __future__ import annotations

import ast
import json
import sys
import time
from pathlib import Path


def _parse(paths):
    from repro.analysis.context import ModuleSource

    modules = []
    for path in paths:
        source = path.read_text()
        modules.append(ModuleSource(
            path=str(path), source=source,
            tree=ast.parse(source, filename=str(path)),
        ))
    return modules


def main(target: str) -> dict:
    import repro
    from repro.analysis import SharedAnalysis
    from repro.analysis.registry import resolve_passes, run_passes
    from repro.analysis.runner import iter_python_files

    started = time.perf_counter()
    files = iter_python_files([target])
    targets = _parse(files)
    package = _parse(iter_python_files([Path(repro.__file__).parent]))
    parsed = time.perf_counter()

    indexed = {str(Path(m.path).resolve()): m for m in package}
    for module in targets:
        indexed[str(Path(module.path).resolve())] = module
    shared = SharedAnalysis(indexed.values())
    passes = resolve_passes(dimensional=True, concurrency=True,
                            keysound=True)
    shared.prepare(passes)
    prepared = time.perf_counter()

    out = {
        "files": len(files),
        "lines": sum(m.source.count("\n") for m in targets),
        "parse_ms": (parsed - started) * 1e3,
        "shared_ms": (prepared - parsed) * 1e3,
    }
    for one in passes:
        begun = time.perf_counter()
        run_passes((one,), targets, shared, frozenset(), jobs=1)
        out[f"pass.{one.name}_ms"] = (time.perf_counter() - begun) * 1e3
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
