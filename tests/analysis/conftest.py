"""Shared fixtures for the analysis suites."""

from __future__ import annotations

import time
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.analysis import LintResult, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


class TimedLint(NamedTuple):
    result: LintResult
    elapsed_s: float


@pytest.fixture(scope="session")
def src_lint() -> TimedLint:
    """One four-pass ``lint --all`` of ``src``, timed, for the test run.

    The whole-tree meta-tests read this one run instead of each linting
    ``src`` again.
    """
    started = time.perf_counter()
    result = lint_paths(
        [REPO_ROOT / "src"], dimensional=True, concurrency=True,
        keysound=True,
    )
    return TimedLint(result, time.perf_counter() - started)
