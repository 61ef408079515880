"""Shared helpers and fixtures for the paper-reproduction benchmarks.

Every benchmark prints a paper-shaped table and also writes it under
``benchmarks/results/`` so EXPERIMENTS.md can quote the latest run.
"""

from __future__ import annotations

import pathlib

import pytest
from _pytest.outcomes import OutcomeException

from repro.runtime.regions import SecurityRegion

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name: str, text: str) -> None:
    """Print a rendered table and persist it for the experiment log."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(autouse=True)
def _region_swallowed_failures(monkeypatch):
    """Fail a test whose assertion a security region swallowed.

    ``SecurityRegion.__exit__`` suppresses every exception (Section
    4.3.3), including ``AssertionError`` and pytest's outcome exceptions,
    so a failing ``assert`` inside ``with vm.region(...)`` would pass
    silently.  Record the ones a region swallows and fail the test at
    teardown; region semantics are unchanged.
    """
    swallowed: list[BaseException] = []
    region_exit = SecurityRegion.__exit__

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, (AssertionError, OutcomeException)):
            swallowed.append(exc)
        return region_exit(self, exc_type, exc, tb)

    monkeypatch.setattr(SecurityRegion, "__exit__", __exit__)
    yield
    if swallowed:
        pytest.fail(
            f"a security region swallowed {swallowed[0]!r}", pytrace=False
        )
