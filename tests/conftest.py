from __future__ import annotations

from pathlib import Path

import pytest

from mialib.frontend import parse_file
from mialib.model import TAU, StateId, WeakClosure

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = CORPUS / "golden"

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


def load(name):
    return parse_file(CORPUS / name)


def golden_text(name) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def weak_hat_succ(weak: WeakClosure, state: StateId, alpha: str) -> frozenset[StateId]:
    """Weak successors under the hat convention: tau matches by silent runs."""
    if alpha == TAU:
        return weak.eps_succ(state)
    return weak.weak_succ(state, alpha)


def can_weak(weak: WeakClosure, state: StateId, label: str) -> bool:
    """Whether ``state`` has a weak ``label`` step."""
    return label in weak.row(state)
