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


# The private names of the operator modules (``mialib.mia_ops``,
# ``mialib.ia_ops`` and ``mialib.dmts_ops``) that a test file may import,
# read as ``module._name`` or patch, each with its reason.  Every other use
# goes through the public product, fixpoint and operator functions, so the
# operators' inner steps can change without touching the tests;
# ``tests/test_private_names.py`` fails on a use not granted here, and on a
# grant no longer used.
_EAGER_PRUNE = ("the eager reference prunes the whole product with the "
                "library's own pass, as the operator did before it decided "
                "early")
PRIVATE_OPERATOR_NAMES = {
    "test_early_decision_differential.py": {
        "mia_ops._prune": _EAGER_PRUNE,
        "mia_ops._prune_incompatible": _EAGER_PRUNE,
        "mia_ops._ConjunctiveRun": "work pins: each pair's rule runs once, "
                                   "and a root decision builds only the ids "
                                   "its edges name",
        "mia_ops._ParallelRun": "work pins: each pair's rule runs once, and "
                                "a refused product goes on from the walk",
        "mia_ops._error_rule": "work pin: each pair is tested for an error "
                               "once",
    },
    "test_passes_differential.py": {
        "mia_ops._prune": _EAGER_PRUNE,
        "mia_ops._error_rule": "the frozen former closure, "
                               "``old_incompatible``, tests every pair with "
                               "the library's error rule",
    },
    "test_products_differential.py": {
        "mia_ops._prune": _EAGER_PRUNE,
        "mia_ops._prune_incompatible": _EAGER_PRUNE,
        "mia_ops._pair_of": "work pin: a parallel product builds an id for "
                            "the pairs it reaches and no other",
    },
}
