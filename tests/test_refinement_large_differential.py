"""Differential tests above the label-screen size: 60-400 states per side.

The checker marks pairs that fail on labels alone and kills them without a
check, but only when both sides have at least ``_SCREEN_MIN_STATES``
reachable states.  The instances in ``test_refinement_differential.py``
mostly sit below that size, so this module compares the checker with the
same string-keyed reference on larger ones: verdict, every surviving pair
and the failure certificate.

The verdict-only queries walk from the root pair instead of running the
global elimination; the second test compares their verdicts with those of
``refines``, on the same instances and on 200-400 state ones whose failure
sits at the implementation state farthest from the root.  The last test
counts their checks: a verdict-only query checks only pairs the root pair
reaches, and fewer than the global elimination numbers, and the same
number under every hash seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from mialib.model import DMTS, IA, MIA, TAU, make_automaton, reachable_states
from mialib.refinement import (_SCREEN_MIN_STATES, _Checker, equiv, holds,
                               mia_equiv, refines)
from mialib.testkit import weaken
from test_refinement_differential import _automaton, _reference

FLAVORS = (IA, DMTS, MIA)
PER_FLAVOR = 20
PLANTED_PER_FLAVOR = 2
# An output every planted specification declares and none offers.
NEVER = "never"
# The least number of moves between the root and a planted failure.
FAR = 6


def _instance(flavor: str, seed: int):
    """Spec and impl from their initial states; odd seeds plant a may."""
    rng = random.Random(f"large-differential|{flavor}|{seed}")
    actions = [f"a{i}" for i in range(rng.randint(2, 4))]
    if flavor == DMTS:
        inputs, outputs = [], actions
    else:
        k = rng.randint(1, len(actions) - 1)
        inputs, outputs = actions[:k], actions[k:]
    spec = _automaton(flavor, rng.randint(60, 150), inputs, outputs, rng, "spec")
    impl = weaken(spec, rng)
    while len(reachable_states(impl, impl.initial)) < _SCREEN_MIN_STATES:
        impl = weaken(spec, rng)
    if seed % 2:
        # One extra may that the specification may be unable to match.
        labels = outputs + [TAU] if flavor != DMTS else actions + [TAU]
        states = sorted(impl.states)
        edge = (rng.choice(states), rng.choice(labels), rng.choice(states))
        impl = make_automaton(flavor, impl.name, inputs, outputs, impl.initial,
                              impl.may | {edge}, impl.must, states=impl.states)
    return impl, spec


@pytest.mark.parametrize("flavor", FLAVORS)
def test_same_verdict_witness_and_certificate_above_the_screen_size(flavor):
    verdicts = []
    screened = 0
    for seed in range(PER_FLAVOR):
        impl, spec = _instance(flavor, seed)
        expected = _reference(impl, spec, flavor, impl.initial, spec.initial)
        w = refines(impl, spec)
        got = (w.verdict, w.pairs, None if w.verdict else str(w.failure))
        assert got == expected, f"{flavor} seed {seed}"
        verdicts.append(w.verdict)
        checker = _Checker(impl, spec, impl.initial, spec.initial)
        assert min(len(checker.impl_states), checker.nq) >= _SCREEN_MIN_STATES
        screened += b"".join(checker._label_screen()).count(0)
    assert True in verdicts and False in verdicts
    assert screened > 0


def _farthest(aut):
    """The state a breadth-first walk from the initial state reaches last,
    and its depth.  The walk takes the output and tau mays: the moves
    clause (ii) makes the spec match."""
    autonomous = aut.alphabet.outputs | {TAU}
    depth = {aut.initial: 0}
    queue = deque([aut.initial])
    while queue:
        state = queue.popleft()
        for label, tgt in aut.may_from(state):
            if label in autonomous and tgt not in depth:
                depth[tgt] = depth[state] + 1
                queue.append(tgt)
    return state, depth[state]


def _planted(flavor: str, seed: int):
    """Spec, holding impl and failing impl at 200-400 states.

    The failing impl adds one may on ``NEVER`` at the farthest state of the
    holding one.  Every move on the way there is one the spec must match,
    and no spec state offers ``NEVER``, so the root pair fails, but only
    once the failure has travelled back along the whole path.
    """
    rng = random.Random(f"large-verdict|{flavor}|{seed}")
    # One input at most, so that paths of outputs run deep.
    actions = ["a0", "a1", "a2"]
    inputs, outputs = ([], actions) if flavor == DMTS else (actions[:1], actions[1:])
    depth = 0
    while depth < FAR:
        spec = _automaton(flavor, rng.randint(200, 400), inputs, outputs, rng, "spec")
        spec = make_automaton(flavor, spec.name, inputs, outputs + [NEVER],
                              spec.initial, spec.may, spec.must, states=spec.states)
        impl = weaken(spec, rng)
        far, depth = _farthest(impl)
    bad = make_automaton(flavor, "bad", inputs, outputs + [NEVER], impl.initial,
                         impl.may | {(far, NEVER, impl.initial)}, impl.must,
                         states=impl.states)
    return spec, impl, bad


@pytest.mark.parametrize("flavor", FLAVORS)
def test_verdict_only_queries_match_refines(flavor, monkeypatch):
    queries = [_instance(flavor, seed) for seed in range(PER_FLAVOR)]
    for seed in range(PLANTED_PER_FLAVOR):
        spec, impl, bad = _planted(flavor, seed)
        queries += [(impl, spec), (bad, spec)]
    expected = [(refines(a, b).verdict, refines(b, a).verdict) for a, b in queries]
    assert {forward for forward, _ in expected[:PER_FLAVOR]} == {True, False}
    # The planted pairs: the impl refines its spec, and the planted fault fails.
    assert [forward for forward, _ in expected[PER_FLAVOR:]] == [True, False] * PLANTED_PER_FLAVOR

    def refuse(self):
        raise AssertionError("a verdict-only query ran the witness checker")
    for name in ("witness", "pairs", "certificate", "_label_screen"):
        monkeypatch.setattr(_Checker, name, refuse)
    for (a, b), (forward, backward) in zip(queries, expected):
        assert (holds(a, b), holds(b, a)) == (forward, backward)
        assert equiv(a, b) == (forward and backward)
        if flavor == MIA:
            assert mia_equiv(a, b) == (forward and backward)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_verdict_only_queries_check_only_pairs_the_root_reaches(flavor, monkeypatch):
    spec, impl, _ = _planted(flavor, 0)
    # A may on ``NEVER`` at the root: the root pair fails its first check.
    at_root = make_automaton(flavor, "at_root", impl.alphabet.inputs,
                             impl.alphabet.outputs, impl.initial,
                             impl.may | {(impl.initial, NEVER, impl.initial)},
                             impl.must, states=impl.states)
    checked = []
    check = _Checker._check

    def counted(self, x, alive, cited):
        checked.append((self, x))
        return check(self, x, alive, cited)

    monkeypatch.setattr(_Checker, "_check", counted)
    assert not holds(at_root, spec)
    assert len(checked) == 1

    checked.clear()
    assert holds(impl, spec)
    checker = checked[0][0]
    assert {c for c, _ in checked} == {checker}
    reached, todo = {checker.root}, [checker.root]
    while todo:
        for y in checker._inspected(todo.pop()):
            if y not in reached:
                reached.add(y)
                todo.append(y)
    visited = {x for _, x in checked}
    assert visited <= reached
    assert len(visited) < len(checker.impl_states) * checker.nq


# Counts the checks of both verdict-only directions on the dMTS and MIA
# instances, whose musts can have several targets.
_COUNT_SCRIPT = """
from mialib.refinement import _Checker, holds
from test_refinement_large_differential import _instance

counts = []
check = _Checker._check

def counted(self, x, alive, cited):
    counts[-1] += 1
    return check(self, x, alive, cited)

_Checker._check = counted
for flavor in ("dmts", "mia"):
    for seed in range(6):
        impl, spec = _instance(flavor, seed)
        counts.append(0)
        holds(impl, spec)
        holds(spec, impl)
print(counts)
"""


def test_verdict_check_counts_do_not_follow_the_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _COUNT_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == outputs[2], outputs
