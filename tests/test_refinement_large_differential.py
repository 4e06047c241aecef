"""Differential test above the label-screen size: 60-150 states per side.

The checker marks pairs that fail on labels alone and kills them without a
check, but only when both sides have at least ``_SCREEN_MIN_STATES``
reachable states.  The instances in ``test_refinement_differential.py``
mostly sit below that size, so this module compares the checker with the
same string-keyed reference on larger ones: verdict, every surviving pair
and the failure certificate.
"""

from __future__ import annotations

import random

import pytest

from mialib.model import DMTS, IA, MIA, TAU, make_automaton, reachable_states
from mialib.refinement import _SCREEN_MIN_STATES, _Checker, refines
from mialib.testkit import weaken
from test_refinement_differential import _automaton, _reference

FLAVORS = (IA, DMTS, MIA)
PER_FLAVOR = 20


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
        screened += checker.alive.count(2)
    assert True in verdicts and False in verdicts
    assert screened > 0
