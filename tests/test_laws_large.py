"""Glb and lub laws and the precongruence of parallel composition above
the oracle's state limit, judged by witnesses.

The theorem suites judge the laws with the oracle, so their operands have
at most ``ORACLE_STATE_LIMIT`` states.  A positive law instance needs no
oracle: the checker's witness relation is re-checked clause by clause by
``testkit.recheck_witness``, which shares no code with the checker.  Here
the operands have up to 40 states and their products several hundred.
"""

from __future__ import annotations

import random

import pytest

from mialib import testkit
from mialib.model import DMTS, IA, MIA
from mialib.refinement import refines
from mialib.testkit import (ORACLE_STATE_LIMIT, gen_composable_pair, gen_pair,
                            recheck_witness, weaken)

SEEDS = range(10)
MAX_STATES = 30


def _assert_refines(flavor, impl, spec, law):
    witness = refines(impl, spec)
    assert witness.verdict, law
    assert (impl.initial, spec.initial) in witness.pairs, law
    assert recheck_witness(flavor, impl, spec, witness.pairs), law


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_conjunction_is_below_and_disjunction_above_both_operands(flavor):
    largest = 0
    defined = 0
    for seed in SEEDS:
        p, q = gen_pair(flavor, seed, max_states=MAX_STATES,
                        transition_density=0.35)
        conj, _ = testkit._conjunction(flavor, p, q)
        if conj is not None:
            defined += 1
            largest = max(largest, len(conj.states))
            _assert_refines(flavor, conj, p, (seed, "p & q <= p"))
            _assert_refines(flavor, conj, q, (seed, "p & q <= q"))
        disj = testkit._op(flavor, "disjoin")(p, q)
        largest = max(largest, len(disj.states))
        _assert_refines(flavor, p, disj, (seed, "p <= p | q"))
        _assert_refines(flavor, q, disj, (seed, "q <= p | q"))
    # the instances lie past the oracle's reach, and some conjunctions exist
    assert largest > 10 * ORACLE_STATE_LIMIT
    assert defined > 0


@pytest.mark.parametrize("flavor", [IA, MIA])
def test_parallel_composition_is_a_precongruence(flavor):
    compose = testkit._op(flavor, "parallel_compose")
    largest = 0
    compatible = 0
    for seed in range(40):
        q1, p2 = gen_composable_pair(flavor, seed, max_states=40,
                                     transition_density=0.7)
        p1 = weaken(q1, random.Random(seed))
        spec = compose(q1, p2)
        if not spec.compatible:
            continue
        compatible += 1
        _assert_refines(flavor, p1, q1, (seed, "p1 <= q1"))
        impl = compose(p1, p2)
        assert impl.compatible, (seed, "q1 || p2 is compatible but p1 || p2 is not")
        largest = max(largest, len(spec.automaton.states))
        _assert_refines(flavor, impl.automaton, spec.automaton,
                        (seed, "p1 || p2 <= q1 || p2"))
    assert compatible >= 10
    assert largest > 10 * ORACLE_STATE_LIMIT
