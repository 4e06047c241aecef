"""Glb and lub laws, the precongruence of parallel composition, laws on
chains of interfaces and the embedding homomorphisms above the oracle's
state limit, judged by witnesses.

The theorem suites judge the laws with the oracle, so their operands have
at most ``ORACLE_STATE_LIMIT`` states.  A positive law instance needs no
oracle: the checker's witness relation is re-checked clause by clause by
``testkit.recheck_witness``, which shares no code with the checker.  Here
the operands have up to 40 states and their products several hundred.
"""

from __future__ import annotations

import random
from itertools import count

import pytest

from mialib import testkit
from mialib.embeddings import embed_ia_to_mia
from mialib.ia_ops import ia_conjoin, ia_parallel_compose
from mialib.mia_ops import mia_conjoin, mia_parallel_compose
from mialib.model import (DMTS, IA, MIA, TAU, ModalAutomaton, make_automaton,
                          reachable_states, validate)
from mialib.refinement import refines
from mialib.testkit import (ORACLE_STATE_LIMIT, gen_composable_pair, gen_over,
                            gen_pair, recheck_witness, weaken)

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


# ---------------------------------------------------------------------------
# Chains of interfaces: k = 3-5 operands over one alphabet

CHAIN_ALPHABETS = {IA: (["a0"], ["a1", "a2"]), DMTS: ([], ["a0", "a1", "a2"]),
                   MIA: (["a0"], ["a1", "a2"])}
CHAIN_SEEDS = range(10)


def _loosened(base: ModalAutomaton, rng: random.Random) -> ModalAutomaton:
    """``base`` with some output musts dropped, their mays kept, and some
    output or tau mays added.  The identity relation shows that ``base``
    refines it."""
    outputs = sorted(base.alphabet.outputs)
    states = sorted(base.states)
    must = {e for e in base.sorted_must if e[1] not in outputs or rng.random() < 0.5}
    may = set(base.may)
    for s in states:
        for alpha in outputs + [TAU]:
            if rng.random() < 0.05:
                may.add((s, alpha, rng.choice(states)))
    loose = make_automaton(base.flavor, f"{base.name}_loose", sorted(base.alphabet.inputs),
                           outputs, base.initial, may, must, states=states)
    assert not validate(loose), validate(loose)
    return loose


def _draw(flavor: str, seed: str, low: int, high: int, density: float) -> ModalAutomaton:
    """The first ``gen_over`` draw over the flavor's chain alphabet whose
    initial state reaches ``low`` to ``high`` states."""
    inputs, outputs = CHAIN_ALPHABETS[flavor]
    for i in count():
        aut = gen_over(flavor, inputs, outputs, max_states=high,
                       transition_density=density, seed=f"{seed}|{i}")
        if len(reachable_states(aut)) >= low:
            return aut


def _chain(flavor: str, seed: int, low: int, high: int,
           step=None) -> tuple[ModalAutomaton | None, list[ModalAutomaton]]:
    """``(bound, operands)``, with k = 3-5 operands.  Without ``step`` they
    are independent draws of ``low`` to ``high`` states, and there is no
    bound.  With it, each is ``step(bound, rng)`` of one such draw."""
    rng = random.Random(f"chain|{flavor}|{seed}")
    k = rng.randint(3, 5)
    if step is None:
        return None, [_draw(flavor, f"{seed}|{i}", low, high, 0.45) for i in range(k)]
    bound = _draw(flavor, f"bound|{seed}", low, high, 0.4)
    return bound, [step(bound, rng) for _ in range(k)]


def _conjunction_chain(flavor: str, seed: int, low: int = 10, high: int = 20):
    """Independent operands of ``low`` to ``high`` states for an even seed.
    For an odd one, loosenings of one small automaton, which refines each
    of them, so that their conjunction is defined."""
    if seed % 2 == 0:
        return _chain(flavor, seed, low, high)
    return _chain(flavor, seed, 4, 6, _loosened)


def _result(outcome) -> ModalAutomaton | None:
    """An operator's result automaton; ``None`` for an undefined one."""
    return outcome if isinstance(outcome, ModalAutomaton) else outcome.automaton


def _fold(flavor: str, name: str, operands: list[ModalAutomaton]) -> ModalAutomaton | None:
    """``p_1 op ... op p_k``, grouped to the left and built with
    ``reachable``; ``None`` once a step is undefined."""
    op = testkit._op(flavor, name)
    acc = operands[0]
    for p in operands[1:]:
        acc = _result(op(acc, p, reachable=True))
        if acc is None:
            return None
    return acc


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_a_chain_conjunction_refines_every_operand(flavor):
    """Every defined ``p_1 & ... & p_k`` refines each ``p_i``, and a common
    refinement of the ``p_i`` refines their conjunction."""
    largest = defined = 0
    for seed in CHAIN_SEEDS:
        base, operands = _conjunction_chain(flavor, seed)
        conj = _fold(flavor, "conjoin", operands)
        assert base is None or conj is not None, seed
        if conj is None:
            continue
        defined += 1
        largest = max(largest, len(conj.states))
        for i, p in enumerate(operands):
            _assert_refines(flavor, conj, p, (seed, f"p_1 & ... & p_k <= p_{i + 1}"))
        if base is not None:
            _assert_refines(flavor, base, conj, (seed, "r <= p_1 & ... & p_k"))
    assert defined >= len(CHAIN_SEEDS) // 2
    assert largest > 10 * ORACLE_STATE_LIMIT


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_every_operand_refines_a_chain_disjunction(flavor):
    """Each ``p_i`` refines ``p_1 | ... | p_k``, and the disjunction refines
    what every ``p_i`` refines.  The operands of an odd seed are
    ``testkit.weaken`` steps from one automaton."""
    largest = 0
    for seed in CHAIN_SEEDS:
        top, operands = _chain(flavor, seed, 20, 40, None if seed % 2 == 0 else weaken)
        disj = _fold(flavor, "disjoin", operands)
        largest = max(largest, len(disj.states))
        for i, p in enumerate(operands):
            _assert_refines(flavor, p, disj, (seed, f"p_{i + 1} <= p_1 | ... | p_k"))
        if top is not None:
            _assert_refines(flavor, disj, top, (seed, "p_1 | ... | p_k <= r"))
    assert largest > 10 * ORACLE_STATE_LIMIT


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_conjunction_and_disjunction_are_associative(flavor):
    """``(p & q) & r`` and ``p & (q & r)`` are both undefined or refine each
    other, and so do the two groupings of ``|``."""
    defined = 0
    for seed in CHAIN_SEEDS:
        p, q, r = _conjunction_chain(flavor, seed, 4, 8)[1][:3]
        for name in ("conjoin", "disjoin"):
            pq, qr = _fold(flavor, name, [p, q]), _fold(flavor, name, [q, r])
            left = None if pq is None else _fold(flavor, name, [pq, r])
            right = None if qr is None else _fold(flavor, name, [p, qr])
            assert (left is None) == (right is None), (seed, name)
            if left is not None:
                defined += name == "conjoin"
                _assert_refines(flavor, left, right, (seed, name, "(p q) r <= p (q r)"))
                _assert_refines(flavor, right, left, (seed, name, "p (q r) <= (p q) r"))
    assert defined >= len(CHAIN_SEEDS) // 2


# ---------------------------------------------------------------------------
# The MIA embedding of IA is a homomorphism for & and ||

EMBED_SEEDS = range(6)


def _composable(seed: int) -> tuple[ModalAutomaton, ModalAutomaton]:
    """The first composable IA pair after ``seed`` whose initial states
    reach 20 to 40 states each."""
    for i in count():
        p, q = gen_composable_pair(IA, f"embed|{seed}|{i}", max_states=40,
                                   transition_density=0.45)
        if min(len(reachable_states(p)), len(reachable_states(q))) >= 20:
            return p, q


def test_the_mia_embedding_commutes_with_conjunction():
    """``embed(p & q)`` and ``embed(p) & embed(q)`` refine each other."""
    largest = 0
    for seed in EMBED_SEEDS:
        p, q = (_draw(IA, f"embed|{seed}|{j}", 20, 40, 0.45) for j in (0, 1))
        image = embed_ia_to_mia(ia_conjoin(p, q))
        conj = mia_conjoin(embed_ia_to_mia(p), embed_ia_to_mia(q))
        assert conj.defined, seed
        _assert_refines(MIA, image, conj.automaton, (seed, "embed(p & q) <= embed(p) & embed(q)"))
        _assert_refines(MIA, conj.automaton, image, (seed, "embed(p) & embed(q) <= embed(p & q)"))
        largest = max(largest, len(reachable_states(image)))
    assert largest > 10 * ORACLE_STATE_LIMIT


def test_the_mia_embedding_commutes_with_parallel_composition():
    """``p || q`` and ``embed(p) || embed(q)`` are compatible alike, and
    when they are, ``embed(p || q)`` and ``embed(p) || embed(q)`` refine
    each other."""
    outcomes = set()
    for seed in EMBED_SEEDS:
        p, q = _composable(seed)
        composed = ia_parallel_compose(p, q)
        embedded = mia_parallel_compose(embed_ia_to_mia(p), embed_ia_to_mia(q))
        assert composed.compatible == embedded.compatible, seed
        outcomes.add(composed.compatible)
        if composed.compatible:
            image, product = embed_ia_to_mia(composed.automaton), embedded.automaton
            _assert_refines(MIA, image, product, (seed, "embed(p || q) <= embed(p) || embed(q)"))
            _assert_refines(MIA, product, image, (seed, "embed(p) || embed(q) <= embed(p || q)"))
    assert outcomes == {True, False}
