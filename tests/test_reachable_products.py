"""Differential test: products seeded from the initial pair against the
reachable part of the full product.

For every conjunction and disjunction, ``op(p, q, reachable=True)`` must
serialize to the same bytes as ``restrict_reachable(op(p, q))`` and be
defined exactly when the full result is.  The small seeded pairs leave many
pairs unreachable; the 20-60 state operands, every state reachable, go past
the oracle's 7-state limit; and operands with operator-shaped state names
either make ``disjoint_operands`` run its tagging round first, or, fed back
from an earlier result, are inherited untagged.  Four figure pairs pin the
``--reachable`` output of the library and the CLI to golden files.  A
conjunctive product seeded from its initial pair holds nothing unreachable.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import CORPUS, golden_text, load
from mialib.cli import main
from mialib.dmts_ops import dmts_conj_product, dmts_conjoin, dmts_disjoin
from mialib.frontend import serialize
from mialib.ia_ops import ia_conjoin, ia_disjoin
from mialib.mia_ops import mia_conj_product, mia_conjoin, mia_disjoin
from mialib.model import (DMTS, IA, MIA, TAU, ModalAutomaton, StateId, as_dmts,
                          atom, disjoint_operands, make_automaton, pair_id,
                          reachable_states, restrict_reachable, vee_id,
                          wedge_id)
from mialib.testkit import gen_pair, weaken

from test_refinement_differential import _automaton

# name -> (flavor, operator, the combined-id builder its product uses)
OPERATORS = {
    "ia-conjoin": (IA, ia_conjoin, wedge_id),
    "dmts-conjoin": (DMTS, dmts_conjoin, pair_id),
    "mia-conjoin": (MIA, mia_conjoin, pair_id),
    "ia-disjoin": (IA, ia_disjoin, vee_id),
    "dmts-disjoin": (DMTS, dmts_disjoin, vee_id),
    "mia-disjoin": (MIA, mia_disjoin, vee_id),
}
CONJUNCTIONS = ("dmts-conjoin", "mia-conjoin")


def _automaton_of(outcome) -> ModalAutomaton | None:
    """An operator's result automaton; ``None`` for an inconsistent one."""
    return outcome if isinstance(outcome, ModalAutomaton) else outcome.automaton


def _compare(name: str, p: ModalAutomaton, q: ModalAutomaton) -> str:
    """Check the contract on one pair and say which case it was."""
    _, op, _ = OPERATORS[name]
    full = _automaton_of(op(p, q))
    seeded = _automaton_of(op(p, q, reachable=True))
    assert (seeded is None) == (full is None)
    if full is None:
        return "undefined"
    expected = restrict_reachable(full)
    assert serialize(seeded) == serialize(expected)
    return "trimmed" if expected.states != full.states else "whole"


def _cases(name: str, pairs) -> Counter:
    return Counter(_compare(name, p, q) for p, q in pairs)


@pytest.mark.parametrize("name", OPERATORS)
def test_small_seeded_pairs(name):
    flavor = OPERATORS[name][0]
    cases = _cases(name, (gen_pair(flavor, seed, max_states=8,
                                   transition_density=0.5)
                          for seed in range(300)))
    assert cases["trimmed"] >= 50, cases
    if name in CONJUNCTIONS:
        assert cases["undefined"] >= 10, cases


def _large_pair(flavor: str, seed: int):
    """Two operands of 20-60 states, every state reachable in the left one.

    The right one is a weakening of the left, whose conjunction with it is
    consistent at the root and prunes deeper pairs; or an independent
    automaton; or one that never does the first output, against which
    every must on that output is inconsistent.
    """
    rng = random.Random(f"reachable|{flavor}|{seed}")
    actions = [f"a{i}" for i in range(rng.randint(2, 4))]
    if flavor == DMTS:
        inputs, outputs = [], actions
    else:
        k = rng.randint(1, len(actions) - 1)
        inputs, outputs = actions[:k], actions[k:]
    p = _automaton(flavor, rng.randint(20, 60), inputs, outputs, rng, "P")
    shape = rng.choice(("weakened", "independent", "stripped"))
    if shape == "weakened":
        return p, weaken(p, rng)
    q = _automaton(flavor, rng.randint(20, 60), inputs, outputs, rng, "Q")
    if shape == "stripped":
        o = outputs[0]
        q = make_automaton(flavor, q.name, inputs, outputs, q.initial,
                           [edge for edge in q.may if edge[1] != o],
                           [edge for edge in q.must if edge[1] != o],
                           states=q.states)
    return p, q


@pytest.mark.parametrize("name", OPERATORS)
def test_large_reachable_operands(name):
    flavor = OPERATORS[name][0]
    cases = _cases(name, (_large_pair(flavor, seed) for seed in range(12)))
    assert cases["trimmed"] >= 3, cases
    if name in CONJUNCTIONS:
        assert cases["undefined"] >= 1, cases


def _renamed(q: ModalAutomaton) -> ModalAutomaton:
    """``q`` with its states ``s0, s1, ...`` renamed ``t0, t1, ...``."""
    names = {s: atom("t" + s.text[1:]) for s in q.states}
    return make_automaton(q.flavor, q.name, q.alphabet.inputs,
                          q.alphabet.outputs, names[q.initial],
                          [(names[s], a, names[t]) for s, a, t in q.may],
                          [(names[s], a, frozenset(names[t] for t in targets))
                           for s, a, targets in q.must],
                          states=names.values())


def _with_colliding_state(p: ModalAutomaton, q: ModalAutomaton, combine):
    """``p`` with an extra state named like the combined id of the pair
    ``(s0, t0)``, and ``q`` with its states renamed ``t0, t1, ...``."""
    q = _renamed(q)
    clash = atom(combine(atom("s0"), atom("t0")).text)
    p = make_automaton(p.flavor, p.name, p.alphabet.inputs, p.alphabet.outputs,
                       p.initial, p.may | {(p.initial, TAU, clash)}, p.must,
                       states=p.states)
    return p, q


def _fed_back(op, p: ModalAutomaton, q: ModalAutomaton):
    """The result of ``op`` on ``p, q`` and ``q`` renamed, as operands of
    the same operator; ``None`` when the result is undefined."""
    result = _automaton_of(op(p, q))
    return None if result is None else (result, _renamed(q))


@pytest.mark.parametrize("name", OPERATORS)
def test_operator_shaped_state_names(name):
    flavor, op, combine = OPERATORS[name]
    operands = [gen_pair(flavor, seed, max_states=8, transition_density=0.5)
                for seed in range(60)]
    pairs = [_with_colliding_state(p, q, combine) for p, q in operands]
    for p, q in pairs:
        left, _, _ = disjoint_operands(p, q, combine)
        assert all(s.kind == StateId.TAG for s in left.states)
    cases = _cases(name, pairs)
    assert cases["trimmed"] >= 10, cases
    # a result fed back into its operator: its combined states meet no
    # collision, so they stay untagged and look like the new pairs, yet
    # leave by their own edges wherever the new result keeps them
    kind = combine(atom("s"), atom("t")).kind
    fed = [pair for pair in (_fed_back(op, p, q) for p, q in operands) if pair]
    for p, q in fed:
        left, _, _ = disjoint_operands(p, q, combine)
        assert left is p and any(s.kind == kind for s in p.states)
        for reachable in (False, True):
            result = _automaton_of(op(p, q, reachable=reachable))
            for component in (p, q) if result else ():
                for s in result.states & component.states:
                    assert result.may_from(s) == component.may_from(s)
                    assert result.musts_from(s) == component.musts_from(s)
    cases = _cases(name, fed)
    assert cases["trimmed"] >= 10, cases


@pytest.mark.parametrize("product, view", [(mia_conj_product, None),
                                           (dmts_conj_product, as_dmts)])
def test_reachable_conjunctive_product_holds_only_reachable_states(product, view):
    for seed in range(200):
        p, q = gen_pair(MIA, seed, max_states=8, transition_density=0.5)
        if view:
            p, q = view(p), view(q)
        prod = product(p, q, reachable=True)
        states = prod.automaton.states
        assert reachable_states(prod.automaton) == states, seed
        assert set(prod.pairs) == states - prod.left.states - prod.right.states


@pytest.mark.parametrize("command, left, right, golden", [
    ("conjoin", "fig04_p.dmts", "fig04_q.dmts", "fig04_conj_reachable.dmts"),
    ("conjoin", "fig11_p.mia", "fig11_q.mia", "fig11_conj_reachable.mia"),
    ("disjoin", "fig10_p.mia", "fig10_q.mia", "fig10_disj_reachable.mia"),
    ("disjoin", "fig01_p.ia", "fig01_q.ia", "fig01_disj_reachable.ia"),
])
def test_reachable_goldens(command, left, right, golden, capsys):
    p, q = load(left), load(right)
    _, op, _ = OPERATORS[f"{p.flavor}-{command}"]
    expected = golden_text(golden)
    assert serialize(_automaton_of(op(p, q, reachable=True))) == expected
    assert serialize(_automaton_of(op(p, q))) != expected
    assert main([command, str(CORPUS / left), str(CORPUS / right),
                 "--reachable"]) == 0
    assert capsys.readouterr().out == expected
