from __future__ import annotations

import random

import pytest

from conftest import golden_text, load
from mialib.ia_ops import (ia_conjoin, ia_disjoin, ia_incompatible,
                           ia_parallel_compose, ia_parallel_product)
from mialib.model import (IA, TAU, NotComposableError, atom, make_ia, pair_id,
                          validate, vee_id, wedge_id)
from mialib.frontend import serialize
from mialib.refinement import equiv, holds
from mialib.testkit import gen_composable_pair, gen_pair, weaken

p0, p1, p2 = atom("p0"), atom("p1"), atom("p2")
q0, q1, q2 = atom("q0"), atom("q1"), atom("q2")


# ---------------------------------------------------------------------------
# Conjunction


def test_conjoin_input_escape():
    # only one side constrains the input: its continuation takes over alone
    p = make_ia("p", ["a"], [], p0, [(p0, "a", p1)])
    q = make_ia("q", ["a"], [], q0, [])
    c = ia_conjoin(p, q)
    assert c.may_targets(c.initial, "a") == [p1]


def test_conjoin_output_needs_both():
    p = make_ia("p", [], ["o"], p0, [(p0, "o", p1)])
    q = make_ia("q", [], ["o"], q0, [])
    c = ia_conjoin(p, q)
    assert c.may_targets(c.initial, "o") == []


def test_conjoin_fig01_rules_and_golden():
    p, q = load("fig01_p.ia"), load("fig01_q.ia")
    c = ia_conjoin(p, q)
    assert validate(c) == []
    assert c.initial == wedge_id(atom("p0"), atom("q0"))
    assert serialize(c) == golden_text("fig01_conj.ia")


@pytest.mark.parametrize("seed", range(40))
def test_conjoin_is_glb(seed):
    p, q = gen_pair(IA, seed)
    rng = random.Random(seed)
    r = weaken(p if seed % 2 else q, rng)
    c = ia_conjoin(p, q)
    assert validate(c) == []
    assert (holds(r, p) and holds(r, q)) == holds(r, c)


def test_conjoin_commutative_associative_up_to_equivalence():
    for seed in range(8):
        p, q = gen_pair(IA, seed, max_states=3)
        r, _ = gen_pair(IA, seed + 1000, max_states=3)
        if r.alphabet != p.alphabet:
            continue
        assert equiv(ia_conjoin(p, q), ia_conjoin(q, p))
        assert equiv(ia_conjoin(ia_conjoin(p, q), r),
                     ia_conjoin(p, ia_conjoin(q, r)))


# ---------------------------------------------------------------------------
# Disjunction


def test_disjoin_input_synchronizes():
    p = make_ia("p", ["i"], [], p0, [(p0, "i", p1)])
    q = make_ia("q", ["i"], [], q0, [(q0, "i", q1)])
    d = ia_disjoin(p, q)
    assert d.may_targets(d.initial, "i") == [vee_id(p1, q1)]


def test_disjoin_output_commits_to_component():
    p = make_ia("p", [], ["o"], p0, [(p0, "o", p1)])
    q = make_ia("q", [], ["o"], q0, [])
    d = ia_disjoin(p, q)
    assert d.may_targets(d.initial, "o") == [p1]


def test_disjoin_inclusive_or_via_first_output():
    p, q = load("fig02_p.ia"), load("fig02_q.ia")
    d = ia_disjoin(p, q)
    assert sorted(t.text for t in d.may_targets(d.initial, "o")) == ["p1", "q1"]


def test_disjoin_input_determinism_forces_single_continuation():
    r, s = load("fig02_r.ia"), load("fig02_s.ia")
    d = ia_disjoin(r, s)
    assert validate(d) == []
    targets = d.may_targets(d.initial, "i")
    assert len(targets) == 1
    assert d.may_from(targets[0]) == []  # nothing survives after the merge


@pytest.mark.parametrize("seed", range(40))
def test_disjoin_is_lub(seed):
    p, q = gen_pair(IA, seed)
    rng = random.Random(seed * 31)
    r = weaken(q if seed % 2 else p, rng)
    d = ia_disjoin(p, q)
    assert validate(d) == []
    assert holds(d, r) == (holds(p, r) and holds(q, r))


@pytest.mark.parametrize("reachable", [False, True])
@pytest.mark.parametrize("op", [ia_conjoin, ia_disjoin])
def test_results_keep_the_ia_encoding(op, reachable):
    # every input may carries its singleton must, and nothing else is a must
    for seed in range(300):
        p, q = gen_pair(IA, seed, max_states=8, transition_density=0.5)
        result = op(p, q, reachable=reachable)
        inputs = result.alphabet.inputs
        assert result.must == {(src, a, frozenset([t]))
                               for src, a, t in result.may if a in inputs}, seed
        assert validate(result) == [], seed


@pytest.mark.parametrize("seed", range(25))
def test_monotone(seed):
    rng = random.Random(f"mono{seed}")
    q, r = gen_pair(IA, seed)
    p = weaken(q, rng)
    assert holds(ia_conjoin(p, r), ia_conjoin(q, r))
    assert holds(ia_disjoin(p, r), ia_disjoin(q, r))


# ---------------------------------------------------------------------------
# Parallel product, incompatibility, composition


def test_product_disjoint_alphabets_interleaves():
    p = make_ia("p", [], ["o"], p0, [(p0, "o", p1)])
    q = make_ia("q", ["i"], [], q0, [(q0, "i", q1)])
    prod = ia_parallel_product(p, q)
    assert (pair_id(p0, q0), "o", pair_id(p1, q0)) in prod.may
    assert (pair_id(p0, q0), "i", pair_id(p0, q1)) in prod.may
    assert prod.alphabet.inputs == frozenset(["i"])
    assert prod.alphabet.outputs == frozenset(["o"])


def test_product_synchronization_yields_tau():
    p = make_ia("p", [], ["a"], p0, [(p0, "a", p1)])
    q = make_ia("q", ["a"], [], q0, [(q0, "a", q1)])
    prod = ia_parallel_product(p, q)
    assert (pair_id(p0, q0), TAU, pair_id(p1, q1)) in prod.may
    assert prod.alphabet.actions == frozenset()


def test_not_composable_error_names_action():
    p = make_ia("p", ["a"], [], p0, [])
    q = make_ia("q", ["a"], [], q0, [])
    with pytest.raises(NotComposableError) as err:
        ia_parallel_product(p, q)
    assert err.value.action == "a"


def test_incompatible_no_shared_actions_empty():
    p = make_ia("p", [], ["o"], p0, [(p0, "o", p1)])
    q = make_ia("q", ["i"], [], q0, [(q0, "i", q1)])
    prod = ia_parallel_product(p, q)
    assert ia_incompatible(prod, p, q).incompatible == frozenset()


def test_error_clause_a():
    # p may output a but q offers no input a at the paired state
    p = make_ia("p", [], ["a"], p0, [(p0, "a", p1)])
    q = make_ia("q", ["a"], [], q0, [])
    prod = ia_parallel_product(p, q)
    inc = ia_incompatible(prod, p, q)
    assert pair_id(p0, q0) in inc.errors
    assert inc.provenance[pair_id(p0, q0)] == ("error-(a)", "a")
    comp = ia_parallel_compose(p, q)
    assert not comp.compatible


def test_error_free_composition_equals_product():
    p = make_ia("p", [], ["a"], p0, [(p0, "a", p1)])
    q = make_ia("q", ["a"], [], q0, [(q0, "a", q1)])
    comp = ia_parallel_compose(p, q)
    assert comp.compatible
    assert comp.automaton.states == comp.product.states
    assert comp.automaton.may == comp.product.may


def test_fig09_client_tryonce():
    client, tryonce = load("fig09_client.ia"), load("fig09_tryonce.ia")
    comp = ia_parallel_compose(client, tryonce)
    inc = comp.incompatibility
    error_pair = pair_id(atom("c1"), atom("t6"))
    post_nack = pair_id(atom("c1"), atom("t4"))
    assert inc.provenance[error_pair] == ("error-(b)", "retry")
    assert post_nack in inc.incompatible
    rule, detail = inc.provenance[post_nack]
    assert rule == "autonomous-step" and "reset" in detail
    # the pair before nack survives: inputs do not propagate incompatibility
    assert pair_id(atom("c1"), atom("t2")) not in inc.incompatible
    assert comp.compatible
    assert validate(comp.automaton) == []
    assert not any(l == "nack" for _, l, _ in comp.automaton.may)
    assert serialize(comp.automaton) == golden_text("fig09_compose.ia")


@pytest.mark.parametrize("seed", range(30))
def test_parallel_composition_compositional(seed):
    rng = random.Random(f"par{seed}")
    q1a, p2 = gen_composable_pair(IA, seed)
    spec = ia_parallel_compose(q1a, p2)
    if not spec.compatible:
        return
    p1 = weaken(q1a, rng)
    impl = ia_parallel_compose(p1, p2)
    assert impl.compatible
    assert validate(impl.automaton) == []
    assert holds(impl.automaton, spec.automaton)


@pytest.mark.parametrize("seed", range(20))
def test_pruned_states_and_edges_gone(seed):
    a, b = gen_composable_pair(IA, seed, transition_density=0.5)
    comp = ia_parallel_compose(a, b)
    if not comp.compatible:
        return
    bad = comp.incompatibility.incompatible
    assert not (bad & comp.automaton.states)
    for s, _, t in comp.automaton.may:
        assert s not in bad and t not in bad
