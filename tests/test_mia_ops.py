from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import can_weak, golden_text, load
from mialib.frontend import parse, serialize
from mialib.mia_ops import (is_mia_witness, mia_conj_product, mia_conjoin,
                            mia_disjoin, mia_incompatible, mia_inconsistent,
                            mia_parallel_compose, mia_parallel_product)
from mialib.model import (DMTS, MIA, TAU, as_dmts, atom, pair_id,
                          restrict_reachable, validate)
from mialib.dmts_ops import dmts_conj_product, dmts_inconsistent, is_dmts_witness
from mialib.refinement import (dmts_refines, holds, mia_equiv,
                               mia_refines)
from mialib.testkit import (gen_composable_pair, gen_over, gen_pair, gen_random,
                             weaken)

p0, p1, p2 = atom("p0"), atom("p1"), atom("p2")
q0, q1, q2 = atom("q0"), atom("q1"), atom("q2")


def mia(text):
    return parse(text)


# ---------------------------------------------------------------------------
# Conjunctive product rules


def test_input_must_escapes_to_component():
    p = mia("mia p { inputs: i; outputs: ; initial p0; must p0 -i-> p1; }")
    q = mia("mia q { inputs: i; outputs: ; initial q0; }")
    prod = mia_conj_product(p, q).automaton
    assert prod.musts_from(prod.initial) == [("i", frozenset([atom("p1")]))]


def test_input_must_synchronizes_as_cartesian_product():
    p = mia("mia p { inputs: i; outputs: ; initial p0; must p0 -i-> {p1, p2}; }")
    q = mia("mia q { inputs: i; outputs: ; initial q0; must q0 -i-> q1; }")
    prod = mia_conj_product(p, q).automaton
    [(label, targets)] = prod.musts_from(prod.initial)
    assert label == "i"
    assert targets == frozenset([pair_id(atom("p1"), atom("q1")),
                                 pair_id(atom("p2"), atom("q1"))])


def test_component_transitions_inherited():
    p = mia("mia p { inputs: i; outputs: ; initial p0; must p0 -i-> p1; }")
    q = mia("mia q { inputs: i; outputs: ; initial q0; }")
    prod = mia_conj_product(p, q).automaton
    assert atom("p1") in prod.states and atom("q0") in prod.states
    assert prod.musts_from(atom("p0")) == [("i", frozenset([atom("p1")]))]


def test_fig04_with_all_actions_as_outputs_matches_dmts():
    p4 = mia("""mia p4 { inputs: ; outputs: a, b; initial 1;
                may 1 -a-> 2; may 1 -a-> 3; may 3 -a-> 4;
                may 1 -tau-> 3; may 2 -tau-> 1; may 4 -tau-> 1;
                must 4 -b-> 1; may 4 -b-> 1; }""")
    q4 = mia("""mia q4 { inputs: ; outputs: a, b; initial 5;
                must 5 -a-> 6; may 5 -a-> 6; may 5 -b-> 6; }""")
    mprod = mia_conj_product(p4, q4)
    F = mia_inconsistent(mprod)
    assert {s.text for s in F.members} == {"(4,6)", "(3,5)"}
    dprod = dmts_conj_product(as_dmts(p4), as_dmts(q4))
    dF = dmts_inconsistent(dprod)
    assert F.members == dF.members
    # pair-part transitions coincide with the dMTS product
    pair_must = {m for m in mprod.automaton.must if m[0] in mprod.pairs}
    assert pair_must == set(dprod.automaton.must)
    pair_may = {e for e in mprod.automaton.may if e[0] in mprod.pairs}
    assert pair_may == set(dprod.automaton.may)


# ---------------------------------------------------------------------------
# Inconsistency rules


def test_unmatched_input_must_is_not_inconsistent():
    p = mia("mia p { inputs: i; outputs: ; initial p0; must p0 -i-> p1; }")
    q = mia("mia q { inputs: i; outputs: ; initial q0; }")
    prod = mia_conj_product(p, q)
    assert mia_inconsistent(prod).members == frozenset()
    assert mia_conjoin(p, q).defined


def test_unmatched_output_must_is_inconsistent():
    p = mia("mia p { inputs: ; outputs: o; initial p0; must p0 -o-> p1; may p0 -o-> p1; }")
    q = mia("mia q { inputs: ; outputs: o; initial q0; }")
    prod = mia_conj_product(p, q)
    F = mia_inconsistent(prod)
    assert F.provenance[pair_id(p0, q0)] == ("F1", "o")
    assert not mia_conjoin(p, q).defined


def test_input_must_with_all_targets_inconsistent_propagates():
    # frozen from a hand-computed least fixpoint on this six-state instance
    p = mia("""mia p { inputs: i; outputs: o; initial p0;
               must p0 -i-> p1; must p1 -o-> p2; may p1 -o-> p2; }""")
    q = mia("""mia q { inputs: i; outputs: o; initial q0;
               must q0 -i-> {q1, q2}; }""")
    prod = mia_conj_product(p, q)
    F = mia_inconsistent(prod)
    expected_core = {pair_id(atom("p1"), atom("q1")),
                     pair_id(atom("p1"), atom("q2")),
                     pair_id(atom("p0"), atom("q0"))}
    assert expected_core <= F.members
    assert F.provenance[pair_id(atom("p0"), atom("q0"))][0] == "F3"
    assert not mia_conjoin(p, q).defined


def test_component_states_never_inconsistent():
    for seed in range(15):
        p, q = gen_pair(MIA, seed, transition_density=0.5)
        prod = mia_conj_product(p, q)
        F = mia_inconsistent(prod)
        assert all(m in prod.pairs for m in F.members)


def _flavored_conj_product(flavor, p, q):
    if flavor == MIA:
        return mia_conj_product(p, q)
    return dmts_conj_product(as_dmts(p), as_dmts(q))


def _first_unmatched(side, s, other, t):
    """The first output must of ``side`` at ``s`` that ``other`` cannot
    weakly allow at ``t``, or None."""
    return next((a for a, _ in side.musts_from(s) if a in side.alphabet.outputs
                 and not can_weak(other.weak, t, a)), None)


def _unmatched_by_hand(product):
    """(F1)/(F2) per pair, recomputed from the operands' weak closures."""
    left, right = product.left, product.right
    expected = {}
    for state, (ps, qs) in product.pairs.items():
        f1 = _first_unmatched(left, ps, right, qs)
        f2 = _first_unmatched(right, qs, left, ps)
        if f1 or f2:
            expected[state] = ("F1", f1) if f1 else ("F2", f2)
    return expected


@pytest.mark.parametrize("flavor", [MIA, DMTS])
def test_product_records_the_first_unmatched_output_must(flavor):
    # At the root pair the left must b and the right must a both lack a
    # weak partner, and (F1) comes first.  The MIA operands add an
    # unmatched left input must, which is no (F1) at all.
    inputs, extra = ("a0", "must p0 -a0-> p1; may p0 -a0-> p1;") \
        if flavor == MIA else ("", "")
    p = mia(f"""mia p {{ inputs: {inputs}; outputs: a, b; initial p0; {extra}
               must p0 -b-> p1; may p0 -b-> p1; }}""")
    q = mia(f"""mia q {{ inputs: {inputs}; outputs: a, b; initial q0;
               must q0 -a-> q1; may q0 -a-> q1; }}""")
    product = _flavored_conj_product(flavor, p, q)
    assert product.unmatched[pair_id(p0, q0)] == ("F1", "b")


@pytest.mark.parametrize("flavor", [MIA, DMTS])
def test_product_unmatched_equals_a_recomputation(flavor):
    # a MIA pair where both sides fail is rare: 3 of these 300 seeds
    rules = set()
    for seed in range(300):
        p, q = gen_pair(flavor, seed, transition_density=0.5)
        product = _flavored_conj_product(flavor, p, q)
        assert product.unmatched == _unmatched_by_hand(product)
        rules |= {rule for rule, _ in product.unmatched.values()}
    assert rules == {"F1", "F2"}


def _outputs_required(aut):
    """``aut`` with every output may also required, as a singleton must."""
    outputs = aut.alphabet.outputs
    return replace(aut, must=aut.must | {(s, o, frozenset([t]))
                                         for s, o, t in aut.may if o in outputs})


def test_unmatched_prefers_the_left_side_where_both_sides_fail():
    # With every output may required, about half of these pairs have a
    # product state where both sides require an output the other lacks.
    reached = 0
    for k in range(100):
        p, q = (_outputs_required(gen_over(MIA, ["i0"], ["o0", "o1"], max_states=5,
                                           transition_density=0.5, seed=seed))
                for seed in (2 * k, 2 * k + 1))
        assert validate(p) == [] and validate(q) == []
        product = mia_conj_product(p, q)
        assert product.unmatched == _unmatched_by_hand(product)
        provenance = mia_inconsistent(product).provenance
        assert {state: provenance[state] for state in product.unmatched} \
            == product.unmatched
        left, right = product.left, product.right
        reached += any(_first_unmatched(left, ps, right, qs)
                       and _first_unmatched(right, qs, left, ps)
                       for ps, qs in product.pairs.values())
    assert reached >= 40


# ---------------------------------------------------------------------------
# Conjunction: GLB and figure fixtures


@pytest.mark.parametrize("seed", range(40))
def test_glb_law(seed):
    p, q = gen_pair(MIA, seed)
    rng = random.Random(f"mglb{seed}")
    r = weaken(p if seed % 2 else q, rng)
    below = holds(r, p) and holds(r, q)
    conj = mia_conjoin(p, q)
    if conj.defined:
        assert validate(conj.automaton) == []
        assert below == holds(r, conj.automaton)
    else:
        assert not below


def test_fig06_mia_conjunction_isomorphic_to_q():
    p, q = load("fig06_p.mia"), load("fig06_q.mia")
    conj = mia_conjoin(p, q)
    assert conj.defined
    reach = restrict_reachable(conj.automaton)
    assert mia_equiv(reach, q)
    assert len(reach.states) == len(q.states)
    assert len(reach.must) == len(q.must)
    assert len(reach.may) == len(q.may)


def test_fig06_conjunction_golden():
    # (IMust1) at (p0,q2), (IMust2) at (p1,q0), (IMust3) at (p0,q0) and an
    # output must at (p1,q1); the input mays under them are not printed
    p, q = load("fig06_p.mia"), load("fig06_q.mia")
    assert serialize(mia_conjoin(p, q).automaton) == golden_text("fig06_conj.mia")


@pytest.mark.parametrize("seed", range(20))
def test_reachability_trim_preserves_verdicts(seed):
    p, q = gen_pair(MIA, seed)
    conj = mia_conjoin(p, q)
    if not conj.defined:
        return
    r = weaken(p, random.Random(seed))
    trimmed = restrict_reachable(conj.automaton)
    assert validate(trimmed) == []
    assert holds(r, conj.automaton) == holds(r, trimmed)
    assert mia_equiv(trimmed, conj.automaton)


# ---------------------------------------------------------------------------
# Disjunction


def test_disjoin_input_needs_both_sides():
    p = mia("mia p { inputs: i; outputs: ; initial p0; must p0 -i-> p1; }")
    q = mia("mia q { inputs: i; outputs: ; initial q0; }")
    d = mia_disjoin(p, q)
    assert validate(d) == []
    assert d.may_targets(d.initial, "i") == []
    assert d.musts_from(d.initial) == []


def test_fig10_finer_than_flat_disjunction():
    p, q, r = load("fig10_p.mia"), load("fig10_q.mia"), load("fig10_r.mia")
    d = mia_disjoin(p, q)
    assert validate(d) == []
    assert mia_refines(d, r).verdict
    assert not mia_refines(r, d).verdict
    assert serialize(d) == golden_text("fig10_disj.mia")


def test_fig11_inclusive_or_across_disjuncts():
    p, q, r = load("fig11_p.mia"), load("fig11_q.mia"), load("fig11_r.mia")
    d = mia_disjoin(p, q)
    assert mia_refines(r, d).verdict


@pytest.mark.parametrize("seed", range(40))
def test_lub_law(seed):
    p, q = gen_pair(MIA, seed)
    rng = random.Random(f"mlub{seed}")
    r = weaken(q if seed % 2 else p, rng)
    d = mia_disjoin(p, q)
    assert validate(d) == []
    assert holds(d, r) == (holds(p, r) and holds(q, r))


# ---------------------------------------------------------------------------
# Parallel product and composition


def test_product_lifts_disjunctive_musts():
    p = mia("mia p { inputs: a; outputs: ; initial p0; must p0 -a-> {p1, p2}; }")
    q = mia("mia q { inputs: b; outputs: ; initial q0; must q0 -b-> q1; }")
    prod = mia_parallel_product(p, q)
    init = prod.initial
    musts = dict(prod.musts_from(init))
    assert musts["a"] == frozenset([pair_id(atom("p1"), atom("q0")),
                                    pair_id(atom("p2"), atom("q0"))])
    assert musts["b"] == frozenset([pair_id(atom("p0"), atom("q1"))])


def test_synchronization_gives_may_tau_only():
    p = mia("mia p { inputs: ; outputs: a; initial p0; must p0 -a-> p1; may p0 -a-> p1; }")
    q = mia("mia q { inputs: a; outputs: ; initial q0; must q0 -a-> q1; }")
    prod = mia_parallel_product(p, q)
    assert (prod.initial, TAU, pair_id(atom("p1"), atom("q1"))) in prod.may
    assert prod.musts_from(prod.initial) == []


def test_fig09_modal_reading_reproduces_ia_product():
    from mialib.ia_ops import ia_parallel_product
    clm, trm = load("fig09_client.mia"), load("fig09_tryonce.mia")
    cli, tri = load("fig09_client.ia"), load("fig09_tryonce.ia")
    mprod = mia_parallel_product(clm, trm)
    iprod = ia_parallel_product(cli, tri)
    assert mprod.states == iprod.states
    assert mprod.may == iprod.may
    assert all(l != TAU for _, l, _ in mprod.must)
    assert {(s, l) for s, l, _ in iprod.may if l != TAU} \
        == {(s, l) for s, l, _ in mprod.must}


def test_error_when_output_meets_missing_input_must():
    p = mia("mia p { inputs: ; outputs: a; initial p0; may p0 -a-> p1; }")
    q = mia("mia q { inputs: a; outputs: ; initial q0; }")
    prod = mia_parallel_product(p, q)
    inc = mia_incompatible(prod, p, q)
    assert inc.provenance[pair_id(p0, q0)] == ("error-(a)", "a")
    assert not mia_parallel_compose(p, q).compatible


def test_no_shared_actions_no_errors():
    p = mia("mia p { inputs: ; outputs: o; initial p0; may p0 -o-> p1; }")
    q = mia("mia q { inputs: i; outputs: ; initial q0; must q0 -i-> q1; }")
    prod = mia_parallel_product(p, q)
    assert mia_incompatible(prod, p, q).incompatible == frozenset()


def test_fig08_pruning_of_input_must():
    p, q, qp = load("fig08_p.mia"), load("fig08_q.mia"), load("fig08_qprime.mia")
    assert mia_refines(qp, q).verdict
    comp = mia_parallel_compose(p, q)
    assert comp.compatible
    err = pair_id(atom("p0"), atom("q1"))
    assert comp.incompatibility.provenance[err] == ("error-(b)", "a")
    # the i-must and its underlying may are both gone
    assert comp.automaton.must == frozenset()
    assert comp.automaton.may == frozenset()
    assert validate(comp.automaton) == []
    assert serialize(comp.automaton) == golden_text("fig08_pq.mia")
    comp_p = mia_parallel_compose(p, qp)
    assert comp_p.compatible
    assert serialize(comp_p.automaton) == golden_text("fig08_pq_prime.mia")
    # refinement is preserved by composition, unlike under the dMTS clause
    assert mia_refines(comp_p.automaton, comp.automaton).verdict
    assert not dmts_refines(as_dmts(comp_p.automaton), as_dmts(comp.automaton)).verdict


def test_partially_dead_input_must_removed_with_its_mays():
    # the environment must not provide i: both i-branches disappear although
    # one of them leads to a perfectly fine state
    p = mia("""mia p { inputs: i; outputs: o; initial p0;
               must p0 -i-> {p1, p2}; may p1 -o-> p3; }""")
    q = mia("""mia q { inputs: o; outputs: ; initial q0; }""")
    comp = mia_parallel_compose(p, q)
    assert comp.compatible
    aut = comp.automaton
    dead = pair_id(atom("p1"), atom("q0"))
    fine = pair_id(atom("p2"), atom("q0"))
    assert dead in comp.incompatibility.incompatible
    assert fine not in comp.incompatibility.incompatible
    assert aut.musts_from(aut.initial) == []
    assert aut.may_targets(aut.initial, "i") == []
    assert validate(aut) == []


@pytest.mark.parametrize("seed", range(30))
def test_parallel_composition_compositional(seed):
    rng = random.Random(f"mpar{seed}")
    q1a, p2a = gen_composable_pair(MIA, seed)
    spec = mia_parallel_compose(q1a, p2a)
    if not spec.compatible:
        return
    p1a = weaken(q1a, rng)
    impl = mia_parallel_compose(p1a, p2a)
    assert impl.compatible
    assert validate(impl.automaton) == []
    assert holds(impl.automaton, spec.automaton)


def test_fig12_input_determinism_matters():
    p, q, r = (load("invalid_fig12_p.mia"), load("fig12_q.mia"),
               load("fig12_r.mia"))
    assert any(v.rule == "mia-input-must-unique" for v in validate(p))
    assert validate(q) == [] and validate(r) == []
    # the checker itself does not gate on validity (that is the CLI's
    # job), so the broken variant can still be run through the clauses
    assert mia_refines(p, q).verdict
    compat_q = mia_parallel_compose(q, r)
    compat_p = mia_parallel_compose(p, r)
    assert compat_q.compatible
    assert not compat_p.compatible  # compositionality fails for the variant
    assert serialize(compat_q.automaton) == golden_text("fig12_qr.mia")


def test_composition_without_incompatible_states_keeps_the_product():
    p, q = load("fig08_p.mia"), load("fig08_qprime.mia")
    comp = mia_parallel_compose(p, q)
    assert comp.compatible
    assert comp.incompatibility.incompatible == frozenset()
    aut, product = comp.automaton, comp.product
    assert (aut.states, aut.may, aut.must) == (product.states, product.may,
                                               product.must)
    assert aut.name == f"{p.name}_par_{q.name}"


# ---------------------------------------------------------------------------
# Witness laws


def test_common_implementation_pairs_with_components_form_witness():
    for seed in range(12):
        p, q = gen_pair(MIA, seed)
        r = gen_random(MIA, seed=seed + 900, transition_density=0.4)
        if r.alphabet != p.alphabet:
            continue
        prod = mia_conj_product(p, q)
        w = {(ps, qs)
             for ps in prod.left.sorted_states
             for qs in prod.right.sorted_states
             if any(mia_refines(r, prod.left, rs, ps).verdict
                    and mia_refines(r, prod.right, rs, qs).verdict
                    for rs in r.sorted_states)}
        assert is_mia_witness(prod, w)
        F = mia_inconsistent(prod)
        assert not ({pair_id(a, b) for a, b in w} & F.members)


def test_witness_rejects_unmatched_output_requirement():
    p = mia("mia p { inputs: ; outputs: o; initial p0; must p0 -o-> p1; may p0 -o-> p1; }")
    q = mia("mia q { inputs: ; outputs: o; initial q0; }")
    prod = mia_conj_product(p, q)
    assert not is_mia_witness(prod, {(p0, q0)})


def test_witness_rejects_a_must_whose_targets_leave_the_set():
    # (W3): the product must at (p0,q0) reaches only (p1,q1)
    p = mia("mia p { inputs: ; outputs: o; initial p0; must p0 -o-> p1; may p0 -o-> p1; }")
    q = mia("mia q { inputs: ; outputs: o; initial q0; may q0 -o-> q1; }")
    for prod, is_witness in ((mia_conj_product(p, q), is_mia_witness),
                             (dmts_conj_product(as_dmts(p), as_dmts(q)),
                              is_dmts_witness)):
        assert not is_witness(prod, {(p0, q0)})
        assert is_witness(prod, {(p0, q0), (p1, q1)})


# ---------------------------------------------------------------------------
# Operator chaining: operands that already carry operator-shaped names


def test_conjoin_operand_with_pair_shaped_state():
    # the minted pair id "(p,q)" would collide with an existing state,
    # which forces a tagging round before the product is built
    a = mia("mia A { inputs: ; outputs: o; initial p; may p -o-> (p,q); }")
    b = mia("mia B { inputs: ; outputs: o; initial q; }")
    prod = mia_conj_product(a, b)
    assert len(prod.automaton.states) == (len(prod.pairs)
                                          + len(prod.left.states)
                                          + len(prod.right.states))
    conj = mia_conjoin(a, b)
    assert conj.defined and validate(conj.automaton) == []
    assert conj.automaton.initial.text == "(p@L,q@R)"


def test_conjoin_composition_result():
    p = mia("mia P { inputs: ; outputs: a; initial p0; "
            "may p0 -a-> p0; must p0 -a-> p0; }")
    q = mia("mia Q { inputs: a; outputs: ; initial q0; must q0 -a-> q0; }")
    comp = mia_parallel_compose(p, q)
    assert comp.compatible
    r = mia("mia R { inputs: ; outputs: ; initial z; may z -tau-> z; }")
    conj = mia_conjoin(comp.automaton, r)
    assert conj.defined and validate(conj.automaton) == []
    assert mia_refines(conj.automaton, comp.automaton).verdict
    # the serialized result reparses to the same automaton
    again = parse(serialize(conj.automaton))
    assert again.may == conj.automaton.may
    assert again.must == conj.automaton.must
