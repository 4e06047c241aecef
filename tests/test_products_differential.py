"""Differential test: the pair products against frozen copies of their
former code, at product scale.

The products now build one row per component state, read by the rules of
every pair, hand their explored states and edges to the automaton as they
are, and, when they keep only what they reach, build ids for the reached
pairs alone.  The oracles below are the former code, kept verbatim apart
from names and docstrings: they read every fact from the pair, collect the
result's states again from its endpoints, and build the whole pair table
up front.  On seeded operands of 20-80 states, every state reachable, with
shared state names (tagged copies), distinct ones (untagged) and
operator-shaped ones (the collision fallback), the full and reachable
conjunctions and disjunctions of every flavor and the IA and MIA
compositions, compatible and refused, must agree on the product's states,
mays and musts, its ``pairs`` and ``unmatched``, and every inconsistency
and incompatibility provenance entry.  A reachable product builds an id
for no pair it does not reach.
"""

from __future__ import annotations

import random
from functools import partial
from types import SimpleNamespace

import pytest

from mialib import ia_ops, mia_ops, model
from mialib.dmts_ops import dmts_conj_product, dmts_disjoin, dmts_inconsistent
from mialib.ia_ops import (ia_conjoin, ia_disjoin, ia_incompatible,
                           ia_parallel_product)
from mialib.mia_ops import (ConjunctiveProduct, _prune, _prune_incompatible,
                            composed_alphabets, mia_conj_product, mia_disjoin,
                            mia_incompatible, mia_inconsistent,
                            mia_parallel_product)
from mialib.model import (DMTS, IA, MIA, TAU, IdTable, ModalAutomaton,
                          StateId, StateNameCollisionError, explore_pairs,
                          make_automaton, rename_disjoint, require_flavor,
                          require_operands)
from mialib.testkit import weaken

from test_reachable_products import _renamed, _with_colliding_state
from test_refinement_differential import _automaton

SEEDS = 6
NAMES = ("tagged", "untagged", "operator-shaped")


# ---------------------------------------------------------------------------
# Frozen oracles


def old_pair_id(left: StateId, right: StateId) -> StateId:
    return StateId(StateId.PAIR, (left, right))


def old_wedge_id(left: StateId, right: StateId) -> StateId:
    return StateId(StateId.WEDGE, (left, right))


def old_vee_id(left: StateId, right: StateId) -> StateId:
    return StateId(StateId.VEE, (left, right))


def old_disjoint_operands(p: ModalAutomaton, q: ModalAutomaton,
                          combine) -> tuple[ModalAutomaton, ModalAutomaton, dict]:
    p, q = rename_disjoint(p, q)
    ids = {(a, b): combine(a, b) for a in p.states for b in q.states}
    if not (p.states | q.states).isdisjoint(ids.values()):
        p, q = p._as_left, q._as_right
        ids = {(a, b): combine(a, b) for a in p.states for b in q.states}
        clash = (p.states | q.states).intersection(ids.values())
        if clash:
            raise StateNameCollisionError(
                f"combined state {min(clash)} is also an operand state")
    return p, q, ids


def old_conj_product(p: ModalAutomaton, q: ModalAutomaton, flavor: str,
                     reachable: bool = False) -> ConjunctiveProduct:
    require_operands(p, q, flavor)
    p, q, ids = old_disjoint_operands(p, q, old_pair_id)
    pw, qw = p.weak, q.weak
    inputs, outputs = p.alphabet.inputs, p.alphabet.outputs
    silent_or_outputs = outputs | {TAU}
    pairs: dict = {}
    unmatched: dict = {}

    def rule(state: StateId):
        ps, qs = pairs[state] = state.parts
        p_weak, q_weak = pw.row(ps), qw.row(qs)
        p_musts, q_musts = p.must_row(ps), q.must_row(qs)
        mays, musts = [], []
        # Rows list their labels in text order, so F1 and F2 each record
        # the smallest unmatched output.
        for o, p_sets in p_musts.items():                # (OMust1)
            if o not in outputs:
                continue
            partners = q_weak.get(o)
            if partners:
                musts += [(o, frozenset([ids[pt, qt] for pt in p_targets
                                         for qt in partners]))
                          for p_targets in p_sets]
            else:                                        # (F1)
                unmatched.setdefault(state, ("F1", o))
        for o, q_sets in q_musts.items():                # (OMust2)
            if o not in outputs:
                continue
            partners = p_weak.get(o)
            if partners:
                musts += [(o, frozenset([ids[pt, qt] for pt in partners
                                         for qt in q_targets]))
                          for q_targets in q_sets]
            else:                                        # (F2)
                unmatched.setdefault(state, ("F2", o))
        # A valid MIA state has at most one must per input, and its input
        # mays are exactly that must's targets.  So a side has input mays
        # just when it has the must, and (IMay1)-(IMay3) allow exactly the
        # targets (IMust1)-(IMust3) require.
        for i in inputs:
            p_sets = p_musts.get(i)
            q_sets = q_musts.get(i)
            if p_sets and q_sets:                        # (IMust3)
                targets = frozenset([
                    ids[pt, qt] for pt in p_sets[0] for qt in q_sets[0]])
            elif p_sets:                                 # (IMust1)
                targets = p_sets[0]
            elif q_sets:                                 # (IMust2)
                targets = q_sets[0]
            else:
                continue
            musts.append((i, targets))
            mays += [(i, t) for t in targets]            # (IMay1)-(IMay3)
        mays += [(TAU, ids[pt, qs]) for pt in p_weak.get(TAU, ())]   # (May1)
        mays += [(TAU, ids[ps, qt]) for qt in q_weak.get(TAU, ())]   # (May2)
        for alpha, p_succ in p_weak.items():             # (May3)
            q_succ = q_weak.get(alpha)
            if q_succ and alpha in silent_or_outputs:
                mays += [(alpha, ids[pt, qt])
                         for pt in p_succ for qt in q_succ]
        return mays, musts

    init = ids[p.initial, q.initial]
    states, may, must = explore_pairs(ids, init, rule,
                                      (p, q) if flavor == MIA else (), reachable)
    automaton = make_automaton(flavor, f"{p.name}_and_{q.name}", inputs,
                               outputs, init, may, must, states=states)
    return ConjunctiveProduct(automaton=automaton, left=p, right=q,
                              pairs=pairs, unmatched=unmatched)


def old_disjoin(p: ModalAutomaton, q: ModalAutomaton, flavor: str,
               reachable: bool = False) -> ModalAutomaton:
    require_operands(p, q, flavor)
    p, q, ids = old_disjoint_operands(p, q, old_vee_id)
    inputs = p.alphabet.inputs

    def rule(state: StateId):
        ps, qs = state.parts
        musts = [(a, p_targets | q_targets)              # (Must)
                 for a, p_targets in p.musts_from(ps)
                 for q_targets in q.must_sets(qs, a)]
        mays = [(alpha, pt) for alpha, pt in p.may_from(ps)      # (May1)
                if alpha not in inputs or q.has_may(qs, alpha)]
        mays += [(alpha, qt) for alpha, qt in q.may_from(qs)     # (May2)
                 if alpha not in inputs or p.has_may(ps, alpha)]
        return mays, musts

    init = ids[p.initial, q.initial]
    states, may, must = explore_pairs(ids, init, rule, (p, q), reachable)
    return make_automaton(flavor, f"{p.name}_or_{q.name}", inputs,
                          p.alphabet.outputs, init, may, must, states=states)


def old_parallel_product(p1: ModalAutomaton, p2: ModalAutomaton,
                         flavor: str) -> ModalAutomaton:
    require_flavor(p1, flavor)
    require_flavor(p2, flavor)
    inputs, outputs = composed_alphabets(p1, p2)
    a1, a2 = p1.alphabet.actions, p2.alphabet.actions
    ids = IdTable(partial(StateId, StateId.PAIR))

    def rule(state: StateId):
        s1, s2 = state.parts
        musts = [(a, frozenset([ids[t, s2] for t in targets]))   # (Must1)
                 for a, targets in p1.musts_from(s1) if a not in a2]
        musts += [(a, frozenset([ids[s1, t] for t in targets]))  # (Must2)
                  for a, targets in p2.musts_from(s2) if a not in a1]
        mays = []
        row1, row2 = p1.may_row(s1), p2.may_row(s2)
        for alpha, ends1 in row1.items():
            if alpha not in a2:                          # (May1)
                mays += [(alpha, ids[t1, s2]) for t1 in ends1]
            elif alpha in row2:                          # (May3)
                mays += [(TAU, ids[t1, t2])
                         for t1 in ends1 for t2 in row2[alpha]]
        for alpha, ends2 in row2.items():
            if alpha not in a1:                          # (May2)
                mays += [(alpha, ids[s1, t2]) for t2 in ends2]
        return mays, musts

    init = ids[p1.initial, p2.initial]
    states, may, must = explore_pairs(ids, init, rule)
    return make_automaton(flavor, f"{p1.name}_x_{p2.name}", inputs, outputs,
                          init, may, must, states=states)


def old_ia_conjoin(p: ModalAutomaton, q: ModalAutomaton, *,
                   reachable: bool = False) -> ModalAutomaton:
    require_operands(p, q, IA)
    p, q, ids = old_disjoint_operands(p, q, old_wedge_id)
    inputs, outputs = p.alphabet.inputs, p.alphabet.outputs

    def rule(w):
        ps, qs = w.parts
        p_mays, q_mays = p.may_row(ps), q.may_row(qs)
        mays = []
        for a in inputs:
            pt = p_mays.get(a)
            qt = q_mays.get(a)
            if pt and not qt:                           # (I1)
                mays.append((a, pt[0]))
            elif qt and not pt:                         # (I2)
                mays.append((a, qt[0]))
            elif pt and qt:                             # (I3)
                mays.append((a, ids[pt[0], qt[0]]))
        musts = [(a, frozenset([t])) for a, t in mays]
        for o in outputs:                               # (O)
            for pt in p_mays.get(o, ()):
                for qt in q_mays.get(o, ()):
                    mays.append((o, ids[pt, qt]))
        for pt in p_mays.get(TAU, ()):                  # (T1)
            mays.append((TAU, ids[pt, qs]))
        for qt in q_mays.get(TAU, ()):                  # (T2)
            mays.append((TAU, ids[ps, qt]))
        return mays, musts

    init = ids[p.initial, q.initial]
    states, may, must = explore_pairs(ids, init, rule, (p, q), reachable)
    return make_automaton(IA, f"{p.name}_and_{q.name}", inputs, outputs, init,
                          may, must, states=states)


def old_ia_disjoin(p: ModalAutomaton, q: ModalAutomaton, *,
                   reachable: bool = False) -> ModalAutomaton:
    require_operands(p, q, IA)
    p, q, ids = old_disjoint_operands(p, q, old_vee_id)
    inputs = p.alphabet.inputs

    def rule(v):
        ps, qs = v.parts
        p_mays, q_mays = p.may_row(ps), q.may_row(qs)
        mays = []
        for a in inputs:                                # (I)
            pt = p_mays.get(a)
            qt = q_mays.get(a)
            if pt and qt:
                mays.append((a, ids[pt[0], qt[0]]))
        musts = [(a, frozenset([t])) for a, t in mays]
        for side, s in ((p, ps), (q, qs)):              # (OT1), (OT2)
            mays.extend((alpha, t) for alpha, t in side.may_from(s)
                        if alpha not in inputs)
        return mays, musts

    init = ids[p.initial, q.initial]
    states, may, must = explore_pairs(ids, init, rule, (p, q), reachable)
    return make_automaton(IA, f"{p.name}_or_{q.name}", inputs,
                          p.alphabet.outputs, init, may, must, states=states)


# ---------------------------------------------------------------------------
# Instances


def _conj_operands(flavor: str, seed: int, names: str):
    """Two operands of 20-80 states, every state reachable in each.

    The right one is a weakening of the left, an independent automaton, or
    one that never does the first output, which then a left must at the
    root requires (except in an IA, whose outputs are mays).  With ``tagged`` names both use
    ``s0, s1, ...``, so the products rename them; ``untagged`` renames the
    right one ``t0, t1, ...``; ``operator-shaped`` adds a left state named
    like the combined id of ``(s0, t0)`` for every operator at once.
    """
    rng = random.Random(f"products|{flavor}|{seed}")
    actions = [f"a{i}" for i in range(rng.randint(2, 4))]
    if flavor == DMTS:
        inputs, outputs = [], actions
    else:
        k = rng.randint(1, len(actions) - 1)
        inputs, outputs = actions[:k], actions[k:]
    p = _automaton(flavor, rng.randint(20, 80), inputs, outputs, rng, "P")
    shape = ("weakened", "independent", "stripped")[seed % 3]
    if shape == "weakened":
        q = weaken(p, rng)
    else:
        q = _automaton(flavor, rng.randint(20, 80), inputs, outputs, rng, "Q")
    if shape == "stripped":
        o = outputs[0]
        q = make_automaton(flavor, q.name, inputs, outputs, q.initial,
                           [edge for edge in q.may if edge[1] != o],
                           [edge for edge in q.must if edge[1] != o],
                           states=q.states)
        if flavor != IA:
            s0 = p.initial
            p = make_automaton(flavor, p.name, inputs, outputs, s0,
                               p.may | {(s0, o, s0)},
                               p.must | {(s0, o, frozenset([s0]))},
                               states=p.states)
    if names == "untagged":
        q = _renamed(q)
    elif names == "operator-shaped":
        for combine in (old_pair_id, old_wedge_id, old_vee_id):
            p, q = _with_colliding_state(p, q, combine)
    return p, q


def _receptive(aut: ModalAutomaton, action: str) -> ModalAutomaton:
    """``aut`` with a must self-loop on the input ``action`` wherever it
    has none."""
    loops = [s for s in aut.states if not aut.has_must(s, action)]
    return make_automaton(aut.flavor, aut.name, aut.alphabet.inputs,
                          aut.alphabet.outputs, aut.initial,
                          aut.may | {(s, action, s) for s in loops},
                          aut.must | {(s, action, frozenset([s])) for s in loops},
                          states=aut.states)


def _compose_operands(flavor: str, seed: int):
    """Two composable operands of 20-80 states: the left outputs ``c`` to
    the right and the right ``d`` to the left.  Even seeds make each side
    receptive on its shared input, so the composition is compatible."""
    rng = random.Random(f"products-compose|{flavor}|{seed}")
    left = _automaton(flavor, rng.randint(20, 80), ["l0", "d"], ["l1", "c"],
                      rng, "L")
    right = _automaton(flavor, rng.randint(20, 80), ["r0", "c"], ["r1", "d"],
                       rng, "R")
    if seed % 2 == 0:
        left, right = _receptive(left, "d"), _receptive(right, "c")
    return left, right


# ---------------------------------------------------------------------------
# Tables the products build


@pytest.fixture()
def tables(monkeypatch):
    """Every ``(left, right, ids)`` a pair product got from
    ``product_operands``, in ``tables.seen``, and the key of every pair id
    the parallel product built, in ``tables.built``."""
    seen = []
    real = model.product_operands

    def spy(*args):
        out = real(*args)
        seen.append(out)
        return out
    monkeypatch.setattr(mia_ops, "product_operands", spy)
    monkeypatch.setattr(ia_ops, "product_operands", spy)
    built = []
    pair_of = mia_ops._pair_of

    def counted(key):
        built.append(key)
        return pair_of(key)
    monkeypatch.setattr(mia_ops, "_pair_of", counted)
    return SimpleNamespace(seen=seen, built=built)


def _check_table(tables, names: str, reachable: bool, pair_states) -> None:
    """The last product's id table holds exactly its reached pairs, unless
    it is the complete table a full product or a possible collision asks
    for."""
    left, right, ids = tables.seen.pop()
    assert not tables.seen
    if reachable and names != "operator-shaped":
        assert type(ids) is IdTable
        assert set(ids.values()) == set(pair_states)
        assert len(ids) == len(pair_states)
    else:
        assert len(ids) == len(left.states) * len(right.states)
        assert all(sid.parts == key for key, sid in ids.items())


# ---------------------------------------------------------------------------
# Tests


CONJUNCTIONS = {DMTS: dmts_conj_product, MIA: mia_conj_product}
INCONSISTENT = {DMTS: dmts_inconsistent, MIA: mia_inconsistent}


def _same_product(new: ConjunctiveProduct, old: ConjunctiveProduct) -> None:
    assert new.automaton == old.automaton
    assert new.left == old.left and new.right == old.right
    assert new.pairs == old.pairs
    assert new.unmatched == old.unmatched


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_conjunctive_products_match_the_former_code(flavor, tables):
    product = CONJUNCTIONS[flavor]
    outcomes = set()
    for seed in range(SEEDS):
        names = NAMES[seed % len(NAMES)]
        p, q = _conj_operands(flavor, seed, names)
        for reachable in (False, True):
            new = product(p, q, reachable=reachable)
            old = old_conj_product(p, q, flavor, reachable)
            _same_product(new, old)
            _check_table(tables, names, reachable, new.pairs)
            inconsistent = INCONSISTENT[flavor]
            bad_new, bad_old = inconsistent(new), inconsistent(old)
            assert bad_new == bad_old
            assert bad_new.provenance == bad_old.provenance
            pruned = _prune(new, bad_new, reachable).automaton
            assert pruned == _prune(old, bad_old, reachable).automaton
            outcomes.add((pruned is None, bool(bad_new.members)))
    assert {True, False} == {undefined for undefined, _ in outcomes}
    assert (False, True) in outcomes


DISJUNCTIONS = {DMTS: dmts_disjoin, MIA: mia_disjoin}


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_disjunctions_match_the_former_code(flavor, tables):
    for seed in range(SEEDS):
        names = NAMES[seed % len(NAMES)]
        p, q = _conj_operands(flavor, seed, names)
        for reachable in (False, True):
            new = DISJUNCTIONS[flavor](p, q, reachable=reachable)
            assert new == old_disjoin(p, q, flavor, reachable)
            left, right, _ = tables.seen[-1]
            _check_table(tables, names, reachable,
                         new.states - left.states - right.states)


@pytest.mark.parametrize("op, old_op", [(ia_conjoin, old_ia_conjoin),
                                        (ia_disjoin, old_ia_disjoin)])
def test_ia_conjunction_and_disjunction_match_the_former_code(op, old_op, tables):
    for seed in range(SEEDS):
        names = NAMES[seed % len(NAMES)]
        p, q = _conj_operands(IA, seed, names)
        for reachable in (False, True):
            new = op(p, q, reachable=reachable)
            assert new == old_op(p, q, reachable=reachable)
            left, right, _ = tables.seen[-1]
            _check_table(tables, names, reachable,
                         new.states - left.states - right.states)


PARALLEL = {IA: ia_parallel_product, MIA: mia_parallel_product}
INCOMPATIBLE = {IA: ia_incompatible, MIA: mia_incompatible}


@pytest.mark.parametrize("flavor", (IA, MIA))
def test_parallel_products_match_the_former_code(flavor, tables):
    compatible = set()
    for seed in range(SEEDS):
        p1, p2 = _compose_operands(flavor, seed)
        new = PARALLEL[flavor](p1, p2)
        old = old_parallel_product(p1, p2, flavor)
        assert new == old
        assert len(tables.built) == len(new.states)
        tables.built.clear()
        incompatible = INCOMPATIBLE[flavor]
        inc_new, inc_old = incompatible(new, p1, p2), incompatible(old, p1, p2)
        assert inc_new == inc_old
        assert inc_new.provenance == inc_old.provenance
        name = f"{p1.name}_par_{p2.name}"
        pruned = _prune_incompatible(new, inc_new, name).automaton
        assert pruned == _prune_incompatible(old, inc_old, name).automaton
        compatible.add(pruned is not None)
        assert compatible.issuperset({seed % 2 == 0})
    assert compatible == {True, False}
