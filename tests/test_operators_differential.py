"""Differential test: IA composition, dMTS conjunction and disjunction, and
the incompatibility closure against frozen copies of their former code.

IA parallel composition now runs on the MIA product, error rule and
pruning; the dMTS conjunctive product, inconsistency fixpoint, witness
check and disjunction run on the MIA ones with the result flavored
``dmts``; the incompatibility closure sweeps a pre-filtered edge list.
The oracles below are the separate implementations these replaced, kept
verbatim apart from names.  On seeded instances above the refinement
oracle's 7-state limit, compatible and refused, consistent and
inconsistent alike, the products, pruned automata, error and incompatible
sets, inconsistency sets and every provenance entry must be equal.
"""

from __future__ import annotations

from conftest import can_weak
from mialib.dmts_ops import (dmts_conj_product, dmts_conjoin, dmts_disjoin,
                             dmts_inconsistent, is_dmts_witness)
from mialib.ia_ops import ia_incompatible, ia_parallel_compose
from mialib.mia_ops import (IncompatibilitySet, composed_alphabets,
                            mia_incompatible, mia_parallel_product)
from mialib.model import (DMTS, IA, MIA, TAU, ModalAutomaton, StateId,
                          disjoint_operands, make_automaton, make_ia, pair_id,
                          require_flavor, require_same_alphabets, vee_id,
                          weak_closure)
from mialib.testkit import gen_composable_pair, gen_pair

INSTANCES = 1000
MAX_STATES = 8
DENSITIES = (0.2, 0.35, 0.5)


# ---------------------------------------------------------------------------
# Frozen oracles


def old_ia_parallel_product(p1: ModalAutomaton, p2: ModalAutomaton) -> ModalAutomaton:
    require_flavor(p1, IA)
    require_flavor(p2, IA)
    inputs, outputs = composed_alphabets(p1, p2)
    a1, a2 = p1.alphabet.actions, p2.alphabet.actions

    init = pair_id(p1.initial, p2.initial)
    trans: set[tuple[StateId, str, StateId]] = set()
    seen = {init}
    stack = [init]
    while stack:
        cur = stack.pop()
        s1, s2 = cur.parts
        succ = []
        for alpha, t1 in p1.may_from(s1):
            if alpha not in a2:                          # (Par1)
                succ.append((alpha, pair_id(t1, s2)))
            else:                                        # (Par3)
                for beta, t2 in p2.may_from(s2):
                    if beta == alpha:
                        succ.append((TAU, pair_id(t1, t2)))
        for alpha, t2 in p2.may_from(s2):
            if alpha not in a1:                          # (Par2)
                succ.append((alpha, pair_id(s1, t2)))
        for label, tgt in succ:
            trans.add((cur, label, tgt))
            if tgt not in seen:
                seen.add(tgt)
                stack.append(tgt)
    return make_ia(f"{p1.name}_x_{p2.name}", inputs, outputs, init, trans,
                   states=seen)


def old_closure(product: ModalAutomaton, errors: dict):
    """The former incompatibility closure: whole sorted passes until stable."""
    autonomous = product.alphabet.outputs | {TAU}
    provenance = dict(errors)
    incompatible = set(errors)
    changed = True
    while changed:
        changed = False
        for src, label, tgt in product.sorted_may:
            if src in incompatible or label not in autonomous:
                continue
            if tgt in incompatible:
                incompatible.add(src)
                provenance[src] = ("autonomous-step", f"{src} -{label}-> {tgt}")
                changed = True
    return IncompatibilitySet(errors=frozenset(errors),
                              incompatible=frozenset(incompatible),
                              provenance=provenance)


def old_ia_incompatible(product: ModalAutomaton, p1: ModalAutomaton,
                        p2: ModalAutomaton) -> IncompatibilitySet:
    shared = p1.alphabet.actions & p2.alphabet.actions
    errors = {}
    for state in product.sorted_states:
        s1, s2 = state.parts
        for a in sorted(shared):
            if a in p1.alphabet.outputs and p1.has_may(s1, a) and not p2.has_may(s2, a):
                errors[state] = ("error-(a)", a)
                break
            if a in p2.alphabet.outputs and p2.has_may(s2, a) and not p1.has_may(s1, a):
                errors[state] = ("error-(b)", a)
                break
    return old_closure(product, errors)


def old_mia_errors(product: ModalAutomaton, p1: ModalAutomaton,
                   p2: ModalAutomaton) -> dict:
    shared = p1.alphabet.actions & p2.alphabet.actions
    errors = {}
    for state in product.sorted_states:
        s1, s2 = state.parts
        for a in sorted(shared):
            if (a in p1.alphabet.outputs and p1.has_may(s1, a)
                    and not p2.has_must(s2, a)):
                errors[state] = ("error-(a)", a)
                break
            if (a in p2.alphabet.outputs and p2.has_may(s2, a)
                    and not p1.has_must(s1, a)):
                errors[state] = ("error-(b)", a)
                break
    return errors


def old_ia_parallel_compose(p1: ModalAutomaton, p2: ModalAutomaton):
    product = old_ia_parallel_product(p1, p2)
    incompat = old_ia_incompatible(product, p1, p2)
    if product.initial in incompat.incompatible:
        return product, incompat, None
    keep = product.states - incompat.incompatible
    trans = [(s, l, t) for s, l, t in product.may if s in keep and t in keep]
    pruned = make_ia(f"{p1.name}_par_{p2.name}", product.alphabet.inputs,
                     product.alphabet.outputs, product.initial, trans,
                     states=keep)
    return product, incompat, pruned


def old_dmts_disjoin(p: ModalAutomaton, q: ModalAutomaton) -> ModalAutomaton:
    require_flavor(p, DMTS)
    require_flavor(q, DMTS)
    require_same_alphabets(p, q)
    p, q, _ = disjoint_operands(p, q, vee_id)
    actions = p.alphabet.actions

    may = set(p.may) | set(q.may)
    must = set(p.must) | set(q.must)
    for ps in p.sorted_states:
        for qs in q.sorted_states:
            v = vee_id(ps, qs)
            for a in sorted(actions):                    # (Must)
                for p_targets in p.must_sets(ps, a):
                    for q_targets in q.must_sets(qs, a):
                        must.add((v, a, frozenset(p_targets | q_targets)))
            for alpha, pt in p.may_from(ps):             # (May1)
                may.add((v, alpha, pt))
            for alpha, qt in q.may_from(qs):             # (May2)
                may.add((v, alpha, qt))

    states = (set(p.states) | set(q.states)
              | {vee_id(ps, qs) for ps in p.states for qs in q.states})
    return make_automaton(DMTS, f"{p.name}_or_{q.name}", (), actions,
                          vee_id(p.initial, q.initial), may, must,
                          states=states)


def old_dmts_conj_product(p: ModalAutomaton, q: ModalAutomaton):
    """The former dMTS product, its inconsistency fixpoint over all actions
    and its witness check, as (automaton, members, provenance, witness)."""
    require_flavor(p, DMTS)
    require_flavor(q, DMTS)
    require_same_alphabets(p, q)
    p, q, _ = disjoint_operands(p, q, pair_id)
    pw, qw = weak_closure(p), weak_closure(q)
    actions = p.alphabet.actions

    may: set[tuple[StateId, str, StateId]] = set()
    must: set[tuple[StateId, str, frozenset[StateId]]] = set()
    for ps in p.sorted_states:
        for qs in q.sorted_states:
            state = pair_id(ps, qs)
            for a, p_targets in p.musts_from(ps):        # (Must1)
                partners = qw.weak_succ(qs, a)
                if partners:
                    must.add((state, a, frozenset(
                        pair_id(pt, qt) for pt in p_targets for qt in partners)))
            for a, q_targets in q.musts_from(qs):        # (Must2)
                partners = pw.weak_succ(ps, a)
                if partners:
                    must.add((state, a, frozenset(
                        pair_id(pt, qt) for pt in partners for qt in q_targets)))
            for pt in sorted(pw.weak_succ(ps, TAU)):     # (May1)
                may.add((state, TAU, pair_id(pt, qs)))
            for qt in sorted(qw.weak_succ(qs, TAU)):     # (May2)
                may.add((state, TAU, pair_id(ps, qt)))
            for alpha in sorted(actions) + [TAU]:        # (May3)
                for pt in sorted(pw.weak_succ(ps, alpha)):
                    for qt in sorted(qw.weak_succ(qs, alpha)):
                        may.add((state, alpha, pair_id(pt, qt)))

    pairs = {pair_id(ps, qs): (ps, qs) for ps in p.states for qs in q.states}
    aut = make_automaton(DMTS, f"{p.name}_and_{q.name}", (),
                         p.alphabet.outputs, pair_id(p.initial, q.initial),
                         may, must, states=pairs)

    members: set[StateId] = set()
    provenance: dict = {}
    worklist: list[StateId] = []

    def push(state, cause):
        if state not in members:
            members.add(state)
            provenance[state] = cause
            worklist.append(state)

    for state in aut.sorted_states:
        ps, qs = pairs[state]
        seeded = False
        for a, _ in p.musts_from(ps):                    # (F1)
            if a in actions and not can_weak(qw, qs, a):
                push(state, ("F1", a))
                seeded = True
                break
        if seeded:
            continue
        for a, _ in q.musts_from(qs):                    # (F2)
            if a in actions and not can_weak(pw, ps, a):
                push(state, ("F2", a))
                break
    alive = {}
    containing: dict = {}
    for edge in aut.sorted_must:
        alive[edge] = len(edge[2])
        for t in edge[2]:
            containing.setdefault(t, []).append(edge)
    while worklist:
        dead = worklist.pop()
        for edge in containing.get(dead, ()):
            alive[edge] -= 1
            if alive[edge] == 0:
                src, label, targets = edge
                tgt = "{" + ",".join(sorted(t.text for t in targets)) + "}"
                push(src, ("F3", f"{src} -{label}-> {tgt}"))

    def witness(w) -> bool:
        ids = {pair_id(ps, qs) for ps, qs in w}
        for ps, qs in w:
            for a, _ in p.musts_from(ps):                # (W1)
                if not can_weak(qw, qs, a):
                    return False
            for a, _ in q.musts_from(qs):                # (W2)
                if not can_weak(pw, ps, a):
                    return False
            for _, targets in aut.musts_from(pair_id(ps, qs)):   # (W3)
                if not (targets & ids):
                    return False
        return True

    return aut, members, provenance, witness


# ---------------------------------------------------------------------------
# Comparisons


def _same_automaton(a: ModalAutomaton | None, b: ModalAutomaton | None) -> None:
    if a is None or b is None:
        assert a is b
        return
    assert (a.flavor, a.name, a.alphabet, a.initial) == \
        (b.flavor, b.name, b.alphabet, b.initial)
    assert a.states == b.states
    assert a.may == b.may
    assert a.must == b.must


def _same_incompatibility(new: IncompatibilitySet, old: IncompatibilitySet) -> None:
    assert new.errors == old.errors
    assert new.incompatible == old.incompatible
    assert new.provenance == old.provenance


def _instances(gen, flavor):
    for k in range(INSTANCES):
        yield gen(flavor, k, max_states=MAX_STATES,
                  transition_density=DENSITIES[k % len(DENSITIES)])


def test_ia_composition_matches_the_former_ia_code():
    compatible = 0
    for p1, p2 in _instances(gen_composable_pair, IA):
        comp = ia_parallel_compose(p1, p2)
        product, incompat, pruned = old_ia_parallel_compose(p1, p2)
        _same_automaton(comp.product, product)
        _same_incompatibility(comp.incompatibility, incompat)
        _same_incompatibility(ia_incompatible(product, p1, p2), incompat)
        _same_automaton(comp.automaton, pruned)
        compatible += comp.compatible
    # both outcomes occur often enough to matter
    assert 0.2 * INSTANCES < compatible < 0.9 * INSTANCES


def test_incompatibility_closure_matches_the_former_passes():
    refused = deep = 0
    for p1, p2 in _instances(gen_composable_pair, MIA):
        product = mia_parallel_product(p1, p2)
        new = mia_incompatible(product, p1, p2)
        old = old_closure(product, old_mia_errors(product, p1, p2))
        _same_incompatibility(new, old)
        refused += product.initial in new.incompatible
        deep += len(new.incompatible) - len(new.errors) >= 2
    assert refused > 0.1 * INSTANCES and deep > 0.05 * INSTANCES


def test_dmts_disjunction_matches_the_former_dmts_code():
    for p, q in _instances(gen_pair, DMTS):
        _same_automaton(dmts_disjoin(p, q), old_dmts_disjoin(p, q))


def test_dmts_conjunction_matches_the_former_dmts_code():
    undefined = inconsistent = 0
    for p, q in _instances(gen_pair, DMTS):
        product = dmts_conj_product(p, q)
        aut, members, provenance, witness = old_dmts_conj_product(p, q)
        _same_automaton(product.automaton, aut)
        bad = dmts_inconsistent(product)
        assert bad.members == members and bad.provenance == provenance
        everything = set(product.pairs.values())
        alive = {product.pairs[s] for s in product.pairs if s not in members}
        for w in (everything, alive):
            assert is_dmts_witness(product, w) == witness(w)
        conj = dmts_conjoin(p, q)
        undefined += not conj.defined
        inconsistent += bool(members)
    assert undefined > 0.05 * INSTANCES and inconsistent > 0.1 * INSTANCES

