from __future__ import annotations

import dataclasses
import random
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from conftest import can_weak, weak_hat_succ
from mialib import dmts_ops, ia_ops, mia_ops, model, testkit
from mialib.frontend import _Parser, _plain_document, parse, serialize
from mialib.refinement import dmts_refines, equiv, holds, refines
from mialib.model import (DMTS, IA, MIA, TAU, Alphabet, EmptiedMustError,
                          FlavorMismatchError, IdTable, MialibError,
                          ModalAutomaton, StateId, StateNameCollisionError,
                          atom, disjoint_operands,
                          make_automaton, make_ia, pair_id, reachable_states,
                          remove_states, rename_disjoint, restrict_reachable, tagged_id,
                          universal_id, validate, vee_id, wedge_id,
                          WeakClosure, weak_closure)
from mialib.testkit import gen_composable_pair, gen_pair, gen_random

s0, s1, s2, s3 = atom("s0"), atom("s1"), atom("s2"), atom("s3")


# ---------------------------------------------------------------------------
# State ids


def test_state_id_rendering():
    assert pair_id(atom("p"), atom("q")).text == "(p,q)"
    assert wedge_id(atom("p"), atom("q")).text == "p&q"
    assert vee_id(atom("p"), atom("q")).text == "p|q"
    assert tagged_id(atom("p"), "L").text == "p@L"
    assert universal_id("P").text == "u@P"
    # nested composites get grouped, pairs are self-delimiting
    assert wedge_id(vee_id(atom("a"), atom("b")), atom("c")).text == "(a|b)&c"
    assert wedge_id(atom("a"), vee_id(atom("b"), atom("c"))).text == "a&(b|c)"
    assert wedge_id(pair_id(atom("a"), atom("b")), atom("c")).text == "(a,b)&c"
    assert tagged_id(wedge_id(atom("a"), atom("b")), "L").text == "(a&b)@L"


@pytest.mark.parametrize("name", ["s0", "é", "x²", "tau", "initial", "u"])
def test_every_atom_builder_agrees(name):
    text = f"mia A {{\n  inputs: ;\n  outputs: o;\n  initial {name};\n}}\n"
    plain = _plain_document(text)
    assert plain is not None
    built = [atom(name), StateId(StateId.ATOM, (name,)),
             plain.automaton.initial, _Parser(text).document()[0].initial]
    for sid in built:
        assert type(sid) is StateId and type(sid.text) is str
        assert (sid.kind, sid.parts, sid.text) == (StateId.ATOM, (name,), name)
        assert sid == name and hash(sid) == hash(name) and str(sid) == name
        assert {sid: 1}[name] == 1
        # a tagged atom renders as before
        assert tagged_id(sid, "L").text == f"{name}@L"
        assert tagged_id(sid, "L").parts[0] is sid
    with pytest.raises(ValueError, match="unknown state id kind 'nope'"):
        StateId("nope", (name,))


_small_ids = st.recursive(
    st.sampled_from("abcxyz").map(atom),
    lambda ids: st.one_of(
        st.tuples(ids, ids).map(lambda t: pair_id(*t)),
        st.tuples(ids, ids).map(lambda t: wedge_id(*t)),
        st.tuples(ids, ids).map(lambda t: vee_id(*t)),
        st.tuples(ids, st.sampled_from(["L", "R"])).map(lambda t: tagged_id(*t))),
    max_leaves=6)


@given(_small_ids, _small_ids)
def test_distinct_ids_render_distinctly(a, b):
    if (a.kind, a.parts) != (b.kind, b.parts):
        assert a.text != b.text
    else:
        assert a == b


@given(_small_ids)
def test_id_hashes_as_its_plain_text(a):
    assert type(a.text) is str
    assert hash(a) == hash(a.text)
    assert str(a) == a.text and type(str(a)) is str


@given(st.lists(_small_ids, max_size=8))
def test_ids_sort_in_text_order(ids):
    assert [s.text for s in sorted(ids)] == sorted(s.text for s in ids)


def test_ids_are_immutable():
    a = pair_id(atom("p"), atom("q"))
    for name in ("kind", "parts", "text", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.kind, a.parts, a.text) == (StateId.PAIR, (atom("p"), atom("q")), "(p,q)")


def test_id_equals_the_plain_string_of_its_text():
    # documented behaviour: an id is a str whose value is its canonical text
    assert atom("a") == "a"
    assert pair_id(atom("a"), atom("b")) == "(a,b)"
    assert {"(a,b)": 1}[pair_id(atom("a"), atom("b"))] == 1


def _assert_shares_ids(aut: ModalAutomaton):
    """The initial state and every may/must endpoint is the very object
    held in ``states``."""
    held = {s: s for s in aut.states}
    assert held[aut.initial] is aut.initial, aut.initial
    for src, _, tgt in aut.may:
        assert held[src] is src and held[tgt] is tgt, (src, tgt)
    for src, _, targets in aut.must:
        assert held[src] is src, src
        assert all(held[t] is t for t in targets), targets


def _results(flavor, a, b):
    """Every operator result on ``a`` and ``b``, over the full pair space
    and over the pairs reachable from the initial one, whose ids are built
    on first lookup."""
    for reachable in (False, True):
        if flavor == IA:
            yield ia_ops.ia_conjoin(a, b, reachable=reachable)
            yield ia_ops.ia_disjoin(a, b, reachable=reachable)
            continue
        conjoin, disjoin = {DMTS: (dmts_ops.dmts_conjoin, dmts_ops.dmts_disjoin),
                            MIA: (mia_ops.mia_conjoin, mia_ops.mia_disjoin)}[flavor]
        conj = conjoin(a, b, reachable=reachable)
        yield conj.product.automaton
        if conj.defined:
            yield conj.automaton
        yield disjoin(a, b, reachable=reachable)


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
@pytest.mark.parametrize("seed", range(8))
def test_parsed_documents_and_operator_results_share_state_ids(flavor, seed):
    a, b = (parse(serialize(x)) for x in
            gen_pair(flavor, seed, max_states=5, transition_density=0.5))
    _assert_shares_ids(a)
    _assert_shares_ids(b)
    for result in _results(flavor, a, b):
        _assert_shares_ids(result)
        # composite names (pairs, wedges, vees, tags) parse to shared ids too
        _assert_shares_ids(parse(serialize(result)))
    if flavor != DMTS:
        compose = {IA: ia_ops.ia_parallel_compose,
                   MIA: mia_ops.mia_parallel_compose}[flavor]
        c1, c2 = (parse(serialize(x)) for x in
                  gen_composable_pair(flavor, seed, max_states=5,
                                      transition_density=0.5))
        comp = compose(c1, c2)
        _assert_shares_ids(comp.product)
        if comp.compatible:
            _assert_shares_ids(comp.automaton)


def test_constructor_freezes_any_iterable_of_musts():
    must = ((src, "a", [t]) for src, t in [(s0, s1), (s1, s0)])
    aut = ModalAutomaton(flavor=DMTS, name="m", alphabet=Alphabet([], ["a"]),
                         states={s0, s1}, initial=s0,
                         may=[(s0, "a", s1), (s1, "a", s0)], must=must)
    assert aut.must == {(s0, "a", frozenset([s1])), (s1, "a", frozenset([s0]))}
    assert all(type(T) is frozenset for _, _, T in aut.must)
    assert validate(aut) == []


def test_make_automaton_freezes_a_generator_of_musts_once(monkeypatch):
    given = [(s0, "a", [s1]), (s1, "a", (s0, s2))]
    may = [(s0, "a", s1), (s1, "a", s0), (s1, "a", s2)]
    frozen = make_automaton(DMTS, "m", [], ["a"], s0, may,
                            {(src, a, frozenset(T)) for src, a, T in given})
    calls = []
    freeze = model._freeze_must

    def counted(must):
        calls.append(must)
        return freeze(must)

    monkeypatch.setattr(model, "_freeze_must", counted)
    aut = make_automaton(DMTS, "m", [], ["a"], s0, may, (edge for edge in given))
    assert len(calls) == 1
    assert aut.must == frozen.must
    assert all(type(T) is frozenset for _, _, T in aut.must)
    assert aut.states == frozen.states == {s0, s1, s2}
    assert validate(aut) == []


def test_constructor_takes_only_the_seven_fields():
    with pytest.raises(TypeError):
        ModalAutomaton(flavor=DMTS, name="m", alphabet=Alphabet([], ["a"]),
                       states={s0}, initial=s0, may=[], must=[],
                       _may_rows={})


def test_views_are_sorted_tuples_and_follow_replace():
    aut = make_automaton(DMTS, "a", [], ["x", "y"], s1,
                         may=[(s2, "x", s0), (s1, "y", s2), (s1, "x", s2),
                              (s0, "x", s1)],
                         must=[(s1, "y", [s2]), (s1, "x", [s2, s0]),
                               (s1, "x", [s2])])
    assert aut.sorted_states == (s0, s1, s2)
    assert aut.sorted_may == tuple(sorted(aut.may))
    assert aut.sorted_must == ((s1, "x", frozenset([s0, s2])),
                               (s1, "x", frozenset([s2])),
                               (s1, "y", frozenset([s2])))
    assert aut.sorted_may is aut.sorted_may
    assert aut.may_from(s1) == [("x", s2), ("y", s2)]
    assert aut.may_row(s1) == {"x": [s2], "y": [s2]}
    assert aut.must_sets(s1, "x") == [frozenset([s0, s2]), frozenset([s2])]
    assert aut.may_targets(s0, "x") == [s1] and not aut.has_may(s0, TAU)
    assert aut.weak.weak_succ(s0, "x") == {s1}

    # the shrinker rebuilds with dataclasses.replace: the copy derives anew
    changed = dataclasses.replace(aut, may=aut.may - {(s0, "x", s1)}
                                  | {(s0, TAU, s2), (s0, TAU, s1)},
                                  must=aut.must - {(s1, "x", frozenset([s2]))})
    assert changed.sorted_may == tuple(sorted(changed.may))
    assert changed.may_from(s0) == [(TAU, s1), (TAU, s2)]
    assert changed.may_row(s0) == {TAU: [s1, s2]}
    assert changed.may_targets(s0, "x") == [] and changed.has_may(s0, TAU)
    assert changed.must_sets(s1, "x") == [frozenset([s0, s2])]
    assert changed.weak.weak_succ(s0, "x") == {s0, s2}
    assert aut.may_from(s0) == [("x", s1)]
    assert aut.may_row(s0) == {"x": [s1]}
    assert aut.must_sets(s1, "x") == [frozenset([s0, s2]), frozenset([s2])]


def _one_sort_views(aut: ModalAutomaton) -> tuple[tuple, tuple]:
    """Frozen copy of the sorted views as one sort of each whole edge set."""
    def must_key(edge):
        src, label, targets = edge
        return (src, label, sorted(targets))
    return tuple(sorted(aut.may)), tuple(sorted(aut.must, key=must_key))


_A, _B, _C = atom("a"), atom("b"), atom("c")
# Names where one is a prefix of another, and composites whose text order
# is not their structure's: "(a&b,c)" sorts before "(a,c)".
_TRICKY = ([atom(n) for n in ("a", "a1", "a_", "a0", "ab", "b", "B", "_")]
           + [pair_id(wedge_id(_A, _B), _C), pair_id(_A, _C), wedge_id(_A, _B),
              vee_id(_A, pair_id(_B, _C)), tagged_id(_A, "L"), pair_id(_A, _B)])


def _tricky(n_may: int, n_must: int, seed: int) -> ModalAutomaton:
    """``n_may`` mays and ``n_must`` musts over :data:`_TRICKY`, several
    musts per state and label."""
    rng = random.Random(seed)
    may: set = set()
    while len(may) < n_may:
        may.add((rng.choice(_TRICKY), rng.choice("xy"), rng.choice(_TRICKY)))
    must: set = set()
    while len(must) < n_must:
        must.add((rng.choice(_TRICKY), rng.choice("xy"),
                  frozenset(rng.sample(_TRICKY, rng.randint(1, 3)))))
    return ModalAutomaton(DMTS, "t", Alphabet(frozenset(), frozenset("xy")),
                          frozenset(_TRICKY), _A, frozenset(may), frozenset(must))


def _view_cases() -> list[ModalAutomaton]:
    """Automata whose derived views are compared with a frozen derivation:
    :func:`_tricky` ones from one edge to 150, testkit ones at 3, 30 and
    200 states, and dMTS and MIA conjunctive products."""
    auts = [_tricky(n, m, seed)
            for seed, (n, m) in enumerate([(63, 63), (64, 64), (65, 65), (1, 0),
                                           (0, 1), (150, 120)])]
    auts += [gen_random(flavor, seed=seed, max_states=size, max_actions=4,
                        transition_density=0.5)
             for flavor in (IA, DMTS, MIA) for seed, size in enumerate((3, 30, 200))]
    for seed in range(4):
        p, q = gen_pair(DMTS, seed, max_states=12, transition_density=0.6)
        auts.append(dmts_ops.dmts_conj_product(p, q).automaton)
        p, q = gen_pair(MIA, seed, max_states=12, transition_density=0.6)
        auts.append(mia_ops.mia_conj_product(p, q).automaton)
    return auts


def test_sorted_views_equal_one_sort_of_each_edge_set():
    auts = _view_cases()
    for aut in auts:
        assert (aut.sorted_may, aut.sorted_must) == _one_sort_views(aut), aut.name
    # small and large edge sets, and large must sets with musts that share
    # a state and label, were compared
    sizes = [len(edges) for aut in auts for edges in (aut.may, aut.must)]
    assert min(sizes) < 64 and max(sizes) >= 256
    assert any(len(aut.must) >= 64 and len({*map(itemgetter(0, 1), aut.must)})
               < len(aut.must) for aut in auts)


def _groupby_index(aut: ModalAutomaton) -> tuple[dict, dict]:
    """Frozen copy of the source index as ``groupby`` over the sorted edges:
    ``state -> [(label, end)]``, each list in sorted edge order."""
    return tuple({src: [edge[1:] for edge in group]
                  for src, group in groupby(edges, itemgetter(0))}
                 for edges in _one_sort_views(aut))


# Target sets whose text order is not their order as sorted lists: "{a}"
# sorts after "{a,b}" and "{a1}", while ["a"] sorts before both.
_A1, _A_ = atom("a1"), atom("a_")
_PREFIX_SETS = [[_A], [_A, _B], [_A1], [_A_], [_A, _A1], [_A1, _A_],
                [pair_id(_A, _C)], [pair_id(wedge_id(_A, _B), _C)],
                [pair_id(_A, _C), _B]]


def _with_prefix_musts(aut: ModalAutomaton) -> ModalAutomaton:
    """``aut`` plus one ``x``-must to each of :data:`_PREFIX_SETS` at a
    prefix-named and at a composite-named state."""
    extra = {(src, "x", frozenset(targets))
             for src in (_A1, pair_id(wedge_id(_A, _B), _C))
             for targets in _PREFIX_SETS}
    return dataclasses.replace(aut, must=aut.must | extra)


def test_source_index_equals_groupby_over_sorted_edges():
    auts = _view_cases()
    auts += [_with_prefix_musts(aut) for aut in auts[:6]]
    long_must_lists = 0
    for aut in auts:
        may_by_src, must_by_src = _groupby_index(aut)
        for state in aut.sorted_states:
            assert aut.may_from(state) == may_by_src.get(state, []), \
                (aut.name, state)
            assert aut.musts_from(state) == must_by_src.get(state, []), \
                (aut.name, state)
            labels = [label for label, _ in aut.musts_from(state)]
            long_must_lists += len(labels) > len(set(labels))
    assert long_must_lists > 0
    # {a} beside {a, b}, at both a prefix-named and a composite-named state
    for src in (_A1, pair_id(wedge_id(_A, _B), _C)):
        sets = [targets for label, targets in auts[-1].musts_from(src)
                if label == "x"]
        assert sets.index(frozenset([_A])) < sets.index(frozenset([_A, _B]))


def test_weak_closure_computed_once_per_automaton(monkeypatch):
    calls = []
    real = model.weak_closure

    def counting(aut):
        calls.append(aut)
        return real(aut)

    monkeypatch.setattr(model, "weak_closure", counting)
    aut = gen_random(MIA, seed=2, transition_density=0.5)
    for state in aut.sorted_states:
        assert refines(aut, aut, state, state).verdict
    assert calls == [aut]


# ---------------------------------------------------------------------------
# Validation


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_single_state_no_transitions_is_valid(flavor):
    inputs = [] if flavor == DMTS else ["a"]
    aut = make_automaton(flavor, "single", inputs, ["o"], s0)
    assert validate(aut) == []


def test_ia_input_nondeterminism_rejected():
    aut = make_ia("bad", ["a"], [], s0, [(s0, "a", s1), (s0, "a", s2)])
    rules = {v.rule for v in validate(aut)}
    assert "ia-input-determinism" in rules


def test_mia_input_may_without_must_rejected():
    aut = make_automaton(MIA, "bad", ["i"], [], s0, may=[(s0, "i", s1)])
    rules = {v.rule for v in validate(aut)}
    assert "mia-input-may-under-must" in rules


def test_syntactic_consistency_required():
    aut = make_automaton(DMTS, "bad", [], ["a"], s0,
                         may=[], must=[(s0, "a", [s1])])
    rules = {v.rule for v in validate(aut)}
    assert "syntactic-consistency" in rules


def test_refinement_runs_on_a_must_target_without_a_may():
    # Invalid on purpose: the checkers stay usable on such automata.
    aut = make_automaton(DMTS, "bad", [], ["a"], s0, must=[(s0, "a", [s1])])
    assert [v.rule for v in validate(aut)] == ["syntactic-consistency"]
    assert s1 in reachable_states(aut)
    w = dmts_refines(aut, aut)
    assert w.verdict
    assert w.pairs == {(s0, s0), (s0, s1), (s1, s1)}


def test_tau_must_rejected():
    aut = make_automaton(DMTS, "bad", [], ["a"], s0,
                         may=[(s0, TAU, s1)], must=[(s0, TAU, [s1])])
    assert any(v.rule == "tau-must" for v in validate(aut))


def test_alphabet_overlap_and_tau_rejected():
    aut = make_automaton(MIA, "bad", ["a"], ["a"], s0)
    assert any(v.rule == "alphabet-disjoint" for v in validate(aut))
    aut2 = make_automaton(DMTS, "bad2", [], [TAU], s0)
    assert any(v.rule == "tau-reserved" for v in validate(aut2))


def test_mia_two_input_musts_rejected():
    aut = make_automaton(MIA, "bad", ["i"], [], s0,
                         may=[(s0, "i", s1), (s0, "i", s2)],
                         must=[(s0, "i", [s1]), (s0, "i", [s2])])
    assert any(v.rule == "mia-input-must-unique" for v in validate(aut))


# ---------------------------------------------------------------------------
# Weak closure


def test_weak_closure_reflexive_only_without_tau():
    aut = make_automaton(DMTS, "a", [], ["o"], s0)
    wc = weak_closure(aut)
    assert wc.eps_succ(s0) == frozenset([s0])


def test_weak_closure_no_trailing_tau():
    aut = make_automaton(DMTS, "a", [], ["o"], s0, may=[
        (s0, TAU, s1), (s1, TAU, s2), (s0, "o", s3)])
    wc = weak_closure(aut)
    assert _weak_pairs(wc, aut, "o") == _enumerate_weak(aut, "o") == {(s0, s3)}
    assert wc.weak_succ(s0, "o") == frozenset([s3])


def _weak_pairs(wc, aut, label):
    """The weak ``label`` relation as pairs, read through ``weak_succ``."""
    return {(s, t) for s in aut.states for t in wc.weak_succ(s, label)}


def _enumerate_weak(aut, label):
    """Independent oracle: enumerate all tau*;label paths."""
    found = set()
    for start in aut.states:
        frontier = {start}
        closed = set()
        while frontier:
            cur = frontier.pop()
            closed.add(cur)
            for lab, tgt in aut.may_from(cur):
                if lab == TAU and tgt not in closed:
                    frontier.add(tgt)
        for mid in closed:
            for lab, tgt in aut.may_from(mid):
                if lab == label:
                    found.add((start, tgt))
    return found


def test_weak_closure_chain_matches_path_enumeration():
    # q -tau-> q1 -o-> q2 -tau-> q3: the trailing silent step is excluded
    q, q1, q2, q3 = (atom(n) for n in ("q", "q1", "q2", "q3"))
    aut = make_automaton(DMTS, "a", [], ["o"], q, may=[
        (q, TAU, q1), (q1, "o", q2), (q2, TAU, q3)])
    wc = weak_closure(aut)
    expected = _enumerate_weak(aut, "o")
    assert expected == {(q, q2), (q1, q2)}
    assert _weak_pairs(wc, aut, "o") == expected
    assert q3 not in wc.weak_succ(q, "o")


@pytest.mark.parametrize("seed", range(25))
def test_weak_closure_properties(seed):
    aut = gen_random(DMTS, seed=seed, transition_density=0.5)
    wc = weak_closure(aut)
    succ = {s: wc.eps_succ(s) for s in aut.states}
    for s in aut.states:
        assert s in succ[s]  # reflexive
        for t in succ[s]:    # transitive
            assert succ[t] <= succ[s]
    # prefixing eps on the left changes nothing
    for label in list(aut.alphabet.actions) + [TAU]:
        for s in aut.states:
            via_eps = set()
            for mid in succ[s]:
                via_eps |= wc.weak_succ(mid, label)
            assert via_eps == set(wc.weak_succ(s, label))
        # matches the independent path enumeration as well
        assert _weak_pairs(wc, aut, label) == _enumerate_weak(aut, label)


def test_weak_closure_idempotent_view():
    aut = gen_random(MIA, seed=9, transition_density=0.5)
    first, second = weak_closure(aut), weak_closure(aut)
    assert all(first.eps_succ(s) == second.eps_succ(s) for s in aut.states)


# ---------------------------------------------------------------------------
# Label rows against the linear scans they replaced


class _Scans:
    """Frozen copy of the lookups before per-state label rows: each answer
    scans the state's sorted edge list, and the weak closure is one flat
    ``(state, label) -> successors`` map."""

    def __init__(self, aut):
        def by_src(edges):
            return {src: [edge[1:] for edge in group]
                    for src, group in groupby(edges, itemgetter(0))}

        self.may_by_src = by_src(sorted(aut.may))
        self.must_by_src = by_src(sorted(
            aut.must, key=lambda edge: (edge[0], edge[1], sorted(edge[2]))))
        weak = {}
        for state in aut.states:
            seen = {state}
            stack = [state]
            while stack:
                cur = stack.pop()
                for label, tgt in self.may_from(cur):
                    if label == TAU and tgt not in seen:
                        seen.add(tgt)
                        stack.append(tgt)
            for mid in seen:
                for label, tgt in self.may_from(mid):
                    weak.setdefault((state, label), set()).add(tgt)
        self.weak_map = {k: frozenset(v) for k, v in weak.items()}

    def may_from(self, state):
        return self.may_by_src.get(state, [])

    def musts_from(self, state):
        return self.must_by_src.get(state, [])

    def may_targets(self, state, label):
        return [t for (lab, t) in self.may_from(state) if lab == label]

    def must_sets(self, state, label):
        return [T for (lab, T) in self.musts_from(state) if lab == label]

    def has_may(self, state, label):
        return any(lab == label for (lab, _) in self.may_from(state))

    def has_must(self, state, label):
        return any(lab == label for (lab, _) in self.musts_from(state))

    def eps_succ(self, state):
        return self.weak_succ(state, TAU) | {state}

    def weak_succ(self, state, label):
        return self.weak_map.get((state, label), frozenset())

    def weak_hat_succ(self, state, alpha):
        if alpha == TAU:
            return self.eps_succ(state)
        return self.weak_succ(state, alpha)

    def can_weak(self, state, label):
        return (state, label) in self.weak_map


_LOCAL = ("may_targets", "must_sets", "has_may", "has_must")
# The closure's own lookup, and the two test helpers built on its rows.
_WEAK = {"weak_succ": WeakClosure.weak_succ, "weak_hat_succ": weak_hat_succ,
         "can_weak": can_weak}


_CONJOIN = {IA: ia_ops.ia_conjoin,
            DMTS: lambda p, q: dmts_ops.dmts_conj_product(p, q).automaton,
            MIA: lambda p, q: mia_ops.mia_conj_product(p, q).automaton}


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_label_rows_answer_as_the_linear_scans_did(flavor):
    # Answers are compared with their type and, for lists, their order.
    # The generators draw one must per state and action, so the pair's
    # conjunctive product is checked too: there both sides' musts meet.
    ordered = {"may_targets": 0, "must_sets": 0}
    for seed in range(40):
        p, q = gen_pair(flavor, seed, max_states=5, transition_density=0.6)
        for aut in (p, q, _CONJOIN[flavor](p, q)):
            old = _Scans(aut)
            labels = sorted(aut.alphabet.actions) + [TAU, "undeclared"]
            for state in aut.sorted_states:
                for label in labels:
                    for name in _LOCAL:
                        got = getattr(aut, name)(state, label)
                        want = getattr(old, name)(state, label)
                        assert (type(got), got) == (type(want), want), \
                            (seed, name, state, label)
                        if name in ordered and len(want) > 1:
                            ordered[name] += 1
                    for name, lookup in _WEAK.items():
                        got = lookup(aut.weak, state, label)
                        want = getattr(old, name)(state, label)
                        assert (type(got), got) == (type(want), want), \
                            (seed, name, state, label)
                assert aut.weak.eps_succ(state) == old.eps_succ(state)
    # the lists compared include long ones, where a wrong order would show
    assert ordered["may_targets"] > 0
    assert flavor == IA or ordered["must_sets"] > 0


# ---------------------------------------------------------------------------
# Products and refinement read the label rows


def _whole_sorts(aut: ModalAutomaton) -> list[tuple[str, str]]:
    """The sorted edge views that ``aut`` or its tagged copies hold."""
    copies = [aut] + [aut.__dict__[tag] for tag in ("_as_left", "_as_right")
                      if tag in aut.__dict__]
    return [(copy.initial, view) for copy in copies
            for view in ("sorted_may", "sorted_must") if view in copy.__dict__]


_PRODUCTS = {IA: (ia_ops.ia_conjoin, ia_ops.ia_disjoin),
             DMTS: (dmts_ops.dmts_conjoin, dmts_ops.dmts_disjoin),
             MIA: (mia_ops.mia_conjoin, mia_ops.mia_disjoin)}
_COMPOSE = {IA: ia_ops.ia_parallel_compose, MIA: mia_ops.mia_parallel_compose}


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_products_and_refinement_never_sort_an_operand_whole(flavor):
    # Every operand is drawn afresh for each call, so a view it holds was
    # derived by that call.
    calls = [(f"{op.__name__} reachable={reachable}", op, {"reachable": reachable})
             for op in _PRODUCTS[flavor] for reachable in (False, True)]
    calls += [(check.__name__, check, {}) for check in (refines, holds, equiv)]
    tagged = 0
    verdicts = set()
    for seed in range(20):
        for what, call, options in calls:
            p, q = gen_pair(flavor, seed, max_states=6, transition_density=0.6)
            result = call(p, q, **options)
            if call is holds:
                verdicts.add(result)
            tagged += "_as_left" in p.__dict__
            assert _whole_sorts(p) + _whole_sorts(q) == [], (seed, what)
        p, _ = gen_pair(flavor, seed, max_states=6, transition_density=0.6)
        assert refines(p, p).verdict and equiv(p, p)
        assert _whole_sorts(p) == [], seed
    # products over tagged copies and both verdicts were seen
    assert tagged > 0 and verdicts == {True, False}
    if flavor == DMTS:
        return
    outcomes = set()
    for seed in range(40):
        p, q = gen_composable_pair(flavor, seed, max_states=6,
                                   transition_density=0.6)
        outcomes.add(_COMPOSE[flavor](p, q).compatible)
        assert _whole_sorts(p) + _whole_sorts(q) == [], (seed, "compose")
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Product operands that leave their state set

# Every product operator: pair products with and without ``reachable``,
# parallel products (always seeded from the initial pair) without.
_PAIR_PRODUCTS = {
    IA: [ia_ops.ia_conjoin, ia_ops.ia_disjoin],
    DMTS: [dmts_ops.dmts_conj_product, dmts_ops.dmts_conjoin, dmts_ops.dmts_disjoin],
    MIA: [mia_ops.mia_conj_product, mia_ops.mia_conjoin, mia_ops.mia_disjoin],
}
_PARALLEL_PRODUCTS = {
    IA: [ia_ops.ia_parallel_product, ia_ops.ia_parallel_compose],
    MIA: [mia_ops.mia_parallel_product, mia_ops.mia_parallel_compose],
}


def _unclosed(aut: ModalAutomaton) -> list[tuple[ModalAutomaton, str]]:
    """``aut`` cut to its initial state, so that a transition leaves the
    state set, and ``aut`` without its initial state, each with the error
    it must raise."""
    return [(dataclasses.replace(aut, states=frozenset([aut.initial])),
             f"a transition of {aut.name} leaves its state set"),
            (dataclasses.replace(aut, states=aut.states - {aut.initial}),
             f"the initial state of {aut.name} is not one of its states")]


def _moving(pairs):
    """The first two pairs whose operands both have a transition between
    two distinct states."""
    moving = [(p, q) for p, q in pairs
              if all(any(s != t for s, _, t in aut.may) for aut in (p, q))]
    assert len(moving) >= 2
    return moving[:2]


def _refused(op, p, q, **options):
    """Each operand of ``op`` cut both ways is refused with a MialibError
    that names it."""
    for side in (0, 1):
        for broken, message in _unclosed((p, q)[side]):
            operands = (broken, q) if side == 0 else (p, broken)
            with pytest.raises(MialibError) as got:
                op(*operands, **options)
            assert type(got.value) is MialibError and str(got.value) == message


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
@pytest.mark.parametrize("reachable", [False, True])
def test_pair_products_refuse_an_operand_outside_its_state_set(flavor, reachable):
    """The refusal comes before the id table, the renaming or a pair's
    parts meet a state the operand does not have, and before a reachable
    product takes one in.  Shared state names make the product rename its
    operands first; names tagged apart keep them as they are."""
    for p, q in _moving(gen_pair(flavor, seed, max_states=5, transition_density=0.6)
                        for seed in range(40)):
        assert p.states & q.states
        for q2 in (q, model._tag_states(q, "x")):
            for op in _PAIR_PRODUCTS[flavor]:
                _refused(op, p, q2, reachable=reachable)


@pytest.mark.parametrize("flavor", [IA, MIA])
def test_parallel_products_refuse_an_operand_outside_its_state_set(flavor):
    for p, q in _moving(gen_composable_pair(flavor, seed, max_states=5,
                                            transition_density=0.6)
                        for seed in range(40)):
        for q2 in (q, model._tag_states(q, "x")):
            for op in _PARALLEL_PRODUCTS[flavor]:
                _refused(op, p, q2)


def test_one_state_operand_with_a_dangling_may_is_refused():
    s, t, u = atom("s"), atom("t"), atom("u")
    b = ModalAutomaton(MIA, "B", Alphabet(frozenset(["i"]), frozenset(["o"])),
                       frozenset([s]), s, frozenset([(s, "o", t)]), frozenset())
    c = make_automaton(MIA, "C", ["i"], ["o"], u, may=[(u, "o", u)])
    k = make_automaton(MIA, "K", ["o"], [], u, may=[(u, "o", u)],
                       must=[(u, "o", frozenset([u]))])
    calls = [lambda: mia_ops.mia_parallel_compose(b, k),
             lambda: mia_ops.mia_conjoin(b, b), lambda: mia_ops.mia_disjoin(b, b),
             lambda: mia_ops.mia_conjoin(b, c), lambda: mia_ops.mia_disjoin(b, c),
             lambda: mia_ops.mia_conjoin(b, c, reachable=True)]
    for call in calls:
        with pytest.raises(MialibError, match="a transition of B leaves its state set"):
            call()


# ---------------------------------------------------------------------------
# Disjoint renaming


def test_rename_disjoint_keeps_disjoint_inputs():
    a = make_automaton(DMTS, "a", [], ["x"], atom("p"))
    b = make_automaton(DMTS, "b", [], ["x"], atom("q"))
    a2, b2 = rename_disjoint(a, b)
    assert a2 is a and b2 is b


def test_rename_disjoint_tags_overlap():
    a = make_automaton(DMTS, "a", [], ["x"], atom("p"))
    b = make_automaton(DMTS, "b", [], ["x"], atom("p"))
    a2, b2 = rename_disjoint(a, b)
    assert a2.initial.text == "p@L"
    assert b2.initial.text == "p@R"
    assert not (a2.states & b2.states)


def test_rename_disjoint_same_object():
    a = make_automaton(DMTS, "a", [], ["x"], atom("p"), may=[(atom("p"), "x", atom("p"))])
    a2, b2 = rename_disjoint(a, a)
    assert not (a2.states & b2.states)
    assert a2.initial == tagged_id(atom("p"), "L")
    assert a2.may == frozenset([(a2.initial, "x", a2.initial)])


def _fields(aut: ModalAutomaton) -> tuple:
    return tuple(getattr(aut, f.name) for f in dataclasses.fields(aut))


def test_renamed_copies_are_made_once(monkeypatch):
    calls = []
    real = model._tag_states

    def counting(aut, tag):
        calls.append((aut, tag))
        return real(aut, tag)

    monkeypatch.setattr(model, "_tag_states", counting)
    p, q = gen_pair(MIA, 3, max_states=5, transition_density=0.6)
    assert p.states & q.states
    mia_ops.mia_conjoin(p, q)
    mia_ops.mia_disjoin(p, q)
    assert [(aut is p, aut is q, tag) for aut, tag in calls] == \
        [(True, False, "L"), (False, True, "R")]
    left, right = rename_disjoint(p, q)
    again = rename_disjoint(p, q)
    assert again[0] is left and again[1] is right
    assert len(calls) == 2
    assert _fields(left) == _fields(real(p, "L"))
    assert _fields(right) == _fields(real(q, "R"))


def test_id_table_builds_each_missing_key_once():
    built = []

    def build(key):
        built.append(key)
        return pair_id(*key)
    table = IdTable(build)
    first = table[s0, s1]
    assert table[s0, s1] is first and table[atom("s0"), "s1"] is first
    assert first == "(s0,s1)"
    assert built == [(s0, s1)]


def test_disjoint_operands_maps_each_pair_to_its_one_id():
    p = make_automaton(DMTS, "p", [], ["x"], s0, may=[(s0, "x", s1)])
    q = make_automaton(DMTS, "q", [], ["x"], s0)
    p2, q2, ids = disjoint_operands(p, q, wedge_id)
    assert ids == {(a, b): wedge_id(a, b) for a in p2.states for b in q2.states}
    assert all(sid.parts == key for key, sid in ids.items())
    assert len(ids) == 2


def test_disjoint_operands_refuses_a_collision_tagging_cannot_fix():
    # Atom names may contain operator characters: "a&b" collides with the
    # conjunction of a and b, and after tagging "a@L&b" collides again.
    p = make_automaton(DMTS, "p", [], ["x"], atom("a"))
    q = make_automaton(DMTS, "q", [], ["x"], atom("b"),
                       states=[atom("a&b"), atom("a@L&b")])
    with pytest.raises(StateNameCollisionError):
        disjoint_operands(p, q, wedge_id)


def test_remove_states_refuses_to_empty_a_kept_must():
    aut = make_automaton(DMTS, "a", [], ["x"], s0, may=[(s0, "x", s1)],
                         must=[(s0, "x", [s1])])
    with pytest.raises(EmptiedMustError):
        remove_states(aut, [s1])


def test_remove_states_returns_its_argument_when_nothing_goes():
    aut = make_automaton(DMTS, "a", [], ["x"], s0, may=[(s0, "x", s1)],
                         must=[(s0, "x", [s1])])
    assert remove_states(aut, []) is aut
    assert remove_states(aut, [atom("nosuch")]) is aut


def test_restrict_reachable_keeps_an_automaton_reachable_throughout():
    aut = make_automaton(DMTS, "a", [], ["x"], s0,
                         may=[(s0, "x", s1), (s1, "x", s0)])
    assert restrict_reachable(aut) is aut


def test_operators_refuse_operands_of_another_flavor():
    p, q = gen_pair(DMTS, 0)
    with pytest.raises(FlavorMismatchError, match="is dmts, expected mia"):
        mia_ops.mia_conjoin(p, q)
    p1, p2 = gen_composable_pair(MIA, 0)
    with pytest.raises(FlavorMismatchError, match="is mia, expected ia"):
        ia_ops.ia_parallel_compose(p1, p2)


@pytest.mark.parametrize("seed", range(10))
def test_silent_closure_is_the_state_and_its_weak_tau_successors(seed):
    aut = gen_random(MIA, seed=seed, transition_density=0.6)
    for state in aut.states:
        assert aut.weak.eps_succ(state) == testkit._o_eps(aut, state)
