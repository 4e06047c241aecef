from __future__ import annotations

import pytest

from conftest import load
from mialib.dmts_ops import dmts_conjoin, dmts_disjoin
from mialib.embeddings import embed_ia_to_dmts, embed_ia_to_mia
from mialib.ia_ops import ia_conjoin, ia_disjoin, ia_parallel_compose
from mialib.mia_ops import mia_conjoin, mia_parallel_compose
from mialib.model import (StateNameCollisionError, atom, make_ia, universal_id,
                          validate)
from mialib.refinement import dmts_refines, holds, mia_equiv, mia_refines
from mialib.testkit import blackhole, gen_composable_pair, gen_pair

p0, p1 = atom("p0"), atom("p1")


# ---------------------------------------------------------------------------
# The dMTS embedding


def test_dmts_embedding_shape():
    p = make_ia("P", ["a", "b"], ["o"], p0, [(p0, "a", p1), (p0, "o", p1)])
    e = embed_ia_to_dmts(p)
    assert validate(e) == []
    u = universal_id("P")
    assert u in e.states
    # present input: a singleton must, no edge to the universal state
    assert e.musts_from(p0) == [("a", frozenset([p1]))]
    assert u not in e.may_targets(p0, "a")
    # missing input: may into the universal state
    assert e.may_targets(p0, "b") == [u]
    # output becomes a plain may
    assert e.may_targets(p0, "o") == [p1]
    assert not e.has_must(p0, "o")
    # the universal state allows every action and requires nothing
    assert {l for l, _ in e.may_from(u)} == {"a", "b", "o"}
    assert e.musts_from(u) == []
    # no truly disjunctive musts: the embedding is a plain MTS
    assert all(len(T) == 1 for _, _, T in e.must)
    # the embedding flattens the alphabet
    assert e.alphabet.inputs == frozenset()
    assert e.alphabet.outputs == frozenset(["a", "b", "o"])


def test_dmts_embedding_refuses_a_taken_universal_name():
    u = universal_id("P")
    p = make_ia("P", ["a"], [], p0, [(p0, "a", u)])
    with pytest.raises(StateNameCollisionError):
        embed_ia_to_dmts(p)


def test_mia_embedding_keeps_carrier():
    bh = blackhole(["a", "b"], ["o"])
    e = embed_ia_to_mia(bh)
    assert validate(e) == []
    assert e.states == bh.states
    assert e.may == bh.may
    assert e.must == bh.must  # input self-loops as singleton musts
    assert e.flavor == "mia"


# ---------------------------------------------------------------------------
# Refinement is preserved and reflected


@pytest.mark.parametrize("seed", range(60))
def test_embeddings_respect_refinement(seed):
    p, q = gen_pair("ia", seed)
    direct = holds(p, q)
    assert direct == mia_refines(embed_ia_to_mia(p), embed_ia_to_mia(q)).verdict
    assert direct == dmts_refines(embed_ia_to_dmts(p), embed_ia_to_dmts(q)).verdict


# ---------------------------------------------------------------------------
# The MIA embedding is homomorphic


@pytest.mark.parametrize("seed", range(30))
def test_conjunction_homomorphism(seed):
    p, q = gen_pair("ia", seed)
    conj = mia_conjoin(embed_ia_to_mia(p), embed_ia_to_mia(q))
    assert conj.defined
    assert mia_equiv(conj.automaton, embed_ia_to_mia(ia_conjoin(p, q)))


@pytest.mark.parametrize("seed", range(30))
def test_parallel_homomorphism(seed):
    p, q = gen_composable_pair("ia", seed)
    ia_comp = ia_parallel_compose(p, q)
    mia_comp = mia_parallel_compose(embed_ia_to_mia(p), embed_ia_to_mia(q))
    assert ia_comp.compatible == mia_comp.compatible
    if ia_comp.compatible:
        assert mia_equiv(mia_comp.automaton, embed_ia_to_mia(ia_comp.automaton))


@pytest.mark.parametrize("seed", range(30))
def test_mia_disjunction_one_directional(seed):
    from mialib.mia_ops import mia_disjoin
    p, q = gen_pair("ia", seed)
    emb = mia_disjoin(embed_ia_to_mia(p), embed_ia_to_mia(q))
    assert mia_refines(emb, embed_ia_to_mia(ia_disjoin(p, q))).verdict


def test_mia_disjunction_strict_on_fig10_pair():
    from mialib.mia_ops import mia_disjoin
    r, s = load("fig02_r.ia"), load("fig02_s.ia")
    emb = mia_disjoin(embed_ia_to_mia(r), embed_ia_to_mia(s))
    e_dis = embed_ia_to_mia(ia_disjoin(r, s))
    assert mia_refines(emb, e_dis).verdict
    assert not mia_refines(e_dis, emb).verdict


# ---------------------------------------------------------------------------
# The dMTS embedding satisfies only one-directional laws


@pytest.mark.parametrize("seed", range(30))
def test_dmts_one_directional_laws(seed):
    p, q = gen_pair("ia", seed)
    ep, eq = embed_ia_to_dmts(p), embed_ia_to_dmts(q)
    conj = dmts_conjoin(ep, eq)
    assert conj.defined  # embeddings always share an implementation
    assert dmts_refines(embed_ia_to_dmts(ia_conjoin(p, q)), conj.automaton).verdict
    disj = dmts_disjoin(ep, eq)
    assert dmts_refines(disj, embed_ia_to_dmts(ia_disjoin(p, q))).verdict


def test_dmts_conjunction_strict_on_fig07():
    p, q, r = load("fig07_p.ia"), load("fig07_q.ia"), load("fig07_r.dmts")
    ep, eq = embed_ia_to_dmts(p), embed_ia_to_dmts(q)
    conj = dmts_conjoin(ep, eq)
    e_conj = embed_ia_to_dmts(ia_conjoin(p, q))
    # r implements both embeddings, hence their conjunction...
    assert dmts_refines(r, ep).verdict
    assert dmts_refines(r, eq).verdict
    assert dmts_refines(r, conj.automaton).verdict
    # ...but not the embedded conjunction: its initial i-requirement has no
    # match among r's crossed continuations.  The certificate walks the blame
    # to the root: the continuation's output may is what cannot be matched.
    w = dmts_refines(r, e_conj)
    assert not w.verdict
    assert w.failure.clause == "ii"
    assert "x1 -o-> d1" in w.failure.transition or "x2 -o2-> d2" in w.failure.transition
    assert not dmts_refines(conj.automaton, e_conj).verdict  # strictness


def test_dmts_disjunction_strict_on_fig02_right():
    r, s = load("fig02_r.ia"), load("fig02_s.ia")
    er, es = embed_ia_to_dmts(r), embed_ia_to_dmts(s)
    disj = dmts_disjoin(er, es)
    e_dis = embed_ia_to_dmts(ia_disjoin(r, s))
    assert dmts_refines(disj, e_dis).verdict
    assert not dmts_refines(e_dis, disj).verdict
