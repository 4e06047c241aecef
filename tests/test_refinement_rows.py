"""The refinement rows kept on each automaton.

Each automaton keeps, per start state, the numbering of the states it
reaches and every row it has in either role, in state numbers, so a query
builds only its pair arrays.  These tests pin what that may not change:

* a query on automata whose rows are kept (warm) gives the verdict, the
  witness and the certificate of the same query on copies that keep
  nothing yet (cold), whatever was asked of the warm ones before, against
  specifications of any size;
* a second query does not number an automaton again, and a numbering that
  fails is not kept, so the second query fails too;
* an automaton keeps the rows of its initial state and of the most recent
  other start state, however many start states it is checked from;
* the kept rows refer to no automaton, so a checked automaton is freed by
  reference counting alone.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

import pytest

from mialib import refinement
from mialib.model import DMTS, IA, MIA, MialibError, make_automaton
from mialib.refinement import (_BIT_ROWS_MIN_STATES, _Checker, equiv, holds,
                               mia_equiv, refines)
from test_refinement_differential import _automaton
from test_refinement_large_differential import NEVER, _instance, _planted

FLAVORS = (IA, DMTS, MIA)
# A seed of ``_planted`` whose instances have 200-400 states.
SEED = 2
# An output of every planted specification that some impl drops.
DROPPED = "a2"


def _cold(aut):
    """An equal automaton that keeps no rows yet."""
    return dataclasses.replace(aut)


def _outcome(w):
    return w.verdict, w.pairs, None if w.verdict else str(w.failure)


def _starts(impl, spec):
    """Start pairs of ``impl`` against ``spec``: the initial pair, the middle
    pair of the witness from it, and a pair off that witness."""
    w = refines(_cold(impl), _cold(spec))
    inside = sorted(w.pairs - {(impl.initial, spec.initial)})
    impl_states, spec_states = sorted(impl.states), sorted(spec.states)
    outside = [pair for pair in zip(impl_states[1::7], spec_states[3::5])
               if pair not in w.pairs]
    return [(impl.initial, spec.initial)] + inside[len(inside) // 2:][:1] + outside[:1]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_warm_rows_answer_as_cold_ones(flavor):
    spec, impl, bad = _planted(flavor, SEED)
    inputs, outputs = sorted(spec.alphabet.inputs), sorted(spec.alphabet.outputs)
    # One more failure, at the root, so that the root pair is marked by the
    # label screen and the impl mays use one more label.
    at_root = make_automaton(flavor, "at_root", inputs, outputs, impl.initial,
                             impl.may | {(impl.initial, NEVER, impl.initial)},
                             impl.must, states=impl.states)
    # The same failure with every a2 move gone: its mays use as many labels
    # as the first impl's, but not the same ones.
    swapped = make_automaton(
        flavor, "swapped", inputs, outputs, impl.initial,
        {e for e in at_root.may if e[1] != DROPPED},
        {e for e in impl.must if e[1] != DROPPED}, states=impl.states)
    first, other = (_Checker(_cold(i), spec, i.initial, spec.initial).labels
                    for i in (impl, swapped))
    assert len(first) == len(other) and first != other
    # The same impl against specs of other sizes, below the bit rows and of
    # one state, so that a kept impl row may not depend on a spec's size.
    rng = random.Random(f"rows|{flavor}")
    small, one = (_automaton(flavor, n, inputs, outputs, rng, f"spec{n}")
                  for n in (_BIT_ROWS_MIN_STATES // 2, 1))
    pairs = ((impl, spec), (bad, spec), (at_root, spec), (swapped, spec),
             (spec, impl), (impl, small), (impl, one))
    queries = [(i, s, p, q) for i, s in pairs for p, q in _starts(i, s)]
    # The warm automata answer every query in turn, so that by the later
    # ones they keep rows from other start states and other label sets.
    verdicts = set()
    for impl_aut, spec_aut, p, q in queries:
        warm = refines(impl_aut, spec_aut, p, q)
        cold = refines(_cold(impl_aut), _cold(spec_aut), p, q)
        assert _outcome(warm) == _outcome(cold), (impl_aut.name, p, q)
        verdicts.add(warm.verdict)
    assert verdicts == {True, False}
    for a, b in pairs:
        assert holds(a, b) == holds(_cold(a), _cold(b))
        assert equiv(a, b) == equiv(_cold(a), _cold(b))
        assert equiv(b, a) == equiv(_cold(b), _cold(a))
        if flavor == MIA:
            assert mia_equiv(a, b) == mia_equiv(_cold(a), _cold(b))
    assert refines(impl, spec).verdict and not refines(bad, spec).verdict


@pytest.fixture()
def numbered(monkeypatch):
    """``(id(automaton), start state)`` of every numbering so far."""
    calls = []
    number = refinement._numbered

    def counted(aut, start):
        calls.append((id(aut), start))
        return number(aut, start)

    monkeypatch.setattr(refinement, "_numbered", counted)
    return calls


@pytest.mark.parametrize("flavor", FLAVORS)
def test_an_automaton_is_numbered_once_per_start_state(flavor, numbered):
    spec, impl, bad = (_cold(aut) for aut in _planted(flavor, SEED))
    refines(impl, spec)
    assert numbered == [(id(impl), impl.initial), (id(spec), spec.initial)]
    # A new impl against the same spec numbers the impl alone, although
    # its mays use one more label than the first impl's.
    refines(bad, spec)
    holds(bad, spec)
    assert numbered[2:] == [(id(bad), bad.initial)]
    # Either side of the same automata, from the same start states.
    equiv(spec, impl)
    holds(impl, spec)
    refines(spec, bad)
    assert len(numbered) == 3
    # Another start state is another numbering, once.
    other = min(spec.states - {spec.initial})
    refines(impl, spec, impl.initial, other)
    refines(bad, spec, bad.initial, other)
    assert numbered[3:] == [(id(spec), other)]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_an_automaton_keeps_two_start_states_at_most(flavor):
    spec, impl = _instance(flavor, 1)
    verdicts = set()
    for q in sorted(spec.states):
        for impl_aut, p in ((spec, q), (impl, impl.initial)):
            warm = refines(impl_aut, spec, p, q)
            cold = refines(_cold(impl_aut), _cold(spec), p, q)
            assert _outcome(warm) == _outcome(cold), (impl_aut.name, q)
            verdicts.add(warm.verdict)
        assert len(spec._refinement_rows) <= 2
    assert verdicts == {True, False}
    assert set(spec._refinement_rows) == {spec.initial, max(spec.states)}
    assert set(impl._refinement_rows) == {impl.initial}


def test_a_numbering_that_fails_is_not_kept(numbered):
    spec, impl, _ = _planted(IA, SEED)
    broken = dataclasses.replace(impl, states=frozenset([impl.initial]))
    for query in (refines, holds, refines):
        with pytest.raises(MialibError, match=f"a transition of {impl.name} leaves its state set"):
            query(broken, spec)
    assert numbered.count((id(broken), impl.initial)) == 3


@pytest.mark.parametrize("flavor", FLAVORS)
def test_checked_automata_need_no_cycle_collection(flavor):
    spec, impl, bad = (_cold(aut) for aut in _planted(flavor, SEED))
    refs = [weakref.ref(aut) for aut in (spec, impl, bad)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert refines(impl, spec).verdict
        assert not refines(bad, spec).verdict
        assert not equiv(spec, bad)
        assert holds(spec, spec)
        assert all(aut._refinement_rows for aut in (spec, impl, bad))
        del spec, impl, bad
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()
