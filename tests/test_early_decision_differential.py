"""Differential test: conjunctions and compositions that decide an
undefined result from the initial pair, against the eager path.

The reference builds the whole product, then its fixpoint, then prunes:
``*_conj_product``, ``*_inconsistent`` and ``_prune`` for a conjunction,
``*_parallel_product``, ``*_incompatible`` and ``_prune_incompatible`` for
a composition.  On seeded operands of 20-300 states per side from the
benchmark's generators, and on testkit pairs, the verdict and every field
a result builds on first access must equal the reference: the product
with its ``pairs`` and ``unmatched``, the inconsistency or
incompatibility set with its provenance, and the pruned automaton.  The
conjunctions are dMTS and MIA, full and ``reachable``, and come out
consistent, partly inconsistent, inconsistent at the root by F1, and
inconsistent at the root by F3 alone; the compositions are IA and MIA,
compatible and refused.

The work pins below check what the early decision saves: an undefined
result runs the pair rule only on the pairs its early walk reaches, and
builds its product and fixpoint only when they are read.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from mialib import dmts_ops, ia_ops, mia_ops
from mialib.mia_ops import _prune, _prune_incompatible
from mialib.model import DMTS, IA, MIA, atom, make_automaton
from mialib.testkit import gen_composable_pair, gen_pair

BENCH = Path(__file__).resolve().parents[1] / "bench"
CONJOIN = {DMTS: dmts_ops.dmts_conjoin, MIA: mia_ops.mia_conjoin}
COMPOSE = {IA: ia_ops.ia_parallel_compose, MIA: mia_ops.mia_parallel_compose}
CONJ_PRODUCT = {DMTS: dmts_ops.dmts_conj_product, MIA: mia_ops.mia_conj_product}
INCONSISTENT = {DMTS: dmts_ops.dmts_inconsistent, MIA: mia_ops.mia_inconsistent}
PARALLEL_PRODUCT = {IA: ia_ops.ia_parallel_product,
                    MIA: mia_ops.mia_parallel_product}
INCOMPATIBLE = {IA: ia_ops.ia_incompatible, MIA: mia_ops.mia_incompatible}
SIZES = ((20, 30), (80, 50), (300, 20))


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(BENCH))
        import workloads
        yield workloads


def _behind(aut, label: str, must: bool):
    """``aut`` behind a fresh initial state with one ``label`` step to the
    old initial state, a must as well when ``must``."""
    root = atom(f"new_{aut.initial.text}")
    step = (root, label, aut.initial)
    extra = [(root, label, frozenset([aut.initial]))] if must else []
    return make_automaton(aut.flavor, aut.name, aut.alphabet.inputs,
                          aut.alphabet.outputs, root, aut.may | {step},
                          aut.must | set(extra), states=aut.states | {root})


def _conj_operands(workloads, flavor: str, case: str, n1: int, n2: int):
    rng = random.Random(f"early|{flavor}|{case}|{n1}|{n2}")
    if case != "root-F3":
        return workloads.conj_pair(flavor, case, n1, n2, rng)
    # Every pair of the old left root has F1: a must on the reserved
    # output, which the right never offers.  Put both roots behind one
    # output step, a must on the left only: the new initial pair then has
    # no F1 or F2, but its one must leads only to F1 pairs (F3).
    a, b = workloads.conj_pair(flavor, "root-inconsistent", n1, n2, rng)
    label = min(a.alphabet.outputs - {workloads.RESERVED})
    return _behind(a, label, True), _behind(b, label, False)


def _reference_conjunction(p, q, flavor: str, reachable: bool):
    product = CONJ_PRODUCT[flavor](p, q, reachable=reachable)
    return _prune(product, INCONSISTENT[flavor](product), reachable)


def _same_conjunction(new, ref) -> None:
    assert new.defined == ref.defined
    assert new.automaton == ref.automaton
    got, want = new.product, ref.product
    assert got.automaton == want.automaton
    assert (got.left, got.right) == (want.left, want.right)
    assert got.pairs == want.pairs
    assert got.unmatched == want.unmatched
    assert new.inconsistency == ref.inconsistency


def _outcome(conj) -> str:
    if conj.defined:
        return "partial" if conj.inconsistency.members else "consistent"
    rule, _ = conj.inconsistency.provenance[conj.product.automaton.initial]
    return f"root-{rule}"


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_conjunctions_match_the_eager_path(workloads, flavor):
    outcomes = Counter()
    for case in ("consistent", "partial", "root-inconsistent", "root-F3",
                 "defined"):
        for n1, n2 in SIZES:
            if case == "partial" and n1 + n2 > 200:
                continue  # both operands would have (n1 + n2) / 2 states
            p, q = _conj_operands(workloads, flavor, case, n1, n2)
            for reachable in (False, True):
                new = CONJOIN[flavor](p, q, reachable=reachable)
                ref = _reference_conjunction(p, q, flavor, reachable)
                _same_conjunction(new, ref)
                outcomes[_outcome(ref)] += 1
                if case == "root-F3":
                    assert _outcome(ref) == "root-F3"
    assert {"consistent", "partial", "root-F1", "root-F3"} <= set(outcomes)


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_testkit_conjunctions_match_the_eager_path(flavor):
    outcomes = set()
    for seed in range(60):
        p, q = gen_pair(flavor, seed, max_states=6, transition_density=0.5)
        for reachable in (False, True):
            new = CONJOIN[flavor](p, q, reachable=reachable)
            ref = _reference_conjunction(p, q, flavor, reachable)
            _same_conjunction(new, ref)
            outcomes.add(_outcome(ref))
    assert {"consistent", "partial", "root-F1"} <= outcomes


def _reference_composition(p1, p2, flavor: str):
    product = PARALLEL_PRODUCT[flavor](p1, p2)
    return _prune_incompatible(product,
                               INCOMPATIBLE[flavor](product, p1, p2),
                               f"{p1.name}_par_{p2.name}")


def _same_composition(new, ref) -> None:
    assert new.compatible == ref.compatible
    assert new.automaton == ref.automaton
    assert new.product == ref.product
    assert new.incompatibility == ref.incompatibility


@pytest.mark.parametrize("flavor", (IA, MIA))
def test_compositions_match_the_eager_path(workloads, flavor):
    verdicts = Counter()
    for case in ("compatible", "refused"):
        for n1, n2 in SIZES:
            rng = random.Random(f"early|{flavor}|{case}|{n1}|{n2}")
            p1, p2 = workloads.compose_pair(flavor, case, n1, n2, rng)
            new = COMPOSE[flavor](p1, p2)
            ref = _reference_composition(p1, p2, flavor)
            _same_composition(new, ref)
            assert new.compatible == (case == "compatible")
            verdicts[new.compatible] += 1
    for seed in range(60):
        p1, p2 = gen_composable_pair(flavor, seed, max_states=6,
                                     transition_density=0.6)
        new = COMPOSE[flavor](p1, p2)
        _same_composition(new, _reference_composition(p1, p2, flavor))
        verdicts[new.compatible] += 1
    assert verdicts[True] > 3 and verdicts[False] > 3


# ---------------------------------------------------------------------------
# Work pins


@pytest.fixture()
def rule_calls(monkeypatch):
    """How often the conjunctive rule ran on each pair."""
    calls = Counter()
    real = mia_ops._ConjunctiveRun.__init__

    def init(run, *args):
        real(run, *args)
        rule = run.rule

        def counted(state):
            calls[state] += 1
            return rule(state)
        run.rule = counted
    monkeypatch.setattr(mia_ops._ConjunctiveRun, "__init__", init)
    return calls


@pytest.fixture()
def walks(monkeypatch):
    """Every ``explore_pairs`` call: the walk it went on from, its result,
    and how often its rule ran on each pair."""
    seen = []
    real = mia_ops.explore_pairs

    def spy(ids, initial, rule, *args, walk=None, **kwargs):
        calls = Counter()

        def counted(state):
            calls[state] += 1
            return rule(state)
        result = real(ids, initial, counted, *args, walk=walk, **kwargs)
        seen.append((walk, result, calls))
        return result
    monkeypatch.setattr(mia_ops, "explore_pairs", spy)
    return seen


@pytest.fixture()
def par_runs(monkeypatch):
    """Every parallel run, and how often its rule ran on each pair."""
    runs = []
    real = mia_ops._ParallelRun.__init__

    def init(run, *args):
        real(run, *args)
        rule, calls = run.rule, Counter()

        def counted(state):
            calls[state] += 1
            return rule(state)
        run.rule = counted
        runs.append((run, calls))
    monkeypatch.setattr(mia_ops._ParallelRun, "__init__", init)
    return runs


@pytest.fixture()
def error_tests(monkeypatch):
    """How often the error rule tested each pair."""
    tests = Counter()
    real = mia_ops._error_rule

    def counted_rule(p1, p2):
        error = real(p1, p2)

        def counted(state):
            tests[state] += 1
            return error(state)
        return counted
    monkeypatch.setattr(mia_ops, "_error_rule", counted_rule)
    return tests


def _counting(monkeypatch, function) -> list:
    """The calls of the operator ``function`` made through its module."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)
    monkeypatch.setattr(sys.modules[function.__module__], function.__name__,
                        spy)
    return calls


@pytest.mark.parametrize("case", ("root-inconsistent", "root-F3"))
@pytest.mark.parametrize("reachable", (False, True))
def test_an_inconsistent_root_builds_the_product_only_when_read(
        workloads, monkeypatch, rule_calls, walks, case, reachable):
    fixpoints = _counting(monkeypatch, mia_ops.mia_inconsistent)
    p, q = _conj_operands(workloads, MIA, case, 50, 50)
    conj = mia_ops.mia_conjoin(p, q, reachable=reachable)
    assert not conj.defined
    assert walks == [] and fixpoints == []
    early = dict(rule_calls)
    assert set(early.values()) == {1}
    if case == "root-inconsistent":
        assert len(early) == 1  # F1 at the root: one rule call
    product = conj.product
    assert len(walks) == 1 and len(fixpoints) == 1
    # each pair's rule ran once, the early ones before the walk
    assert rule_calls == Counter(iter(product.pairs))
    assert len(early) < max(2, len(product.pairs) / 10)
    assert product.automaton.initial in conj.inconsistency.members
    again = dataclasses.replace(conj, automaton=None)
    assert again.product is product and again.inconsistency is conj.inconsistency
    assert len(walks) == 1 and len(fixpoints) == 1


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_an_inconsistent_root_completes_its_id_table_only_when_read(
        workloads, monkeypatch, flavor):
    runs = []
    real = mia_ops._ConjunctiveRun.__init__

    def init(run, *args):
        real(run, *args)
        runs.append(run)
    monkeypatch.setattr(mia_ops._ConjunctiveRun, "__init__", init)
    for n1, n2 in SIZES:
        p, q = _conj_operands(workloads, flavor, "root-inconsistent", n1, n2)
        runs.clear()
        conj = CONJOIN[flavor](p, q)
        [run] = runs
        assert not conj.defined
        # F1 at the root: the local run explored that one pair, and the
        # table holds it and the pairs its edges name, nothing more
        assert list(run.known) == [run.initial]
        mays, musts = run.known[run.initial]
        named = {t for _, t in mays} | {t for _, ts in musts for t in ts}
        named -= run.left.states | run.right.states
        assert set(run.ids.values()) == {run.initial} | named
        assert len(run.ids) == 1 + len(named)
        _same_conjunction(conj, _reference_conjunction(p, q, flavor, False))
        left, right, ids = conj.product.left, conj.product.right, run.ids
        assert len(ids) == len(left.states) * len(right.states)
        assert all(sid.parts == key for key, sid in ids.items())


@pytest.mark.parametrize("flavor", (DMTS, MIA))
@pytest.mark.parametrize("case", ("consistent", "partial"))
def test_a_defined_conjunction_runs_each_pair_rule_once(
        workloads, rule_calls, flavor, case):
    p, q = _conj_operands(workloads, flavor, case, 50, 50)
    for reachable in (False, True):
        rule_calls.clear()
        conj = CONJOIN[flavor](p, q, reachable=reachable)
        assert conj.defined
        assert rule_calls == Counter(iter(conj.product.pairs))


@pytest.mark.parametrize("compose", (ia_ops.ia_parallel_compose,
                                     mia_ops.mia_parallel_compose))
def test_a_refused_composition_builds_the_product_only_when_read(
        workloads, monkeypatch, walks, par_runs, error_tests, compose):
    flavor = IA if compose is ia_ops.ia_parallel_compose else MIA
    checks = _counting(monkeypatch, INCOMPATIBLE[flavor])
    p1, p2 = workloads.compose_pair(flavor, "refused", 50, 50,
                                    random.Random("early-pin"))
    comp = compose(p1, p2)
    assert not comp.compatible
    assert checks == [] and walks == []
    [(run, calls)] = par_runs
    # the rule ran once on each pair the walk tested before the error
    assert calls == Counter(run.tested)
    assert error_tests == Counter([*run.tested, *run.found])
    incompat = comp.incompatibility
    assert len(checks) == 1 and len(walks) == 1
    # the product went on from the stopped walk: no pair was tested or
    # had its rule run twice
    [(walk, _, _)] = walks
    states = comp.product.states
    assert walk is not None and run.walk is None
    assert calls == Counter(states) and error_tests == Counter(states)
    assert len(run.tested) < len(states)
    assert comp.product.initial in incompat.incompatible
    assert incompat.provenance.items() >= run.found.items()
    assert len(checks) == 1 and len(walks) == 1  # read again, built once


@pytest.mark.parametrize("compose", (ia_ops.ia_parallel_compose,
                                     mia_ops.mia_parallel_compose))
def test_a_compatible_composition_tests_each_pair_once(
        workloads, walks, par_runs, error_tests, compose):
    flavor = IA if compose is ia_ops.ia_parallel_compose else MIA
    p1, p2 = workloads.compose_pair(flavor, "compatible", 50, 50,
                                    random.Random("early-pin"))
    comp = compose(p1, p2)
    assert comp.compatible
    [(walk, _, _)] = walks
    [(run, calls)] = par_runs
    states = comp.product.states
    assert walk is not None
    assert calls == Counter(states) and error_tests == Counter(states)
    # the walk tested the autonomous closure, and it is not all of it
    assert 0 < len(run.tested) < len(states)
