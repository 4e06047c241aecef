from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from mialib import dmts_ops, embeddings, ia_ops, mia_ops, testkit
from mialib.frontend import parse, parse_file, serialize
from mialib.model import (DMTS, FLAVORS, IA, MIA, TAU, FlavorMismatchError,
                          MialibError, ModalAutomaton, Violation, atom,
                          make_automaton, validate)
from mialib.refinement import holds, refines
from mialib.testkit import (InvalidGeneratedError, SizeLimitError,
                            UnknownSuiteError, blackhole, gen_composable_pair,
                            gen_over, gen_pair, gen_random, oracle_refines,
                            recheck_witness, run_theorem_suite, shrink, weaken,
                            SUITES)


# ---------------------------------------------------------------------------
# Generators


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_generator_deterministic(flavor):
    a = gen_random(flavor, seed=123, transition_density=0.5)
    b = gen_random(flavor, seed=123, transition_density=0.5)
    assert a.may == b.may and a.must == b.must and a.states == b.states
    assert a.alphabet == b.alphabet


def test_generator_density_zero():
    for flavor in (IA, DMTS, MIA):
        a = gen_random(flavor, seed=5, transition_density=0.0)
        assert a.may == frozenset() and a.must == frozenset()


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
@pytest.mark.parametrize("seed", range(30))
def test_generator_output_validates(flavor, seed):
    aut = gen_random(flavor, seed=seed, transition_density=0.6)
    assert validate(aut) == []


def test_mia_generation_respects_input_must_discipline():
    for seed in range(30):
        aut = gen_random(MIA, seed=seed, transition_density=0.7)
        for s in aut.states:
            for i in aut.alphabet.inputs:
                targets = aut.may_targets(s, i)
                sets = aut.must_sets(s, i)
                assert len(sets) <= 1
                if targets:
                    assert sets and set(targets) <= set(sets[0])


def test_gen_pair_shares_alphabet():
    for flavor in (IA, DMTS, MIA):
        a, b = gen_pair(flavor, 7)
        assert a.alphabet == b.alphabet


def test_gen_composable_pair_is_composable():
    from mialib.mia_ops import composed_alphabets
    for seed in range(25):
        a, b = gen_composable_pair(MIA, seed)
        composed_alphabets(a, b)  # raises if not composable


def test_gen_composable_pair_refuses_dmts(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(testkit, "random", SimpleNamespace(Random=no_draws))
    for seed in range(200):
        with pytest.raises(FlavorMismatchError,
                           match="parallel composition is not defined for dmts"):
            gen_composable_pair(DMTS, seed)


def test_generator_self_checks_raise(monkeypatch):
    spec = gen_random(MIA, seed=5, transition_density=0.5)
    monkeypatch.setattr(testkit, "validate",
                        lambda aut: [Violation("planted", "broken on purpose")])
    with pytest.raises(InvalidGeneratedError, match="broken on purpose"):
        gen_random(MIA, seed=5, transition_density=0.5)
    with pytest.raises(InvalidGeneratedError):
        weaken(spec, random.Random(0))
    assert issubclass(InvalidGeneratedError, MialibError)


def test_weaken_refines():
    for flavor in (IA, DMTS, MIA):
        for seed in range(20):
            q = gen_random(flavor, seed=seed, transition_density=0.6)
            p = weaken(q, random.Random(seed))
            assert validate(p) == []
            assert holds(p, q)


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_reflexivity():
    for flavor in (IA, DMTS, MIA):
        a = gen_random(flavor, seed=11, transition_density=0.5)
        assert oracle_refines(flavor, a, a)


def test_oracle_blackhole_law():
    spec = gen_random(IA, seed=2, transition_density=0.6)
    bh = blackhole(sorted(spec.alphabet.inputs), sorted(spec.alphabet.outputs))
    assert oracle_refines(IA, bh, spec)


def test_oracle_size_limit():
    big = gen_over(MIA, ["i"], ["o"], max_states=9, seed=4,
                   transition_density=0.4)
    small = gen_over(MIA, ["i"], ["o"], max_states=2, seed=2)
    assert len(big.states) > 7
    with pytest.raises(SizeLimitError):
        oracle_refines(MIA, big, small)


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_oracle_agrees_with_checker(flavor):
    for seed in range(120):
        p, q = gen_pair(flavor, seed, max_states=5)
        w = refines(p, q)
        assert w.verdict == oracle_refines(flavor, p, q)
        if w.verdict:
            assert recheck_witness(flavor, p, q, w.pairs)


def test_recheck_witness_rejects_a_broken_clause():
    # p's output o is a must; q allows o but does not require it.
    p = parse("mia P { inputs: ; outputs: o; initial p0; "
              "must p0 -o-> p1; may p0 -o-> p1; }")
    q = parse("mia Q { inputs: ; outputs: o; initial q0; may q0 -o-> q1; }")
    p0, p1, q0, q1 = map(atom, ("p0", "p1", "q0", "q1"))
    # (ii): p0's o-move to p1 has no partner pair (p1, q1)
    assert not recheck_witness(MIA, p, q, {(p0, q0)})
    assert recheck_witness(MIA, p, q, {(p0, q0), (p1, q1)})
    # (i): the spec p requires o at p0 and q has no must to match it
    assert not recheck_witness(MIA, q, p, {(q0, p0)})
    w = refines(p, q)
    assert w.verdict and recheck_witness(MIA, p, q, w.pairs)


# ---------------------------------------------------------------------------
# Suites


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(UnknownSuiteError):
        run_theorem_suite("no-such-suite", 1, 0, out_dir=tmp_path)


def test_registered_suites_pass_smoke(tmp_path):
    for name in sorted(SUITES):
        report = run_theorem_suite(name, trials=8, seed=99, out_dir=tmp_path)
        assert report.passed, (name, report.failures)


def test_fault_injection_produces_counterexample(tmp_path, monkeypatch):
    # break conjunction: silently forget the escape rules for inputs
    real = mia_ops.mia_conj_product

    def broken(p, q, **kwargs):
        prod = real(p, q, **kwargs)
        aut = prod.automaton
        pruned_must = frozenset(
            (s, l, T) for (s, l, T) in aut.must
            if not (s in prod.pairs and l in aut.alphabet.inputs
                    and not (T & set(prod.pairs))))
        from mialib.model import ModalAutomaton
        import dataclasses
        return dataclasses.replace(prod, automaton=ModalAutomaton(
            flavor=aut.flavor, name=aut.name, alphabet=aut.alphabet,
            states=aut.states, initial=aut.initial, may=aut.may,
            must=pruned_must))

    monkeypatch.setattr(mia_ops, "mia_conj_product", broken)
    report = run_theorem_suite("mia-glb", trials=60, seed=7, out_dir=tmp_path)
    assert not report.passed
    failure = report.failures[0]
    assert failure.files
    for path in failure.files:
        parse_file(path)  # counterexamples are serialized and reparseable


@pytest.mark.parametrize("flavor", [IA, DMTS, MIA])
def test_oracle_suite_rejects_a_witness_without_the_root_pair(flavor, tmp_path,
                                                              monkeypatch):
    # An empty relation passes the clause re-check trivially.
    real = testkit.refines
    monkeypatch.setattr(testkit, "refines", lambda p, q: dataclasses.replace(
        real(p, q), pairs=frozenset()))
    report = run_theorem_suite(f"{flavor}-oracle", trials=40, seed=0,
                               out_dir=tmp_path)
    assert not report.passed
    assert report.failures[0].message == "holds-witness lacks the root pair"


def test_shrink_keeps_failure():
    p = gen_random(MIA, seed=4, transition_density=0.6)

    def check(auts):
        return "has musts" if auts["p"].must else None

    if check({"p": p}) is None:
        pytest.skip("instance has no musts")
    small = shrink({"p": p}, check)
    assert check(small) == "has musts"
    assert len(small["p"].must) <= len(p.must)
    assert validate(small["p"]) == []


def test_shrink_never_checks_an_invalid_candidate():
    s0, s1 = atom("s0"), atom("s1")
    # every candidate that keeps the undeclared action is invalid
    bad = make_automaton(DMTS, "bad", [], ["x"], s0,
                         may=[(s0, "x", s1), (s1, "undeclared", s1)])
    checked = []

    def check(auts):
        checked.append(auts["p"])
        return "fails"

    small = shrink({"p": bad}, check)
    assert checked and all(validate(aut) == [] for aut in checked)
    assert validate(small["p"]) == []


def test_shrink_skips_a_candidate_whose_check_raises():
    s0, s1, s2 = atom("s0"), atom("s1"), atom("s2")
    kept = (s0, "x", s2)
    aut = make_automaton(DMTS, "a", [], ["x"], s0, may=[(s0, "x", s1), kept])

    def check(auts):
        if kept not in auts["p"].may:
            raise MialibError("undefined without the kept edge")
        return "fails"

    small = shrink({"p": aut}, check)
    assert small["p"].may == {kept}
    assert small["p"].states == {s0, s2}


def test_shrink_stops_at_its_budget(monkeypatch):
    monkeypatch.setattr(testkit, "SHRINK_BUDGET", 5)
    states = [atom(f"s{i}") for i in range(8)]
    chain = make_automaton(DMTS, "chain", [], ["x"], states[0],
                           may=[(a, "x", b) for a, b in zip(states, states[1:])])
    checked = []

    def check(auts):
        checked.append(auts)
        return "fails"

    small = shrink({"p": chain}, check)
    assert 0 < len(checked) < 5
    assert next(testkit._shrink_candidates(small["p"]), None) is not None


# Faults parallel composition (the initial pair loses its output mays),
# runs one suite and prints a digest of the shrunk counterexamples.
_SHRINK_SCRIPT = """
import dataclasses, hashlib, sys
from pathlib import Path
from mialib import mia_ops, testkit

real = mia_ops.mia_parallel_compose

def broken(p1, p2):
    comp = real(p1, p2)
    if not comp.compatible:
        return comp
    aut = comp.automaton
    outputs = aut.alphabet.outputs
    return dataclasses.replace(comp, automaton=dataclasses.replace(aut, may=frozenset(
        e for e in aut.may if e[0] != aut.initial or e[1] not in outputs)))

mia_ops.mia_parallel_compose = broken
report = testkit.run_theorem_suite("mia-par-comp", 12, 3, out_dir=sys.argv[1])
digest = hashlib.sha256()
for failure in report.failures:
    digest.update(failure.message.encode())
    for path in failure.files:
        digest.update(Path(path).read_bytes())
print(len(report.failures), digest.hexdigest())
"""


def test_shrink_order_does_not_follow_the_hash_seed(tmp_path):
    src = str(Path(testkit.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _SHRINK_SCRIPT, str(tmp_path / seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert not outputs[0].startswith("0 ")
    assert outputs[0] == outputs[1]


def _pin(aut: ModalAutomaton) -> bytes:
    # serialize drops isolated states, so they are listed as well
    states = " ".join(sorted(state.text for state in aut.states))
    return (serialize(aut) + states + "\n").encode("utf-8")


SAMPLES_DIGEST = "f853f5765c264a1b61745694bbe3675c8a53754e6caeb07254abd3ba367eac3d"


def test_suite_samples_are_pinned():
    digest = hashlib.sha256()
    for name in sorted(SUITES):
        for trial in range(20):
            auts = SUITES[name].sample(random.Random(f"{name}|0|{trial}"))
            for key in sorted(auts):
                digest.update(key.encode("utf-8") + _pin(auts[key]))
    for seed in range(20):
        for flavor in FLAVORS:
            digest.update(_pin(gen_random(flavor, seed=seed)))
            for aut in gen_pair(flavor, seed):
                digest.update(_pin(aut))
        for flavor in (IA, MIA):
            for aut in gen_composable_pair(flavor, seed):
                digest.update(_pin(aut))
    assert digest.hexdigest() == SAMPLES_DIGEST


def _with_unknown_action(result):
    """An operator result whose automaton has a may on an undeclared action."""
    if isinstance(result, ModalAutomaton):
        planted = (result.initial, "planted", result.initial)
        return dataclasses.replace(result, may=result.may | {planted})
    if result.automaton is None:
        return result
    return dataclasses.replace(
        result, automaton=_with_unknown_action(result.automaton))


@pytest.mark.parametrize("suite, operator", [
    *((f"{flavor}-{law}", operator) for flavor in FLAVORS
      for law, operator in (("glb", "conjoin"), ("lub", "disjoin"),
                            ("mono", "disjoin"), ("structural", "conjoin"))),
    ("ia-par-comp", "parallel_compose"), ("mia-par-comp", "parallel_compose")])
def test_law_suites_see_patched_operators(suite, operator, tmp_path,
                                          monkeypatch):
    flavor = suite.split("-")[0]
    module = {IA: ia_ops, DMTS: dmts_ops, MIA: mia_ops}[flavor]
    name = f"{flavor}_{operator}"
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: _with_unknown_action(real(*args)))
    report = run_theorem_suite(suite, trials=10, seed=0, out_dir=tmp_path)
    assert report.failures
    assert "is invalid: [unknown-action]" in report.failures[0].message


def _with_empty_must(aut):
    """``aut`` with a must from its initial state to no target at all."""
    label = min(aut.alphabet.actions)
    return dataclasses.replace(aut, must=aut.must | {(aut.initial, label, frozenset())})


@pytest.mark.parametrize("flavor", FLAVORS)
def test_structural_suites_see_an_empty_must_target(flavor, tmp_path,
                                                    monkeypatch):
    module = {IA: ia_ops, DMTS: dmts_ops, MIA: mia_ops}[flavor]
    name = f"{flavor}_disjoin"
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: _with_empty_must(real(*args)))
    report = run_theorem_suite(f"{flavor}-structural", trials=10, seed=0,
                               out_dir=tmp_path)
    assert report.failures
    assert "is invalid: [empty-must-target]" in report.failures[0].message


def test_ia_glb_sees_a_conjunction_that_returns_its_left_operand(
        tmp_path, monkeypatch):
    monkeypatch.setattr(ia_ops, "ia_conjoin", lambda p, q: p)
    report = run_theorem_suite("ia-glb", trials=30, seed=0, out_dir=tmp_path)
    assert report.failures
    assert report.failures[0].message == (
        "glb law violated: r<=p and r<=q iff r<=p^q")


@pytest.mark.parametrize("flavor", [IA, MIA])
def test_composition_law_on_pruned_compositions(flavor):
    # The par-comp suites' sampler rarely draws a composition that is
    # compatible yet prunes states, so these are scanned for directly.
    compose = testkit._op(flavor, "parallel_compose")
    pruned = 0
    seed = 0
    while pruned < 40:
        q1, p2 = gen_composable_pair(flavor, seed, max_states=5,
                                     transition_density=0.5)
        spec_comp = compose(q1, p2)
        if spec_comp.compatible and spec_comp.incompatibility.incompatible:
            pruned += 1
            assert spec_comp.incompatibility.incompatible.isdisjoint(
                spec_comp.automaton.states)
            auts = {"p1": weaken(q1, random.Random(seed)), "q1": q1, "p2": p2}
            assert testkit._check_par(flavor, auts) is None, f"seed {seed}"
        seed += 1


@pytest.mark.parametrize("flavor", [IA, MIA])
def test_composition_law_on_pruned_draws_of_the_suite_generator(flavor):
    # The same law on the pairs the par-comp suites draw from, at their
    # default size: the pruned ones among the first thousand seeds.
    compose = testkit._op(flavor, "parallel_compose")
    pruned = 0
    for seed in range(1000):
        q1, p2 = gen_composable_pair(flavor, seed)
        spec_comp = compose(q1, p2)
        if spec_comp.compatible and spec_comp.incompatibility.incompatible:
            pruned += 1
            auts = {"p1": weaken(q1, random.Random(seed)), "q1": q1, "p2": p2}
            assert testkit._check_par(flavor, auts) is None, f"seed {seed}"
    assert pruned >= 8


def _error_behind_chain(flavor, k, chain_left):
    """A composable pair whose communication error lies ``k`` autonomous
    steps past an input step from the initial pair.

    The chain side reads the input ``go`` from ``s0`` into ``s1``, then
    takes ``k`` steps, output ``o`` and tau in turn, to ``s<k+1>``, which
    may output ``x``; the partner declares ``x`` as an input and never
    accepts it.  The chain's pair states grow in text order along the
    chain, so the closure's sorted sweep meets them against the chain and
    adds only one per pass.
    """
    s = [atom(f"s{i}") for i in range(k + 2)]
    may = {(s[0], "go", s[1]), (s[0], "o", s[0]), (s[k + 1], "x", s[k + 1])}
    may |= {(s[i], "o" if i % 2 else TAU, s[i + 1]) for i in range(1, k + 1)}
    chain = make_automaton(flavor, "chain", ["go"], ["o", "x"], s[0], may,
                           [(s[0], "go", frozenset([s[1]]))])
    partner = make_automaton(flavor, "partner", ["x"], [], atom("t0"))
    return (chain, partner) if chain_left else (partner, chain)


@pytest.mark.parametrize("chain_left", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("flavor", [IA, MIA])
def test_pruning_reaches_past_the_error_states(flavor, k, chain_left):
    q1, p2 = _error_behind_chain(flavor, k, chain_left)
    assert validate(q1) == [] and validate(p2) == []
    comp = testkit._op(flavor, "parallel_compose")(q1, p2)
    inc = comp.incompatibility
    members, errors = inc.incompatible, inc.errors
    assert members > errors
    assert {inc.provenance[e][0] for e in errors} == {
        "error-(a)" if chain_left else "error-(b)"}
    by_text = {m.text: m for m in members}
    for m in members - errors:
        rule, edge = inc.provenance[m]
        assert rule == "autonomous-step"
        assert edge.rpartition("-> ")[2] in by_text, edge
    for m in members:
        steps = 0
        while m not in errors:
            m = by_text[inc.provenance[m][1].rpartition("-> ")[2]]
            steps += 1
        assert steps <= k
    # closed: no autonomous step leads from outside the set into it
    autonomous = comp.product.alphabet.outputs | {TAU}
    assert not [(src, label, tgt) for src, label, tgt in comp.product.may
                if label in autonomous and tgt in members
                and src not in members]
    assert len(members) == k + 1
    assert comp.compatible
    assert validate(comp.automaton) == []
    assert members.isdisjoint(comp.automaton.states)
    for seed in range(10):
        auts = {"p1": weaken(q1, random.Random(seed)), "q1": q1, "p2": p2}
        assert testkit._check_par(flavor, auts) is None, f"seed {seed}"


# ---------------------------------------------------------------------------
# Every failure message of the law checks, from a planted fault


def _patch(m, module, name, fault):
    """Let ``module.name`` answer ``fault(real, *args)``, ``real`` being the
    function it replaces."""
    real = getattr(module, name)
    m.setattr(module, name, lambda *args: fault(real, *args))


def _flipped(witness):
    return dataclasses.replace(witness, verdict=not witness.verdict)


def _undefined(outcome):
    """A conjunction that came out inconsistent, or a composition that came
    out incompatible."""
    return dataclasses.replace(outcome, automaton=None)


def _unpruned(conj):
    """A conjunction that keeps its inconsistent states."""
    if not conj.defined:
        return conj
    return dataclasses.replace(conj, automaton=conj.product.automaton)


def _unpruned_composition(comp):
    """A composition that keeps its incompatible states."""
    if not comp.compatible:
        return comp
    return dataclasses.replace(comp, automaton=comp.product)


def _without_transitions(comp):
    """A composition whose automaton lost every transition."""
    if not comp.compatible:
        return comp
    return dataclasses.replace(comp, automaton=dataclasses.replace(
        comp.automaton, may=frozenset(), must=frozenset()))


# (suite, message start, plant(m, auts)): the plant sets up its fault
# through the monkeypatch ``m``, after the sample is drawn.
_PLANTED = [
    ("ia-refl", "refinement not reflexive at ",
     lambda m, auts: m.setattr(testkit, "_verdict", lambda *args: False)),
    ("dmts-trans", "transitivity violated",
     lambda m, auts: m.setattr(testkit, "holds", lambda x, y: not (
         x is auts["a"] and y is auts["c"]))),
    ("mia-oracle", "checker says ",
     lambda m, auts: _patch(m, testkit, "refines",
                            lambda real, p, q: _flipped(real(p, q)))),
    ("mia-oracle", "holds-witness failed independent clause re-check",
     lambda m, auts: _patch(m, testkit, "refines",
                            lambda real, p, q: dataclasses.replace(
                                real(p, q),
                                pairs=frozenset([(p.initial, q.initial)])))),
    ("mia-glb", "common implementation exists but conjunction undefined",
     lambda m, auts: _patch(m, mia_ops, "mia_conjoin",
                            lambda real, p, q: _undefined(real(p, q)))),
    ("dmts-glb", "inconsistent state survived pruning: ",
     lambda m, auts: _patch(m, dmts_ops, "dmts_conjoin",
                            lambda real, p, q: _unpruned(real(p, q)))),
    ("mia-glb", "inconsistent state survived pruning: ",
     lambda m, auts: _patch(m, mia_ops, "mia_conjoin",
                            lambda real, p, q: _unpruned(real(p, q)))),
    ("mia-structural", "inconsistent state survived pruning",
     lambda m, auts: _patch(m, mia_ops, "mia_conjoin",
                            lambda real, p, q: _unpruned(real(p, q)))),
    ("ia-lub", "lub law violated: p v q <= r iff p<=r and q<=r",
     lambda m, auts: _patch(m, ia_ops, "ia_disjoin", lambda real, p, q: blackhole(
         p.alphabet.inputs, p.alphabet.outputs))),
    ("mia-mono", "disjunction not monotone: p<=q but not p v r <= q v r",
     lambda m, auts: _patch(m, mia_ops, "mia_disjoin", lambda real, x, r: (
         x if x is auts["q"] else real(x, r)))),
    ("mia-mono", "p^r defined but q^r undefined although p<=q",
     lambda m, auts: _patch(m, mia_ops, "mia_conjoin", lambda real, x, r: (
         _undefined(real(x, r)) if x is auts["q"] else real(x, r)))),
    ("mia-mono", "conjunction not monotone: p^r <= q^r fails",
     lambda m, auts: _patch(m, mia_ops, "mia_conjoin", lambda real, x, r: (
         dataclasses.replace(real(x, r), automaton=mia_ops.mia_disjoin(x, r))
         if x is auts["p"] else real(x, r)))),
    ("ia-par-comp", "p1<=q1 and q1,p2 compatible, but p1,p2 incompatible",
     lambda m, auts: _patch(m, ia_ops, "ia_parallel_compose", lambda real, x, p2: (
         _undefined(real(x, p2)) if x is auts["p1"] else real(x, p2)))),
    ("mia-par-comp", "incompatible state survived pruning: ",
     lambda m, auts: _patch(m, mia_ops, "mia_parallel_compose",
                            lambda real, p1, p2: _unpruned_composition(
                                real(p1, p2)))),
    ("mia-par-comp", "parallel composition not compositional: "
                     "p1|p2 <= q1|p2 fails",
     lambda m, auts: m.setattr(testkit, "holds",
                               lambda x, y: x is auts["p1"])),
    ("embed-refines", "ia refinement False but mia embedding True",
     lambda m, auts: _patch(m, embeddings, "embed_ia_to_mia",
                            lambda real, a: real(auts["q"]))),
    ("embed-refines", "ia refinement False but dmts embedding True",
     lambda m, auts: _patch(m, embeddings, "embed_ia_to_dmts",
                            lambda real, a: real(auts["q"]))),
    ("ia-embedding-hom", "conjunction of embeddings unexpectedly inconsistent",
     lambda m, auts: _patch(m, mia_ops, "mia_conjoin",
                            lambda real, p, q: _undefined(real(p, q)))),
    ("ia-embedding-hom", "embedded conjunction is invalid: [unknown-action]",
     lambda m, auts: _patch(m, mia_ops, "mia_conjoin",
                            lambda real, p, q: _with_unknown_action(real(p, q)))),
    ("ia-embedding-hom", "embedding is not homomorphic for conjunction",
     lambda m, auts: _patch(m, ia_ops, "ia_conjoin", lambda real, p, q: p)),
    ("ia-embedding-hom-par", "compatibility differs: ia True, embedded False",
     lambda m, auts: _patch(m, mia_ops, "mia_parallel_compose",
                            lambda real, p, q: _undefined(real(p, q)))),
    ("ia-embedding-hom-par",
     "embedding is not homomorphic for parallel composition",
     lambda m, auts: _patch(m, ia_ops, "ia_parallel_compose",
                            lambda real, p, q: _without_transitions(real(p, q)))),
    ("embed-dmts-oneway",
     "conjunction of dmts embeddings unexpectedly inconsistent",
     lambda m, auts: _patch(m, dmts_ops, "dmts_conjoin",
                            lambda real, p, q: _undefined(real(p, q)))),
    ("embed-dmts-oneway",
     "embedded conjunction does not refine conjoined embeddings",
     lambda m, auts: _patch(m, ia_ops, "ia_conjoin",
                            lambda real, p, q: ia_ops.ia_disjoin(p, q))),
    ("embed-dmts-oneway",
     "disjoined embeddings do not refine the embedded disjunction",
     lambda m, auts: _patch(m, dmts_ops, "dmts_disjoin",
                            lambda real, p, q: dataclasses.replace(
                                real(p, q), must=frozenset()))),
]


def _planted_messages(suite, plant, trials=40):
    """The check's message on each of the suite's samples at seed 0, with
    the fault planted for that sample."""
    law = SUITES[suite]
    for trial in range(trials):
        auts = law.sample(random.Random(f"{suite}|0|{trial}"))
        with pytest.MonkeyPatch.context() as m:
            plant(m, auts)
            yield law.check(auts)


@pytest.mark.parametrize("suite, message, plant", _PLANTED, ids=[
    f"{suite}:" + "-".join(re.findall(r"\w+", message)[:6])
    for suite, message, _ in _PLANTED])
def test_law_checks_report_planted_faults(suite, message, plant):
    assert any(text and text.startswith(message)
               for text in _planted_messages(suite, plant))
