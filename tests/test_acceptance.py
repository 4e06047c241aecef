"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (bypassing capture) so a plain pytest
run shows the per-criterion outcome.  Counterexamples from the randomized
suites, if any, are written below the pytest tmp directory.
"""

from __future__ import annotations

import functools
import shutil
import sys
import time

import pytest

from conftest import CORPUS, GOLDEN, golden_text, load
from mialib.cli import main
from mialib.frontend import parse, serialize
from mialib.model import as_dmts, atom, pair_id, validate
from mialib import dmts_ops, embeddings, ia_ops, mia_ops
from mialib.refinement import dmts_refines, mia_refines
from mialib.testkit import run_theorem_suite

SEED = 20260809


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            import conftest
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"criterion {number:2d}: FAIL  {description}"
                conftest.ACCEPTANCE_LINES.append(line)
                print(line, file=sys.__stdout__, flush=True)
                raise
            line = (f"criterion {number:2d}: PASS  {description} "
                    f"[{time.time() - start:.1f}s]")
            conftest.ACCEPTANCE_LINES.append(line)
            print(line, file=sys.__stdout__, flush=True)
        return run
    return wrap


def _run(name: str, trials: int, out_dir) -> None:
    report = run_theorem_suite(name, trials=trials, seed=SEED, out_dir=out_dir)
    assert report.passed, (name, [f.message for f in report.failures],
                           [f.files for f in report.failures])


@criterion(1, "refinement preorders: reflexivity 3x200, transitivity 3x200 chains, < 60 s")
def test_criterion_1_preorders(tmp_path):
    start = time.time()
    for flavor in ("ia", "dmts", "mia"):
        _run(f"{flavor}-refl", 200, tmp_path)
        _run(f"{flavor}-trans", 200, tmp_path)
    assert time.time() - start < 60


@criterion(2, "oracle agreement: 3x1000 instances, < 5 min")
def test_criterion_2_oracle_agreement(tmp_path):
    start = time.time()
    for flavor in ("ia", "dmts", "mia"):
        _run(f"{flavor}-oracle", 1000, tmp_path)
    assert time.time() - start < 300


@criterion(3, "greatest-lower-bound laws: 3x500 triples")
def test_criterion_3_glb(tmp_path):
    for flavor in ("ia", "dmts", "mia"):
        _run(f"{flavor}-glb", 500, tmp_path)


@criterion(4, "least-upper-bound laws: 3x500 triples")
def test_criterion_4_lub(tmp_path):
    for flavor in ("ia", "dmts", "mia"):
        _run(f"{flavor}-lub", 500, tmp_path)


@criterion(5, "monotonicity of conjunction and disjunction: 3x300")
def test_criterion_5_monotonicity(tmp_path):
    for flavor in ("ia", "dmts", "mia"):
        _run(f"{flavor}-mono", 300, tmp_path)


@criterion(6, "parallel compositionality: 2x300 compatible instances")
def test_criterion_6_parallel(tmp_path):
    _run("ia-par-comp", 300, tmp_path)
    _run("mia-par-comp", 300, tmp_path)


@criterion(7, "embedding laws: reflection 500, homomorphisms 2x300, one-way 300")
def test_criterion_7_embeddings(tmp_path):
    _run("embed-refines", 500, tmp_path)
    _run("ia-embedding-hom", 300, tmp_path)
    _run("ia-embedding-hom-par", 300, tmp_path)
    _run("embed-dmts-oneway", 300, tmp_path)


@criterion(8, "figure fixtures with golden serializations")
def test_criterion_8_figures(capsys):
    # conjunction pruning: the inconsistency set is exact, back-propagation
    # included, and the surviving disjunctive must loses only the pruned pair
    p4, q4 = load("fig04_p.dmts"), load("fig04_q.dmts")
    product = dmts_ops.dmts_conj_product(p4, q4)
    bad = dmts_ops.dmts_inconsistent(product)
    assert bad.members == frozenset({pair_id(atom("4"), atom("6")),
                                     pair_id(atom("3"), atom("5"))})
    assert bad.provenance[pair_id(atom("4"), atom("6"))][0] == "F1"
    assert bad.provenance[pair_id(atom("3"), atom("5"))][0] == "F3"
    conj = dmts_ops.dmts_conjoin(p4, q4)
    assert conj.defined
    assert conj.automaton.musts_from(conj.automaton.initial) == [
        ("a", frozenset({pair_id(atom("2"), atom("6")),
                         pair_id(atom("3"), atom("6"))}))]
    assert serialize(conj.automaton) == golden_text("fig04_conj.dmts")

    # IA conjunction and disjunction keep their bytes in both modes
    p1, q1 = load("fig01_p.ia"), load("fig01_q.ia")
    assert serialize(ia_ops.ia_disjoin(p1, q1)) == golden_text("fig01_disj.ia")
    assert serialize(ia_ops.ia_conjoin(p1, q1, reachable=True)) \
        == golden_text("fig01_conj_reachable.ia")

    # refinement survives composition where the older modal reading breaks
    p8, q8, q8p = load("fig08_p.mia"), load("fig08_q.mia"), load("fig08_qprime.mia")
    assert dmts_refines(as_dmts(q8p), as_dmts(q8)).verdict
    comp = mia_ops.mia_parallel_compose(p8, q8)
    assert comp.compatible and not comp.automaton.may and not comp.automaton.must
    comp_p = mia_ops.mia_parallel_compose(p8, q8p)
    assert comp_p.compatible
    assert mia_refines(comp_p.automaton, comp.automaton).verdict
    assert serialize(comp.automaton) == golden_text("fig08_pq.mia")
    assert serialize(comp_p.automaton) == golden_text("fig08_pq_prime.mia")

    # structured disjunction strictly refines the flat one
    p10, q10, r10 = load("fig10_p.mia"), load("fig10_q.mia"), load("fig10_r.mia")
    d10 = mia_ops.mia_disjoin(p10, q10)
    assert mia_refines(d10, r10).verdict
    assert not mia_refines(r10, d10).verdict
    assert serialize(d10) == golden_text("fig10_disj.mia")

    # dropping input-determinism breaks compositionality; validate rejects it
    p12, q12, r12 = (load("invalid_fig12_p.mia"), load("fig12_q.mia"),
                     load("fig12_r.mia"))
    assert any(v.rule == "mia-input-must-unique" for v in validate(p12))
    assert mia_refines(p12, q12).verdict  # clause check without validity gate
    assert mia_ops.mia_parallel_compose(q12, r12).compatible
    assert not mia_ops.mia_parallel_compose(p12, r12).compatible
    assert serialize(mia_ops.mia_parallel_compose(q12, r12).automaton) \
        == golden_text("fig12_qr.mia")

    # a composition's pruned set, each pair with the rule that pulled it in
    capsys.readouterr()
    assert main(["compose", str(CORPUS / "fig09_client.ia"),
                 str(CORPUS / "fig09_tryonce.ia"), "--emit-pruned-set"]) == 0
    assert capsys.readouterr().out == golden_text("cli/fig09_compose_pruned.out")


@criterion(9, "structural invariants on operator outputs: 3x300")
def test_criterion_9_structural(tmp_path):
    for flavor in ("ia", "dmts", "mia"):
        _run(f"{flavor}-structural", 300, tmp_path)


@criterion(10, "frontend round-trips and CLI exit-code contract")
def test_criterion_10_frontend(tmp_path):
    # parse/serialize round-trip over the entire corpus including goldens
    for path in sorted(CORPUS.glob("*.*")) + sorted(GOLDEN.glob("*.*")):
        text = path.read_text(encoding="utf-8")
        aut = parse(text)
        again = serialize(aut)
        reparsed = parse(again)
        assert (reparsed.may, reparsed.must, reparsed.initial, reparsed.alphabet) \
            == (aut.may, aut.must, aut.initial, aut.alphabet), path.name
        assert serialize(reparsed) == again, path.name
        if not path.name.startswith("invalid_"):
            assert validate(aut) == [], path.name

    # exit code contract: 0 holds, 1 fails, 2 usage/validation, 3 undefined
    def copy(name):
        dst = tmp_path / name
        shutil.copy(CORPUS / name, dst)
        return str(dst)

    bh = copy("blackhole.ia")
    assert main(["refine", bh, bh]) == 0
    impl = tmp_path / "impl.mia"
    impl.write_text("mia I { inputs: ; outputs: o; initial s; }")
    spec = tmp_path / "spec.mia"
    spec.write_text("mia S { inputs: ; outputs: o; initial t; "
                    "must t -o-> t; may t -o-> t; }")
    assert main(["refine", str(impl), str(spec)]) == 1
    assert main(["validate", copy("invalid_nondet.ia")]) == 2
    assert main(["conjoin", str(spec), str(impl)]) == 3
