"""Tests of the benchmark itself: generator, constructions, checks, runs.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mialib import DMTS, IA, MIA, TAU, cli, dmts_ops, ia_ops, mia_ops, refinement, validate
from mialib.model import reachable_states

import calibrate
import gen
import run
import spans
import workloads
from gen import GenParams

BENCH = Path(run.__file__).resolve().parent
FLAVORS = (IA, DMTS, MIA)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n", (1, 7, 60))
def test_generated_automata_are_valid_and_fully_reachable(flavor, n):
    for k in range(5):
        rng = random.Random(f"{flavor}{n}{k}")
        inputs, outputs = gen.alphabet_for(flavor, 4, rng)
        receptive = inputs[:1] if flavor != DMTS else ()
        aut = gen.generate(GenParams(flavor, n, inputs, outputs, receptive=receptive,
                                     reserved_output=True), rng, "g")
        assert validate(aut) == []
        assert reachable_states(aut) == aut.states
        assert len(aut.states) == n
        assert all(label != gen.RESERVED for _, label, _ in aut.may)
        for state in aut.states:
            for a in receptive:
                assert aut.may_targets(state, a), "receptive input missing"
        if flavor == MIA:
            for state in aut.states:
                for a in aut.alphabet.inputs:
                    assert len(aut.must_sets(state, a)) <= 1


def test_tau_and_must_shares_follow_the_parameters():
    rng = random.Random(0)
    aut = gen.generate(GenParams(DMTS, 400, (), ("a0", "a1", "a2"), tau_share=0.1,
                                 must_share=0.5), rng, "g")
    tau = sum(1 for _, label, _ in aut.may if label == TAU) / len(aut.may)
    assert 0.06 < tau < 0.14
    rng = random.Random(0)
    none = gen.generate(GenParams(DMTS, 400, (), ("a0", "a1", "a2"), must_share=0.0), rng, "g")
    assert not none.must and aut.must


@pytest.mark.parametrize("flavor", FLAVORS)
def test_refine_constructions_hold_and_fail(flavor):
    for k in range(3):
        spec, impl, bad, copy = workloads.refine_instance(flavor, 12, k)
        assert refinement.refines(impl, spec).verdict
        assert not refinement.refines(bad, spec).verdict
        assert refinement.equiv(spec, copy)
        assert not refinement.equiv(bad, spec)
        assert reachable_states(impl) == impl.states


@pytest.mark.parametrize("flavor,conjoin", ((DMTS, dmts_ops.dmts_conjoin),
                                            (MIA, mia_ops.mia_conjoin)))
def test_conjunction_cases(flavor, conjoin):
    partial_members = 0
    for k in range(4):
        rng = random.Random(k)
        conj = conjoin(*workloads.conj_pair(flavor, "consistent", 8, 6, rng))
        assert conj.defined and not conj.inconsistency.members
        conj = conjoin(*workloads.conj_pair(flavor, "partial", 12, 12, rng))
        assert conj.defined
        partial_members += len(conj.inconsistency.members)
        conj = conjoin(*workloads.conj_pair(flavor, "root-inconsistent", 8, 6, rng))
        assert not conj.defined
    assert partial_members > 0


@pytest.mark.parametrize("flavor,compose", ((IA, ia_ops.ia_parallel_compose),
                                            (MIA, mia_ops.mia_parallel_compose)))
def test_composition_cases(flavor, compose):
    for k in range(4):
        rng = random.Random(k)
        assert compose(*workloads.compose_pair(flavor, "compatible", 10, 12, rng)).compatible
        refused = compose(*workloads.compose_pair(flavor, "refused", 10, 12, rng))
        assert not refused.compatible
        # The error sits deep: the closure walks a long path back to the root.
        assert refused.product.initial not in refused.incompatibility.errors
        _, depth = gen.farthest_state(refused.product, labels=("r1",))
        assert depth >= 3


def _tiny_plan(workload, tmp_path):
    workdir = tmp_path / workload
    workdir.mkdir()
    return workloads.PLANNERS[workload](3, 1, "tiny", workdir)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_passes_a_tiny_smoke_run(workload, tmp_path):
    plan = _tiny_plan(workload, tmp_path)
    result = run.execute(plan, None)
    assert result["problems"] == []
    assert len(result["latencies"]) == len(plan.ops) > 0
    assert len(result["intervals"]) == len(plan.ops)


def test_host_speed_scales_intervals_by_the_kernel_samples_around_them():
    speed = calibrate.HostSpeed()
    nominal = calibrate.KERNEL_NOMINAL_S
    speed.starts, speed.costs = [0.0, 1.0, 2.0], [nominal, 2 * nominal, 2 * nominal]
    # No sample near the first interval: the nearest ones on each side count.
    assert speed.scales([(0.5, 0.6), (0.99, 2.0)]) == pytest.approx([1 / 1.5, 0.5])


def test_host_speed_samples_are_not_counted_in_latencies(tmp_path):
    plan = _tiny_plan("laws", tmp_path)
    busy = workloads.Op("busy", lambda: sum(range(3_000_000)), lambda r: ("", None))
    with calibrate.HostSpeed() as speed:
        result = run.execute(workloads.Plan("laws", [busy] + plan.ops, False), None,
                             speed=speed)
    assert len(speed.costs) >= 2 and speed.stolen > 0
    start, end = result["intervals"][0]
    assert result["latencies"][0] < end - start
    assert len(speed.scales(result["intervals"])) == len(plan.ops) + 1


def test_corrupted_expected_digest_counts_as_a_failure(tmp_path):
    plan = _tiny_plan("operators", tmp_path)
    expected = {}
    for op in plan.ops:
        expected[op.key] = op.outcome(op.run())[0]
    assert run.execute(plan, expected)["problems"] == []
    victim = plan.ops[0].key
    expected[victim] = "0" * 20
    problems = run.execute(plan, expected)["problems"]
    assert len(problems) == 1 and problems[0].startswith(victim)
    del expected[victim]
    assert len(run.execute(plan, expected)["problems"]) == 1


def test_wrong_outcome_counts_as_a_failure(tmp_path):
    plan = _tiny_plan("files", tmp_path)
    op = next(op for op in plan.ops if op.key.split("#")[0].endswith("refine-fail"))
    op.run = lambda: (0, "refinement holds\n", "")
    assert len(run.execute(workloads.Plan("files", [op], True), None)["problems"]) == 1


def test_tracer_wraps_imported_names_only_while_attached(tmp_path):
    original = refinement.refines
    plan = _tiny_plan("operators", tmp_path)
    tracer = spans.Tracer()
    assert cli.refines is original
    tracer.attach(0)
    try:
        assert cli.refines is not original and cli.refines.__wrapped__ is original
    finally:
        tracer.detach()
    result = run.execute(plan, None, tracer)
    assert cli.refines is original and refinement._BY_FLAVOR[IA] is refinement.ia_refines
    traced = result["traced"]
    assert result["problems"] == [] and traced["problems"] == []
    assert len(result["latencies"]) == len(traced["latencies"]) == len(plan.ops)
    assert tracer.calls["cli.main"] == len(plan.ops)
    assert tracer.calls["mia_ops.parallel_product"] > 0
    assert tracer.counts["dmts_ops.product_states"] > 0
    assert 0 < tracer.top_s <= sum(traced["latencies"]) + 1e-9


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("rounds", (1, 3))
def test_every_seed_runs_the_same_operations_in_its_own_order(workload, rounds, tmp_path):
    orders = []
    for seed in range(4):
        workdir = tmp_path / f"{workload}-{rounds}-{seed}"
        workdir.mkdir()
        plan = workloads.PLANNERS[workload](seed, rounds, "tiny", workdir)
        orders.append([op.key for op in plan.ops])
    assert all(sorted(order) == sorted(orders[0]) for order in orders)
    assert len({tuple(order) for order in orders}) > 1


def _main_json(capsys, *args):
    assert run.main(["--workload", "laws", "--seed", "2", "--seconds", "0.05", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_command_prints_exactly_the_declared_metrics(capsys):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = _main_json(capsys, "--trace", "0")
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] > 0
    assert set(e2e["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    layers = _main_json(capsys, "--trace", "1")
    assert set(layers["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for spec in declared["end_to_end"] + declared["per_layer"]:
        metrics = e2e["metrics"] if spec in declared["end_to_end"] else layers["metrics"]
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert layers["metrics"]["testkit.generate_calls"]["value"] > 0


def test_command_fails_without_library_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "laws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
