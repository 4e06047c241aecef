"""mialib benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a mialib checkout:

    python3 bench/run.py --workload refine --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py``): ``refine``, ``operators``, ``files`` and
``laws``.  The library is imported from the checkout's ``src`` directory;
without it the command fails.

Set-up (a fresh interpreter importing mialib, input generation, file
writing and a warm-up on tiny inputs) runs ``SETUP_REPS`` times under
``--trace 0`` and ``setup_s`` is its median.  The timed phase then calls
the operations one after another.  Only the calls are timed: result checks
and, outside ``laws``, a garbage collection between operations happen
between timed regions, because a CLI user runs one command per process and
never pays for a predecessor's garbage.  The law suites keep collection as
it happens, as the test suite does.

Every time reported under ``--trace 0`` is scaled to a nominal host speed
by a reference kernel sampled through set-up and the timed phase (see
``calibrate.py``), because the shared host's own speed changes by up to
1.9x within seconds.  The unscaled figures are printed on a ``# raw`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice in a row, untraced and then traced, and prints the
per-layer metrics, the tracing overhead (traced over untraced time) and
the share of operation time that layer spans cover; the spans are written
to ``bench/_work``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import HostSpeed

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 3
IMPORTS = "import mialib, mialib.cli, mialib.testkit"


def load_library(root: Path) -> None:
    """Import mialib from the checkout, never from anywhere else."""
    src = root / "src"
    if not (src / "mialib" / "__init__.py").is_file():
        raise SystemExit(f"no mialib sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import mialib
    if Path(mialib.__file__).resolve().parent != (src / "mialib").resolve():
        raise SystemExit(f"mialib imported from {mialib.__file__}, not {src}")


def work_dir(root: Path, workload: str) -> Path:
    """Where a workload writes its files, relative to the checkout root.

    Relative, because the CLI prints the paths it is given and those
    bytes are digested: output must not depend on where the checkout is.
    """
    return Path(os.path.relpath(BENCH / "_work" / workload, root))


def time_imports(root: Path) -> None:
    """A fresh interpreter importing mialib: what every CLI call pays."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, 'src'); {IMPORTS}"],
                   cwd=root, check=True, timeout=60)


def execute(plan, expected: dict | None, tracer=None, speed: HostSpeed | None = None) -> dict:
    """Run every operation once, in order; check each result.

    ``expected`` maps operation keys to recorded output digests; ``None``
    skips the digest comparison (tiny inputs in the benchmark's own tests).
    Returns the ``latencies`` and ``problems`` of the run and the
    perf-counter ``intervals`` of the operations.  An active ``speed``
    samples the host while they run; its samples' time is not counted in
    the latencies.  With a
    ``tracer``, each operation runs twice in a row, first untraced with the
    unmodified functions and then traced, so that the host's speed drift
    touches both passes alike; the traced pass is returned under ``traced``.
    """
    speed = speed or HostSpeed()
    untraced = {"latencies": [], "problems": [], "intervals": []}
    passes = [(time.perf_counter, None, untraced)]
    if tracer is not None:
        untraced["traced"] = {"latencies": [], "problems": []}
        passes.append((tracer.clock, tracer, untraced["traced"]))
    validated: set[str] = set()
    for index, op in enumerate(plan.ops):
        for clock, attached, out in passes:
            if plan.isolate_gc:
                gc.collect()
            if attached is not None:
                attached.attach(index)
            stolen = speed.stolen
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # a crashed operation is a failed one
                result, problem = None, f"raised {exc!r}"
            else:
                problem = None
            finally:
                end = clock()
                out["latencies"].append(end - start - (speed.stolen - stolen))
                if attached is not None:
                    attached.detach()
                else:
                    out["intervals"].append((start, end))
            if problem is None:
                problem = check(op, result, expected, validated)
            if problem is not None:
                out["problems"].append(f"{op.key}: {problem}")
    return untraced


def check(op, result, expected: dict | None, validated: set) -> str | None:
    """The first problem with one operation's result, or ``None``."""
    from workloads import emitted_problem

    out_digest, problem = op.outcome(result)
    if problem is None and expected is not None and out_digest:
        want = expected.get(op.key)
        if want is None:
            problem = "no recorded digest"
        elif want != out_digest:
            problem = f"output digest {out_digest} != recorded {want}"
    # Output equal to a recorded digest was validated when it was recorded
    # (``record.py``); other emitted automata are parsed and validated here.
    if (problem is None and expected is None and op.emits is not None
            and out_digest not in validated):
        if op.emits.exists():
            problem = emitted_problem(op.emits)
        validated.add(out_digest)
    return problem


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 11)
    return 100.0 * (index + 1) / n, ordered[index]


def timings(lat: list[float], setup_s: float) -> dict:
    wall = sum(lat)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(lat) / wall, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail(lat)[1], "ms"),
    }


def scaled(times: list[float], intervals: list, speed: HostSpeed) -> list[float]:
    return [t * f for t, f in zip(times, speed.scales(intervals))]


def end_to_end(run: dict, setup: dict, speed: HostSpeed) -> dict:
    """Scaled timings, peak memory; the raw timings go to a comment line."""
    raw = run["latencies"]
    pct, _ = tail(raw)
    print(f"# latency_tail_ms is p{pct:.2f} of {len(raw)} samples; "
          f"latency_p50_ms over {len(raw)} samples")
    unscaled = timings(raw, statistics.median(setup["latencies"]))
    print("# raw " + " ".join(f"{k}={v:.6g}" for k, (v, _) in unscaled.items())
          + f" kernel_ms={1000 * statistics.median(speed.costs):.4g}"
          + f" kernel_samples={len(speed.costs)}")
    out = timings(scaled(raw, run["intervals"], speed),
                  statistics.median(scaled(setup["latencies"], setup["intervals"], speed)))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def per_layer(tracer, untraced: dict) -> dict:
    from spans import TIMED

    traced = untraced["traced"]
    out = {}
    for metric in TIMED:
        out[f"{metric}_s"] = (tracer.self_s.get(metric, 0.0), "s")
        out[f"{metric}_calls"] = (tracer.calls.get(metric, 0), "count")
    c = tracer.counts
    parse_s = tracer.self_s.get("frontend.parse", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out.update({
        "frontend.parse_kb_per_s": (ratio(c["frontend.parse_bytes"] / 1024, parse_s), "kB/s"),
        "frontend.output_kb": (c["frontend.output_bytes"] / 1024, "kB"),
        "model.construct_edges": (c["model.construct_edges"], "count"),
        "refinement.pairs_start": (c["refinement.pairs_start"], "count"),
        "refinement.pairs_alive": (c["refinement.pairs_alive"], "count"),
        "refinement.alive_ratio": (ratio(c["refinement.pairs_alive"],
                                         c["refinement.pairs_start"]), "ratio"),
        "dmts_ops.product_states": (c["dmts_ops.product_states"], "count"),
        "dmts_ops.product_edges": (c["dmts_ops.product_edges"], "count"),
        "dmts_ops.reachable_ratio": (ratio(c["dmts_ops.product_reachable"],
                                           c["dmts_ops.product_states"]), "ratio"),
        "dmts_ops.inconsistent_states": (c["dmts_ops.inconsistent_states"], "count"),
        "mia_ops.product_states": (c["mia_ops.product_states"], "count"),
        "mia_ops.reachable_ratio": (ratio(c["mia_ops.product_reachable"],
                                          c["mia_ops.product_states"]), "ratio"),
        "mia_ops.incompatible_states": (c["mia_ops.incompatible_states"], "count"),
        "trace.overhead": (ratio(sum(traced["latencies"]), sum(untraced["latencies"])), "ratio"),
        "trace.span_coverage": (ratio(tracer.top_s, sum(traced["latencies"])), "ratio"),
        "trace.spans_dropped": (tracer.dropped, "count"),
        "gc.pause_s": (tracer.gc_pause, "s"),
        "gc.collections": (tracer.gc_collections, "count"),
    })
    return out


def setup(workload: str, seed: int, rounds: int, root: Path, workdir: Path):
    """Generate and write the inputs, then warm up on tiny inputs."""
    from workloads import PLANNERS

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    time_imports(root)
    plan = PLANNERS[workload](seed, rounds, "full", workdir)
    (workdir / "warm").mkdir()
    execute(PLANNERS[workload](seed, 1, "tiny", workdir / "warm"), None)
    return plan


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("refine", "operators", "files", "laws"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    load_library(root)
    from workloads import ROUND_S

    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
    workdir = work_dir(root, args.workload)

    if args.trace:
        plan = setup(args.workload, args.seed, rounds, root, workdir)
        from spans import Tracer

        tracer = Tracer()
        run = execute(plan, expected, tracer)
        tracer.write(BENCH / "_work" / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        metrics = per_layer(tracer, run)
        passes = [run, run["traced"]]
    else:
        with HostSpeed() as speed:
            setups = {"latencies": [], "intervals": []}
            for _ in range(SETUP_REPS):
                plan = None  # release the previous repetition's inputs first
                gc.collect()
                stolen = speed.stolen
                start = time.perf_counter()
                plan = setup(args.workload, args.seed, rounds, root, workdir)
                end = time.perf_counter()
                setups["latencies"].append(end - start - (speed.stolen - stolen))
                setups["intervals"].append((start, end))
            run = execute(plan, expected, speed=speed)
        metrics = end_to_end(run, setups, speed)
        passes = [run]
    attempted = sum(len(p["latencies"]) for p in passes)
    problems = [problem for p in passes for problem in p["problems"]]
    failed = len(problems)

    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    print(f"# generator {json.dumps(plan.params)}")
    print(f"# workload={args.workload} seed={args.seed} rounds={rounds} "
          f"ops={attempted} fail_ratio={failed / attempted:.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
