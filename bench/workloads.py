"""The four benchmark workloads and the operations they run.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned.  A run is a fixed list of operations built
from the workload seed.  Each operation names a *slot* (what it does and on
which kind of input) and a pool index ``k``; the input of ``slot#k`` is
generated from those two alone, so its output digest can be recorded once
(``expected.json``) and checked on every run that draws it.  The uses of a
slot take the pool indices in turn (see :func:`cycler`), so every seed runs
the same operations on the same inputs; the seed orders the operations of
each round.  Runs of different seeds then differ only by that order and by
the host, which keeps their spread within the benchmark's bounds.

Each outcome known by construction is checked as well: the verdict, defined
or inconsistent, compatible or refused, and the CLI exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from mialib import (DMTS, IA, MIA, ModalAutomaton, atom, cli, equiv,
                    make_automaton, refines, serialize, testkit, validate)
from mialib.frontend import parse

import gen
from gen import GenParams, RESERVED

WORKLOADS = ("refine", "operators", "files", "laws")


@dataclass
class Op:
    """One timed operation and the checks on its result."""

    key: str
    run: Callable[[], object]
    # Returns (digest of the output bytes, problem or None).
    outcome: Callable[[object], tuple[str, str | None]]
    emits: Path | None = None


@dataclass
class Plan:
    """A run: its operations, in order, and whether GC is isolated per op."""

    workload: str
    ops: list[Op]
    isolate_gc: bool
    params: dict = field(default_factory=dict)


def cycler() -> Callable[[object, int], int]:
    """The ``j``-th use of a slot takes pool index ``j % pool``."""
    uses: Counter = Counter()

    def take(slot, pool: int) -> int:
        uses[slot] += 1
        return (uses[slot] - 1) % pool
    return take


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:20]


# ---------------------------------------------------------------------------
# refine: library refinement and equivalence queries

# Per flavor and round: (states, query, holds, count).  Smaller sizes run
# more often, so that each size class takes a similar share of the time.
# The 50-state refinements are over half of all queries, so the median
# latency falls inside their cluster, not on its edge with the slower
# equivalence checks, where it would jump between runs.
# On top, round r checks one 400-state pair, REFINE_LARGE_CYCLE[r % 6]:
# the flavor cycles over the rounds and the verdict alternates.  The pool
# holds two inputs per flavor and size below 400 and one at 400.
REFINE_MIX = {
    "full": ((200, "refines", True, 1), (200, "refines", False, 1),
             (100, "refines", True, 1), (100, "refines", False, 1),
             (100, "equiv", True, 1), (100, "equiv", False, 1),
             (50, "refines", True, 6), (50, "refines", False, 6),
             (50, "equiv", True, 2), (50, "equiv", False, 2)),
    "tiny": ((8, "refines", True, 1), (8, "refines", False, 1),
             (8, "equiv", True, 1), (8, "equiv", False, 1)),
}
REFINE_LARGE = {"full": 400, "tiny": 12}
REFINE_LARGE_CYCLE = ((IA, True), (DMTS, False), (MIA, True),
                      (IA, False), (DMTS, True), (MIA, False))
REFINE_GEN = {"actions": "3-4 plus the unused output zerr", "tau_share": 0.1,
              "extra_per_state": 1.0, "must_share": 0.3, "pool": 2, "pool_400": 1}


def refine_instance(flavor: str, n: int, k: int):
    """Spec, holding implementation, failing implementation, spec copy."""
    rng = random.Random(f"refine|{flavor}|{n}|{k}")
    inputs, outputs = gen.alphabet_for(flavor, rng.choice((3, 4)), rng)
    params = GenParams(flavor, n, inputs, outputs, extra_per_state=1.0,
                       tau_share=0.1, must_share=0.3, reserved_output=True)
    spec = gen.generate(params, rng, "spec")
    impl = gen.holding_impl(spec, rng)
    return spec, impl, gen.plant_failure(impl), gen.renamed_copy(spec, "c")


def _witness_bytes(witness) -> bytes:
    pairs = sorted(f"{p.text}<={q.text}" for p, q in witness.pairs)
    return f"{witness.verdict}\n{witness.failure}\n".encode() + "\n".join(pairs).encode()


def refine_op(flavor: str, n: int, query: str, holds: bool, k: int, cache: dict) -> Op:
    key = (flavor, n, k)
    if key not in cache:
        cache[key] = refine_instance(flavor, n, k)
    spec, impl, bad, copy = cache[key]
    if query == "refines":
        left, right = (impl if holds else bad), spec
        run = lambda: refines(left, right)

        def outcome(w):
            problem = None if w.verdict == holds else f"verdict {w.verdict}"
            return digest(_witness_bytes(w)), problem
    else:
        left, right = (spec, copy) if holds else (bad, spec)
        run = lambda: equiv(left, right)

        def outcome(v):
            return digest(str(v).encode()), None if v == holds else f"verdict {v}"
    verdict = "hold" if holds else "fail"
    return Op(f"refine/{flavor}/{n}/{query}-{verdict}#{k}", run, outcome)


def refine_pool(scale: str, n: int) -> int:
    return 1 if n == REFINE_LARGE[scale] else REFINE_GEN["pool"]


def refine_slots(scale: str, r: int) -> list[tuple]:
    """(flavor, states, query, holds) of every operation of round ``r``."""
    slots = [(flavor, n, query, holds)
             for flavor in (IA, DMTS, MIA)
             for n, query, holds, count in REFINE_MIX[scale]
             for _ in range(count)]
    flavor, holds = REFINE_LARGE_CYCLE[r % len(REFINE_LARGE_CYCLE)]
    slots.append((flavor, REFINE_LARGE[scale], "refines", holds))
    return slots


def plan_refine(seed: int, rounds: int, scale: str, workdir: Path) -> Plan:
    rng = random.Random(f"refine|{seed}")
    # One input serves every query on its flavor and size.
    take = cycler()
    cache: dict = {}
    ops = []
    for r in range(rounds):
        batch = [refine_op(*slot, take(slot, refine_pool(scale, slot[1])), cache)
                 for slot in refine_slots(scale, r)]
        rng.shuffle(batch)
        ops += batch
    return Plan("refine", ops, isolate_gc=True, params=REFINE_GEN)


# ---------------------------------------------------------------------------
# CLI operations shared by operators and files


def cli_op(key: str, argv: list[str], expect_code: int, out: Path | None) -> Op:
    """``mia <argv>`` in process; digest of exit code, stdout and -o file."""

    def run():
        if out is not None and out.exists():
            out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        return code, stdout.getvalue(), stderr.getvalue()

    def outcome(result):
        code, stdout, stderr = result
        written = out.read_bytes() if out is not None and out.exists() else b""
        problem = None
        if code != expect_code:
            problem = f"exit {code}, expected {expect_code}: {stderr.strip()[:200]}"
        return digest(str(code).encode(), stdout.encode(), written), problem

    emits = out if out is not None and argv[0] != "dot" else None
    return Op(key, run, outcome, emits=emits)


def write(path: Path, aut) -> str:
    path.write_text(serialize(aut), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# operators: conjoin, disjoin, compose on pairs of 30-80 state files

OPS_SIZES = ((30, 80), (50, 50), (80, 30), (40, 60), (60, 40))
OPERATORS_GEN = {"states": "30-80 per operand (n1*n2 ~ 2500)", "actions": 3,
                 "tau_share": 0.1, "extra_per_state": 1.5, "must_share": 0.3,
                 "pool": 2}


def _operator_slots() -> list[tuple]:
    """(command, flavor, case, flag) for every slot of one round."""
    slots = []
    for flavor in (DMTS, MIA):
        for case in ("consistent", "partial", "root-inconsistent"):
            for flag in ("", "--reachable"):
                slots.append(("conjoin", flavor, case, flag))
    for flag in ("", "--reachable"):
        slots.append(("conjoin", IA, "defined", flag))
    for flavor in (IA, DMTS, MIA):
        for flag in ("", "--reachable"):
            slots.append(("disjoin", flavor, "defined", flag))
    for flavor in (IA, MIA):
        for case in ("compatible", "refused"):
            for flag in ("", "--emit-pruned-set"):
                slots.append(("compose", flavor, case, flag))
    return slots


def _gen_params(flavor, n, rng, **kw) -> GenParams:
    inputs, outputs = gen.alphabet_for(flavor, 3, rng)
    return GenParams(flavor, n, inputs, outputs, extra_per_state=1.5,
                     tau_share=0.1, **kw)


def conj_pair(flavor: str, case: str, n1: int, n2: int, rng: random.Random):
    """Two operands whose conjunction is consistent, partly or root-inconsistent."""
    if case == "partial":
        # Both loosen one spec, which is then a common implementation.
        spec = gen.generate(_gen_params(flavor, (n1 + n2) // 2, rng), rng, "s")
        return gen.loosen(spec, rng), gen.renamed_copy(gen.loosen(spec, rng), "r")
    if case == "consistent":
        # No output musts on either side: nothing can seed inconsistency.
        p = _gen_params(flavor, n1, rng, must_share=0.0)
        a = gen.generate(p, rng, "a")
        b = gen.generate(replace(p, states=n2, prefix="r"), rng, "b")
        return a, b
    if case == "root-inconsistent":
        # The left root requires the reserved output, which the right never offers.
        p = _gen_params(flavor, n1, rng, reserved_output=True)
        a = gen.plant_root_must(gen.generate(p, rng, "a"))
        b = gen.generate(replace(p, states=n2, prefix="r"), rng, "b")
        return a, b
    p = _gen_params(flavor, n1, rng)
    a = gen.generate(p, rng, "a")
    b = gen.generate(replace(p, states=n2, prefix="r"), rng, "b")
    return a, b


def compose_pair(flavor: str, case: str, n1: int, n2: int, rng: random.Random):
    """Composable operands: the left outputs ``c`` to the right, the right
    outputs ``d`` to the left, and each side is receptive to its shared
    input.  The right spanning tree runs on its own output ``r1`` and
    ``tau``.  A refused pair drops ``c`` at the right state farthest from the
    root along those steps; the left offers ``c`` at its
    root, so the error is reached autonomously and the backward closure
    has to walk the whole path back to the initial pair."""
    left = GenParams(flavor, n1, ("l0", "d"), ("l1", "c"), extra_per_state=1.5,
                     tau_share=0.1, receptive=("d",), prefix="p")
    right = GenParams(flavor, n2, ("r0", "c"), ("r1", "d"), extra_per_state=1.5,
                      tau_share=0.1, receptive=("c",), tree_labels=("r1",), prefix="q")
    a = gen.generate(left, rng, "left")
    a = gen.rebuild(a, set(a.may) | {(a.initial, "c", a.initial)}, a.must)
    b = gen.generate(right, rng, "right")
    if case == "refused":
        state, _ = gen.farthest_state(b, labels=("r1",))
        b = gen.drop_input(b, state, "c")
    return a, b


def operators_op(slot: tuple, k: int, scale: str, workdir: Path) -> Op:
    command, flavor, case, flag = slot
    index = _operator_slots().index(slot)
    n1, n2 = OPS_SIZES[index % len(OPS_SIZES)] if scale == "full" else (5, 4)
    name = f"{command}-{flavor}-{case}{flag.replace('--', '-')}"
    rng = random.Random(f"operators|{name}|{k}")
    if command == "conjoin":
        a, b = conj_pair(flavor, case, n1, n2, rng)
        code = 3 if case == "root-inconsistent" else 0
    elif command == "disjoin":
        a, b = conj_pair(flavor, "defined", n1, n2, rng)
        code = 0
    else:
        a, b = compose_pair(flavor, case, n1, n2, rng)
        code = 3 if case == "refused" else 0
    stem = workdir / f"{name}#{k}"
    out = Path(f"{stem}.out.{flavor}")
    argv = [command, write(Path(f"{stem}.a.{flavor}"), a),
            write(Path(f"{stem}.b.{flavor}"), b), "-o", str(out)]
    if flag:
        argv.append(flag)
    return cli_op(f"operators/{name}#{k}", argv, code, out)


def plan_operators(seed: int, rounds: int, scale: str, workdir: Path) -> Plan:
    rng = random.Random(f"operators|{seed}")
    take = cycler()
    built: dict = {}
    ops = []
    for _ in range(rounds):
        batch = []
        for slot in _operator_slots():
            k = take(slot, OPERATORS_GEN["pool"])
            if (slot, k) not in built:
                built[slot, k] = operators_op(slot, k, scale, workdir)
            batch.append(built[slot, k])
        rng.shuffle(batch)
        ops += batch
    return Plan("operators", ops, isolate_gc=True, params=OPERATORS_GEN)


# ---------------------------------------------------------------------------
# files: every mia command on one large file and a tiny partner

FILES_SIZES = {"full": {IA: 2000, DMTS: 1000, MIA: 4000}, "tiny": {IA: 20, DMTS: 20, MIA: 20}}
FILES_GEN = {"states": "ia 2000, dmts 1000, mia 4000; partners 1-2", "actions": 4,
             "tau_share": 0.1, "extra_per_state": 1.0, "must_share": 0.3, "pool": 2}


def universal(big: ModalAutomaton) -> ModalAutomaton:
    """One state allowing every non-reserved output (dMTS: every action).

    It has no musts, so every automaton over the alphabet refines it unless
    it uses the reserved output."""
    u = atom("u")
    labels = sorted(big.alphabet.outputs - {RESERVED})
    return make_automaton(big.flavor, "univ", big.alphabet.inputs,
                          big.alphabet.outputs, u, [(u, a, u) for a in labels])


def sink(big: ModalAutomaton) -> ModalAutomaton:
    """Two states receptive to every output of ``big``; composable with it."""
    t0, t1 = atom("t0"), atom("t1")
    outs = sorted(big.alphabet.outputs)
    may = [(t0, o, t1) for o in outs] + [(t1, o, t0) for o in outs]
    must = [(s, o, frozenset([t])) for s, o, t in may]
    return make_automaton(big.flavor, "sink", outs, (), t0, may, must)


def files_inputs(flavor: str, n: int, k: int, workdir: Path) -> dict:
    rng = random.Random(f"files|{flavor}|{n}|{k}")
    inputs, outputs = gen.alphabet_for(flavor, 4, rng)
    big = gen.generate(GenParams(flavor, n, inputs, outputs, extra_per_state=1.0,
                                 tau_share=0.1, must_share=0.3, reserved_output=True),
                       rng, "big")
    stem = workdir / f"files-{flavor}-{n}#{k}"
    paths = {"big": write(Path(f"{stem}.big.{flavor}"), big),
             "bad": write(Path(f"{stem}.bad.{flavor}"), gen.plant_failure(big)),
             "univ": write(Path(f"{stem}.univ.{flavor}"), universal(big))}
    if flavor != DMTS:
        paths["sink"] = write(Path(f"{stem}.sink.{flavor}"), sink(big))
    return paths


def files_commands(flavor: str) -> list[tuple[str, list[str], int]]:
    """(name, argv template over input roles, expected exit code)."""
    cmds = [("validate", ["validate", "big"], 0),
            ("refine-hold", ["refine", "big", "univ"], 0),
            ("refine-fail", ["refine", "bad", "univ"], 1),
            ("equiv-fail", ["equiv", "bad", "univ"], 1),
            ("conjoin", ["conjoin", "big", "univ", "-o", "OUT"], 0),
            ("disjoin", ["disjoin", "big", "univ", "-o", "OUT"], 0),
            ("dot", ["dot", "big", "-o", "OUT"], 0)]
    if flavor != DMTS:
        cmds.append(("compose", ["compose", "big", "sink", "-o", "OUT"], 0))
    if flavor == IA:
        cmds += [("embed-dmts", ["embed", "--into", "dmts", "big", "-o", "OUT"], 0),
                 ("embed-mia", ["embed", "--into", "mia", "big", "-o", "OUT"], 0)]
    return cmds


def files_ops(flavor: str, k: int, scale: str, workdir: Path) -> list[Op]:
    n = FILES_SIZES[scale][flavor]
    paths = files_inputs(flavor, n, k, workdir)
    ops = []
    for name, template, code in files_commands(flavor):
        out = workdir / f"files-{flavor}-{n}-{name}#{k}.out"
        argv = [paths.get(a, str(out) if a == "OUT" else a) for a in template]
        ops.append(cli_op(f"files/{flavor}/{n}/{name}#{k}", argv, code,
                          out if "OUT" in template else None))
    return ops


def plan_files(seed: int, rounds: int, scale: str, workdir: Path) -> Plan:
    rng = random.Random(f"files|{seed}")
    take = cycler()
    ops = []
    built: dict = {}
    for _ in range(rounds):
        batch = []
        for flavor in (IA, DMTS, MIA):
            k = take(flavor, FILES_GEN["pool"])
            if (flavor, k) not in built:
                built[flavor, k] = files_ops(flavor, k, scale, workdir)
            batch += built[flavor, k]
        rng.shuffle(batch)
        ops += batch
    return Plan("files", ops, isolate_gc=True, params=FILES_GEN)


# ---------------------------------------------------------------------------
# laws: the registered theorem suites, one trial per operation

LAWS_GEN = {"suites": len(testkit.SUITES), "trials_per_suite_per_round": 1,
            "generator": "testkit (at most 6 states)"}


def laws_op(name: str, trial_seed: int, workdir: Path) -> Op:
    # A failing trial writes its shrunk counterexample under ``workdir``.
    run = lambda: testkit.run_theorem_suite(name, 1, trial_seed, out_dir=workdir / "laws")

    def outcome(report):
        problem = None if report.passed else f"{name}: {report.failures[0].message}"
        return "", problem
    return Op(f"laws/{name}", run, outcome)


def plan_laws(seed: int, rounds: int, scale: str, workdir: Path) -> Plan:
    """Round ``r`` runs one trial of every suite, drawn by the suite's own
    generators from the trial seed ``r`` (not the test suite's trials); the
    workload seed orders each round.  Every seed thus runs the same trials,
    so the rare heavy trials that make up the latency tail are the same too."""
    rng = random.Random(f"laws|{seed}")
    ops = []
    for r in range(rounds):
        batch = [laws_op(name, r, workdir) for name in sorted(testkit.SUITES)]
        rng.shuffle(batch)
        ops += batch
    return Plan("laws", ops, isolate_gc=False, params=LAWS_GEN)


def catalogue(workload: str, workdir: Path) -> list[Op]:
    """Every operation any seed can draw at full scale: ``slot#k`` for all k."""
    if workload == "refine":
        cache: dict = {}
        slots = {slot for r in range(len(REFINE_LARGE_CYCLE))
                 for slot in refine_slots("full", r)}
        return [refine_op(*slot, k, cache)
                for slot in sorted(slots)
                for k in range(refine_pool("full", slot[1]))]
    if workload == "operators":
        return [operators_op(slot, k, "full", workdir)
                for slot in _operator_slots()
                for k in range(OPERATORS_GEN["pool"])]
    if workload == "files":
        return [op for flavor in (IA, DMTS, MIA)
                for k in range(FILES_GEN["pool"])
                for op in files_ops(flavor, k, "full", workdir)]
    return []


PLANNERS = {"refine": plan_refine, "operators": plan_operators,
            "files": plan_files, "laws": plan_laws}

# Scaled seconds (see ``calibrate.py``) one round takes at the commit that
# defined the benchmark; a run does round(seconds / ROUND_S) rounds so that
# every commit measures the same list of operations.  At 12 seconds that is
# 2 rounds of refine, operators and files, so that each slot uses each of
# its pool inputs equally often, and 764 of laws.
ROUND_S = {"refine": 7.0, "operators": 4.8, "files": 6.1, "laws": 0.0157}


def emitted_problem(path: Path) -> str | None:
    """Parse an emitted automaton and return its first violation, if any."""
    aut = parse(path.read_text(encoding="utf-8"))
    problems = validate(aut)
    return f"{path.name}: {problems[0]}" if problems else None
