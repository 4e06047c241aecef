"""Layer spans for the traced benchmark run, recorded from outside mialib.

:class:`Tracer` wraps the public functions of each mialib module while it
is attached.  A name that another module bound with ``from .model import
make_automaton`` is looked up in the importing module, so every module
global, module-level table and suite closure that holds the original
function is pointed at the wrapper, and restored on detaching.  The
holders are found once; attaching and detaching only swap them, so the
run can attach around each traced operation and run the same operation
untraced, with the unmodified functions, right before it.

Each call becomes a span ``(name, start, end, parent, op)`` kept in memory
and written out when the run ends.
A call nested directly in a span of the same layer metric (``refines``
dispatching to ``mia_refines``) is folded into its parent.  Counts are read
from the returned objects after the span has ended; the time spent
counting is taken off the span clock, so it lands in no span.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from collections import defaultdict

import mialib
from mialib import (cli, dmts_ops, embeddings, frontend, ia_ops, mia_ops,
                    model, refinement, testkit)
from mialib.model import ModalAutomaton, reachable_states

MODULES = (model, frontend, refinement, dmts_ops, mia_ops, ia_ops,
           embeddings, cli, testkit)

# (module, function name, layer metric).  ``_gen`` is the generator core
# that the theorem suites call directly besides the public ``gen_*``.
TARGETS = (
    (frontend, "parse_document", "frontend.parse"),
    (frontend, "validate_document", "frontend.validate"),
    (frontend, "serialize", "frontend.serialize"),
    (frontend, "export_dot", "frontend.dot"),
    (model, "weak_closure", "model.weak_closure"),
    (model, "validate", "model.validate"),
    (model, "remove_states", "model.remove_states"),
    (model, "restrict_reachable", "model.restrict_reachable"),
    (model, "disjoint_operands", "model.disjoint_operands"),
    (refinement, "refines", "refinement.check"),
    (refinement, "ia_refines", "refinement.check"),
    (refinement, "dmts_refines", "refinement.check"),
    (refinement, "mia_refines", "refinement.check"),
    (dmts_ops, "dmts_conj_product", "dmts_ops.conj_product"),
    (dmts_ops, "dmts_inconsistent", "dmts_ops.inconsistent"),
    (dmts_ops, "dmts_conjoin", "dmts_ops.conjoin"),
    (dmts_ops, "dmts_disjoin", "dmts_ops.disjoin"),
    (mia_ops, "mia_conj_product", "mia_ops.conj_product"),
    (mia_ops, "mia_inconsistent", "mia_ops.inconsistent"),
    (mia_ops, "mia_conjoin", "mia_ops.conjoin"),
    (mia_ops, "mia_disjoin", "mia_ops.disjoin"),
    (mia_ops, "mia_parallel_product", "mia_ops.parallel_product"),
    (mia_ops, "mia_incompatible", "mia_ops.incompatible"),
    (mia_ops, "mia_parallel_compose", "mia_ops.compose"),
    (ia_ops, "ia_conjoin", "ia_ops.conjoin"),
    (ia_ops, "ia_disjoin", "ia_ops.disjoin"),
    (ia_ops, "ia_parallel_product", "ia_ops.parallel_product"),
    (ia_ops, "ia_incompatible", "ia_ops.incompatible"),
    (ia_ops, "ia_parallel_compose", "ia_ops.compose"),
    (embeddings, "embed_ia_to_dmts", "embeddings.embed"),
    (embeddings, "embed_ia_to_mia", "embeddings.embed"),
    (cli, "main", "cli.main"),
    (testkit, "gen_over", "testkit.generate"),
    (testkit, "gen_random", "testkit.generate"),
    (testkit, "gen_pair", "testkit.generate"),
    (testkit, "gen_composable_pair", "testkit.generate"),
    (testkit, "_gen", "testkit.generate"),
    (testkit, "weaken", "testkit.generate"),
    (testkit, "oracle_refines", "testkit.oracle"),
    (testkit, "recheck_witness", "testkit.recheck"),
    (testkit, "shrink", "testkit.shrink"),
)

# Span records kept in memory (a law-suite run opens millions); self time
# and call counts are aggregated for every span, kept or not.
MAX_SPANS = 300_000

TIMED = sorted({metric for _, _, metric in TARGETS} | {"model.construct"})
COUNTS = ("frontend.parse_bytes", "frontend.output_bytes",
          "model.construct_edges", "refinement.pairs_start",
          "refinement.pairs_alive", "dmts_ops.product_states",
          "dmts_ops.product_edges", "dmts_ops.product_reachable",
          "dmts_ops.inconsistent_states", "mia_ops.product_states",
          "mia_ops.product_reachable", "mia_ops.incompatible_states")


def _size(aut: ModalAutomaton) -> int:
    return len(aut.may) + len(aut.must)


def _count(metric: str, args: tuple, result, add) -> None:
    """Work counts read from a finished call's arguments and result."""
    if metric == "frontend.parse":
        add("frontend.parse_bytes", len(args[0].encode("utf-8")))
    elif metric in ("frontend.serialize", "frontend.dot"):
        add("frontend.output_bytes", len(result.encode("utf-8")))
    elif metric == "refinement.check":
        impl, spec = args[0], args[1]
        impl_state = args[2] if len(args) > 2 and args[2] is not None else impl.initial
        spec_state = args[3] if len(args) > 3 and args[3] is not None else spec.initial
        add("refinement.pairs_start", len(reachable_states(impl, impl_state))
            * len(reachable_states(spec, spec_state)))
        add("refinement.pairs_alive", len(result.pairs))
    elif metric in ("dmts_ops.conj_product", "mia_ops.conj_product",
                    "mia_ops.parallel_product"):
        aut = result.automaton if metric.endswith("conj_product") else result
        layer = metric.split(".")[0]
        add(f"{layer}.product_states", len(aut.states))
        add(f"{layer}.product_reachable", len(reachable_states(aut)))
        if layer == "dmts_ops":
            add("dmts_ops.product_edges", _size(aut))
    elif metric == "dmts_ops.inconsistent":
        add("dmts_ops.inconsistent_states", len(result.members))
    elif metric == "mia_ops.incompatible":
        add("mia_ops.incompatible_states", len(result.incompatible))


class Tracer:
    """Span-recording wrappers and the places that hold the originals.

    Self time and call counts are aggregated as spans close; the span
    records themselves are kept up to ``MAX_SPANS``, and the number left
    out is reported.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []
        self.op = -1
        # True only while attached, that is inside a traced operation.
        self.enabled = False
        self.paused = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.top_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_start = None
        # (setter, original, wrapper) for every holder of a wrapped function.
        self._swaps: list[tuple] = []
        originals = {}
        for module, name, metric in TARGETS:
            fn = getattr(module, name)
            originals[id(fn)] = self._wrap(fn, metric)
        self._find_holders(originals)
        self._wrap_construct()

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, metric: str):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled or (stack and stack[-1][0] == metric):
                return fn(*args, **kwargs)
            if len(tracer.spans) < MAX_SPANS:
                index = len(tracer.spans)
                tracer.spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [metric, 0.0, 0.0, index]
            stack.append(frame)
            frame[1] = start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                tracer.self_s[metric] += duration - frame[2]
                tracer.calls[metric] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.top_s += duration
                if index >= 0:
                    parent = stack[-1][3] if stack else -1
                    tracer.spans[index] = (metric, start, end, parent, tracer.op)
            t0 = time.perf_counter()
            _count(metric, args, result, tracer.add)
            tracer.paused += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def _wrap_construct(self) -> None:
        original = ModalAutomaton.__post_init__
        timed = self._wrap(original, "model.construct")
        tracer = self

        def post_init(aut):
            timed(aut)
            if not tracer.enabled:
                return
            t0 = time.perf_counter()
            tracer.add("model.construct_edges", _size(aut))
            tracer.paused += time.perf_counter() - t0

        self._swaps.append((lambda f: setattr(ModalAutomaton, "__post_init__", f),
                            original, post_init))

    def _find_holders(self, originals: dict) -> None:
        """Record every holder of an original function; change nothing."""
        swaps = self._swaps

        def scan_mapping(mapping: dict) -> None:
            for key, value in list(mapping.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    swaps.append((lambda f, m=mapping, k=key: m.__setitem__(k, f),
                                  value, wrapper))

        seen: set[int] = set()

        def scan_cells(fn) -> None:
            if id(fn) in seen or not callable(fn):
                return
            seen.add(id(fn))
            for cell in getattr(fn, "__closure__", None) or ():
                try:
                    value = cell.cell_contents
                except ValueError:
                    continue
                wrapper = originals.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    swaps.append((lambda f, c=cell: setattr(c, "cell_contents", f),
                                  value, wrapper))
                elif callable(value):
                    scan_cells(value)

        for module in MODULES + (mialib,):
            namespace = vars(module)
            scan_mapping(namespace)
            for value in list(namespace.values()):
                if isinstance(value, dict) and value is not namespace:
                    scan_mapping(value)
        for suite in testkit.SUITES.values():
            scan_cells(suite.sample)
            scan_cells(suite.check)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start" and self.enabled:
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def attach(self, op: int) -> None:
        """Point every holder at its wrapper; spans now belong to ``op``."""
        for setter, _, wrapper in self._swaps:
            setter(wrapper)
        gc.callbacks.append(self._gc_callback)
        self.op = op
        self.enabled = True

    def detach(self) -> None:
        """Put every original function back."""
        self.enabled = False
        gc.callbacks.remove(self._gc_callback)
        for setter, original, _ in self._swaps:
            setter(original)

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
