"""Differential test: the integer-indexed checker against the string-keyed one.

``_ReferenceChecker`` is a frozen copy of the refinement checker that kept
``(StateId, StateId)`` tuples in Python sets.  It serves only as the oracle
here.  Unlike ``testkit.oracle_refines``, which stops at 7 states, it runs
on the 8-40 state instances below, and it also fixes the expected witness
(every surviving pair) and the failure certificate, not just the verdict.
"""

from __future__ import annotations

import random

import pytest

from conftest import weak_hat_succ
from mialib.model import (DMTS, IA, MIA, TAU, ModalAutomaton, StateId, atom,
                          make_automaton, reachable_states, validate,
                          weak_closure)
from mialib.refinement import FailureCertificate, Pair, refines
from mialib.testkit import weaken

FLAVORS = (IA, DMTS, MIA)
BLOCKS = 4
PER_BLOCK = 90


def _may_domain(flavor: str, outputs: frozenset[str]) -> frozenset[str] | None:
    """Labels whose implementation mays clause (ii) inspects; None = all.

    A frozen copy of the rule the checker once applied per flavor.
    """
    if flavor == DMTS:
        return None
    return outputs | {TAU}


class _ReferenceChecker:
    def __init__(self, impl: ModalAutomaton, spec: ModalAutomaton, flavor: str,
                 impl_state: StateId, spec_state: StateId):
        self.impl = impl
        self.spec = spec
        self.domain = _may_domain(flavor, spec.alphabet.outputs)
        self.spec_weak = weak_closure(spec)
        self.root = (impl_state, spec_state)
        # Dependency closure from the roots is enough: eliminating a pair
        # outside it can never affect the verdict.
        self.alive: set[Pair] = set()
        for p in sorted(reachable_states(impl, impl_state)):
            for q in sorted(reachable_states(spec, spec_state)):
                self.alive.add((p, q))
        self.elim_order: dict[Pair, int] = {}
        self.elim_cause: dict[Pair, tuple[str, str]] = {}
        self.cited: dict[Pair, set[Pair]] = {}
        self.citers: dict[Pair, set[Pair]] = {}

    def run(self) -> None:
        pending = sorted(self.alive, key=lambda pq: (pq[0].text, pq[1].text))
        counter = 0
        while pending:
            batch, pending = pending, []
            for pair in batch:
                if pair not in self.alive:
                    continue
                ok, cited, cause = self._check(pair)
                if ok:
                    self._record_citations(pair, cited)
                    continue
                counter += 1
                self.alive.discard(pair)
                self.elim_order[pair] = counter
                self.elim_cause[pair] = cause
                for citer in sorted(self.citers.pop(pair, ()),
                                    key=lambda pq: (pq[0].text, pq[1].text)):
                    if citer in self.alive:
                        pending.append(citer)

    def _record_citations(self, pair: Pair, cited: set[Pair]) -> None:
        for old in self.cited.get(pair, ()):
            self.citers.get(old, set()).discard(pair)
        self.cited[pair] = cited
        for dep in cited:
            self.citers.setdefault(dep, set()).add(pair)

    def _check(self, pair: Pair) -> tuple[bool, set[Pair], tuple[str, str]]:
        p, q = pair
        cited: set[Pair] = set()
        # clause (i): spec musts flow to impl musts.
        for a, spec_targets in self.spec.musts_from(q):
            matched = False
            for b, impl_targets in self.impl.musts_from(p):
                if b != a:
                    continue
                picks = []
                for p2 in impl_targets:
                    choice = next((q2 for q2 in sorted(spec_targets)
                                   if (p2, q2) in self.alive), None)
                    if choice is None:
                        break
                    picks.append((p2, choice))
                else:
                    matched = True
                    cited.update(picks)
                    break
            if not matched:
                tgt = "{" + ",".join(sorted(t.text for t in spec_targets)) + "}"
                return False, cited, ("i", f"spec must {q} -{a}-> {tgt}")
        # clause (ii): impl mays flow to weak spec mays.
        for alpha, p2 in self.impl.may_from(p):
            if self.domain is not None and alpha not in self.domain:
                continue
            choice = next((q2 for q2 in sorted(weak_hat_succ(self.spec_weak, q, alpha))
                           if (p2, q2) in self.alive), None)
            if choice is None:
                return False, cited, ("ii", f"impl may {p} -{alpha}-> {p2}")
            cited.add((p2, choice))
        return True, cited, ("", "")

    def certificate(self) -> FailureCertificate:
        """Walk blame from the root to the first eliminated ancestor."""
        pair = self.root
        while True:
            clause, transition = self.elim_cause[pair]
            blamed = self._blamed_successor(pair, clause, transition)
            if blamed is None:
                return FailureCertificate(pair=pair, clause=clause,
                                          transition=transition)
            pair = blamed

    def _blamed_successor(self, pair: Pair, clause: str, transition: str) -> Pair | None:
        p, q = pair
        candidates: set[Pair] = set()
        if clause == "i":
            for a, spec_targets in self.spec.musts_from(q):
                for b, impl_targets in self.impl.musts_from(p):
                    if b == a:
                        candidates.update((p2, q2) for p2 in impl_targets
                                          for q2 in spec_targets)
        else:
            for alpha, p2 in self.impl.may_from(p):
                if self.domain is not None and alpha not in self.domain:
                    continue
                candidates.update((p2, q2)
                                  for q2 in weak_hat_succ(self.spec_weak, q, alpha))
        my_order = self.elim_order[pair]
        eliminated = [(self.elim_order[c], c) for c in candidates
                      if c in self.elim_order and self.elim_order[c] < my_order]
        if not eliminated:
            return None
        return min(eliminated)[1]



def _reference(impl: ModalAutomaton, spec: ModalAutomaton, flavor: str,
               impl_state: StateId, spec_state: StateId):
    checker = _ReferenceChecker(impl, spec, flavor, impl_state, spec_state)
    checker.run()
    verdict = (impl_state, spec_state) in checker.alive
    failure = None if verdict else str(checker.certificate())
    return verdict, frozenset(checker.alive), failure


def _automaton(flavor: str, n: int, inputs: list[str], outputs: list[str],
               rng: random.Random, name: str) -> ModalAutomaton:
    """A valid automaton on ``n`` states, all reachable from ``s0``."""
    states = [atom(f"s{i}") for i in range(n)]
    taken: set = set()

    def label(src: StateId) -> str:
        if rng.random() < 0.15:
            return TAU
        a = rng.choice(inputs + outputs)
        if flavor == IA and a in inputs:
            if (src, a) in taken:
                return rng.choice(outputs) if outputs else TAU
            taken.add((src, a))
        return a

    may = set()
    for i in range(1, n):
        src = states[rng.randrange(i)]
        may.add((src, label(src), states[i]))
    for _ in range(int(n * rng.uniform(0.5, 2.0))):
        src = rng.choice(states)
        may.add((src, label(src), rng.choice(states)))
    by_src_label: dict = {}
    for s, a, t in sorted(may, key=lambda e: (e[0].text, e[1], e[2].text)):
        by_src_label.setdefault((s, a), []).append(t)
    must = set()
    for (s, a), targets in by_src_label.items():
        if a == TAU:
            continue
        if a in inputs and flavor != DMTS:
            # IA inputs are singleton musts; a MIA input must covers its mays.
            if flavor == IA:
                must.update((s, a, frozenset([t])) for t in targets)
            else:
                must.add((s, a, frozenset(targets)))
        elif rng.random() < 0.3 and flavor != IA:
            must.add((s, a, frozenset(rng.sample(targets, rng.randint(1, len(targets))))))
    aut = make_automaton(flavor, name, inputs, outputs, states[0], may, must,
                         states=states)
    assert not validate(aut), validate(aut)
    return aut


def _instance(flavor: str, seed: int, max_states: int = 40):
    """One seeded query: spec, impl and the two start states, at 8 to
    ``max_states`` states per side."""
    rng = random.Random(f"differential|{flavor}|{seed}")
    actions = [f"a{i}" for i in range(rng.randint(2, 4))]
    if flavor == DMTS:
        inputs, outputs = [], actions
    else:
        k = rng.randint(1, len(actions) - 1)
        inputs, outputs = actions[:k], actions[k:]
    spec = _automaton(flavor, rng.randint(8, max_states), inputs, outputs, rng, "spec")
    shape = rng.choice(("weakened", "planted", "independent"))
    if shape == "independent":
        impl = _automaton(flavor, rng.randint(8, max_states), inputs, outputs, rng, "impl")
    else:
        impl = weaken(spec, rng)
    if shape == "planted":
        # One extra may that the specification may be unable to match.
        labels = outputs + [TAU] if flavor != DMTS else actions + [TAU]
        states = sorted(impl.states)
        edge = (rng.choice(states), rng.choice(labels), rng.choice(states))
        impl = make_automaton(flavor, impl.name, inputs, outputs, impl.initial,
                              impl.may | {edge}, impl.must, states=impl.states)
    impl_state = rng.choice(sorted(impl.states)) if rng.random() < 0.2 else impl.initial
    spec_state = rng.choice(sorted(spec.states)) if rng.random() < 0.2 else spec.initial
    return impl, spec, impl_state, spec_state


@pytest.mark.parametrize("block", range(BLOCKS))
@pytest.mark.parametrize("flavor", FLAVORS)
def test_same_verdict_witness_and_certificate(flavor, block):
    verdicts = []
    for seed in range(block * PER_BLOCK, (block + 1) * PER_BLOCK):
        impl, spec, impl_state, spec_state = _instance(flavor, seed)
        expected = _reference(impl, spec, flavor, impl_state, spec_state)
        w = refines(impl, spec, impl_state, spec_state)
        got = (w.verdict, w.pairs, None if w.verdict else str(w.failure))
        assert got == expected, f"{flavor} seed {seed}"
        verdicts.append(w.verdict)
    # Both outcomes must be well represented, or the certificates go untested.
    assert PER_BLOCK // 5 <= sum(verdicts) <= PER_BLOCK - PER_BLOCK // 5
