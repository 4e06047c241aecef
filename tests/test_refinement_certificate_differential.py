"""Differential tests of the two-run checker.

``refines`` computes its witness on bit rows, starting with the pairs that
fail on labels alone dead, and for a failing check replays the ordered
elimination only on the root pair's region.  ``_OrderedChecker`` is a
frozen copy of the checker that ran the ordered elimination over every
pair, with the marked pairs dying at their turn in the first pass.  It is
the reference here: for each instance the verdict, every surviving pair
and the certificate text must be its, and the certificate run's kill
order must be its order restricted to the region.

The instances, at 200-400 states, are large enough for the label screen:
a failure planted at the implementation state farthest from the root, one
planted at the root so that the root pair fails on labels alone, both at
once, and the holding implementation itself.

The second test runs the certificate run on many small shapes: with the
bit rows and their label screen run at every size, ``refines`` must give
what it gives with them run at none, where the witness run is the ordered
elimination.
"""

from __future__ import annotations

from itertools import compress

import pytest

from mialib import refinement
from mialib.model import DMTS, IA, MIA, atom, make_automaton, targets_text
from mialib.refinement import (_BIT_ROWS_MIN_STATES, FailureCertificate,
                               _Checker, refines)
from test_refinement_differential import _instance
from test_refinement_large_differential import NEVER, _planted

FLAVORS = (IA, DMTS, MIA)
SEEDS = range(2, 4)
# A state name that sorts after the generated ones (s0, s1, ...).
LAST = "z0"
# One that sorts between them: after s4 and s4..., before s5.
MID = "s4z"


class _OrderedChecker(_Checker):
    """Frozen copy of the checker's ordered elimination over every pair.

    ``alive`` is 1 while alive, 0 once eliminated, and 2 for an alive pair
    that fails on labels alone and dies at its turn in the first pass.
    ``elim_order`` is 0 while alive, else the 1-based place in the
    elimination order.
    """

    def __init__(self, impl, spec, impl_state, spec_state):
        super().__init__(impl, spec, impl_state, spec_state)
        n = len(self.impl_states) * self.nq
        if min(len(self.impl_states), self.nq) >= _BIT_ROWS_MIN_STATES:
            self.alive = self._label_screen()
        else:
            self.alive = bytearray(b"\x01") * n
        self.elim_order = [0] * n

    def run(self):
        alive, order, check = self.alive, self.elim_order, self._check
        n = len(alive)
        since, head = [0] * n, [0] * n
        who, nxt = [0], [0]
        pending = range(n)
        counter = 0
        while pending:
            batch, pending = pending, []
            for x in batch:
                state = alive[x]
                if state == 1:
                    cited = []
                    if check(x, alive, cited) is None:
                        e = since[x] = len(who)
                        for d in cited:
                            who.append(x)
                            nxt.append(head[d])
                            head[d] = e
                            e += 1
                        continue
                elif not state:
                    continue
                counter += 1
                alive[x] = 0
                order[x] = counter
                e = head[x]
                if e:
                    citers = set()
                    while e:
                        c = who[e]
                        if alive[c] and e >= since[c]:
                            citers.add(c)
                        e = nxt[e]
                    pending.extend(sorted(citers))

    def _label_screen(self):
        spec_side = [(set(musts),
                      {a for a, rows in self.spec_hat.items() if rows[q]})
                     for q, musts in enumerate(self.spec_musts)]
        out = bytearray()
        for musts, mays in zip(self.impl_musts, self.impl_mays):
            has_must, has_may = set(musts), {alpha for alpha, _ in mays}
            out += bytes(1 if need <= has_must and has_may <= matched else 2
                         for need, matched in spec_side)
        return out

    def pairs(self):
        P, Q, nq = self.impl_states, self.spec_states, self.nq
        return frozenset((P[x // nq], Q[x % nq])
                         for x in compress(range(len(self.alive)), self.alive))

    def inspected(self, x, clause):
        nq = self.nq
        p, q = divmod(x, nq)
        if clause == "i":
            impl_musts = self.impl_musts[p]
            return [p2 * nq + q2 for a, spec_sets in self.spec_musts[q].items()
                    for spec_targets in spec_sets
                    for impl_targets in impl_musts.get(a, ())
                    for p2 in impl_targets for q2 in spec_targets]
        spec_hat = self.spec_hat
        return [p2 * nq + q2 for alpha, p2 in self.impl_mays[p] for q2 in spec_hat[alpha][q]]

    def certificate(self):
        order = self.elim_order
        x = self.root
        while True:
            mine = order[x]
            alive_then = [not 0 < k < mine for k in order]
            cause = self._check(x, alive_then, [])
            eliminated = [(order[c], c) for c in self.inspected(x, cause[0])
                          if 0 < order[c] < mine]
            if not eliminated:
                return self._describe(x, cause)
            x = min(eliminated)[1]

    def _describe(self, x, cause):
        p, q = divmod(x, self.nq)
        impl_state, spec_state = self.impl_states[p], self.spec_states[q]
        clause, (label, target) = cause
        if clause == "i":
            tgt = targets_text(self.spec_states[t] for t in target)
            transition = f"spec must {spec_state} -{label}-> {tgt}"
        else:
            transition = f"impl may {impl_state} -{label}-> {self.impl_states[target]}"
        return FailureCertificate(pair=(impl_state, spec_state), clause=clause,
                                  transition=transition)


def _rebuilt(aut, extra_may=frozenset(), rename=None):
    """``aut`` with more mays, and its initial state renamed to ``rename``."""
    names = {aut.initial: atom(rename)} if rename else {}
    r = lambda s: names.get(s, s)
    return make_automaton(aut.flavor, aut.name, sorted(aut.alphabet.inputs),
                          sorted(aut.alphabet.outputs), r(aut.initial),
                          {(r(s), a, r(t)) for s, a, t in aut.may | extra_may},
                          {(r(s), a, frozenset(map(r, ts))) for s, a, ts in aut.must},
                          states=[r(s) for s in aut.states])


def _instances(flavor):
    """(name, impl, spec) at 200-400 states per side.

    Each seed gives a holding implementation, a failure planted at its
    farthest state and one planted at its root, where the root pair fails
    on labels alone.  The failing ones come twice: as drawn, where the root
    pair is the first pair in index order, and with both initial states
    renamed to sort last, so that the root pair is the last one and the
    certificate run has the whole first pass before it.  The last instance
    plants both failures and renames the impl's initial state to sort in
    mid order, so that the far failure kills pairs on both sides of the
    marked root.
    """
    for seed in SEEDS:
        spec, impl, far = _planted(flavor, seed)
        at_root = _rebuilt(impl, {(impl.initial, NEVER, impl.initial)})
        yield f"{flavor}/{seed}/holds", impl, spec
        last_spec = _rebuilt(spec, rename=LAST)
        for kind, bad in (("far", far), ("root", at_root)):
            yield f"{flavor}/{seed}/{kind}", bad, spec
            yield f"{flavor}/{seed}/{kind}-last", _rebuilt(bad, rename=LAST), last_spec
        both = _rebuilt(far, {(far.initial, NEVER, far.initial)}, rename=MID)
        yield f"{flavor}/{seed}/both-mid", both, spec


def _region(reference, witness, screen):
    """The pairs off the witness that the root reaches through such pairs,
    stepping to every successor pair either clause inspects.

    A pair that fails on labels alone dies at its turn in the first pass,
    so it steps only to pairs before it in index order.
    """
    root = reference.root
    region = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        top = len(witness) if screen[x] else x
        for y in reference.inspected(x, "i") + reference.inspected(x, "ii"):
            if y < top and not witness[y] and y not in region:
                region.add(y)
                stack.append(y)
    return region


@pytest.mark.parametrize("flavor", FLAVORS)
def test_two_runs_give_the_ordered_elimination_witness_and_certificate(flavor):
    failing = on_labels = beyond_marked_root = 0
    replayed = {True: 0, False: 0}
    for name, impl, spec in _instances(flavor):
        reference = _OrderedChecker(impl, spec, impl.initial, spec.initial)
        assert 2 in reference.alive, name
        reference.run()
        root = reference.root
        verdict = bool(reference.alive[root])
        failure = None if verdict else str(reference.certificate())
        w = refines(impl, spec)
        assert (w.verdict, w.pairs, None if w.verdict else str(w.failure)) == (
            verdict, reference.pairs(), failure), name
        assert verdict == name.endswith("holds"), name
        if verdict:
            continue
        failing += 1

        checker = _Checker(impl, spec, impl.initial, spec.initial)
        # Per pair, in index order: 0 where it fails on labels alone.
        screen = [row >> q & 1 for row in checker._screen() for q in range(checker.nq)]
        marked_root = not screen[root]
        on_labels += marked_root
        checker.witness()
        witness = bytes(checker.alive)
        assert witness == bytes(reference.alive), name
        checker.certificate()
        # The certificate run leaves the witness as it found it.
        assert bytes(checker.alive) == witness, name
        # Its kills, in their order, are the reference's kills inside the
        # region up to the root's, in the reference's order.
        order = checker.elim_order
        killed = sorted(compress(range(len(order)), order), key=order.__getitem__)
        assert [order[x] for x in killed] == list(range(1, len(killed) + 1)), name
        ref_order = reference.elim_order
        region = _region(reference, witness, screen)
        expected = sorted((x for x in region if ref_order[x] <= ref_order[root]),
                          key=ref_order.__getitem__)
        # Region pairs after a marked root are never reached: the run stops
        # at the root's first-pass turn, and they read as alive.
        beyond_marked_root += marked_root and max(region) > root
        assert killed == expected, name
        assert killed[-1] == root, name
        replayed[marked_root] += len(killed) > 1
    assert failing == 5 * len(SEEDS)
    # Every root planted on labels fails on labels alone, and no far one does.
    assert on_labels == 3 * len(SEEDS)
    # Both kinds of region had pairs die before the root.
    assert replayed[True] and replayed[False], replayed
    # Some region around a marked root holds pairs after it.
    assert beyond_marked_root


SMALL_PER_FLAVOR = 400


@pytest.mark.parametrize("flavor", FLAVORS)
def test_screened_and_unscreened_runs_agree_on_small_automata(flavor, monkeypatch):
    """At 8-60 states, with the bit rows run at every size, every failing
    check gets its certificate from the certificate run; with the bit rows
    run at none, the witness run is the ordered elimination itself.  Both
    must give the same verdict, witness and certificate."""
    instances = [_instance(flavor, seed, max_states=60) for seed in range(SMALL_PER_FLAVOR)]
    replayed = []
    replay = _Checker._replay

    def counted(self):
        # Whether the root fails on labels alone.
        p, q = divmod(self.root, self.nq)
        replayed.append(not self.screen[p] >> q & 1)
        replay(self)

    monkeypatch.setattr(_Checker, "_replay", counted)
    results = {}
    for threshold in (10**9, 0):
        monkeypatch.setattr(refinement, "_BIT_ROWS_MIN_STATES", threshold)
        results[threshold] = [(w.verdict, w.pairs, None if w.verdict else str(w.failure))
                              for w in (refines(*instance) for instance in instances)]
        if threshold:
            assert not replayed
    for seed, (ordered, screened) in enumerate(zip(results[10**9], results[0])):
        assert screened == ordered, f"{flavor} seed {seed}"
    failing = sum(not verdict for verdict, _, _ in results[0])
    assert SMALL_PER_FLAVOR // 5 <= failing <= SMALL_PER_FLAVOR - SMALL_PER_FLAVOR // 5
    # Every certificate came from the certificate run, some of them from a
    # root that fails on labels alone.
    assert len(replayed) == failing and any(replayed), (failing, len(replayed))
