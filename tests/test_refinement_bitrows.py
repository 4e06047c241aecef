"""The witness run on bit rows against the ordered elimination.

When both sides have at least ``_BIT_ROWS_MIN_STATES`` states, ``refines``
computes the greatest relation with one integer row per implementation
state (``_Checker._bit_rows``), starting from the label screen's rows
(``_Checker._screen``), and gets its certificate from the certificate run.
The reference here is the ordered elimination over every pair:
``_eliminate`` seeded as the witness run is below the gate, with every
pair alive and queued in index order, and the certificate read from its
kill order.  Verdict, every surviving pair and the certificate text must
be its.

The instances straddle the gate: one state below it, at it and one above
it on each side, and lopsided pairs with one side far larger.  They cover
every flavor, holding and failing checks, roots that fail on labels alone
and roots that fail only through their successors, and dMTS specifications
with many disjunctive output musts.  Some pairs of automata have no pair
that fails on labels alone; on valid automata such a check always holds,
since a first pair can die only on an obligation it has no candidate for.

A specification with fewer than ``_KEPT_TABLES_MAX_STATES`` states keeps
the bit-row tables of each label from query to query, and a larger one
keeps none: the last tests check that kept tables answer as fresh ones.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from mialib import refinement
from mialib.model import DMTS, IA, MIA, TAU, atom, make_automaton, validate
from mialib.refinement import (_BIT_ROWS_MIN_STATES, _KEPT_TABLES_MAX_STATES,
                               _Checker, refines)
from mialib.testkit import weaken
from test_refinement_differential import _automaton
from test_refinement_large_differential import NEVER

FLAVORS = (IA, DMTS, MIA)
N = _BIT_ROWS_MIN_STATES
# (impl states, spec states) around the gate, and lopsided ones.
SIZES = ((N - 1, N - 1), (N, N), (N + 1, N + 1), (N - 1, N), (N, N - 1),
         (3 * N, N + 1), (N + 1, 3 * N), (3 * N, N - 1))


def _ordered(impl, spec):
    """Verdict, pairs and certificate of the ordered elimination over
    every pair, with no pair killed before its check."""
    checker = _Checker(impl, spec, impl.initial, spec.initial)
    checker.alive = alive = bytearray(b"\x01") * (len(checker.impl_states) * checker.nq)
    checker.elim_order = checker._eliminate(alive, range(len(alive)))
    verdict = bool(alive[checker.root])
    failure = None if verdict else str(checker.certificate())
    return verdict, checker.pairs(), failure


def _outcome(w):
    return w.verdict, w.pairs, None if w.verdict else str(w.failure)


def _alphabet(flavor, rng):
    actions = [f"a{i}" for i in range(rng.randint(2, 4))]
    if flavor == DMTS:
        return [], actions + [NEVER]
    k = rng.randint(1, len(actions) - 1)
    return actions[:k], actions[k:] + [NEVER]


def _rebuilt(aut, may=None, must=None, name=None):
    return make_automaton(aut.flavor, name or aut.name, sorted(aut.alphabet.inputs),
                          sorted(aut.alphabet.outputs), aut.initial,
                          aut.may if may is None else may,
                          aut.must if must is None else must, states=aut.states)


def _spec(flavor, n, inputs, outputs, rng, disjunctive=False):
    """A spec on ``n`` states, all reachable; with ``disjunctive``, most
    output labels with several targets at a state get a must over two or
    more of them."""
    spec = _automaton(flavor, n, inputs, [a for a in outputs if a != NEVER], rng, "spec")
    spec = make_automaton(flavor, "spec", inputs, outputs, spec.initial, spec.may,
                          spec.must, states=spec.states)
    if disjunctive:
        ends: dict = {}
        for s, a, t in sorted(spec.may):
            if a != TAU:
                ends.setdefault((s, a), []).append(t)
        must = set(spec.must)
        for (s, a), targets in ends.items():
            if len(targets) > 1 and rng.random() < 0.8:
                must.add((s, a, frozenset(rng.sample(targets, rng.randint(2, len(targets))))))
        spec = _rebuilt(spec, must=must)
    assert not validate(spec), validate(spec)
    return spec


def _weakened(spec, rng):
    """An impl refining ``spec`` on the same reachable states: ``weaken``,
    then dropped mays restored until every state is reached again."""
    impl = weaken(spec, rng)
    may = set(impl.may)
    dropped = sorted(spec.may - may)
    while True:
        reach, stack = {spec.initial}, [spec.initial]
        succ: dict = {}
        for s, _, t in may:
            succ.setdefault(s, []).append(t)
        while stack:
            for t in succ.get(stack.pop(), ()):
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
        if len(reach) == len(spec.states):
            break
        may.add(next(e for e in dropped if e[0] in reach and e[2] not in reach))
    impl = _rebuilt(impl, may=may, name="impl")
    assert not validate(impl), validate(impl)
    return impl


def _unfolded(aut, k, name):
    """``aut`` with each state copied ``k`` times, every move stepping to
    the next copy: bisimilar to ``aut``, so each refines the other."""
    def copy(s, i):
        return atom(f"{s.text}c{i}")
    may = {(copy(s, i), a, copy(t, (i + 1) % k)) for s, a, t in aut.may for i in range(k)}
    must = {(copy(s, i), a, frozenset(copy(t, (i + 1) % k) for t in ts))
            for s, a, ts in aut.must for i in range(k)}
    states = [copy(s, i) for s in aut.states for i in range(k)]
    return make_automaton(aut.flavor, name, sorted(aut.alphabet.inputs),
                          sorted(aut.alphabet.outputs), copy(aut.initial, 0),
                          may, must, states=states)


def _failing(impl, rng):
    """A may on ``NEVER`` at the root, one at a random state, and one
    random extra may the spec may be unable to match."""
    states = sorted(impl.states)
    labels = sorted(impl.alphabet.outputs - {NEVER}) + [TAU]
    edge = (rng.choice(states), rng.choice(labels), rng.choice(states))
    return [("root", _rebuilt(impl, may=impl.may | {(impl.initial, NEVER, impl.initial)})),
            ("far", _rebuilt(impl, may=impl.may | {(rng.choice(states), NEVER, impl.initial)})),
            ("extra", _rebuilt(impl, may=impl.may | {edge}))]


def _chaos(flavor, n, outputs, rng, name):
    """``n`` states with no must and a may on every output at every state:
    against another such automaton, no pair fails on labels alone."""
    states = [atom(f"s{i}") for i in range(n)]
    may = {(states[i], rng.choice(outputs), states[i + 1]) for i in range(n - 1)}
    may |= {(s, a, rng.choice(states)) for s in states for a in outputs}
    return make_automaton(flavor, name, [], outputs, states[0], may, (), states=states)


def _instances(flavor):
    """(name, impl, spec) for every size in ``SIZES`` and more."""
    rng = random.Random(f"bitrows|{flavor}")
    for n_impl, n_spec in SIZES:
        inputs, outputs = _alphabet(flavor, rng)
        spec = _spec(flavor, n_spec, inputs, outputs, rng)
        tag = f"{flavor}/{n_impl}x{n_spec}"
        if n_impl == n_spec:
            impl = _weakened(spec, rng)
        else:
            impl = _spec(flavor, n_impl, inputs, outputs, rng)
            yield f"{tag}/independent", impl, spec
            if n_impl < n_spec:
                continue
            impl = _unfolded(spec, -(-n_impl // n_spec), "impl")
        yield f"{tag}/holds", impl, spec
        for kind, bad in _failing(impl, rng):
            yield f"{tag}/{kind}", bad, spec
    if flavor == DMTS:
        for n in (N, N + 1, 2 * N):
            inputs, outputs = _alphabet(flavor, rng)
            spec = _spec(flavor, n, inputs, outputs, rng, disjunctive=True)
            impl = _weakened(spec, rng)
            yield f"{flavor}/{n}/disjunctive/holds", impl, spec
            # Each spec must narrowed to one of its targets, as the only
            # musts of the impl: it still refines the spec.
            must = {(s, a, frozenset([min(ts)])) for s, a, ts in spec.must}
            narrowed = _rebuilt(impl, must=must)
            yield f"{flavor}/{n}/disjunctive/narrowed", narrowed, spec
            for kind, bad in _failing(impl, rng):
                yield f"{flavor}/{n}/disjunctive/{kind}", bad, spec
    outputs = ["a0", "a1", "a2"]
    for n in (N - 1, N + 1):
        spec = _chaos(flavor, n, outputs, rng, "spec")
        yield f"{flavor}/{n}/unmarked", _chaos(flavor, 2 * n, outputs, rng, "impl"), spec


@pytest.mark.parametrize("flavor", FLAVORS)
def test_bit_rows_give_the_ordered_elimination(flavor, monkeypatch):
    ran = []
    bit_rows = _Checker._bit_rows

    def counted(self, screen):
        # Whether the screen marked any pair.
        ran.append(any(row != (1 << self.nq) - 1 for row in screen))
        return bit_rows(self, screen)

    monkeypatch.setattr(_Checker, "_bit_rows", counted)
    seen = set()
    for name, impl, spec in _instances(flavor):
        expected = _ordered(impl, spec)
        before = len(ran)
        w = refines(impl, spec)
        assert _outcome(w) == expected, name
        checker = _Checker(impl, spec, impl.initial, spec.initial)
        wide = min(len(checker.impl_states), checker.nq) >= N
        assert len(ran) == before + wide, name
        if wide:
            p, q = divmod(checker.root, checker.nq)
            root_marked = not checker._screen()[p] >> q & 1
            seen.add((w.verdict, ran[-1], root_marked))
    # Holding and failing checks ran on bit rows, with and without marked
    # pairs, and failing ones with a marked root and with an unmarked one.
    assert {(True, True, False), (True, False, False), (False, True, True),
            (False, True, False)} <= seen, seen


@pytest.mark.parametrize("gate", [N, N + 1])
def test_one_gate_picks_the_witness_run(gate, monkeypatch):
    """At or above the one gate, the witness runs on bit rows from the label
    screen, and a failing check takes its certificate from the certificate
    run.  Below it, no pair is screened: the witness run is the ordered
    elimination over every pair, and the certificate reads its order.
    Where the gate sits changes no outcome."""
    monkeypatch.setattr(refinement, "_BIT_ROWS_MIN_STATES", gate)
    calls = []
    for name in ("_screen", "_bit_rows", "_replay"):
        def counted(self, *args, _name=name, _run=getattr(_Checker, name)):
            calls.append(_name)
            return _run(self, *args)
        monkeypatch.setattr(_Checker, name, counted)
    wide_seen = set()
    for name, impl, spec in _instances(MIA):
        if max(len(impl.states), len(spec.states)) > N + 1:
            continue
        calls.clear()
        w = refines(impl, spec)
        checker = _Checker(impl, spec, impl.initial, spec.initial)
        wide = min(len(checker.impl_states), checker.nq) >= gate
        if wide:
            assert calls == ["_screen", "_bit_rows"] + ["_replay"] * (not w.verdict), name
        else:
            assert calls == [], name
            # The witness run kept its kill order for the certificate.
            checker.witness()
            assert checker.elim_order is not None, name
        assert _outcome(w) == _ordered(impl, spec), name
        wide_seen.add((wide, w.verdict))
    assert wide_seen == {(True, True), (True, False), (False, True), (False, False)}, wide_seen


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 63, 64, 65, 130])
def test_image_reads_every_chunk_at_its_offset(n):
    rng = random.Random(f"image|{n}")
    images = [rng.getrandbits(2 * n) for _ in range(n)]
    tables = refinement._chunk_tables(images)
    for t in range(n):
        assert refinement._image(tables, 1 << t) == images[t]
    for _ in range(20):
        row = rng.getrandbits(n)
        expected = 0
        for t in range(n):
            if row >> t & 1:
                expected |= images[t]
        assert refinement._image(tables, row) == expected


def _without(aut, label, name):
    """``aut`` with every may and must on ``label`` gone."""
    return _rebuilt(aut, may={e for e in aut.may if e[1] != label},
                    must={e for e in aut.must if e[1] != label}, name=name)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_kept_tables_answer_as_fresh_ones(flavor):
    """One specification below the cap answers impls whose mays use
    different label sets, so that its tables are kept for some labels by
    one query and read by the next; the same queries on fresh copies, which
    keep nothing yet, give the same verdict, witness and certificate."""
    rng = random.Random(f"kept|{flavor}")
    actions = ["a0", "a1", "a2", "a3", "a4"]
    inputs, outputs = ([], actions) if flavor == DMTS else (actions[:2], actions[2:])
    spec = _spec(flavor, 2 * N, inputs, outputs + [NEVER], rng)
    assert N <= len(spec.states) < _KEPT_TABLES_MAX_STATES
    impl = _weakened(spec, rng)
    impls = [impl] + [bad for _, bad in _failing(impl, rng)]
    impls += [_without(i, a, f"no-{a}") for i in impls[:2] for a in outputs + [TAU]]
    impls = [i for i in impls if not validate(i)
             and min(len(refinement._numbered(i, i.initial)), len(spec.states)) >= N]
    label_sets = {_Checker(i, spec, i.initial, spec.initial).labels for i in impls}
    assert len(label_sets) >= 3, label_sets
    warm = [_outcome(refines(i, spec)) for i in impls]
    side = spec._refinement_rows[spec.initial]
    kinds = [kind for kind, _ in side._tables]
    assert kinds.count("hat") >= 2 and kinds.count("must") >= 2, kinds
    cold = [_outcome(refines(dataclasses.replace(i), dataclasses.replace(spec)))
            for i in impls]
    assert warm == cold
    assert {verdict for verdict, _, _ in warm} == {True, False}
    # The spec against each impl reads the impls' tables, kept too.
    for i in impls:
        assert _outcome(refines(spec, i)) == _outcome(
            refines(dataclasses.replace(spec), dataclasses.replace(i)))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_a_side_at_the_cap_keeps_no_tables(flavor):
    rng = random.Random(f"cap|{flavor}")
    inputs, outputs = _alphabet(flavor, rng)
    for n, kept in ((_KEPT_TABLES_MAX_STATES - 1, True), (_KEPT_TABLES_MAX_STATES, False)):
        spec = _spec(flavor, n, inputs, outputs, rng)
        impl = _weakened(spec, rng)
        for i in [impl] + [bad for _, bad in _failing(impl, rng)]:
            assert _outcome(refines(i, spec)) == _ordered(i, spec)
        side = spec._refinement_rows[spec.initial]
        assert len(side.states) == n
        kinds = {kind for kind, _ in side._tables or ()}
        assert kinds == ({"hat", "must"} if kept else set()), n
