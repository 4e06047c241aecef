"""Refinement preorders for IA, dMTS and MIA.

All three relations are decided by the same greatest-fixpoint procedure:
start from the candidate state pairs and repeatedly delete pairs that
violate one of the two defining clauses until the set is stable.

* clause (i): every must-transition of the specification state is matched
  by a must-transition of the implementation state whose targets all relate
  to some target of the specification's.
* clause (ii): every output or tau may-transition of the implementation
  state is matched by a weak may-transition of the specification state.

For IA this coincides with alternating simulation because inputs are stored
as singleton musts; a dMTS stores every action as an output, so for dMTS
clause (ii) ranges over every action with no branch of its own.

Every query runs one elimination loop, ``_Checker._eliminate``, over one
set-up: each side numbers the states reachable from its start state
densely, in the order of their canonical text, and every per-state row of
both sides is in place before the first check.  Transitions are
per-state lists of state numbers, a pair ``(p, q)`` is the integer
``p * nq + q``, and every pair is checked with the one ``_Checker._check``;
state ids reappear only in the witness and in the failure certificate.
The queries differ only in how they seed the loop: which pairs start
alive (1), dead (0) or not reached yet (3), and which are queued first.
The one exception is the witness run of ``refines`` when both sides have
at least ``_BIT_ROWS_MIN_STATES`` states, below, which works a row at a
time.

The numbering and every row, in either role, depend on one automaton and
one start state alone, so each automaton keeps them, per start state
(``_Side``), from the first query that needs them: its musts and mays
with its numbering, in one pass over its states, and as a specification
its weak rows, label masks and bit-row tables once per label, at every
size.  So many implementations checked against one specification number
it and build its rows once, and a query builds only its pair arrays.  An
automaton keeps the side from its initial state and the most recent one
from another start state, so checking it from each of its states keeps
two sides, not one per state.  A kept side holds no reference to its
automaton, and a numbering that fails is not kept, so every query on
that automaton fails.

``refines`` and the per-flavor queries return the whole greatest relation
over the candidates, all pairs of numbered states, and a certificate that
follows the ordered elimination of Henzinger, Henzinger & Kopke (FOCS
1995).  A pass visits pairs in index order; a pair that fails dies and
re-queues, behind the queue and in sorted order, the pairs whose last
passing check cited it.  Citations are kept in flat integer watch lists,
not in per-pair sets.  Index order is text order, so the elimination
order, the witness and the certificate are the ones a checker over state
ids sorted by text yields.  When either side has fewer than
``_BIT_ROWS_MIN_STATES`` states, the witness run is that ordered
elimination over every pair, and the certificate reads its order.  Else
the elimination takes two runs:

* The witness run computes the greatest relation a row at a time, as in
  the row-wise refinement of Henzinger, Henzinger & Kopke
  (``_Checker._bit_rows``).  That relation is unique, so whatever the
  order, and whatever algorithm computes it, its survivors are the
  witness and give the verdict.  One integer per impl state, whose bit
  ``q`` is set while the pair with spec state ``q`` is alive, starts from
  the label screen's row: the pairs that fail on labels alone (a spec must
  label the impl state has no must for, or an impl may label with no weak
  spec match) are marked up front, with a few integer operations on
  per-label masks of spec states.  Each row is then ANDed with the spec
  states that still match each obligation, read through small tables,
  until no row changes.
* The certificate run is needed only when the root pair dies.  It replays
  the ordered elimination on the root's region, queued in index order, and
  stops when the root dies.  The region is one closure: the root, and
  every pair the witness run killed that a region pair inspects.  A
  checked pair steps to every such successor, so with nothing marked every
  region pair does.  A marked pair steps only to those before it in index
  order: its check fails whatever it reads, so in the ordered run it dies
  at its first-pass turn, before any pair after it is visited.

The replay is exact whatever computed the witness, since it reads only
which pairs the witness holds.  A witness pair never dies, and in the
first pass a pair dies only at its own turn.  A marked pair fails its
check in both runs, at its first-pass turn.  Every other region pair
reads only successors of its own pair that are witness pairs or region
pairs, so its check reads the same values in both runs.  Region pairs
after a marked root are queued behind it, and the run stops when the root
dies at its first-pass turn: they are never reached and read as alive, as
every pair after the root does in the ordered run until then.  A pair
that dies re-queues only pairs that cited it, so a pair outside the
region never re-queues a region pair.  The queue is first in, first out,
so dropping every pair outside the region from it keeps the relative kill
order inside the region.  The certificate rechecks each pair on its walk
against the pairs killed before it: the successors a marked pair has
after it were alive when it died, in both runs, and every other successor
it reads is a witness or region pair.  So ``pairs`` and the certificate
are those of the ordered elimination over every pair.  The checker stores
only the order of elimination: why a pair failed is derived again for the
certificate, by rechecking it against the pairs eliminated before it.

``holds``, ``equiv`` and ``mia_equiv`` need only the verdict, so they run
the local scheme of Liu & Smolka (ICALP 1998): the same loop, seeded with
the root pair alone.  Every other pair starts at 3, not reached yet: it
reads as alive, as every pair does in the global first pass, and is
queued once a passing check cites it.  A pair that dies re-queues its
citers, and the run stops as soon as the root pair dies.  When the run
ends with the root alive, the reached pairs still alive match every
obligation among themselves: a refinement relation that holds the root.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import compress, product
from operator import getitem, or_

from .model import (DMTS, IA, MIA, TAU, FlavorMismatchError, MialibError,
                    ModalAutomaton, StateId, reachable_states,
                    require_operands, targets_text)

Pair = tuple[StateId, StateId]


@dataclass(frozen=True)
class FailureCertificate:
    """Root cause of a failed refinement check.

    ``pair`` is reached from the initial pair by stepping, at each pair, to
    the earliest eliminated of all the successor pairs that its failed
    clause inspects and that died before it: for clause (i) every pairing
    of impl and spec must targets on a spec must label, for clause (ii)
    every impl may target with every weak spec match.  That successor need
    not be one the unmatched transition relied on.  ``pair`` is the first
    pair with no such successor.  ``clause`` is ``"i"`` or ``"ii"`` and
    ``transition`` describes the unmatched must (clause i, on the
    specification side) or may (clause ii, on the implementation side).
    """

    pair: Pair
    clause: str
    transition: str

    def __str__(self):
        impl, spec = self.pair
        return (f"pair {impl} <= {spec} violates clause ({self.clause}) "
                f"on {self.transition}")


@dataclass(frozen=True)
class RefinementWitness:
    kind: str
    pairs: frozenset[Pair]
    verdict: bool
    failure: FailureCertificate | None = None


# Multiplying a one-item array is several times cheaper than calling the
# array constructor, which matters on the many checks of a few pairs.
_ZERO = array("i", [0])
# The witness run of ``refines`` works on bit rows when both sides have at
# least this many states, and checks pair by pair below.  Against the
# per-pair run (whole ``refines`` calls, best of 9 alternated runs on a
# shared 2-CPU x86-64 host, four instances of the refine benchmark's
# generator per flavor and size, holding and failing) it took, with the
# specification's side kept, 0.87-1.07 of the time at 12 states, 0.66-0.83
# at 16 and 0.43-0.46 at 32; on fresh sides, which build their tables
# first, 1.21-1.55 at 12, 1.06-1.14 at 16, 0.94-1.07 at 20 and 0.60-0.69
# at 32.
_BIT_ROWS_MIN_STATES = 16
_FROM_BITS = bytes.maketrans(b"01", b"\x00\x01")
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _chunk_tables(images: list[int]) -> list[tuple[int, ...]]:
    """Tables for the union of ``images[t]`` over the bits ``t`` of a row.

    Chunk ``k`` of a row is its hex digit ``k`` from the low end: its bits
    ``4k`` to ``4k + 3``.  Table ``k`` gives, for each value of that
    digit, the union of the images of its bits, so :func:`_image` reads
    one entry per digit.  The tables are built a column at a time: the
    entry for digit ``v`` is its lowest bit's image joined with the entry
    for ``v`` without that bit.
    """
    images = images + [0] * (-len(images) % 4)
    columns = [[0] * (len(images) // 4)]
    for v in range(1, 16):
        low = v & -v
        if v == low:
            columns.append(images[low.bit_length() - 1::4])
        else:
            columns.append(list(map(or_, columns[low], columns[v - low])))
    return list(zip(*columns))


def _image(tables: list[tuple[int, ...]], row: int) -> int:
    """The union of the images of the bits of ``row``, by :func:`_chunk_tables`."""
    digits = format(row, "x")[::-1].encode().translate(_HEX_DIGITS)
    return reduce(or_, map(getitem, tables, digits), 0)


class _AliveAt:
    """The alive set as it stood while pair ``x`` had its failing check.

    The pairs dead then are exactly those eliminated before ``x``; ``x``
    itself was still alive during its own check.
    """

    __slots__ = ("order", "mine")

    def __init__(self, order: array, x: int):
        self.order, self.mine = order, order[x]

    def __getitem__(self, y: int) -> bool:
        return not 0 < self.order[y] < self.mine


def _numbered(aut: ModalAutomaton, start: StateId) -> list[StateId]:
    """The states reachable from ``start``, in text order: the list index is
    the state number."""
    # Dependency closure from the roots is enough: eliminating a pair
    # outside it can never affect the verdict.
    reach = reachable_states(aut, start)
    if not reach <= aut.states:
        raise MialibError(f"a transition of {aut.name} leaves its state set")
    return sorted(reach)


class _Side:
    """One automaton seen from one start state: its reachable states
    numbered, and every row it has in either role, in state numbers.

    ``states`` lists the reachable states in text order and ``index`` maps
    each to its number.  The rows that every query reads are built with
    the numbering, in one pass over the states: per state, ``musts`` maps
    each must label to the sorted target lists (clause (i), on both
    sides), and ``mays`` lists the output and tau mays as ``(label, target
    number)`` (clause (ii), on the implementation side); ``labels`` are
    the labels those mays use.  The specification's weak rows depend on a
    label, so each is built the first time a query reads that label and
    kept in ``weak_rows`` (:meth:`weak`).  The facts only the bit rows
    read are kept per ``(kind, label)`` in ``_by_label``: the states with
    a must on each label (:meth:`must_masks`), the states with a weak
    match on a label (:meth:`weak_mask`) and the bit-row tables
    (:meth:`hat_table`, :meth:`must_table`).  A side is kept on its
    automaton, keyed by start state (:func:`_side`).  It holds no
    reference to the automaton, which :meth:`weak` takes as an argument,
    so keeping it makes no reference cycle.
    """

    __slots__ = ("states", "index", "musts", "mays", "labels", "weak_rows", "_by_label")

    def __init__(self, aut: ModalAutomaton, start: StateId):
        self.states = states = _numbered(aut, start)
        self.index = index = {s: i for i, s in enumerate(states)}
        domain = aut.alphabet.outputs | {TAU}
        must_rows, may_rows, no_row = aut._must_rows, aut._may_rows, {}
        musts, mays, labels = [], [], set()
        for q in states:
            row = {}
            for a, sets in must_rows.get(q, no_row).items():
                # Sorted, so that the local run's queue order does not
                # follow the hash order of the frozenset.
                row[a] = [sorted([index[t] for t in targets]) for targets in sets]
            musts.append(row)
            row = []
            for alpha, ends in may_rows.get(q, no_row).items():
                if alpha in domain:
                    labels.add(alpha)
                    row += [(alpha, index[t]) for t in ends]
            mays.append(row)
        self.musts, self.mays, self.labels = musts, mays, frozenset(labels)
        self.weak_rows: dict[str, list[tuple[int, ...]]] = {}
        self._by_label: dict[tuple[str, str | None], object] = {}

    def _kept(self, kind: str, label: str | None, build):
        """The fact ``build`` gives for ``(kind, label)``, kept from its
        first use."""
        fact = self._by_label.get((kind, label))
        if fact is None:
            fact = self._by_label[kind, label] = build()
        return fact

    def weak(self, aut: ModalAutomaton, alpha: str) -> list[tuple[int, ...]]:
        """Per state, its sorted weak ``alpha`` successor numbers; on tau,
        its silent closure.  Equal successor sets share one tuple."""
        rows = self.weak_rows.get(alpha)
        if rows is None:
            weak, index = aut.weak, self.index
            shared: dict[frozenset[StateId], tuple[int, ...]] = {}
            rows = []
            for q in self.states:
                succ = weak.eps_succ(q) if alpha == TAU else weak.weak_succ(q, alpha)
                nums = shared.get(succ)
                if nums is None:
                    nums = shared[succ] = tuple(sorted([index[t] for t in succ]))
                rows.append(nums)
            self.weak_rows[alpha] = rows
        return rows

    def must_masks(self) -> dict[str, int]:
        """Per label, the states with a must on it, as a bit set."""
        def build():
            masks = {}
            for q, musts in enumerate(self.musts):
                for a in musts:
                    masks[a] = masks.get(a, 0) | 1 << q
            return masks
        return self._kept("must masks", None, build)

    def weak_mask(self, alpha: str) -> int:
        """The states with a weak match on ``alpha``, as a bit set, once
        :meth:`weak` is built for ``alpha``."""
        def build():
            mask = 0
            for q, succ in enumerate(self.weak_rows[alpha]):
                if succ:
                    mask |= 1 << q
            return mask
        return self._kept("weak mask", alpha, build)

    def hat_table(self, alpha: str) -> list:
        """Chunk tables of the states whose weak ``alpha`` successors hold
        each state, once :meth:`weak` is built for ``alpha``."""
        def build():
            preimages = [0] * len(self.states)
            for q, succ in enumerate(self.weak_rows[alpha]):
                bit = 1 << q
                for t in succ:
                    preimages[t] |= bit
            return _chunk_tables(preimages)
        return self._kept("hat", alpha, build)

    def must_table(self, a: str) -> tuple[list, list, int, int]:
        """For the musts on label ``a``, numbered in state order: chunk
        tables of the musts that target each state, chunk tables of the
        source of each must, the set of every must, and the set of states
        with one (``must_masks()[a]``)."""
        def build():
            spec_musts = [(q, targets) for q, musts in enumerate(self.musts)
                          for targets in musts.get(a, ())]
            preimages = [0] * len(self.states)
            for m, (_, targets) in enumerate(spec_musts):
                bit = 1 << m
                for t in targets:
                    preimages[t] |= bit
            return (_chunk_tables(preimages),
                    _chunk_tables([1 << q for q, _ in spec_musts]),
                    (1 << len(spec_musts)) - 1, self.must_masks()[a])
        return self._kept("must", a, build)


def _side(aut: ModalAutomaton, start: StateId) -> _Side:
    """The side of ``aut`` from ``start``, numbered on first use and kept.

    An automaton keeps the side from its initial state and the most
    recent one from any other start state, so checking it from each of
    its states in turn keeps at most two.  A numbering that fails raises
    and is not kept, so every query on that automaton raises again."""
    sides = aut._refinement_rows
    side = sides.get(start)
    if side is None:
        side = _Side(aut, start)
        if start != aut.initial:
            for other in [s for s in sides if s != aut.initial]:
                sides.pop(other, None)
        sides[start] = side
    return side


class _Checker:
    """One query: the rows it needs, the one check of the two clauses, and
    the one elimination loop, :meth:`_eliminate`.

    Each side numbers the states reachable from its start state by the rank
    of their canonical text (``impl_states``, ``spec_states``).  Rank order
    is text order, so every integer sort of pairs, partners and citers
    visits them in the order a sort by state text would.  A pair of state
    numbers ``(p, q)`` is the integer ``p * nq + q``, and ``root`` is the
    start pair, whose impl state is ``impl_root``.

    Every row is a list indexed by state number, in state numbers, and is
    read off the side kept on its automaton (:class:`_Side`): the musts,
    mays and labels the side built with its numbering, and the weak rows
    it builds on a label's first use.  So a query builds only its pair
    arrays.  ``impl_musts`` and ``spec_musts`` map each must label to the
    sorted target lists, ``impl_mays`` keeps the output and tau mays, and
    ``spec_hat`` maps each label some impl may uses (``labels``) to the
    sorted weak successors of every spec state on it.

    A pair that passes its check cites the pairs it relied on, in flat watch
    lists: entry ``e`` records that pair ``who[e]`` cited the pair on whose
    list it sits (each list runs from ``head`` along ``nxt``).  Every passing
    check appends a fresh run of entries, so an entry belongs to its citer's
    last passing check, and is current, when ``e >= since[who[e]]``.  A pair
    that dies re-queues its alive, current citers in sorted order.

    :meth:`witness` is the witness run: the ordered elimination, or, when
    both sides have at least ``_BIT_ROWS_MIN_STATES`` states, the bit rows
    (:meth:`_bit_rows`) from the label screen (:meth:`_screen`).
    :meth:`certificate` runs the certificate run (:meth:`_replay`) after a
    bit-row run, and :meth:`verdict` is the local run; all but the bit rows
    only seed the loop.  Only the elimination order is stored; why a pair
    died is derived again when the certificate asks (``cause``).
    """

    def __init__(self, impl: ModalAutomaton, spec: ModalAutomaton,
                 impl_state: StateId, spec_state: StateId):
        impl_side = _side(impl, impl_state)
        self.spec_side = spec_side = _side(spec, spec_state)
        self.impl_states, self.spec_states = impl_side.states, spec_side.states
        self.nq = nq = len(self.spec_states)
        self.impl_root = impl_side.index[impl_state]
        self.root = self.impl_root * nq + spec_side.index[spec_state]

        self.impl_musts, self.spec_musts = impl_side.musts, spec_side.musts
        self.impl_mays, self.labels = impl_side.mays, impl_side.labels
        self.spec_hat = {alpha: spec_side.weak(spec, alpha) for alpha in self.labels}

    def _check(self, x: int, alive: bytearray | _AliveAt,
               cited: list[int]) -> tuple[str, tuple] | None:
        """None if pair ``x`` passes against ``alive``, else why it fails.

        The reason is ``("i", the unmatched spec must)``, as ``(label,
        targets)``, or ``("ii", the unmatched impl may)``, an entry of
        impl_mays.  The partners a passing check relied on are appended to
        ``cited``.
        """
        nq = self.nq
        p, q = divmod(x, nq)
        # clause (i): spec musts flow to impl musts.
        impl_musts = self.impl_musts[p]
        for a, spec_sets in self.spec_musts[q].items():
            impl_sets = impl_musts.get(a, ())
            for spec_targets in spec_sets:
                for impl_targets in impl_sets:
                    picks = []
                    for p2 in impl_targets:
                        base = p2 * nq
                        for q2 in spec_targets:
                            if alive[base + q2]:
                                picks.append(base + q2)
                                break
                        else:
                            break
                    else:
                        cited += picks
                        break
                else:
                    return "i", (a, spec_targets)
        # clause (ii): impl mays flow to weak spec mays.
        spec_hat = self.spec_hat
        for alpha, p2 in self.impl_mays[p]:
            base = p2 * nq
            for q2 in spec_hat[alpha][q]:
                if alive[base + q2]:
                    cited.append(base + q2)
                    break
            else:
                return "ii", (alpha, p2)
        return None

    def witness(self) -> None:
        """The witness run: ``alive`` ends as the greatest relation.  When
        both sides have at least ``_BIT_ROWS_MIN_STATES`` states,
        :meth:`_bit_rows` computes it from the label screen's rows, kept as
        ``screen`` for the certificate run.  Otherwise every pair is queued
        alive in index order: the run is the ordered elimination over every
        pair, whose order is kept for the certificate (``elim_order``)."""
        n_impl, nq = len(self.impl_states), self.nq
        if min(n_impl, nq) >= _BIT_ROWS_MIN_STATES:
            self.screen = self._screen()
            self.elim_order = None
            self.alive = self._bit_rows(self.screen)
        else:
            self.alive = alive = bytearray(b"\x01") * (n_impl * nq)
            self.elim_order = self._eliminate(alive, range(len(alive)))

    def _screen(self) -> list[int]:
        """The label screen: per impl state, the spec states it does not
        fail against on labels alone, as a bit set.

        A pair fails on labels alone when the spec state has a must on a
        label the impl state has no must on, or the impl state has a may on
        a label the spec state has no weak match on.  So a row is every
        spec state, less those with a must on a label the impl state lacks,
        and within those with a weak match on each label it has a may on.
        """
        side = self.spec_side
        must_masks = side.must_masks().items()
        weak = {alpha: side.weak_mask(alpha) for alpha in self.labels}
        full = (1 << self.nq) - 1
        rows = []
        for musts, mays in zip(self.impl_musts, self.impl_mays):
            row = full
            for a, mask in must_masks:
                if a not in musts:
                    row &= ~mask
            for alpha, _ in mays:
                row &= weak[alpha]
            rows.append(row)
        return rows

    def _bit_rows(self, screen: list[int]) -> bytearray:
        """The witness run on bit rows, from the screen's rows; returns
        ``alive`` over every pair.

        Bit ``q`` of ``rows[p]`` is set while the pair ``(p, q)`` is alive,
        and a worklist over impl states shrinks the rows until none changes.
        A step at ``p`` keeps, for each output or tau may ``(alpha, p2)``,
        the spec states whose weak ``alpha`` successors meet row ``p2``
        (clause ii).  For each must label of ``p``, it clears the spec
        states with a must on that label that no impl must of ``p`` meets
        (clause i): an impl must meets a spec must when the row of each of
        its targets meets the spec must's targets.  The screen has already
        cleared the spec states with a must on a label ``p`` has none on.
        The pre-images are read through the spec side's tables
        (:meth:`_Side.hat_table`, :meth:`_Side.must_table`).  The images of
        a row are kept until it shrinks; a row that shrinks re-queues the
        impl states with a may or a must target into it.
        """
        nq, side = self.nq, self.spec_side
        rows = screen.copy()
        n_impl = len(rows)
        hat_tables = {alpha: side.hat_table(alpha) for alpha in self.labels}
        # Clause (i) reads the labels that both sides have musts on.
        spec_labels = side.must_masks()
        must_tables = {a: side.must_table(a) for a in set().union(*self.impl_musts)
                       if a in spec_labels}

        # Per impl state, its musts with their tables, the impl states
        # whose rows a step reads, and those that read its row.
        mays = self.impl_mays
        musts = [[(a, must_tables[a], sets) for a, sets in row.items() if a in must_tables]
                 for row in self.impl_musts]
        succ = [[p2 for _, p2 in may] + [p2 for _, _, ends in must
                                         for targets in ends for p2 in targets]
                for may, must in zip(mays, musts)]
        preds = [set() for _ in range(n_impl)]
        for p, ends in enumerate(succ):
            for p2 in ends:
                preds[p2].add(p)

        # The first steps take the impl states in the post-order of a
        # depth-first walk from the root, so that most rows are read only
        # after their successors' rows have shrunk.
        root = self.impl_root
        queued = bytearray(n_impl)
        queued[root] = 1
        walk, post = [(root, iter(succ[root]))], []
        while walk:
            p, todo = walk[-1]
            for p2 in todo:
                if not queued[p2]:
                    queued[p2] = 1
                    walk.append((p2, iter(succ[p2])))
                    break
            else:
                walk.pop()
                post.append(p)
        post += [p for p in range(n_impl) if not queued[p]]
        pending = post[::-1]
        queued = bytearray(b"\x01") * n_impl

        hat_images: list[dict[str, int]] = [{} for _ in range(n_impl)]
        must_images: list[dict[str, int]] = [{} for _ in range(n_impl)]
        while pending:
            p = pending.pop()
            queued[p] = 0
            row = new = rows[p]
            if not row:
                continue
            for alpha, p2 in mays[p]:
                images = hat_images[p2]
                image = images.get(alpha)
                if image is None:
                    image = images[alpha] = _image(hat_tables[alpha], rows[p2])
                new &= image
                if not new:
                    break
            else:
                for a, (meet_tables, source_tables, every, sources), ends in musts[p]:
                    if not new & sources:
                        continue
                    met = 0
                    for targets in ends:
                        ok = every
                        for p2 in targets:
                            images = must_images[p2]
                            image = images.get(a)
                            if image is None:
                                image = images[a] = _image(meet_tables, rows[p2])
                            ok &= image
                            if not ok:
                                break
                        met |= ok
                        if met == every:
                            break
                    else:
                        new &= ~_image(source_tables, every & ~met)
            if new != row:
                rows[p] = new
                hat_images[p] = {}
                must_images[p] = {}
                for p1 in preds[p]:
                    if not queued[p1]:
                        queued[p1] = 1
                        pending.append(p1)

        width = f"0{nq}b"
        return bytearray("".join([format(row, width)[::-1] for row in rows])
                         .encode().translate(_FROM_BITS))

    def pairs(self) -> frozenset[Pair]:
        # Pair x is the x-th of the product, which runs in index order.
        return frozenset(compress(product(self.impl_states, self.spec_states),
                                  self.alive))

    def _eliminate(self, alive: bytearray, pending, root: int = -1) -> array:
        """Run the elimination on ``alive`` and number its kills.

        ``pending`` is the first pass.  A pair at 1 is checked when its turn
        comes, and a pair at 0 is skipped.  A pair at 3 is not reached yet
        and reads as alive; the first passing check that cites it sets it to
        1 and queues it.  Passes are first in, first out.  The result gives
        each pair its 1-based place in the kill order, 0 if it did not die.
        The run stops as soon as ``root`` dies.
        """
        check = self._check
        n = len(alive)
        order, since, head = _ZERO * n, _ZERO * n, _ZERO * n
        # Entry 0 ends every list.
        who, nxt = _ZERO * 1, _ZERO * 1
        counter = 0
        while pending:
            batch, pending = pending, []
            for x in batch:
                if not alive[x]:
                    continue
                cited: list[int] = []
                if check(x, alive, cited) is None:
                    e = since[x] = len(who)
                    for d in cited:
                        who.append(x)
                        nxt.append(head[d])
                        head[d] = e
                        e += 1
                        if alive[d] == 3:
                            alive[d] = 1
                            pending.append(d)
                    continue
                counter += 1
                alive[x] = 0
                order[x] = counter
                if x == root:
                    return order
                e = head[x]
                if e:
                    citers = set()
                    while e:
                        c = who[e]
                        if alive[c] and e >= since[c]:
                            citers.add(c)
                        e = nxt[e]
                    pending.extend(sorted(citers))
        return order

    def verdict(self) -> bool:
        """The local run: whether the root pair survives, with every other
        pair at 3 until a passing check cites it."""
        root = self.root
        alive = bytearray(b"\x03") * (len(self.impl_states) * self.nq)
        alive[root] = 1
        self._eliminate(alive, [root], root)
        return bool(alive[root])

    def _replay(self) -> None:
        """The certificate run: the ordered elimination on the root's region.

        The module docstring says why this gives the order of a run over
        every pair.  The region starts at the root and takes each pair the
        witness run killed that a region pair inspects; a pair the screen
        marks takes only those before it.  Region pairs start alive, as the
        witness does, and every other pair stays dead; all of them are dead
        again afterwards, so ``alive`` is left as the witness.
        """
        alive, screen, root, nq = self.alive, self.screen, self.root, self.nq
        region = [root]
        alive[root] = 1
        for x in region:
            # A marked pair dies at its first-pass turn, before any pair
            # after it is visited, so it steps only below itself.
            p, q = divmod(x, nq)
            top = len(alive) if screen[p] >> q & 1 else x
            for y in self._inspected(x):
                if not alive[y] and y < top:
                    alive[y] = 1
                    region.append(y)
        region.sort()
        self.elim_order = self._eliminate(alive, region, root)
        for x in region:
            alive[x] = 0

    def cause(self, x: int) -> tuple[str, tuple]:
        """Why the eliminated pair ``x`` failed, rechecked as it stood then."""
        return self._check(x, _AliveAt(self.elim_order, x), [])

    def certificate(self) -> FailureCertificate:
        """Walk blame from the root to the first eliminated ancestor."""
        if self.elim_order is None:
            self._replay()
        x = self.root
        while True:
            cause = self.cause(x)
            blamed = self._blamed_successor(x, cause[0])
            if blamed is None:
                return self._describe(x, cause)
            x = blamed

    def _inspected(self, x: int, clause: str | None = None) -> list[int]:
        """The successor pairs that ``clause`` inspects at pair ``x``, or
        that either clause does when ``clause`` is None."""
        nq = self.nq
        p, q = divmod(x, nq)
        found = []
        if clause != "ii":
            impl_musts = self.impl_musts[p]
            for a, spec_sets in self.spec_musts[q].items():
                impl_sets = impl_musts.get(a, ())
                for spec_targets in spec_sets:
                    for impl_targets in impl_sets:
                        for p2 in impl_targets:
                            found += [p2 * nq + q2 for q2 in spec_targets]
        if clause != "i":
            spec_hat = self.spec_hat
            for alpha, p2 in self.impl_mays[p]:
                found += [p2 * nq + q2 for q2 in spec_hat[alpha][q]]
        return found

    def _blamed_successor(self, x: int, clause: str) -> int | None:
        order = self.elim_order
        mine = order[x]
        eliminated = [(order[c], c) for c in self._inspected(x, clause)
                      if 0 < order[c] < mine]
        if not eliminated:
            return None
        return min(eliminated)[1]

    def _describe(self, x: int, cause: tuple[str, tuple]) -> FailureCertificate:
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


def _start(impl: ModalAutomaton, spec: ModalAutomaton, flavor: str,
           impl_state: StateId | None, spec_state: StateId | None) -> Pair:
    """The start states (default: the initial ones), once the operands and
    the states are checked."""
    require_operands(impl, spec, flavor)
    impl_state = impl.initial if impl_state is None else impl_state
    spec_state = spec.initial if spec_state is None else spec_state
    for aut, state in ((impl, impl_state), (spec, spec_state)):
        # A plain str equals the StateId of its text, so the set test alone
        # would let it into the numbering and the witness.
        if not isinstance(state, StateId):
            raise MialibError(f"start state {state!r} is not a StateId")
        if state not in aut.states:
            raise MialibError(f"{state} is not a state of {aut.name}")
    return impl_state, spec_state


def _decide(impl: ModalAutomaton, spec: ModalAutomaton, flavor: str,
            impl_state: StateId | None, spec_state: StateId | None) -> RefinementWitness:
    checker = _Checker(impl, spec, *_start(impl, spec, flavor, impl_state, spec_state))
    checker.witness()
    verdict = bool(checker.alive[checker.root])
    # The certificate run leaves ``alive`` as the witness, and runs before
    # the pairs are built so that its arrays and theirs are not held at once.
    failure = None if verdict else checker.certificate()
    return RefinementWitness(kind=flavor, pairs=checker.pairs(), verdict=verdict,
                             failure=failure)


def _verdict(impl: ModalAutomaton, spec: ModalAutomaton, flavor: str,
             impl_state: StateId | None = None,
             spec_state: StateId | None = None) -> bool:
    """The verdict of :func:`_decide`, run from the start pair alone."""
    return _Checker(impl, spec, *_start(impl, spec, flavor, impl_state, spec_state)).verdict()


def ia_refines(impl: ModalAutomaton, spec: ModalAutomaton,
               impl_state: StateId | None = None,
               spec_state: StateId | None = None) -> RefinementWitness:
    """Alternating simulation between IA states."""
    return _decide(impl, spec, IA, impl_state, spec_state)


def dmts_refines(impl: ModalAutomaton, spec: ModalAutomaton,
                 impl_state: StateId | None = None,
                 spec_state: StateId | None = None) -> RefinementWitness:
    """Observational modal refinement between dMTS states."""
    return _decide(impl, spec, DMTS, impl_state, spec_state)


def mia_refines(impl: ModalAutomaton, spec: ModalAutomaton,
                impl_state: StateId | None = None,
                spec_state: StateId | None = None) -> RefinementWitness:
    """Observational MIA refinement; input mays are implicitly allowed."""
    return _decide(impl, spec, MIA, impl_state, spec_state)


_BY_FLAVOR = {IA: ia_refines, DMTS: dmts_refines, MIA: mia_refines}


def _shared_flavor(impl: ModalAutomaton, spec: ModalAutomaton) -> str:
    """The flavor both automata have, if refinement is defined for it."""
    if impl.flavor != spec.flavor:
        raise FlavorMismatchError(
            f"cannot compare {impl.flavor} against {spec.flavor}")
    if impl.flavor not in _BY_FLAVOR:
        raise FlavorMismatchError(f"no refinement for flavor {impl.flavor!r}")
    return impl.flavor


def refines(impl: ModalAutomaton, spec: ModalAutomaton,
            impl_state: StateId | None = None,
            spec_state: StateId | None = None) -> RefinementWitness:
    """Dispatch on flavor; both automata must share it."""
    return _BY_FLAVOR[_shared_flavor(impl, spec)](impl, spec, impl_state, spec_state)


def holds(impl: ModalAutomaton, spec: ModalAutomaton) -> bool:
    """Whether ``impl`` refines ``spec`` from their initial states."""
    return _verdict(impl, spec, _shared_flavor(impl, spec))


def mia_equiv(a: ModalAutomaton, b: ModalAutomaton) -> bool:
    """Mutual MIA refinement."""
    return _verdict(a, b, MIA) and _verdict(b, a, MIA)


def equiv(a: ModalAutomaton, b: ModalAutomaton) -> bool:
    """Mutual refinement in the automata's shared flavor."""
    flavor = _shared_flavor(a, b)
    return _verdict(a, b, flavor) and _verdict(b, a, flavor)
