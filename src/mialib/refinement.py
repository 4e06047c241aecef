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
both sides is built before the first check.  A pair ``(p, q)`` is the
integer ``p * nq + q``, transitions are per-state lists of integers, and
every pair is checked with the one ``_Checker._check``; state ids reappear
only in the witness and in the failure certificate.  The queries differ
only in how they seed the loop: which pairs start alive (1), dead (0) or
not reached yet (3), and which are queued first.

The numbering and the specification rows depend on one automaton and one
start state alone, so each automaton keeps them, per start state
(``_Side``), from the first query that needs them: many implementations
checked against one specification number it, and build its must rows,
weak rows and label-screen rows, once.  The weak rows are kept per set of
labels the implementation's mays use.  An automaton keeps the side from
its initial state and the most recent one from another start state, so
checking it from each of its states keeps two sides, not one per state.
Only the implementation rows are
built per query, because their targets are scaled by the specification's
state count.  A kept side holds no reference to its automaton, and a
numbering that fails is not kept, so every query on that automaton fails.

``refines`` and the per-flavor queries return the whole greatest relation
over the candidates, all pairs of numbered states, and a certificate that
follows the ordered elimination of Henzinger, Henzinger & Kopke (FOCS
1995).  A pass visits pairs in index order; a pair that fails dies and
re-queues, behind the queue and in sorted order, the pairs whose last
passing check cited it.  Citations are kept in flat integer watch lists,
not in per-pair sets.  Index order is text order, so the elimination
order, the witness and the certificate are the ones a checker over state
ids sorted by text yields.  When both sides are large enough, the pairs
that fail on labels alone (a spec must label the impl state has no must
for, or an impl may label with no weak spec match) are marked up front,
and the elimination takes two runs:

* The witness run kills the marked pairs before the first check and
  queues only the others, in index order.  The greatest relation is
  unique, so whatever the order, its survivors are the witness and give
  the verdict.  When nothing is marked, this run is the ordered
  elimination itself, and the certificate reads its order.
* The certificate run is needed only when the root pair dies and some
  pair was marked.  It replays the ordered elimination on the root's
  region, queued in index order, and stops when the root dies.  The
  region is one closure: the root, and every pair the witness run killed
  that a region pair inspects.  A checked pair steps to every such
  successor.  A marked pair steps only to those before it in index order:
  its check fails whatever it reads, so in the ordered run it dies at its
  first-pass turn, before any pair after it is visited.

The replay is exact.  A witness pair never dies, and in the first pass a
pair dies only at its own turn.  A marked pair fails its check in both
runs, at its first-pass turn.  Every other region pair reads only
successors of its own pair that are witness pairs or region pairs, so its
check reads the same values in both runs.  Region pairs after a marked
root are queued behind it, and the run stops when the root dies at its
first-pass turn: they are never reached and read as alive, as every pair
after the root does in the ordered run until then.  A pair that dies
re-queues only pairs that cited it, so a pair outside the region never
re-queues a region pair.  The queue is first in, first out, so dropping
every pair outside the region from it keeps the relative kill order
inside the region.  The certificate rechecks each pair on its walk
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
from itertools import compress, product

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
# The label screen costs time linear in the states of each side and saves
# checks in proportion to their product, so it is built only when both sides
# have at least this many states.
_SCREEN_MIN_STATES = 16


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
    numbered, and the rows it has as a specification.

    ``states`` lists the reachable states in text order and ``index`` maps
    each to its number.  The specification rows depend on nothing else, so
    they are built on first use and kept: :meth:`musts`, :meth:`hat` per
    set of labels to match, and :meth:`label_needs` for the label screen.
    A side is kept on its automaton, keyed by start state (:func:`_side`).
    It holds no reference to the automaton, which its builders take as an
    argument, so keeping it makes no reference cycle.
    """

    __slots__ = ("states", "index", "_musts", "_hats", "_needs")

    def __init__(self, states: list[StateId]):
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        self._musts = None
        self._hats: dict[frozenset[str], list[dict[str, tuple[int, ...]]]] = {}
        self._needs: dict[frozenset[str], list[tuple[frozenset, frozenset]]] = {}

    def musts(self, aut: ModalAutomaton) -> list[list[tuple[str, list[int]]]]:
        """Per state, its musts as ``(label, sorted target numbers)``."""
        if self._musts is None:
            index, rows, no_row = self.index, aut._must_rows, {}
            self._musts = [[(a, sorted([index[t] for t in targets]))
                            for a, sets in rows.get(q, no_row).items()
                            for targets in sets]
                           for q in self.states]
        return self._musts

    def hat(self, aut: ModalAutomaton,
            labels: frozenset[str]) -> list[dict[str, tuple[int, ...]]]:
        """Per state, ``label -> sorted weak successor numbers`` on each of
        ``labels``; on tau, the state's silent closure.  Equal successor
        sets share one tuple."""
        hat = self._hats.get(labels)
        if hat is None:
            if labels:
                weak, index = aut.weak, self.index
                shared: dict[frozenset[StateId], tuple[int, ...]] = {}
                hat = []
                for q in self.states:
                    row = {}
                    for alpha in labels:
                        succ = weak.eps_succ(q) if alpha == TAU else weak.weak_succ(q, alpha)
                        nums = shared.get(succ)
                        if nums is None:
                            nums = shared[succ] = tuple(sorted([index[t] for t in succ]))
                        row[alpha] = nums
                    hat.append(row)
            else:
                # Without impl mays to match, the weak closure is not needed.
                hat = [{}] * len(self.states)
            self._hats[labels] = hat
        return hat

    def label_needs(self, labels: frozenset[str]) -> list[tuple[frozenset, frozenset]]:
        """Per state, the labels it has musts on and those of ``labels`` it
        matches weakly, once :meth:`musts` and :meth:`hat` are built.
        States with the same two label sets share one entry."""
        needs = self._needs.get(labels)
        if needs is None:
            shared: dict = {}
            needs = self._needs[labels] = []
            for musts, hat in zip(self._musts, self._hats[labels]):
                entry = (frozenset([a for a, _ in musts]),
                         frozenset([a for a, targets in hat.items() if targets]))
                needs.append(shared.setdefault(entry, entry))
        return needs


def _side(aut: ModalAutomaton, start: StateId) -> _Side:
    """The side of ``aut`` from ``start``, numbered on first use and kept.

    An automaton keeps the side from its initial state and the most
    recent one from any other start state, so checking it from each of
    its states in turn keeps at most two.  A numbering that fails raises
    and is not kept, so every query on that automaton raises again."""
    sides = aut._refinement_rows
    side = sides.get(start)
    if side is None:
        side = _Side(_numbered(aut, start))
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
    start pair.

    The rows are lists indexed by state number, all built before the first
    check.  The numbering of each side and the spec rows are the ones kept
    on the automaton (:class:`_Side`), so a query against a specification
    already checked builds only the impl rows: ``impl_musts`` maps each
    must label to the target lists and ``impl_mays`` keeps the output and
    tau mays, both with targets stored as pair bases ``p2 * nq``, ready to
    add ``q2``.  Those depend on the spec's state count, so they are built
    per query.  ``spec_musts`` holds sorted target numbers, and
    ``spec_hat`` the sorted weak successors on each label some impl may
    uses (``labels``).

    A pair that passes its check cites the pairs it relied on, in flat watch
    lists: entry ``e`` records that pair ``who[e]`` cited the pair on whose
    list it sits (each list runs from ``head`` along ``nxt``).  Every passing
    check appends a fresh run of entries, so an entry belongs to its citer's
    last passing check, and is current, when ``e >= since[who[e]]``.  A pair
    that dies re-queues its alive, current citers in sorted order.

    When both sides have at least ``_SCREEN_MIN_STATES`` states,
    ``_label_screen`` marks the pairs that fail on labels alone.

    :meth:`witness` is the witness run, :meth:`certificate` runs the
    certificate run (:meth:`_replay`) where one is needed, and
    :meth:`verdict` is the local run; each only seeds the loop.  Only the
    elimination order is stored; why a pair died is derived again when the
    certificate asks (``cause``).
    """

    def __init__(self, impl: ModalAutomaton, spec: ModalAutomaton,
                 impl_state: StateId, spec_state: StateId):
        impl_side = _side(impl, impl_state)
        self.spec_side = spec_side = _side(spec, spec_state)
        self.impl_states, self.spec_states = impl_side.states, spec_side.states
        p_index = impl_side.index
        self.nq = nq = len(self.spec_states)
        self.root = p_index[impl_state] * nq + spec_side.index[spec_state]

        domain = spec.alphabet.outputs | {TAU}
        self.impl_musts, self.impl_mays = impl_musts, impl_mays = [], []
        labels: set[str] = set()
        # a plain empty dict is read faster than the shared read-only row
        must_rows, may_rows, no_row = impl._must_rows, impl._may_rows, {}
        for p in self.impl_states:
            musts: dict[str, list[list[int]]] = {}
            for a, sets in must_rows.get(p, no_row).items():
                musts[a] = bases = []
                for targets in sets:
                    # Sorted, so that the local run's queue order does not
                    # follow the hash order of the frozenset.
                    bases.append(sorted([p_index[t] * nq for t in targets]))
            mays = []
            for alpha, ends in may_rows.get(p, no_row).items():
                if alpha in domain:
                    labels.add(alpha)
                    for p2 in ends:
                        mays.append((alpha, p_index[p2] * nq))
            impl_musts.append(musts)
            impl_mays.append(mays)

        self.labels = frozenset(labels)
        self.spec_musts = spec_side.musts(spec)
        self.spec_hat = spec_side.hat(spec, self.labels)

    def _check(self, x: int, alive: bytearray | _AliveAt,
               cited: list[int]) -> tuple[str, tuple] | None:
        """None if pair ``x`` passes against ``alive``, else why it fails.

        The reason is ``("i", the unmatched spec must)`` or ``("ii", the
        unmatched impl may)``, as entries of spec_musts and impl_mays.  The
        partners a passing check relied on are appended to ``cited``.
        """
        p, q = divmod(x, self.nq)
        # clause (i): spec musts flow to impl musts.
        impl_musts = self.impl_musts[p]
        for must in self.spec_musts[q]:
            a, spec_targets = must
            for impl_targets in impl_musts.get(a, ()):
                picks = []
                for base in impl_targets:
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
                return "i", must
        # clause (ii): impl mays flow to weak spec mays.
        hat = self.spec_hat[q]
        for may in self.impl_mays[p]:
            alpha, base = may
            for q2 in hat[alpha]:
                if alive[base + q2]:
                    cited.append(base + q2)
                    break
            else:
                return "ii", may
        return None

    def witness(self) -> None:
        """The witness run: ``alive`` ends as the greatest relation.  The
        pairs the screen marks start dead and the others are queued in index
        order; with none marked, the run is the ordered elimination over
        every pair, and its order is kept for the certificate."""
        n = len(self.impl_states) * self.nq
        if min(len(self.impl_states), self.nq) >= _SCREEN_MIN_STATES:
            screen = b"".join(self._label_screen())
        else:
            screen = b"\x01" * n
        self.screen = screen if 0 in screen else None
        self.alive = alive = bytearray(screen)
        # compress reads alive as the run goes; a pair that dies before its
        # turn in the first pass is skipped there, as the run would skip it.
        order = self._eliminate(alive, compress(range(n), alive))
        if self.screen is None:
            self.elim_order = order

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

    def _label_screen(self) -> list[bytes]:
        """One row per impl state over the spec states: 0 where the pair
        fails on labels alone, else 1.

        A spec state needs its must labels and matches the labels with a
        weak match; impl states with the same must and may labels share
        one row.
        """
        spec_side = self.spec_side.label_needs(self.labels)
        rows: dict[tuple[frozenset, frozenset], bytes] = {}
        out = []
        for musts, mays in zip(self.impl_musts, self.impl_mays):
            sig = (frozenset(musts), frozenset(alpha for alpha, _ in mays))
            row = rows.get(sig)
            if row is None:
                has_must, has_may = sig
                row = rows[sig] = bytes([
                    need <= has_must and has_may <= matched
                    for need, matched in spec_side])
            out.append(row)
        return out

    def _replay(self) -> None:
        """The certificate run: the ordered elimination on the root's region.

        The module docstring says why this gives the order of a run over
        every pair.  The region starts at the root and takes each pair the
        witness run killed that a region pair inspects; a pair the screen
        marks takes only those before it.  Region pairs start alive, as the
        witness does, and every other pair stays dead; all of them are dead
        again afterwards, so ``alive`` is left as the witness.
        """
        alive, screen, root = self.alive, self.screen, self.root
        region = [root]
        alive[root] = 1
        for x in region:
            # A marked pair dies at its first-pass turn, before any pair
            # after it is visited, so it steps only below itself.
            top = len(alive) if screen[x] else x
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
        if self.screen is not None:
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
        p, q = divmod(x, self.nq)
        found = []
        if clause != "ii":
            impl_musts = self.impl_musts[p]
            for a, spec_targets in self.spec_musts[q]:
                for impl_targets in impl_musts.get(a, ()):
                    for base in impl_targets:
                        for q2 in spec_targets:
                            found.append(base + q2)
        if clause != "i":
            hat = self.spec_hat[q]
            for alpha, base in self.impl_mays[p]:
                for q2 in hat[alpha]:
                    found.append(base + q2)
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
            # An impl may keeps its target as the pair base p2 * nq.
            transition = (f"impl may {impl_state} -{label}-> "
                          f"{self.impl_states[target // self.nq]}")
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
