"""All operators for Modal Interface Automata, and the IA and dMTS ones.

Conjunction treats inputs like IA-conjunction (strong matching, escape to a
component when only one side constrains the input) and outputs/tau like the
dMTS product (weak matching); inconsistency only ever arises from output
requirements.  Parallel composition synchronizes matched actions into
silent may-transitions and prunes incompatible states, removing every must
that can reach the pruned zone together with exactly its underlying mays.

An IA is a MIA whose only musts are its inputs, and a dMTS is a MIA without
inputs, so the builders here take the flavor of their result: IA parallel
composition, dMTS conjunction and dMTS disjunction run on them too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

from .model import (MIA, TAU, Alphabet, IdTable, ModalAutomaton, MustEdge,
                    NotComposableError, StateId, _pair_of, _require_closed,
                    _sorted_edges, explore_pairs, pair_id, product_operands,
                    remove_states, require_flavor, require_operands,
                    targets_text, vee_id)

Pair = tuple[StateId, StateId]


@dataclass(frozen=True)
class InconsistencySet:
    """Least set of product states with unsatisfiable requirements.

    ``provenance`` maps each member to the rule that forced it in: an
    unmatched must on the left (``F1``) or right (``F2``) with its action,
    or ``F3`` with the product must whose targets all became inconsistent.
    """

    members: frozenset[StateId]
    provenance: dict


@dataclass(frozen=True)
class ConjunctiveProduct:
    """A conjunctive product together with its (renamed) operands.

    ``pairs`` maps each pair state of the product to its component states;
    the component states a MIA product inherits are not in the map.
    ``unmatched`` maps each pair state where one side must do an output
    the other cannot weakly allow to its first such must: ``("F1", a)``
    on the left, else ``("F2", a)`` on the right.  It seeds both the
    inconsistency fixpoint and the witness conditions (W1)/(W2).
    """

    automaton: ModalAutomaton
    left: ModalAutomaton
    right: ModalAutomaton
    pairs: dict
    unmatched: dict


@dataclass(frozen=True)
class Conjunction:
    """Outcome of a conjunction: the pruned automaton, or inconsistent.

    ``product`` and ``inconsistency`` are those of the whole product.  A
    conjunction found inconsistent at its initial pair, before any product
    was built, builds them on first access, once for it and every copy
    :func:`dataclasses.replace` makes of it.
    """

    automaton: ModalAutomaton | None
    # () -> (product, inconsistency)
    _parts: Callable = field(repr=False, compare=False)

    @property
    def product(self) -> ConjunctiveProduct:
        return self._parts()[0]

    @property
    def inconsistency(self) -> InconsistencySet:
        return self._parts()[1]

    @property
    def defined(self) -> bool:
        return self.automaton is not None


@dataclass(frozen=True)
class IncompatibilitySet:
    """Error states and their backward closure under autonomous steps.

    ``errors`` holds the product states with an immediate communication
    mismatch; ``incompatible`` additionally contains every product state
    that can reach an error by output or silent transitions only.
    ``provenance`` records per state the rule that pulled it in:
    ``error-(a)``/``error-(b)`` with the action, or
    ``autonomous-step`` with the transition taken.
    """

    errors: frozenset[StateId]
    incompatible: frozenset[StateId]
    provenance: dict


@dataclass(frozen=True)
class Composition:
    """Outcome of a parallel composition: the pruned automaton, or not.

    ``product`` and ``incompatibility`` are those of the whole product.  A
    composition refused by an error its initial pair reaches autonomously,
    found before the product was built, keeps the walk that found it and
    builds them from there on first access, once for it and every copy
    :func:`dataclasses.replace` makes of it.
    """

    automaton: ModalAutomaton | None
    # () -> (product, incompatibility)
    _parts: Callable = field(repr=False, compare=False)

    @property
    def product(self) -> ModalAutomaton:
        return self._parts()[0]

    @property
    def incompatibility(self) -> IncompatibilitySet:
        return self._parts()[1]

    @property
    def compatible(self) -> bool:
        return self.automaton is not None


# ---------------------------------------------------------------------------
# Conjunction


class _ConjunctiveRun:
    """A conjunctive product in the making, over the full pair space or,
    with ``reachable``, over the pairs reachable from the initial pair.

    The run checks its operands and holds them, as
    :func:`product_operands` renames them, in ``left`` and ``right``; their
    id table in ``ids``; the pair rule in ``rule``, with the ``pairs`` and
    ``unmatched`` maps the rule fills; and in ``known`` the rule's result
    for every pair explored so far.  The id table is the one a
    ``reachable`` product gets, for a full product too, so it builds a
    pair's id on first lookup unless the operands' names could collide
    with one.  :meth:`root_inconsistent` explores from the initial pair
    along must targets, and :meth:`product` completes the table for a full
    product, then builds the whole product and calls the rule on no pair
    twice.  A dMTS has no inputs, so its product is the pair part alone; a
    MIA product also carries the components its input escapes lead to.
    """

    def __init__(self, p: ModalAutomaton, q: ModalAutomaton, flavor: str,
                 reachable: bool):
        require_operands(p, q, flavor)
        p, q, ids = product_operands(p, q, pair_id, True)
        self.flavor, self.reachable = flavor, reachable
        self.left, self.right, self.ids = p, q, ids
        self.initial = ids[p.initial, q.initial]
        self.known: dict = {}
        pairs = self.pairs = {}
        unmatched = self.unmatched = {}
        inputs, outputs = p.alphabet.inputs, p.alphabet.outputs
        silent_or_outputs = outputs | {TAU}

        def row_of(aut: ModalAutomaton):
            """Each state's facts that need no partner: its must row and
            weak row, the labels of its output musts and of its input musts,
            and the labels of its weak entries on outputs and tau, in row
            order."""
            weak = aut.weak

            def row(state: StateId):
                musts = aut.must_row(state)
                weak_row = weak.row(state)
                return (musts, weak_row,
                        tuple([o for o in musts if o in outputs]),
                        tuple([i for i in musts if i in inputs]),
                        tuple([a for a in weak_row if a in silent_or_outputs]))
            return IdTable(row)

        p_rows, q_rows = row_of(p), row_of(q)

        def rule(state: StateId):
            ps, qs = pairs[state] = state.parts
            p_musts, p_weak, p_out, p_in, p_auto = p_rows[ps]
            q_musts, q_weak, q_out, q_in, _ = q_rows[qs]
            mays, musts = [], []
            # Rows list their labels in text order, so F1 and F2 each record
            # the smallest unmatched output.
            for o in p_out:                                  # (OMust1)
                partners = q_weak.get(o)
                if partners:
                    musts += [(o, frozenset([ids[pt, qt] for pt in p_targets
                                             for qt in partners]))
                              for p_targets in p_musts[o]]
                else:                                        # (F1)
                    unmatched.setdefault(state, ("F1", o))
            for o in q_out:                                  # (OMust2)
                partners = p_weak.get(o)
                if partners:
                    musts += [(o, frozenset([ids[pt, qt] for pt in partners
                                             for qt in q_targets]))
                              for q_targets in q_musts[o]]
                else:                                        # (F2)
                    unmatched.setdefault(state, ("F2", o))
            # A valid MIA state has at most one must per input, and its input
            # mays are exactly that must's targets.  So a side has input mays
            # just when it has the must, and (IMay1)-(IMay3) allow exactly the
            # targets (IMust1)-(IMust3) require.
            for i in p_in:
                targets = p_musts[i][0]
                q_sets = q_musts.get(i)
                if q_sets:                                   # (IMust3)
                    targets = frozenset([ids[pt, qt] for pt in targets
                                         for qt in q_sets[0]])
                musts.append((i, targets))                   # (IMust1)
                mays += [(i, t) for t in targets]
            for i in q_in:
                if i not in p_musts:                         # (IMust2)
                    targets = q_musts[i][0]
                    musts.append((i, targets))
                    mays += [(i, t) for t in targets]
            mays += [(TAU, ids[pt, qs]) for pt in p_weak.get(TAU, ())]  # (May1)
            mays += [(TAU, ids[ps, qt]) for qt in q_weak.get(TAU, ())]  # (May2)
            for alpha in p_auto:                             # (May3)
                q_succ = q_weak.get(alpha)
                if q_succ:
                    mays += [(alpha, ids[pt, qt])
                             for pt in p_weak[alpha] for qt in q_succ]
            return mays, musts

        self.rule = rule

    def root_inconsistent(self) -> bool:
        """Whether the initial pair is inconsistent, by a local run of the
        least fixpoint of :func:`_inconsistent` that stops once it knows.

        A pair dies when its rule finds an unmatched must (F1, F2), or when
        every target of one of its musts has died (F3).  Each must watches
        one target not dead yet, exploring it if need be, and moves on to
        its next target only when the watched one dies; a component state
        a MIA product inherits never dies.  The run ends when the initial
        pair dies, or when no watched pair is left to explore: then every
        explored pair still alive is consistent, since each of its musts
        watches one of them or a component state.
        """
        rule, unmatched, known = self.rule, self.unmatched, self.known
        initial = self.initial
        p_states, q_states = ((self.left.states, self.right.states)
                              if self.flavor == MIA else ((), ()))
        dead: set = set()
        watchers: dict = {}   # pair -> the (source, targets left) watching it
        todo = [initial]

        def watch(source: StateId, targets) -> bool:
            for target in targets:
                if target in p_states or target in q_states:
                    return True
                if target not in dead:
                    watchers.setdefault(target, []).append((source, targets))
                    if target not in known:
                        todo.append(target)
                    return True
            return False

        def kill(pair: StateId) -> bool:
            doomed = [pair]
            while doomed:
                pair = doomed.pop()
                if pair in dead:
                    continue
                if pair == initial:
                    return True
                dead.add(pair)
                for source, targets in watchers.pop(pair, ()):
                    if source not in dead and not watch(source, targets):
                        doomed.append(source)
            return False

        while todo:
            state = todo.pop()
            if state in known:
                continue
            _, musts = known[state] = rule(state)
            if state not in unmatched:
                for _, targets in musts:
                    if not watch(state, iter(targets)):
                        break
                else:
                    continue
            if kill(state):
                return True
        return False

    def product(self) -> ConjunctiveProduct:
        p, q, ids = self.left, self.right, self.ids
        if not self.reachable and len(ids) < len(p.states) * len(q.states):
            # a full product starts from every pair
            build = ids.build
            ids.update({key: build(key)
                        for key in itertools.product(p.states, q.states)
                        if key not in ids})
        states, may, must = explore_pairs(
            ids, self.initial, self.rule,
            (p, q) if self.flavor == MIA else (), self.reachable, self.known)
        automaton = ModalAutomaton(self.flavor, f"{p.name}_and_{q.name}",
                                   p.alphabet, states, self.initial, may, must)
        return ConjunctiveProduct(automaton=automaton, left=p, right=q,
                                  pairs=self.pairs, unmatched=self.unmatched)


def _inconsistent(product: ConjunctiveProduct) -> InconsistencySet:
    """Least fixpoint of the inconsistency rules over a conjunctive product.

    Seeds are the product's ``unmatched`` pairs in text order: one side
    requires an output the other cannot weakly allow (every action of a
    dMTS is an output).  The closure step runs as a backward worklist:
    every product must keeps a count of its still consistent targets, and
    when a deletion empties that count the must's source becomes
    inconsistent in turn.  Without seeds the set is empty, and no count
    is kept.
    """
    if not product.unmatched:
        return InconsistencySet(members=frozenset(), provenance={})
    aut = product.automaton
    members: set[StateId] = set()
    provenance: dict = {}
    worklist: list[StateId] = []

    def push(state: StateId, cause: tuple) -> None:
        if state not in members:
            members.add(state)
            provenance[state] = cause
            worklist.append(state)

    for state in sorted(product.unmatched):
        push(state, product.unmatched[state])

    # (F3): per-must surviving-target counts; every pair entering the set is
    # processed exactly once, decrementing each must that targets it
    alive: dict[MustEdge, int] = {}
    containing: dict[StateId, list] = {}
    for edge in aut.sorted_must:
        src, label, targets = edge
        if src not in product.pairs:
            continue
        alive[edge] = len(targets)
        for t in targets:
            containing.setdefault(t, []).append(edge)
    while worklist:
        dead = worklist.pop()
        for edge in containing.get(dead, ()):
            alive[edge] -= 1
            if alive[edge] == 0:
                src, label, targets = edge
                push(src, ("F3", f"{src} -{label}-> {targets_text(targets)}"))
    return InconsistencySet(members=frozenset(members), provenance=provenance)


def _prune(product: ConjunctiveProduct, bad: InconsistencySet,
           reachable: bool = False) -> Conjunction:
    """Drop the inconsistent states and, with ``reachable``, every state
    the initial one reaches only through them.

    The walk follows the unsorted mays around the inconsistent states; for
    valid operands they underlie every must, so one deletion of what the
    walk missed leaves exactly the reachable part of the pruned product.
    A ``reachable`` product is reachable as it is built, so with nothing
    inconsistent there is no walk, and the product is the result.
    """
    aut = product.automaton
    dead = bad.members
    parts = lambda: (product, bad)
    if aut.initial in dead:
        return Conjunction(automaton=None, _parts=parts)
    if reachable and dead:
        succ: dict[StateId, list[StateId]] = {}
        for src, _, tgt in aut.may:
            succ.setdefault(src, []).append(tgt)
        seen = {aut.initial}
        stack = [aut.initial]
        while stack:
            for tgt in succ.get(stack.pop(), ()):
                if tgt not in seen and tgt not in dead:
                    seen.add(tgt)
                    stack.append(tgt)
        dead = aut.states - seen
    pruned = remove_states(aut, dead)
    return Conjunction(automaton=pruned, _parts=parts)


def _conjoin(p: ModalAutomaton, q: ModalAutomaton, flavor: str,
             reachable: bool, product_of, inconsistent_of) -> Conjunction:
    """Decide the initial pair first; build, fix and prune the product
    with ``product_of`` and ``inconsistent_of`` only when it is
    consistent, and otherwise when the result's fields are first read."""
    run = _ConjunctiveRun(p, q, flavor, reachable)

    def parts():
        product = product_of(p, q, reachable=reachable, run=run)
        return product, inconsistent_of(product)
    if run.root_inconsistent():
        return Conjunction(automaton=None, _parts=cache(parts))
    return _prune(*parts(), reachable)


def mia_conj_product(p: ModalAutomaton, q: ModalAutomaton, *,
                     reachable: bool = False,
                     run: _ConjunctiveRun | None = None) -> ConjunctiveProduct:
    """Conjunctive product over the full pair space, or with ``reachable``
    over the pairs reachable from the initial pair; it carries the
    component automata alongside the pairs.  ``run``, begun by
    :func:`mia_conjoin` over ``p`` and ``q``, is finished in place of a
    fresh one."""
    return (run or _ConjunctiveRun(p, q, MIA, reachable)).product()


def mia_inconsistent(product: ConjunctiveProduct) -> InconsistencySet:
    """Inconsistency fixpoint; only output musts seed it, pairs only."""
    return _inconsistent(product)


def mia_conjoin(p: ModalAutomaton, q: ModalAutomaton, *,
                reachable: bool = False) -> Conjunction:
    """Conjunctive product minus inconsistent pairs; a MIA when defined.

    With ``reachable`` only the part reachable from the initial pair is
    built and kept.  An inconsistent initial pair is found before the
    product is built.
    """
    return _conjoin(p, q, MIA, reachable, mia_conj_product, mia_inconsistent)


# ---------------------------------------------------------------------------
# Disjunction


def _disjoin(p: ModalAutomaton, q: ModalAutomaton, flavor: str,
            reachable: bool = False) -> ModalAutomaton:
    """Least upper bound: fresh ``p|q`` states feed into the components.

    An input may at ``p|q`` needs both sides to allow the input; a dMTS has
    no inputs, so there every may of either side is kept.  With
    ``reachable`` only the part reachable from the initial pair is built.
    """
    require_operands(p, q, flavor)
    p, q, ids = product_operands(p, q, vee_id, reachable)
    inputs = p.alphabet.inputs

    def row_of(aut: ModalAutomaton):
        """Each state's mays on outputs and tau, its may row, the labels of
        its input mays in row order, and its must row."""

        def row(state: StateId):
            mays = aut.may_row(state)
            return ([(a, t) for a, ends in mays.items() if a not in inputs
                     for t in ends] or (),
                    mays, tuple([a for a in mays if a in inputs]),
                    aut.must_row(state))
        return IdTable(row)

    p_rows, q_rows = row_of(p), row_of(q)

    def rule(state: StateId):
        ps, qs = state.parts
        p_free, p_mays, p_in, p_musts = p_rows[ps]
        q_free, q_mays, _, q_musts = q_rows[qs]
        musts = [(a, p_targets | q_targets)              # (Must)
                 for a, p_sets in p_musts.items() if a in q_musts
                 for p_targets in p_sets for q_targets in q_musts[a]]
        mays = [*p_free, *q_free]                        # (May1), (May2)
        for a in p_in:
            if a in q_mays:
                mays += [(a, t) for t in p_mays[a]]
                mays += [(a, t) for t in q_mays[a]]
        return mays, musts

    init = ids[p.initial, q.initial]
    states, may, must = explore_pairs(ids, init, rule, (p, q), reachable)
    return ModalAutomaton(flavor, f"{p.name}_or_{q.name}", p.alphabet, states,
                          init, may, must)


def mia_disjoin(p: ModalAutomaton, q: ModalAutomaton, *,
                reachable: bool = False) -> ModalAutomaton:
    """Least upper bound; input mays at ``p|q`` need both sides to agree."""
    return _disjoin(p, q, MIA, reachable)


# ---------------------------------------------------------------------------
# Parallel composition


def composed_alphabets(p1: ModalAutomaton, p2: ModalAutomaton) -> tuple[frozenset[str], frozenset[str]]:
    """Check composability and return the composed input/output alphabets."""
    a1, a2 = p1.alphabet, p2.alphabet
    shared = a1.actions & a2.actions
    matched = (a1.inputs & a2.outputs) | (a1.outputs & a2.inputs)
    if shared - matched:
        raise NotComposableError(min(shared - matched))
    inputs = (a1.inputs | a2.inputs) - (a1.outputs | a2.outputs)
    outputs = (a1.outputs | a2.outputs) - (a1.inputs | a2.inputs)
    return inputs, outputs


class _ParallelRun:
    """A parallel product in the making, over the pairs reachable from the
    initial pair.

    The run checks its operands and holds them, the product's alphabet,
    the pair rule in ``rule`` and the id table the rule fills in ``ids``.
    Matched actions become silent mays; unmatched musts lift componentwise,
    so the product of two IAs keeps its inputs as singleton musts.
    :meth:`refused` walks the pairs the initial pair reaches by output and
    silent steps first, tests each with the rule of :func:`_error_rule`
    and stops at the first error; it keeps that rule in ``error``, the
    pairs it found free of errors in ``tested``, the error it stopped at in
    ``found``, and its walk, which :meth:`product` goes on from, so no pair
    is tested twice and no pair's rule runs twice.  A run that has not
    walked builds the whole product.
    """

    def __init__(self, p1: ModalAutomaton, p2: ModalAutomaton, flavor: str):
        require_flavor(p1, flavor)
        require_flavor(p2, flavor)
        _require_closed(p1)
        _require_closed(p2)
        inputs, outputs = composed_alphabets(p1, p2)
        ids = IdTable(_pair_of)

        def row_of(aut: ModalAutomaton, shared: frozenset[str]):
            """Each state's may row, its may labels the partner does not
            share and those it does, and its musts on the former."""

            def row(state: StateId):
                mays = aut.may_row(state)
                return (mays, tuple([a for a in mays if a not in shared]),
                        tuple([a for a in mays if a in shared]),
                        [(a, targets) for a, sets in aut.must_row(state).items()
                         if a not in shared for targets in sets] or ())
            return IdTable(row)

        rows1 = row_of(p1, p2.alphabet.actions)
        rows2 = row_of(p2, p1.alphabet.actions)

        def rule(state: StateId):
            s1, s2 = state.parts
            row1, own1, shared1, musts1 = rows1[s1]
            row2, own2, _, musts2 = rows2[s2]
            musts = [(a, frozenset([ids[t, s2] for t in targets]))   # (Must1)
                     for a, targets in musts1]
            musts += [(a, frozenset([ids[s1, t] for t in targets]))  # (Must2)
                      for a, targets in musts2]
            mays = []
            for alpha in own1:                               # (May1)
                mays += [(alpha, ids[t1, s2]) for t1 in row1[alpha]]
            for alpha in own2:                               # (May2)
                mays += [(alpha, ids[s1, t2]) for t2 in row2[alpha]]
            for alpha in shared1:                            # (May3)
                ends2 = row2.get(alpha)
                if ends2:
                    mays += [(TAU, ids[t1, t2])
                             for t1 in row1[alpha] for t2 in ends2]
            return mays, musts

        self.flavor, self.p1, self.p2 = flavor, p1, p2
        self.alphabet = Alphabet(inputs, outputs)
        self.ids, self.rule = ids, rule
        self.initial = ids[p1.initial, p2.initial]
        self.error = None
        self.tested: list = []
        self.found: dict = {}   # the pair the walk stopped at -> its error
        self.walk: tuple | None = None

    def refused(self) -> bool:
        """Whether the initial pair reaches an error by output and silent
        steps.

        Those pairs are explored first, breadth-first, and each is tested
        before its rule runs: a pair reached by an input step waits, and
        joins this phase if an autonomous step reaches it later.  The walk
        ends at the first error, or when no such pair is left; either way
        the pairs it has seen but not explored are left for
        :meth:`product`, those that waited included.
        """
        error = self.error = _error_rule(self.p1, self.p2)
        rule, autonomous = self.rule, self.alphabet.outputs | {TAU}
        may: set = set()
        must: set = set()
        add_may, add_must = may.add, must.add
        explored = [self.initial]
        seen = {self.initial}
        waiting = []
        for state in explored:  # the loop reads what it appends
            found = error(state)
            if found is not None:
                self.found = {state: found}
                break
            mays, musts = rule(state)
            for label, tgt in mays:
                add_may((state, label, tgt))
                if tgt not in seen:
                    if label in autonomous:
                        seen.add(tgt)
                        explored.append(tgt)
                    else:
                        waiting.append(tgt)
            for label, targets in musts:
                add_must((state, label, targets))
        stack = []
        if self.found:
            stop = explored.index(state)
            stack, explored[stop:] = explored[stop:], ()
        stack += [tgt for tgt in dict.fromkeys(waiting) if tgt not in seen]
        seen.update(stack)
        self.tested, self.walk = explored, (seen, may, must, stack)
        return bool(self.found)

    def product(self) -> ModalAutomaton:
        """The whole product, built once: the run lets go of its walk,
        rule and id table then, and keeps only what the closure reads."""
        walk, self.walk = self.walk, None
        states, may, must = explore_pairs(self.ids, self.initial, self.rule,
                                          walk=walk)
        self.ids = self.rule = None
        p1, p2 = self.p1, self.p2
        return ModalAutomaton(self.flavor, f"{p1.name}_x_{p2.name}",
                              self.alphabet, states, self.initial, may, must)


def _error_rule(p1: ModalAutomaton, p2: ModalAutomaton):
    """The error of a product pair: an output may of one side that the
    partner has no must for, the smallest such action, or None."""
    out1 = p1.alphabet.outputs & p2.alphabet.actions
    out2 = p2.alphabet.outputs & p1.alphabet.actions
    # Each component state's shared outputs, listed once in the text order
    # of its row, so each side's first one the partner has no must for is
    # its smallest; no action is an output of both sides.
    offers1 = {s: [a for a in p1.may_row(s) if a in out1] for s in p1.states}
    offers2 = {s: [b for b in p2.may_row(s) if b in out2] for s in p2.states}
    must_row1, must_row2 = p1.must_row, p2.must_row

    def error(state: StateId) -> tuple | None:
        s1, s2 = state.parts
        a = b = None
        offered = offers1[s1]
        if offered:
            musts = must_row2(s2)
            for a in offered:
                if a not in musts:
                    break
            else:
                a = None
        offered = offers2[s2]
        if offered:
            musts = must_row1(s1)
            for b in offered:
                if b not in musts:
                    break
            else:
                b = None
        if a is not None and (b is None or a < b):
            return ("error-(a)", a)
        if b is not None:
            return ("error-(b)", b)
        return None
    return error


def _incompatible(product: ModalAutomaton, p1: ModalAutomaton,
                  p2: ModalAutomaton,
                  run: _ParallelRun | None = None) -> IncompatibilitySet:
    """Error pairs (an output may the partner has no must for) plus closure.

    ``run``, the composition's run that built ``product``, lends its error
    rule, and the pairs its first walk tested are not tested again.  The
    closure sweeps the autonomous (output and silent) edges in sorted
    order until a sweep adds nothing; a pair's provenance is the edge that
    pulled it in first.  Only those edges are sorted, source by source,
    since the product itself is not printed, and an edge leaves the sweeps
    once its source is incompatible, since it can pull in nothing more.
    """
    if run is not None:
        error, errors, tested = run.error, dict(run.found), run.tested
    else:
        error, errors, tested = _error_rule(p1, p2), {}, ()
    for state in product.states.difference(tested, errors):
        found = error(state)
        if found is not None:
            errors[state] = found

    if not errors:  # the closure only grows from errors
        return IncompatibilitySet(errors=frozenset(), incompatible=frozenset(),
                                  provenance={})
    autonomous = product.alphabet.outputs | {TAU}
    edges = _sorted_edges([edge for edge in product.may
                           if edge[1] in autonomous])
    provenance = dict(errors)
    incompatible = set(errors)
    changed = True
    while changed:
        changed = False
        for src, label, tgt in edges:
            if tgt in incompatible and src not in incompatible:
                incompatible.add(src)
                provenance[src] = ("autonomous-step", f"{src} -{label}-> {tgt}")
                changed = True
        if changed:
            edges = [edge for edge in edges if edge[0] not in incompatible]
    return IncompatibilitySet(errors=frozenset(errors),
                              incompatible=frozenset(incompatible),
                              provenance=provenance)


def _prune_incompatible(product: ModalAutomaton, incompat: IncompatibilitySet,
                        name: str) -> Composition:
    """Prune the product: besides transitions touching removed states, a
    must with any removed target goes away along with its underlying mays.

    The musts of an IA product are singletons, so there this removes the
    transitions touching removed states and nothing else.  With nothing
    to remove, the result is the product itself, renamed to ``name``.
    """
    bad = incompat.incompatible
    parts = lambda: (product, incompat)
    if product.initial in bad:
        return Composition(automaton=None, _parts=parts)
    if not bad:
        return Composition(automaton=replace(product, name=name), _parts=parts)
    doomed = {edge for edge in product.must if not edge[2].isdisjoint(bad)}
    under = {(src, label, t) for src, label, targets in doomed for t in targets}
    kept = replace(product, name=name, may=product.may - under,
                   must=product.must - doomed)
    pruned = remove_states(kept, bad)
    return Composition(automaton=pruned, _parts=parts)


def _parallel_compose(p1: ModalAutomaton, p2: ModalAutomaton, flavor: str,
                      product_of, incompatible_of) -> Composition:
    """Decide first whether the initial pair reaches an error by output
    and silent steps; build the product and its incompatibility set with
    ``product_of`` and ``incompatible_of``, which go on from that walk,
    when it does not, and otherwise when the result's fields are first
    read."""
    run = _ParallelRun(p1, p2, flavor)

    def parts():
        product = product_of(p1, p2, run=run)
        return product, incompatible_of(product, p1, p2, run=run)
    if run.refused():
        return Composition(automaton=None, _parts=cache(parts))
    return _prune_incompatible(*parts(), f"{p1.name}_par_{p2.name}")


def mia_parallel_product(p1: ModalAutomaton, p2: ModalAutomaton, *,
                         run: _ParallelRun | None = None) -> ModalAutomaton:
    """Product over the pairs reachable from the initial pair; musts lift
    componentwise.  ``run``, begun by :func:`mia_parallel_compose` over
    ``p1`` and ``p2``, is finished in place of a fresh one."""
    return (run or _ParallelRun(p1, p2, MIA)).product()


def mia_incompatible(product: ModalAutomaton, p1: ModalAutomaton,
                     p2: ModalAutomaton, *,
                     run: _ParallelRun | None = None) -> IncompatibilitySet:
    """Error pairs (an output may the partner has no must for) plus
    closure; ``run`` is the one that built ``product``, if any."""
    return _incompatible(product, p1, p2, run)


def mia_parallel_compose(p1: ModalAutomaton, p2: ModalAutomaton) -> Composition:
    """Product minus incompatible states; incompatible when the initial
    pair is pruned, which is decided before the product is built."""
    return _parallel_compose(p1, p2, MIA, mia_parallel_product, mia_incompatible)


def is_mia_witness(product: ConjunctiveProduct, w: set[Pair]) -> bool:
    """Witness conditions with the must checks restricted to outputs."""
    aut = product.automaton
    pairs = {pair_id(ps, qs) for ps, qs in w}
    for state in pairs:
        if state in product.unmatched:                   # (W1), (W2)
            return False
        for sets in aut.must_row(state).values():        # (W3)
            # a target in ``w`` or in a component will do
            if any(all(t in product.pairs and t not in pairs for t in targets)
                   for targets in sets):
                return False
    return True
