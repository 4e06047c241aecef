"""Shared automaton model for the three interface theories.

A single :class:`ModalAutomaton` type represents Interface Automata (IA),
disjunctive Modal Transition Systems (dMTS) and Modal Interface Automata
(MIA).  The ``flavor`` tag selects which validity rules apply:

* ``ia`` -- input-deterministic, inputs are stored as singleton
  must-transitions plus their underlying may-transitions; outputs and the
  silent action are may-transitions only.
* ``dmts`` -- a single action set (stored in ``alphabet.outputs`` with empty
  inputs), disjunctive must-transitions allowed freely.
* ``mia`` -- inputs and outputs; at most one must-transition per input and
  state, and every input may-transition is underlain by that must.

A state is a :class:`StateId`: a ``str`` whose value is its canonical
name, so states hash, compare and sort as plain strings do, and the
structure an operator gave the name stays readable from ``kind`` and
``parts``.  Each state's id is built once per document or product, so
every transition endpoint and the initial state is the object held in
``states``: the parser and every product keep an :class:`IdTable` that
builds a name's or pair's id on first mention, so a product that keeps
only what it reaches builds ids for the pairs it reaches and no others.
A conjunction builds its pair ids on first mention too until it builds
its product, and a full product completes the table then, so a
conjunction decided at its initial pair builds ids only for the pairs
that decision explored and their targets.
The other products over the full pair space, which emit every pair, and
an operand whose state names hold the operator's own character, where a
combined id might collide with one of them, read the complete pair table
of :func:`disjoint_operands` from the start.

All automata are immutable after construction and safe to share across
threads.  Iteration over states and transitions is deterministic
(lexicographic in the canonical state strings).

An automaton stores only its seven fields.  Its views are derived once,
on first access, and kept:

* the sorted states and edges, from the state and edge sets: the sources
  once, then each source's own edges; :func:`remove_states` hands its
  result the sorted musts when its argument has them;
* the one per-state index, the label rows ``state -> label -> ends``
  behind ``may_row``/``must_row``, the lookups ``may_targets``,
  ``must_sets``, ``has_may`` and ``has_must``, and the flat lists of
  ``may_from``/``musts_from``: bucketed from the edge sets in one pass,
  each row's labels in text order and only the lists of two or more ends
  sorted, so they read in sorted edge order;
* the weak closure ``weak``, from the label rows, as per-state rows
  ``label -> successors``;
* the renamed copies :func:`rename_disjoint` hands out, whose states all
  carry the ``@L`` or the ``@R`` tag: an operand is renamed once, and its
  copy keeps its own views across every product built from it;
* the refinement rows, per start state: the table is empty until
  :mod:`mialib.refinement` numbers the automaton's reachable states and
  builds there the rows it has as an implementation or a specification,
  so an automaton checked many times is numbered once.  It keeps the
  initial state's entry and the most recent other one.  No entry refers
  back to the automaton, so keeping them makes no reference cycle.

Each view is built only for automata that ask for it, so the many that
are only walked never pay for the sorted edges or the label rows, and the
products and refinement, which read the rows, never sort an operand's
whole edge sets.  Two threads may both compute a view at first; they get
equal values.

:func:`validate` decides a valid automaton with subset tests on its whole
edge sets, without sorting; only an invalid one is walked in sorted order
to list its violations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping

TAU = "tau"

IA = "ia"
DMTS = "dmts"
MIA = "mia"
FLAVORS = (IA, DMTS, MIA)


class MialibError(Exception):
    """Base class for errors raised by this library."""


class AlphabetMismatchError(MialibError):
    """Two automata do not share the alphabets required by an operator."""


class FlavorMismatchError(MialibError):
    """An operator was applied to automata of the wrong flavor."""


class StateNameCollisionError(MialibError):
    """A freshly built state name coincides with an existing state."""


class EmptiedMustError(MialibError):
    """Deleting states emptied the target set of a must at a kept state."""


class NotComposableError(MialibError):
    """Two automata share an action that is not an input/output match."""

    def __init__(self, action: str):
        super().__init__(f"shared action {action!r} is not an input of one "
                         "side and an output of the other")
        self.action = action


# ---------------------------------------------------------------------------
# Structured state identifiers


class StateId(str):
    """Structured state name recording operator provenance.

    A state id is an atom, a product pair ``(l,r)``, a conjunction ``l&r``,
    a disjunction ``l|r`` or a tagged id ``l@T`` (used both for disjoint
    renaming and for universal states ``u@Name``).  ``kind`` and ``parts``
    keep that structure, and distinct structures render to distinct
    strings.  Each kind has one renderer: :func:`_render` for tags, and one
    builder for each other kind: :func:`atom`, and :func:`_pair_of`,
    :func:`_wedge_of` and :func:`_vee_of`, which the products key by
    component pair; ``StateId(kind, parts)`` hands those kinds to their
    builder.

    The id is a ``str`` whose value is its canonical text, so it hashes,
    compares and sorts exactly as that text does, with the built-in string
    operations.  ``text`` holds the same text as a plain ``str``.  Equality
    is string equality: ``atom("a") == "a"`` holds, and an id and the plain
    string of its text are the same dict key.  Ids are immutable.
    """

    __slots__ = ("kind", "parts", "text")

    ATOM = "atom"
    PAIR = "pair"
    WEDGE = "wedge"
    VEE = "vee"
    TAG = "tag"

    def __new__(cls, kind: str, parts: tuple):
        if kind in _BUILDERS:
            return _BUILDERS[kind](parts)
        text = _render(kind, parts)
        self = str.__new__(cls, text)
        _set_kind(self, kind)
        _set_parts(self, parts)
        _set_text(self, text)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StateId is immutable")

    def __delattr__(self, name):
        raise AttributeError("StateId is immutable")

    def __repr__(self):
        return f"StateId({self.text!r})"


# The slots are written once, in ``__new__``, through their descriptors;
# ``__setattr__`` refuses any later write.
_set_kind = StateId.kind.__set__
_set_parts = StateId.parts.__set__
_set_text = StateId.text.__set__


def _render(kind: str, parts: tuple) -> str:
    """The text of a tagged id.  Every other kind has one builder, below,
    which ``StateId.__new__`` hands it to."""
    if kind == StateId.TAG:
        inner, tag = parts
        if inner.kind in _GROUPED:  # wedge and vee ids are grouped
            return f"({inner.text})@{tag}"
        return f"{inner.text}@{tag}"
    raise ValueError(f"unknown state id kind {kind!r}")


# Atom, pair, wedge and vee ids are built here, for the readers, the
# products and ``StateId.__new__`` alike: the text is rendered and the slots
# filled without ``__new__``'s dispatch.
_new_str = str.__new__
_GROUPED = (StateId.WEDGE, StateId.VEE)


def atom(name: str) -> StateId:
    sid = _new_str(StateId, name)
    _set_kind(sid, StateId.ATOM)
    _set_parts(sid, (name,))
    _set_text(sid, name)
    return sid


def _pair_of(key: tuple) -> StateId:
    """``pair_id(*key)``, keyed by the component pair."""
    left, right = key
    text = f"({left.text},{right.text})"
    sid = _new_str(StateId, text)
    _set_kind(sid, StateId.PAIR)
    _set_parts(sid, key)
    _set_text(sid, text)
    return sid


def _junction_of(kind: str, mark: str):
    """The builder of ``kind`` ids, ``l&r`` or ``l|r``, keyed by the
    component pair."""
    def build(key: tuple) -> StateId:
        left, right = key
        text = left.text if left.kind not in _GROUPED else f"({left.text})"
        text += mark
        text += right.text if right.kind not in _GROUPED else f"({right.text})"
        sid = _new_str(StateId, text)
        _set_kind(sid, kind)
        _set_parts(sid, key)
        _set_text(sid, text)
        return sid
    return build


_wedge_of = _junction_of(StateId.WEDGE, "&")
_vee_of = _junction_of(StateId.VEE, "|")
_BUILDERS = {StateId.ATOM: lambda parts: atom(*parts), StateId.PAIR: _pair_of,
             StateId.WEDGE: _wedge_of, StateId.VEE: _vee_of}


def pair_id(left: StateId, right: StateId) -> StateId:
    return _pair_of((left, right))


def wedge_id(left: StateId, right: StateId) -> StateId:
    return _wedge_of((left, right))


def vee_id(left: StateId, right: StateId) -> StateId:
    return _vee_of((left, right))


def tagged_id(inner: StateId, tag: str) -> StateId:
    return StateId(StateId.TAG, (inner, tag))


def universal_id(automaton_name: str) -> StateId:
    """The fresh catch-all state added by the dMTS embedding."""
    return tagged_id(atom("u"), automaton_name)


class IdTable(dict):
    """One id per key within one build: a missing key's id is built once,
    by ``build(key)``, and kept.

    The parser keys atoms by their name (``build=atom``) and composite
    names by their kind and parts; the products key their pair states by
    their component pair, and most keep each component state's row in
    one.  DOT export keeps each state's quoted name in one.
    """

    __slots__ = ("build",)

    def __init__(self, build):
        # ``dict.__new__`` has made the empty table already
        self.build = build

    def __missing__(self, key) -> StateId:
        sid = self[key] = self.build(key)
        return sid


def targets_text(targets: Iterable[StateId]) -> str:
    """A must's target set as ``{a,b}``, in text order."""
    return "{" + ",".join(sorted(targets)) + "}"


# ---------------------------------------------------------------------------
# Alphabet


@dataclass(frozen=True)
class Alphabet:
    """Disjoint input and output action sets; ``tau`` belongs to neither."""

    inputs: frozenset[str]
    outputs: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))

    @property
    def actions(self) -> frozenset[str]:
        return self.inputs | self.outputs


MayEdge = tuple[StateId, str, StateId]
MustEdge = tuple[StateId, str, frozenset[StateId]]


_SET_TYPES = (set, frozenset)


def _freeze_must(must: Iterable) -> frozenset[MustEdge]:
    """The musts as a frozenset of edges with frozenset targets.

    A set or frozenset whose targets are already frozensets, such as the
    musts of another automaton, of the parser or of :func:`explore_pairs`,
    is frozen whole, and a frozenset is returned as it is; the check runs in
    C, so no edge is rebuilt.
    """
    if (type(must) in _SET_TYPES
            and {*map(type, map(itemgetter(2), must))} <= {frozenset}):
        return frozenset(must)
    return frozenset([(src, label, frozenset(targets))
                      for src, label, targets in must])


# ---------------------------------------------------------------------------
# The automaton


class _derived:
    """A view computed on first access and kept in the instance ``__dict__``,
    where later lookups find it (a non-data descriptor)."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, aut, owner=None):
        if aut is None:
            return self
        return aut.__dict__.setdefault(self.name, self.compute(aut))


@dataclass(frozen=True)
class ModalAutomaton:
    """Finite automaton with may- and disjunctive must-transitions."""

    flavor: str
    name: str
    alphabet: Alphabet
    states: frozenset[StateId]
    initial: StateId
    may: frozenset[MayEdge]
    must: frozenset[MustEdge]

    def __post_init__(self):
        # Fields that are frozen already, as an operator's or another
        # automaton's are, are kept as they are.
        if type(self.states) is not frozenset:
            object.__setattr__(self, "states", frozenset(self.states))
        if type(self.may) is not frozenset:
            object.__setattr__(self, "may", frozenset(self.may))
        must = _freeze_must(self.must)
        if must is not self.must:
            object.__setattr__(self, "must", must)

    # -- derived views ------------------------------------------------------

    @_derived
    def sorted_states(self) -> tuple[StateId, ...]:
        return tuple(sorted(self.states))

    @_derived
    def sorted_may(self) -> tuple[MayEdge, ...]:
        return _sorted_edges(self.may)

    @_derived
    def sorted_must(self) -> tuple[MustEdge, ...]:
        return _sorted_edges(self.must, _must_key)

    @_derived
    def weak(self) -> WeakClosure:
        return weak_closure(self)

    @_derived
    def _may_rows(self) -> dict[StateId, dict[str, list[StateId]]]:
        return _label_rows(self.may)

    @_derived
    def _must_rows(self) -> dict[StateId, dict[str, list[frozenset[StateId]]]]:
        return _label_rows(self.must, sorted)

    @_derived
    def _refinement_rows(self) -> dict:
        return {}

    @_derived
    def _as_left(self) -> ModalAutomaton:
        return _tag_states(self, "L")

    @_derived
    def _as_right(self) -> ModalAutomaton:
        return _tag_states(self, "R")

    # -- local lookups ------------------------------------------------------

    def may_from(self, state: StateId) -> list[tuple[str, StateId]]:
        """The ``(label, target)`` mays at ``state``, in sorted edge order."""
        return [(a, t) for a, ends in self._may_rows.get(state, _NO_ROW).items() for t in ends]

    def musts_from(self, state: StateId) -> list[tuple[str, frozenset[StateId]]]:
        """The ``(label, targets)`` musts at ``state``, in sorted edge order."""
        return [(a, T) for a, sets in self._must_rows.get(state, _NO_ROW).items() for T in sets]

    def may_row(self, state: StateId) -> Mapping[str, list[StateId]]:
        """``label -> may targets`` at ``state``, for the labels it has."""
        return self._may_rows.get(state, _NO_ROW)

    def must_row(self, state: StateId) -> Mapping[str, list[frozenset[StateId]]]:
        """``label -> must target sets`` at ``state``, for the labels it has."""
        return self._must_rows.get(state, _NO_ROW)

    def may_targets(self, state: StateId, label: str) -> list[StateId]:
        return self._may_rows.get(state, _NO_ROW).get(label, [])

    def must_sets(self, state: StateId, label: str) -> list[frozenset[StateId]]:
        return self._must_rows.get(state, _NO_ROW).get(label, [])

    def has_may(self, state: StateId, label: str) -> bool:
        return label in self._may_rows.get(state, _NO_ROW)

    def has_must(self, state: StateId, label: str) -> bool:
        return label in self._must_rows.get(state, _NO_ROW)


# The row of a state without edges (or weak successors); read-only, so it
# can be shared.
_NO_ROW: Mapping = MappingProxyType({})


def _label_rows(edges: frozenset, key=None) -> dict[StateId, dict[str, list]]:
    """``state -> label -> ends`` of ``edges``, in sorted edge order: the
    edges are bucketed by label in one pass and dealt into the rows in
    label order, and only the lists that get a second end are sorted, by
    ``key``, into new lists no longer than they need."""
    by_label: dict = {}
    for edge in edges:
        bucket = by_label.get(edge[1])
        if bucket is None:
            by_label[edge[1]] = [edge]
        else:
            bucket.append(edge)
    out: dict = {}
    grown = []  # (row, label) of each list that got a second end
    for label in sorted(by_label):
        for src, _, end in by_label[label]:
            row = out.get(src)
            if row is None:
                out[src] = {label: [end]}
            else:
                ends = row.get(label)
                if ends is None:
                    row[label] = [end]
                else:
                    ends.append(end)
                    if len(ends) == 2:
                        grown.append((row, label))
    for row, label in grown:
        row[label] = sorted(row[label], key=key)
    return out


def _must_key(edge: MustEdge):
    src, label, targets = edge
    return (src, label, sorted(targets))


def _sorted_edges(edges: frozenset, key=None) -> tuple:
    """``tuple(sorted(edges, key=key))``, built per source.

    Both orders decide on the source first, so sorting the sources and then
    each source's own edges gives the same order at less cost: the sources
    compare as the strings they are, and ``key`` runs only for sources with
    two or more edges.
    """
    buckets: dict = {}
    for edge in edges:
        bucket = buckets.get(edge[0])
        if bucket is None:
            buckets[edge[0]] = [edge]
        else:
            bucket.append(edge)
    out: list = []
    for src in sorted(buckets):
        bucket = buckets[src]
        if len(bucket) > 1:
            bucket.sort(key=key)
        out += bucket
    return tuple(out)


def make_automaton(flavor: str,
                   name: str,
                   inputs: Iterable[str],
                   outputs: Iterable[str],
                   initial: StateId,
                   may: Iterable[MayEdge] = (),
                   must: Iterable = (),
                   states: Iterable[StateId] = ()) -> ModalAutomaton:
    """Build an automaton, collecting states from transition endpoints."""
    may = frozenset(may)
    if iter(must) is must:
        must = list(must)  # a one-shot iterable is read here and frozen later
    # A set keeps the first of equal members: states, initial, endpoints.
    all_states = {*states, initial, *map(itemgetter(0), may),
                  *map(itemgetter(2), may), *map(itemgetter(0), must)}
    all_states.update(*map(itemgetter(2), must))
    return ModalAutomaton(flavor=flavor, name=name,
                          alphabet=Alphabet(frozenset(inputs), frozenset(outputs)),
                          states=frozenset(all_states), initial=initial,
                          may=may, must=must)


def make_ia(name: str,
            inputs: Iterable[str],
            outputs: Iterable[str],
            initial: StateId,
            transitions: Iterable[MayEdge],
            states: Iterable[StateId] = ()) -> ModalAutomaton:
    """Build an IA from plain transitions.

    Input transitions become singleton musts plus their underlying mays;
    output and tau transitions become mays only.
    """
    inputs = frozenset(inputs)
    may = set()
    must = set()
    for src, label, tgt in transitions:
        may.add((src, label, tgt))
        if label in inputs:
            must.add((src, label, frozenset([tgt])))
    return make_automaton(IA, name, inputs, outputs, initial, may, must,
                          states=states)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    """One broken invariant; ``subject`` keys the offending declaration."""

    rule: str
    message: str
    subject: tuple | None = None

    def __str__(self):
        return f"[{self.rule}] {self.message}"


def validate(aut: ModalAutomaton) -> list[Violation]:
    """Check all flavor invariants; an empty list means the automaton is valid.

    A valid automaton of any size is recognised by :func:`_valid_by_sets`,
    with subset tests on its whole edge sets and without sorting; only an
    invalid one is checked edge by edge, in sorted order, to list its
    violations.
    """
    if _valid_by_sets(aut):
        return []
    out: list[Violation] = []
    bad = out.append
    alph = aut.alphabet

    if aut.flavor not in FLAVORS:
        bad(Violation("flavor", f"unknown flavor {aut.flavor!r}"))
        return out

    overlap = alph.inputs & alph.outputs
    if overlap:
        bad(Violation("alphabet-disjoint",
                      f"actions both input and output: {sorted(overlap)}"))
    if TAU in alph.actions:
        bad(Violation("tau-reserved", "'tau' may not appear in the alphabet"))
    if aut.flavor == DMTS and alph.inputs:
        bad(Violation("dmts-io-split",
                      "dMTS stores its action set as outputs; inputs must be empty"))

    if aut.initial not in aut.states:
        bad(Violation("initial-state", f"initial state {aut.initial} not in state set"))

    states = aut.states
    labels = alph.actions
    known = labels | {TAU}
    for src, label, tgt in aut.sorted_may:
        if src not in states or tgt not in states:
            bad(Violation("unknown-state", f"may {src} -{label}-> {tgt} leaves the state set",
                          ("may", src, label, tgt)))
        if label not in known:
            bad(Violation("unknown-action", f"may {src} -{label}-> {tgt} uses an undeclared action",
                          ("may", src, label, tgt)))

    may = aut.may
    for edge in aut.sorted_must:
        src, label, targets = edge
        if label == TAU:
            bad(_must_violation("tau-must", edge, ": silent musts are not allowed"))
            continue
        if label not in labels:
            bad(_must_violation("unknown-action", edge, " uses an undeclared action"))
        if not targets:
            bad(_must_violation("empty-must-target", edge, " has no targets"))
        if src not in states or not targets <= states:
            bad(_must_violation("unknown-state", edge, " leaves the state set"))
        lacking = [t for t in targets if (src, label, t) not in may]
        if lacking:
            for t in sorted(lacking):
                bad(_must_violation("syntactic-consistency", edge,
                                    f" lacks underlying may to {t}"))

    if aut.flavor == IA:
        _validate_ia(aut, bad)
    elif aut.flavor == MIA:
        _validate_mia(aut, bad)
    return out


def _valid_by_sets(aut: ModalAutomaton) -> bool:
    """Whether ``aut`` breaks none of the rules :func:`validate` checks.

    Decided by subset tests on whole edge sets, without sorting or grouping
    an edge:

    * the alphabet, the initial state and every edge's endpoints and label;
    * every must has targets, and each target underlies a may;
    * IA: musts are singletons on inputs; IA and MIA: one must per state and
      input, and every input may is under a must (for IA, with singleton
      musts and their mays, that makes inputs deterministic and encoded).
    """
    alph, states, may, must = aut.alphabet, aut.states, aut.may, aut.must
    inputs, actions = alph.inputs, alph.actions
    if (aut.flavor not in FLAVORS or not inputs.isdisjoint(alph.outputs)
            or TAU in actions or (aut.flavor == DMTS and inputs)
            or aut.initial not in states):
        return False
    targets = [*map(itemgetter(2), must)]
    if not (states.issuperset(map(itemgetter(0), may))
            and states.issuperset(map(itemgetter(2), may))
            and (actions | {TAU}).issuperset(map(itemgetter(1), may))
            and states.issuperset(map(itemgetter(0), must))
            and actions.issuperset(map(itemgetter(1), must))
            and all(targets)):
        return False
    under = {(src, label, t) for src, label, ends in must for t in ends}
    if not under <= may:
        return False
    if aut.flavor == DMTS:
        return True
    input_keys = [(src, label) for src, label, _ in must if label in inputs]
    if (len({*input_keys}) < len(input_keys)
            or not inputs.isdisjoint(map(itemgetter(1), may - under))):
        return False
    return aut.flavor == MIA or (inputs.issuperset(map(itemgetter(1), must))
                                 and {*map(len, targets)} <= {1})


def _must_violation(rule: str, edge: MustEdge, what: str) -> Violation:
    """A violation of ``rule`` by the must ``edge``, its text followed by ``what``."""
    src, label, targets = edge
    return Violation(rule, f"must {src} -{label}-> {targets_text(targets)}{what}",
                     ("must", *edge))


def _by_state_and_input(aut: ModalAutomaton, edges) -> dict:
    """``(state, input) -> [last fields]`` of sorted edges, in their order.

    Only states of the automaton and its inputs appear, so the keys come in
    the order of a loop over the sorted states and, inside, the sorted inputs.
    """
    inputs, states = aut.alphabet.inputs, aut.states
    return {key: [edge[2] for edge in group]
            for key, group in groupby(edges, itemgetter(0, 1))
            if key[1] in inputs and key[0] in states}


def _validate_ia(aut: ModalAutomaton, bad) -> None:
    inputs = aut.alphabet.inputs
    for src, label, targets in aut.sorted_must:
        if label not in inputs:
            bad(Violation("ia-output-must",
                          f"must {src} -{label}->: IA musts exist only for inputs",
                          ("must", src, label, targets)))
        if len(targets) != 1:
            bad(Violation("ia-must-shape",
                          f"must {src} -{label}-> has {len(targets)} targets; IA musts are singletons",
                          ("must", src, label, targets)))
    must_pairs = {(src, label) for src, label, _ in aut.must}
    for (state, a), targets in _by_state_and_input(aut, aut.sorted_may).items():
        if len(targets) > 1:
            bad(Violation("ia-input-determinism",
                          f"{state} has {len(targets)} transitions on input {a}",
                          ("may", state, a, targets[0])))
        if (state, a) not in must_pairs:
            for t in targets:
                bad(Violation("ia-input-encoding",
                              f"input may {state} -{a}-> {t} lacks its singleton must",
                              ("may", state, a, t)))


def _validate_mia(aut: ModalAutomaton, bad) -> None:
    # Violations are gathered per (state, input) and reported in that order.
    found: dict[tuple[StateId, str], list[Violation]] = {}
    sets_at = _by_state_and_input(aut, aut.sorted_must)
    for (state, i), sets in sets_at.items():
        if len(sets) > 1:
            found[state, i] = [Violation("mia-input-must-unique",
                                         f"{state} has {len(sets)} distinct musts on input {i}",
                                         ("must", state, i, sets[0]))]
    for (state, i), targets in _by_state_and_input(aut, aut.sorted_may).items():
        covered = set().union(*sets_at.get((state, i), ()))
        for t in targets:
            if t not in covered:
                found.setdefault((state, i), []).append(Violation(
                    "mia-input-may-under-must",
                    f"input may {state} -{i}-> {t} is not underlain by an {i}-must",
                    ("may", state, i, t)))
    for key in sorted(found):
        for violation in found[key]:
            bad(violation)


# ---------------------------------------------------------------------------
# Weak transition closure


@dataclass(frozen=True)
class WeakClosure:
    """Weak transition relations of one automaton, as per-state rows.

    For a label ``l`` (actions and ``tau`` alike), ``rows[q][l]`` holds
    ``q'`` when some silent run from ``q`` is followed by exactly one
    ``l``-may-step ending in ``q'``; there are no trailing silent steps.
    Empty successor sets are not stored, nor are empty rows.  The silent
    closure of ``q`` is ``q`` plus its weak ``tau`` successors, so it is
    not stored either.
    """

    rows: Mapping[StateId, Mapping[str, frozenset[StateId]]]

    def row(self, state: StateId) -> Mapping[str, frozenset[StateId]]:
        """``label -> weak successors`` at ``state``, empty sets left out."""
        return self.rows.get(state, _NO_ROW)

    def eps_succ(self, state: StateId) -> frozenset[StateId]:
        return self.weak_succ(state, TAU) | {state}

    def weak_succ(self, state: StateId, label: str) -> frozenset[StateId]:
        return self.rows.get(state, _NO_ROW).get(label, _NO_STATES)


_NO_STATES: frozenset[StateId] = frozenset()


def weak_closure(aut: ModalAutomaton) -> WeakClosure:
    """Precompute the weak relations over the automaton's may-transitions.

    Equal successor sets are stored once, so the rows take no more room
    than one flat ``(state, label)`` map would.
    """
    rows: dict[StateId, dict] = {}
    shared: dict[frozenset[StateId], frozenset[StateId]] = {}
    may_rows = aut._may_rows
    # a state with no silent may takes its own may row, with no search;
    # a state with no may at all has an empty row, which is not stored
    for state, row in may_rows.items():
        if TAU in row:
            seen = {state}
            stack = [state]
            while stack:
                for tgt in may_rows.get(stack.pop(), _NO_ROW).get(TAU, ()):
                    if tgt not in seen:
                        seen.add(tgt)
                        stack.append(tgt)
            row = {}
            for mid in seen:
                for label, ends in may_rows.get(mid, _NO_ROW).items():
                    row.setdefault(label, set()).update(ends)
        rows[state] = weak = {}
        for label, ends in row.items():
            frozen = frozenset(ends)
            weak[label] = shared.setdefault(frozen, frozen)
    return WeakClosure(rows)


# ---------------------------------------------------------------------------
# Plumbing shared by the operator modules


def rename_disjoint(a: ModalAutomaton, b: ModalAutomaton) -> tuple[ModalAutomaton, ModalAutomaton]:
    """Return isomorphic copies with guaranteed-disjoint state sets.

    Already-disjoint automata are returned unchanged; otherwise every state
    of ``a`` gets the ``@L`` tag and every state of ``b`` the ``@R`` tag.
    The tagged copies are views of their operand, built once: each call
    with the same operand returns the same copy, with the views it has
    derived, and an operand keeps its tagged copies alive.
    """
    if not (a.states & b.states):
        return a, b
    return a._as_left, b._as_right


def _tag_states(aut: ModalAutomaton, tag: str) -> ModalAutomaton:
    ren = {s: tagged_id(s, tag) for s in aut.states}
    return ModalAutomaton(
        aut.flavor, aut.name, aut.alphabet, frozenset(ren.values()),
        ren[aut.initial],
        frozenset([(ren[s], l, ren[t]) for s, l, t in aut.may]),
        frozenset([(ren[s], l, frozenset([ren[t] for t in T]))
                   for s, l, T in aut.must]))


def disjoint_operands(p: ModalAutomaton, q: ModalAutomaton,
                      combine) -> tuple[ModalAutomaton, ModalAutomaton, dict]:
    """Disjoint copies whose combined ids also avoid the component states.

    ``combine`` builds the fresh id for a state pair (pair, wedge or vee).
    Returns the two copies and the complete table from every component
    pair to its one combined id.  A collision can only occur when an
    operand already contains operator-shaped names; one tagging round then
    separates everything.  A product that keeps only what it reaches gets
    its table from :func:`product_operands`, which comes here only when a
    collision is possible.
    """
    p, q = rename_disjoint(p, q)
    ids = {(a, b): combine(a, b) for a in p.states for b in q.states}
    if not (p.states | q.states).isdisjoint(ids.values()):
        p, q = p._as_left, q._as_right
        ids = {(a, b): combine(a, b) for a in p.states for b in q.states}
        clash = (p.states | q.states).intersection(ids.values())
        if clash:
            raise StateNameCollisionError(
                f"combined state {min(clash)} is also an operand state")
    return p, q, ids


# Each combined id's text holds its operator's character, and the builder
# of the id from its component pair.
_COMBINERS = {pair_id: (",", _pair_of), wedge_id: ("&", _wedge_of),
              vee_id: ("|", _vee_of)}


def _require_closed(aut: ModalAutomaton) -> None:
    """The initial state and every transition endpoint of ``aut`` are
    among its states, so that a product over its rows meets no state it
    does not know.  Subset tests on the whole edge sets, as
    :func:`_valid_by_sets` makes them."""
    states = aut.states
    if aut.initial not in states:
        raise MialibError(f"the initial state of {aut.name} is not one of its states")
    if not (states.issuperset(map(itemgetter(0), aut.may))
            and states.issuperset(map(itemgetter(2), aut.may))
            and states.issuperset(map(itemgetter(0), aut.must))
            and all(map(states.issuperset, map(itemgetter(2), aut.must)))):
        raise MialibError(f"a transition of {aut.name} leaves its state set")


def product_operands(p: ModalAutomaton, q: ModalAutomaton, combine,
                     reachable: bool) -> tuple[ModalAutomaton, ModalAutomaton, dict]:
    """The operands of a pair product and its pair -> id table.

    Each operand must be closed (:func:`_require_closed`).  With
    ``reachable``, when no state of the disjoint copies has the character
    every ``combine`` id's text holds, no combined id can equal a
    component state: the copies come back with an :class:`IdTable` that
    builds each pair's id on first lookup, so only the pairs the product
    reaches get one.  A conjunction asks for that table for a full product
    too, and completes it when it builds the product.  Otherwise this is
    :func:`disjoint_operands`, and the tagging decision is the same on
    every input.
    """
    _require_closed(p)
    _require_closed(q)
    if reachable:
        left, right = rename_disjoint(p, q)
        mark, build = _COMBINERS[combine]
        if mark not in "".join(left.states) and mark not in "".join(right.states):
            return left, right, IdTable(build)
    return disjoint_operands(p, q, combine)


def explore_pairs(ids: dict, initial: StateId, rule,
                  inherited: tuple = (), reachable: bool = True,
                  known: dict | None = None, walk: tuple | None = None):
    """Build a product over the pair states of ``ids`` by a worklist.

    A state of an ``inherited`` automaton (a component the product keeps
    as it is) leaves by that automaton's own edges; any other state is a
    pair, and ``rule(pair)`` returns the ``(mays, musts)`` leaving it, as
    lists of ``(label, target)`` and ``(label, targets)``.  Every may-target
    is explored in turn.  With ``reachable`` the walk starts from
    ``initial`` and keeps what it reaches, and ``ids`` may be a table that
    the rule fills as it goes.  Otherwise it starts from every pair of
    ``ids``, the complete table, and each inherited automaton joins whole,
    states and edges, without a walk.

    ``known`` maps the pairs whose rule an earlier run over the same table
    has called to what it returned; the walk reads their edges there, so
    no pair's rule runs twice.

    ``walk``, for a walk from ``initial`` that inherits nothing, is one
    begun over the same table and rule and left off: the ``(seen, may,
    must, stack)`` it had, the pairs on ``stack`` seen but not yet
    explored.  The walk goes on from there, filling those sets.

    Returns the explored states and the may and must edges leaving them:
    the whole product.  The states are closed under may targets, and for
    valid operands, whose must targets all have their underlying mays,
    under must targets too, so the products build their automaton from
    the three as they are, without collecting endpoints again.
    """
    if walk is not None:
        seen, may, must, stack = walk
        owner = {}
    else:
        may: set[MayEdge] = set()
        must: set[MustEdge] = set()
        if reachable:
            owner = {s: aut for aut in inherited for s in aut.states}
            stack = [initial]
            seen = {initial}
        else:
            owner = {}
            stack = list(ids.values())
            seen = set(stack)
            for aut in inherited:
                seen |= aut.states
                may |= aut.may
                must |= aut.must
    if known:
        # a state's edges come from ``rule``, or from its ``owner``: the
        # automaton it is inherited from, or ``known``
        owner.update(dict.fromkeys(known, known))
    add_may, add_must, add_seen = may.add, must.add, seen.add
    push = stack.append
    while stack:
        state = stack.pop()
        source = owner.get(state)
        if source is None:
            mays, musts = rule(state)
        elif source is known:
            mays, musts = known[state]
        else:
            mays, musts = source.may_from(state), source.musts_from(state)
        for label, tgt in mays:
            add_may((state, label, tgt))
            if tgt not in seen:
                add_seen(tgt)
                push(tgt)
        for label, targets in musts:
            add_must((state, label, targets))
    return seen, may, must


def as_dmts(aut: ModalAutomaton) -> ModalAutomaton:
    """View an IA or MIA as a dMTS by flattening the input/output split."""
    return replace(aut, flavor=DMTS,
                   alphabet=Alphabet(frozenset(), aut.alphabet.actions))


def reachable_states(aut: ModalAutomaton, start: StateId | None = None) -> frozenset[StateId]:
    """States reachable from ``start`` via may-steps (must targets included)."""
    start = aut.initial if start is None else start
    # a plain empty dict is read faster than the shared read-only row
    may_rows, must_rows, no_row = aut._may_rows, aut._must_rows, {}
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for ends in may_rows.get(cur, no_row).values():
            for tgt in ends:
                if tgt not in seen:
                    seen.add(tgt)
                    stack.append(tgt)
        for sets in must_rows.get(cur, no_row).values():
            for targets in sets:
                for tgt in targets:
                    if tgt not in seen:
                        seen.add(tgt)
                        stack.append(tgt)
    return frozenset(seen)


def remove_states(aut: ModalAutomaton, dead: Iterable[StateId]) -> ModalAutomaton:
    """Delete states: drop transitions touching them and shrink must targets.

    A must whose target set empties out must have its source among the
    deleted states as well; otherwise :class:`EmptiedMustError` is raised
    rather than the must repaired.  When none of ``dead`` is a state of
    ``aut``, ``aut`` itself is returned.

    Every edge that touches no deleted state is kept as the same object,
    and a must is rebuilt only when a target died.  When ``aut`` holds its
    sorted musts already, as the inconsistency fixpoint leaves them, the
    result gets its own from them: only a (source, label) run in which a
    target set shrank is sorted again, its musts that became equal merged
    into one, as the must set merges them.
    """
    dead = frozenset(dead)
    if dead.isdisjoint(aut.states):
        return aut
    keep = aut.states - dead
    may = frozenset([edge for edge in aut.may
                     if edge[0] in keep and edge[2] in keep])
    in_order = aut.__dict__.get("sorted_must")
    kept = []
    shrunk = []  # where each must that lost a target stands in ``kept``
    for edge in in_order or aut.must:
        src, label, targets = edge
        if src not in keep:
            continue
        if not targets.isdisjoint(dead):
            targets = targets - dead
            if not targets:
                raise EmptiedMustError(
                    f"pruning emptied must {src} -{label}-> at a surviving state")
            edge = (src, label, targets)
            if edge in aut.must:
                continue  # a must kept as it is already
            shrunk.append(len(kept))
        kept.append(edge)
    pruned = replace(aut, states=keep, may=may, must=frozenset(kept))
    if in_order is not None:
        # sort each run holding a shrunk must again, from the last run on
        end = len(kept)
        for at in reversed(shrunk):
            if at < end:
                run = kept[at][:2]
                lo = hi = at
                while lo and kept[lo - 1][:2] == run:
                    lo -= 1
                while hi + 1 < end and kept[hi + 1][:2] == run:
                    hi += 1
                kept[lo:hi + 1] = sorted({*kept[lo:hi + 1]}, key=_must_key)
                end = lo
        pruned.__dict__["sorted_must"] = tuple(kept)
    return pruned


def restrict_reachable(aut: ModalAutomaton) -> ModalAutomaton:
    """Drop states unreachable from the initial state."""
    return remove_states(aut, aut.states - reachable_states(aut))


def require_operands(a: ModalAutomaton, b: ModalAutomaton, flavor: str) -> None:
    """Both operands have ``flavor`` and they share their alphabets."""
    require_flavor(a, flavor)
    require_flavor(b, flavor)
    require_same_alphabets(a, b)


def require_same_alphabets(a: ModalAutomaton, b: ModalAutomaton) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"{a.name} and {b.name} have different alphabets")


def require_flavor(aut: ModalAutomaton, flavor: str) -> None:
    if aut.flavor != flavor:
        raise FlavorMismatchError(f"{aut.name} is {aut.flavor}, expected {flavor}")
