"""Textual automaton format, parser, canonical serializer and DOT export.

The format names one automaton per file::

    mia Spec {
      inputs: req;
      outputs: ack;
      initial s0;
      must s0 -req-> {s1, s2};
      may s1 -ack-> s0;
    }

dMTS files declare ``actions:`` instead of the input/output split, and IA
files write plain transitions (``s0 -req-> s1;``) whose modality follows
from the action kind.  In IA and MIA files an input must-declaration
implies its underlying may-transitions.

One compiled regular expression splits the text into a flat list of token
values: identifiers (runs of Unicode letters, digits and ``_``; keywords
are identifiers), the punctuation ``{ } ( ) , ; : @ & | -`` and ``->``,
and ``#`` comments, which run to the end of the line and are dropped.
Between tokens only blanks (space, tab, carriage return) and line ends may
stand; any other character is a :class:`ParseError`.  A token keeps just
its start offset.  Lines and columns, counted from 1 with one column per
character, are computed from an offset only where one is read: for the
declaration spans of a :class:`SourceDocument`, counting on from the
previous declaration, and for a :class:`ParseError`.

A document in the exact layout :func:`serialize` writes, with atom names
only, is read without lexing: one compiled pattern for the header and one
for each transition line.  It gives the same automaton, spans and ids as
the token parser.  Its state set is the names it has read, and the spans of
its transition lines are computed on first access, which
:func:`validate_document` makes only when there is a violation to place.
Anything that does not match exactly, or that the token parser would read
differently or reject, is read by the token parser instead, so every
:class:`ParseError` comes from one place.

State names produced by the operators (pairs ``(p,q)``, conjunctions
``p&q``, disjunctions ``p|q``, tags ``p@L``) parse back structurally, so
serialized results are themselves valid input.  Only states that occur in
the initial declaration or some transition are representable; isolated
states are omitted when serializing.  A state name nests at most
``MAX_NESTING`` parentheses and holds at most ``MAX_COMPOSITES`` operators
(``&``, ``|``, ``@`` and ``,``), 200 each; past either it is refused.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, filterfalse
from pathlib import Path
from typing import NoReturn

from .model import (DMTS, FLAVORS, IA, TAU, Alphabet, IdTable, ModalAutomaton,
                    StateId, Violation, _sorted_edges, atom, make_automaton,
                    validate)
from .model import MialibError


class ParseError(MialibError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Lexer

# Tokens and comments; ``\w`` is Unicode-aware and matches exactly the
# characters for which ``isalnum()`` holds, and ``_``.  Splitting on this
# pattern leaves the text between tokens, which may hold only blanks and
# line ends.
_TOKEN = re.compile(r"(\w+|->|[-{}(),;:@&|]|#.*)")
_NOT_BLANK = re.compile(r"[^ \t\r\n]")

# Every token that is not an identifier; the empty one ends the input.
_NOT_IDENT = frozenset(["", "->", "-", "{", "}", "(", ")", ",", ";", ":",
                        "@", "&", "|"])
# Tokens that continue a state name after an identifier.
_NAME_OPS = frozenset(["&", "|", "@"])


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column of an offset, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The token values and their start offsets, ending with the empty token.

    A comment advances no column: when the input ends in one, the end of
    input is placed where the comment starts.
    """
    parts = _TOKEN.split(text)
    toks = parts[1::2]
    toks.append("")
    # running lengths: every second one is where a token (or the end) starts
    offs = list(accumulate(map(len, parts)))[::2]
    if _NOT_BLANK.search("".join(parts[::2])):
        for gap, end in zip(parts[::2], offs):
            bad = _NOT_BLANK.search(gap)
            if bad:
                raise ParseError(f"unexpected character {bad.group()!r}",
                                 *_position(text, end - len(gap) + bad.start()))
    if "#" in text:
        if toks[-2][0] == "#" and not parts[-1]:
            offs[-1] = offs[-2]
        keep = [not tok.startswith("#") for tok in toks]
        toks, offs = list(compress(toks, keep)), list(compress(offs, keep))
    return toks, offs


# ---------------------------------------------------------------------------
# Parser

# State names are parsed by recursive descent, two frames per parenthesis;
# deeper input is refused before it can exhaust the interpreter's stack.
MAX_NESTING = 200
# Each operator of a state name builds an id holding its part of the text,
# so a name's ids hold up to as many times its text as it has operators.
MAX_COMPOSITES = 200


class SourceDocument:
    """A parsed file: the automaton, and the line and column where each
    declaration starts, keyed as a ``Violation.subject`` names it.

    The plain reader hands its transitions over unplaced: ``edges`` holds
    the edge of each transition line, in order from line ``first_line``.
    They enter ``spans`` when it is first read, each at column 3 of its
    line, so a declaration repeated on a later line is placed there, as
    the token parser places it.
    """

    __slots__ = ("automaton", "_spans", "_edges", "_first_line")

    def __init__(self, automaton: ModalAutomaton, spans: dict,
                 edges: list | tuple = (), first_line: int = 0):
        self.automaton = automaton
        self._spans, self._edges, self._first_line = spans, edges, first_line

    @property
    def spans(self) -> dict:
        if self._edges:
            spans = self._spans
            # a must's targets are a frozenset, a may's target a StateId
            for line, edge in enumerate(self._edges, self._first_line):
                spans["must" if type(edge[2]) is frozenset else "may", *edge] = (line, 3)
            self._edges = ()
        return self._spans


class _Parser:
    """Recursive descent over the token values, read by index.

    An identifier never equals a punctuation value, and the end of input is
    the only empty token, so tokens are tested by their value alone.  Token
    positions are offsets; a line and column is worked out only for a
    declaration's span, counting on from the previous span, and for an
    error.  The document's one id per name is kept in two tables: atoms
    keyed by their name, composite names by their kind and parts.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks, self.offs = _lex(text)
        self.pos = 0
        self.depth = 0
        self.built = 0  # composite ids of the state name being read
        self.atoms = IdTable(atom)
        self.composites = IdTable(lambda key: StateId(*key))
        # the span cursor: the offset counted up to, its line and line start
        self.counted, self.line, self.line_start = 0, 1, 0

    def span(self, i: int) -> tuple[int, int]:
        """Line and column of token ``i``; spans are taken in text order."""
        offset, text = self.offs[i], self.text
        newlines = text.count("\n", self.counted, offset)
        if newlines:
            self.line += newlines
            self.line_start = text.rfind("\n", self.counted, offset) + 1
        self.counted = offset
        return self.line, offset - self.line_start + 1

    def fail(self, message: str, i: int | None = None) -> NoReturn:
        offset = self.offs[self.pos if i is None else i]
        raise ParseError(message, *_position(self.text, offset))

    def expect(self, value: str, message: str = "") -> int:
        i = self.pos
        if self.toks[i] != value:
            self.fail(message or f"expected {value!r}, found {self.toks[i]!r}", i)
        self.pos = i + 1
        return i

    def operator(self, i: int) -> None:
        """Count the id the operator at token ``i`` will build."""
        self.built += 1
        if self.built > MAX_COMPOSITES:
            self.fail(f"state name built with more than {MAX_COMPOSITES} operators", i)

    def expect_ident(self, what: str = "identifier") -> int:
        i = self.pos
        if self.toks[i] in _NOT_IDENT:
            self.fail(f"expected {what}, found {self.toks[i]!r}", i)
        self.pos = i + 1
        return i

    # -- structured state ids ---------------------------------------------

    def state_id(self) -> StateId:
        toks, i = self.toks, self.pos
        name = toks[i]
        if name not in _NOT_IDENT and toks[i + 1] not in _NAME_OPS:
            self.pos = i + 1  # a bare identifier, the common case
            return self.atoms[name]
        if not self.depth:
            self.built = 0  # a new name
        left = self.postfix()
        while toks[self.pos] == "&" or toks[self.pos] == "|":
            kind = StateId.WEDGE if toks[self.pos] == "&" else StateId.VEE
            self.operator(self.pos)
            self.pos += 1
            left = self.composites[kind, (left, self.postfix())]
        return left

    def postfix(self) -> StateId:
        toks, i = self.toks, self.pos
        value = toks[i]
        if value not in _NOT_IDENT:
            self.pos = i + 1
            sid = self.atoms[value]
        elif value == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"state name nested deeper than {MAX_NESTING} "
                          "parentheses", i)
            self.pos = i + 1
            self.depth += 1
            first = self.state_id()
            sep = self.pos
            self.pos = sep + 1
            if toks[sep] == ",":
                self.operator(sep)
                second = self.state_id()
                self.expect(")")
                sid = self.composites[StateId.PAIR, (first, second)]
            elif toks[sep] == ")":
                sid = first
            else:
                self.fail("expected ',' or ')' in state name", sep)
            self.depth -= 1
        else:
            self.fail(f"expected state name, found {value!r}", i)
        while toks[self.pos] == "@":
            self.operator(self.pos)
            self.pos += 1
            tag = self.expect_ident("tag")
            sid = self.composites[StateId.TAG, (sid, toks[tag])]
        return sid

    # -- document -----------------------------------------------------------

    def document(self) -> tuple[ModalAutomaton, dict]:
        toks = self.toks
        spans: dict = {}
        head = self.expect_ident("flavor (ia, dmts or mia)")
        flavor = toks[head]
        if flavor not in FLAVORS:
            self.fail(f"unknown flavor {flavor!r}", head)
        name = toks[self.expect_ident("automaton name")]
        spans[("header",)] = self.span(head)
        self.expect("{")

        inputs: set[str] = set()
        outputs: set[str] = set()
        while toks[self.pos] in ("inputs", "outputs", "actions"):
            kind_at = self.pos
            kind = toks[kind_at]
            if kind == "actions" and flavor != DMTS:
                self.fail("'actions' is only valid in dmts files", kind_at)
            if kind in ("inputs", "outputs") and flavor == DMTS:
                self.fail(f"'{kind}' is not valid in dmts files; use 'actions'", kind_at)
            self.pos += 1
            self.expect(":")
            spans[("alphabet", kind)] = self.span(kind_at)
            while toks[self.pos] not in _NOT_IDENT:
                action = toks[self.pos]
                if action == TAU:
                    self.fail("'tau' cannot be declared as an action")
                (inputs if kind == "inputs" else outputs).add(action)
                self.pos += 1
                if toks[self.pos] != ",":
                    break
                self.pos += 1
            self.expect(";")

        init_at = self.expect("initial", "expected 'initial'")
        initial = self.state_id()
        spans[("initial",)] = self.span(init_at)
        self.expect(";")

        may: set = set()
        must: set = set()
        while toks[self.pos] != "}":
            self.transition(flavor, inputs, may, must, spans)
        self.pos += 1
        if toks[self.pos]:
            self.fail("trailing input after closing '}'")

        automaton = make_automaton(flavor, name, inputs, outputs,
                                   initial, may, must)
        return automaton, spans

    def transition(self, flavor: str, inputs: set[str], may: set, must: set,
                   spans: dict) -> None:
        toks = self.toks
        start = self.pos
        modality = toks[start]
        if modality == "may" or modality == "must":
            self.pos = start + 1
        elif flavor != IA:
            # a bare transition only makes sense where modality is implied
            if modality in _NOT_IDENT and modality != "(":
                self.fail(f"expected transition, found {modality!r}", start)
            self.fail("transitions in dmts/mia files need 'may' or 'must'", start)
        else:
            modality = ""
        src = self.state_id()
        i = self.pos
        if toks[i] != "-":
            self.fail("expected '-label->'", i)
        label = toks[i + 1]
        if label in _NOT_IDENT:
            self.fail(f"expected action label, found {label!r}", i + 1)
        if toks[i + 2] != "->":
            self.fail("expected '->'", i + 2)
        self.pos = i + 3

        if toks[i + 3] == "{":
            if flavor == IA:
                self.fail("set targets are not allowed in ia files")
            self.pos = i + 4
            targets = [self.state_id()]
            while toks[self.pos] == ",":
                self.pos += 1
                targets.append(self.state_id())
            self.expect("}")
        else:
            targets = [self.state_id()]
        self.expect(";")

        # a bare transition (IA files only) is a must exactly on an input
        if not modality:
            modality = "must" if label in inputs else "may"
        if modality == "must":
            if label == TAU:
                self.fail("silent must-transitions are not allowed", i + 1)
            tset = frozenset(targets)
            must.add((src, label, tset))
            spans[("must", src, label, tset)] = self.span(start)
            if label in inputs:
                for t in targets:
                    may.add((src, label, t))
        else:
            if len(targets) > 1:
                self.fail("may-transitions take a single target state", start)
            may.add((src, label, targets[0]))
            spans[("may", src, label, targets[0])] = self.span(start)


# ---------------------------------------------------------------------------
# Documents in the serializer's layout

_ACTIONS = r"((?:\w+(?:, \w+)*)?);\n"
_PLAIN_HEAD = re.compile(
    r"(?:(dmts) (\w+) \{\n  actions: " + _ACTIONS + r"|(ia|mia) (\w+) \{\n"
    r"  inputs: " + _ACTIONS + r"  outputs: " + _ACTIONS + r")  initial (\w+);\n")
# A whole line: modality (none on a bare IA line), source, label, and one
# target or a set of them.
_PLAIN_LINE = re.compile(r"^  (?:(may|must) )?(\w+) -(\w+)-> "
                         r"(?:(\w+)|\{(\w+(?:, \w+)*)\});\n", re.M)


def _plain_document(text: str) -> SourceDocument | None:
    """The document, if it is in the layout :func:`serialize` writes, with
    atom names only, and the token parser would read it the same way.

    Anything else returns None, and the token parser reads the document.
    """
    head = _PLAIN_HEAD.match(text)
    if head is None or not text.endswith("\n}\n"):
        return None
    start, end = head.end(), len(text) - 2
    rows = _PLAIN_LINE.findall(text, start, end)
    # each row is one whole line, so the rows cover the body when they
    # are as many as its lines
    if len(rows) != text.count("\n", start, end):
        return None
    dmts_name, actions, flavor, name, ins, outs, init = head.groups()[1:]
    spans: dict = {("header",): (1, 1)}
    if flavor is None:
        flavor, name, inputs, outputs = DMTS, dmts_name, set(), {*actions.split(", ")}
        spans[("alphabet", "actions")] = (2, 3)
    else:
        inputs, outputs = {*ins.split(", ")}, {*outs.split(", ")}
        spans[("alphabet", "inputs")], spans[("alphabet", "outputs")] = (2, 3), (3, 3)
    # an empty alphabet line splits into the one name ""
    inputs.discard("")
    outputs.discard("")
    if TAU in inputs or TAU in outputs:
        return None
    # the header lines so far hold one span each
    spans[("initial",)] = (len(spans) + 1, 3)
    ids = IdTable(atom)
    initial = ids[init]
    may: set = set()
    must: set = set()
    edges: list = []
    for modality, src, label, tgt, tset in rows:
        src = ids[src]
        if not modality:
            if flavor != IA:
                return None
            modality = "must" if label in inputs else "may"
        if modality == "may":
            if tset:
                return None
            edge = (src, label, ids[tgt])
            may.add(edge)
        elif label == TAU or tset and flavor == IA:
            return None
        else:
            targets = frozenset([ids[t] for t in tset.split(", ")] if tset else [ids[tgt]])
            edge = (src, label, targets)
            must.add(edge)
            if label in inputs:
                may.update([(src, label, t) for t in targets])
        edges.append(edge)
    # a name that is a modality keyword can read as one
    if "may" in ids or "must" in ids:
        return None
    # every name the initial line or a row mentions is a state, and only those
    automaton = ModalAutomaton(flavor=flavor, name=name, alphabet=Alphabet(inputs, outputs),
                               states=frozenset(ids.values()), initial=initial,
                               may=may, must=must)
    return SourceDocument(automaton, spans, edges, len(spans) + 1)


def parse_document(text: str) -> SourceDocument:
    doc = _plain_document(text)
    if doc is None:
        automaton, spans = _Parser(text).document()
        doc = SourceDocument(automaton, spans)
    return doc


def parse(text: str) -> ModalAutomaton:
    """Parse one automaton; raises :class:`ParseError` with a position."""
    return parse_document(text).automaton


def parse_file(path) -> ModalAutomaton:
    return parse(Path(path).read_text(encoding="utf-8"))


def validate_document(doc: SourceDocument) -> list[tuple[Violation, tuple[int, int] | None]]:
    """Validate, and place each violation at its subject's declaration.

    A may that only input musts imply is placed at the earliest of them;
    any other violation without a declared subject gets None."""
    aut = doc.automaton
    problems = validate(aut)
    if not problems:
        return []
    spans = doc.spans
    return [(v, spans.get(v.subject) or _implied_position(aut, spans, v.subject))
            for v in problems]


def _implied_position(aut: ModalAutomaton, spans: dict, subject: tuple | None):
    """The earliest position of an input must that implies the may ``subject``."""
    if not subject or subject[0] != "may" or subject[2] not in aut.alphabet.inputs:
        return None
    _, src, label, tgt = subject
    musts = (("must", src, label, T) for T in aut.must_sets(src, label)
             if tgt in T)
    return min(filter(None, map(spans.get, musts)), default=None)


# ---------------------------------------------------------------------------
# Serializer


# A state name whose first token is ``may`` or ``must``.
_KEYWORD_LED = re.compile(r"(?:may|must)(?!\w)")
# The keyword such a line implies, by whether its action is an input.
_KEYWORD = ("may ", "must ")


def _fmt_alphabet(label: str, actions) -> str:
    return f"  {label}: {', '.join(sorted(actions))};"


def serialize(aut: ModalAutomaton) -> str:
    """Render in canonical order; reparsing yields the same automaton.

    An IA has one line per may, in (source, action, target) order.  A dMTS
    or MIA lists its musts in (source, action, sorted targets) order, so
    ``must a -x-> {a1, c};`` comes before ``must a -x-> b;``, and then its
    mays in (source, action, target) order, leaving out the MIA input-mays
    a must implies: those are left out before the mays are sorted, so only
    printed lines are sorted.  IA lines are bare, except where the
    source's name starts with ``may`` or ``must``: they carry the modality
    keyword (``must`` on an input).  States that appear in no transition
    and are not initial cannot be expressed in the format and are dropped.
    """
    lines = [f"{aut.flavor} {aut.name} {{"]
    if aut.flavor == DMTS:
        lines.append(_fmt_alphabet("actions", aut.alphabet.outputs))
    else:
        lines.append(_fmt_alphabet("inputs", aut.alphabet.inputs))
        lines.append(_fmt_alphabet("outputs", aut.alphabet.outputs))
    lines.append(f"  initial {aut.initial.text};")

    inputs = aut.alphabet.inputs
    if aut.flavor == IA:
        # a bare line whose source name starts with a modality keyword would
        # be read as carrying it, so such lines get the keyword they imply
        led = set(filter(_KEYWORD_LED.match, aut.states))
        lines += [f"  {_KEYWORD[label in inputs] if src in led else ''}"
                  f"{src.text} -{label}-> {tgt.text};"
                  for src, label, tgt in aut.sorted_may]
    else:
        add = lines.append
        for src, label, targets in aut.sorted_must:
            if len(targets) == 1:
                [tgt] = targets
                add(f"  must {src.text} -{label}-> {tgt.text};")
            else:
                add(f"  must {src.text} -{label}-> {{{', '.join(sorted(targets))}}};")
        covered = {(src, label, t) for src, label, targets in aut.must
                   if label in inputs for t in targets}
        mays = filterfalse(covered.__contains__, aut.may) if covered else aut.may
        lines += [f"  may {src.text} -{label}-> {tgt.text};"
                  for src, label, tgt in _sorted_edges(mays)]
    lines.append("}\n")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# DOT export


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_label(aut: ModalAutomaton, label: str) -> str:
    if label == TAU:
        return TAU
    if label in aut.alphabet.inputs:
        return f"{label}?"
    return f"{label}!"


def export_dot(aut: ModalAutomaton) -> str:
    """Graphviz rendering: solid musts, dashed may-only transitions.

    Disjunctive musts are routed through a point-shaped junction node and
    the initial state gets a double border.  Junction nodes are named
    ``__junction_<n>``, with more leading ``_`` while some state's name
    starts with that prefix, so that no junction takes a state's name.
    Each state's name and each action's label text are quoted once.
    """
    prefix = "__junction_"
    while any(state.startswith(prefix) for state in aut.states):
        prefix = "_" + prefix
    # each state's name and each action's label quoted once, on first use
    quoted = IdTable(lambda state: _q(state.text))
    labels = IdTable(lambda label: _q(_edge_label(aut, label)))
    out = [f"digraph {_q(aut.name)} {{", "  rankdir=LR;",
           "  node [shape=ellipse];"]
    for state in aut.sorted_states:
        extra = " peripheries=2" if state == aut.initial else ""
        out.append(f"  {quoted[state]} [label={quoted[state]}{extra}];")
    covered = set()
    junction = 0
    for src, label, targets in aut.sorted_must:
        covered.update([(src, label, t) for t in targets])
        if len(targets) == 1:
            [tgt] = targets
            out.append(f"  {quoted[src]} -> {quoted[tgt]} [label={labels[label]}];")
        else:
            j = _q(f"{prefix}{junction}")
            junction += 1
            out.append(f"  {j} [shape=point label=\"\"];")
            out.append(f"  {quoted[src]} -> {j} [label={labels[label]} arrowhead=none];")
            for tgt in sorted(targets):
                out.append(f"  {j} -> {quoted[tgt]};")
    out += [f"  {quoted[src]} -> {quoted[tgt]} [label={labels[label]} style=dashed];"
            for src, label, tgt in _sorted_edges(filterfalse(covered.__contains__, aut.may))]
    out.append("}\n")
    return "\n".join(out)
