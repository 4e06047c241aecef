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

One compiled regular expression splits the text into tokens: identifiers
(runs of Unicode letters, digits and ``_``; keywords are identifiers),
the punctuation ``{ } ( ) , ; : @ & | -`` and ``->``, line ends, blanks
(space, tab, carriage return) and ``#`` comments, which run to the end of
the line.  Any other character is a :class:`ParseError`.  Lines and
columns count from 1, one column per character.

State names produced by the operators (pairs ``(p,q)``, conjunctions
``p&q``, disjunctions ``p|q``, tags ``p@L``) parse back structurally, so
serialized results are themselves valid input.  Only states that occur in
the initial declaration or some transition are representable; isolated
states are omitted when serializing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, NoReturn

from .model import (DMTS, FLAVORS, IA, TAU, ModalAutomaton, StateId,
                    Violation, atom, make_automaton, pair_id, tagged_id,
                    validate, vee_id, wedge_id)
from .model import MialibError


class ParseError(MialibError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Lexer

# One alternative per token class, tried in order.  ``\w`` is Unicode-aware
# and matches exactly the characters for which ``isalnum()`` holds, and ``_``.
_TOKEN = re.compile(r"(?P<ident>\w+)|(?P<punct>->|[-{}(),;:@&|])|(?P<newline>\n)"
                    r"|[ \t\r]+|(?P<comment>#.*)|(?P<bad>.)")


class _Tok(NamedTuple):
    kind: str  # ident | punct | eof
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, origin = 1, 0  # origin: the offset that column 1 stands for
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ident" or kind == "punct":
            toks.append(_Tok(kind, m.group(), line, m.start() - origin + 1))
        elif kind == "newline":
            line, origin = line + 1, m.end()
        elif kind == "comment":
            # a comment advances no column: at the end of input the column
            # is where the comment started
            origin += m.end() - m.start()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line,
                             m.start() - origin + 1)
    toks.append(_Tok("eof", "", line, len(text) - origin + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser

# State names are parsed by recursive descent, two frames per parenthesis;
# deeper input is refused before it can exhaust the interpreter's stack.
MAX_NESTING = 200


@dataclass
class SourceDocument:
    """A parsed file: its text, the automaton and per-declaration positions."""

    text: str
    automaton: ModalAutomaton
    spans: dict = field(default_factory=dict)


class _Parser:
    """Recursive descent over the token list.

    An identifier never equals a punctuation value, and the end of input is
    the only empty token, so tokens are tested by their value alone.
    """

    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.depth = 0
        self.ids: dict[tuple, StateId] = {}

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, *values: str) -> bool:
        return self.toks[self.pos].value in values

    def fail(self, message: str, tok: _Tok | None = None) -> NoReturn:
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, value: str, message: str = "") -> _Tok:
        tok = self.next()
        if tok.value != value:
            self.fail(message or f"expected {value!r}, found {tok.value!r}", tok)
        return tok

    def expect_ident(self, what: str = "identifier") -> _Tok:
        tok = self.next()
        if tok.kind != "ident":
            self.fail(f"expected {what}, found {tok.value!r}", tok)
        return tok

    # -- structured state ids ---------------------------------------------

    def make_id(self, build, *parts) -> StateId:
        """The document's one id for a state name, built on first mention."""
        key = (build, *parts)
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = build(*parts)
        return sid

    def state_id(self) -> StateId:
        left = self.postfix()
        while self.at("&", "|"):
            op = self.next().value
            right = self.postfix()
            left = self.make_id(wedge_id if op == "&" else vee_id, left, right)
        return left

    def postfix(self) -> StateId:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            sid = self.make_id(atom, tok.value)
        elif tok.value == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"state name nested deeper than {MAX_NESTING} "
                          "parentheses", tok)
            self.next()
            self.depth += 1
            first = self.state_id()
            sep = self.next()
            if sep.value == ",":
                second = self.state_id()
                self.expect(")")
                sid = self.make_id(pair_id, first, second)
            elif sep.value == ")":
                sid = first
            else:
                self.fail("expected ',' or ')' in state name", sep)
            self.depth -= 1
        else:
            self.fail(f"expected state name, found {tok.value!r}", tok)
        while self.at("@"):
            self.next()
            tag = self.expect_ident("tag")
            sid = self.make_id(tagged_id, sid, tag.value)
        return sid

    # -- document -----------------------------------------------------------

    def document(self) -> tuple[ModalAutomaton, dict]:
        spans: dict = {}
        head = self.expect_ident("flavor (ia, dmts or mia)")
        if head.value not in FLAVORS:
            self.fail(f"unknown flavor {head.value!r}", head)
        flavor = head.value
        name = self.expect_ident("automaton name")
        spans[("header",)] = (head.line, head.col)
        self.expect("{")

        inputs: set[str] = set()
        outputs: set[str] = set()
        while self.at("inputs", "outputs", "actions"):
            kind_tok = self.next()
            kind = kind_tok.value
            if kind == "actions" and flavor != DMTS:
                self.fail("'actions' is only valid in dmts files", kind_tok)
            if kind in ("inputs", "outputs") and flavor == DMTS:
                self.fail(f"'{kind}' is not valid in dmts files; use 'actions'", kind_tok)
            self.expect(":")
            spans[("alphabet", kind)] = (kind_tok.line, kind_tok.col)
            while self.peek().kind == "ident":
                action = self.next()
                if action.value == TAU:
                    self.fail("'tau' cannot be declared as an action", action)
                (inputs if kind == "inputs" else outputs).add(action.value)
                if not self.at(","):
                    break
                self.next()
            self.expect(";")

        init_tok = self.expect("initial", "expected 'initial'")
        initial = self.state_id()
        spans[("initial",)] = (init_tok.line, init_tok.col)
        self.expect(";")

        may: set = set()
        must: set = set()
        while not self.at("}"):
            self.transition(flavor, inputs, may, must, spans)
        self.expect("}")
        if not self.at(""):
            self.fail("trailing input after closing '}'")

        automaton = make_automaton(flavor, name.value, inputs, outputs,
                                   initial, may, must)
        return automaton, spans

    def transition(self, flavor: str, inputs: set[str], may: set, must: set,
                   spans: dict) -> None:
        tok = self.peek()
        modality = ""
        if self.at("may", "must"):
            modality = self.next().value
        elif flavor != IA:
            # a bare transition only makes sense where modality is implied
            if tok.kind != "ident" and tok.value != "(":
                self.fail(f"expected transition, found {tok.value!r}", tok)
            self.fail("transitions in dmts/mia files need 'may' or 'must'", tok)
        src = self.state_id()
        self.expect("-", "expected '-label->'")
        label_tok = self.expect_ident("action label")
        label = label_tok.value
        self.expect("->", "expected '->'")

        targets: list[StateId] = []
        if self.at("{"):
            if flavor == IA:
                self.fail("set targets are not allowed in ia files")
            self.next()
            targets.append(self.state_id())
            while self.at(","):
                self.next()
                targets.append(self.state_id())
            self.expect("}")
        else:
            targets.append(self.state_id())
        self.expect(";")

        # a bare transition (IA files only) is a must exactly on an input
        if not modality:
            modality = "must" if label in inputs else "may"
        pos = (tok.line, tok.col)
        if modality == "must":
            if label == TAU:
                self.fail("silent must-transitions are not allowed", label_tok)
            tset = frozenset(targets)
            must.add((src, label, tset))
            spans[("must", src, label, tset)] = pos
            if label in inputs:
                for t in targets:
                    may.add((src, label, t))
        else:
            if len(targets) > 1:
                self.fail("may-transitions take a single target state", tok)
            may.add((src, label, targets[0]))
            spans[("may", src, label, targets[0])] = pos


def parse_document(text: str) -> SourceDocument:
    automaton, spans = _Parser(text).document()
    return SourceDocument(text=text, automaton=automaton, spans=spans)


def parse(text: str) -> ModalAutomaton:
    """Parse one automaton; raises :class:`ParseError` with a position."""
    return parse_document(text).automaton


def parse_file(path) -> ModalAutomaton:
    return parse(Path(path).read_text(encoding="utf-8"))


def validate_document(doc: SourceDocument) -> list[tuple[Violation, tuple[int, int] | None]]:
    """Validate and attach source positions where a declaration is known."""
    out = []
    for violation in validate(doc.automaton):
        out.append((violation, doc.spans.get(violation.subject)))
    return out


# ---------------------------------------------------------------------------
# Serializer


def _fmt_alphabet(label: str, actions) -> str:
    return f"  {label}: {', '.join(sorted(actions))};"


def _fmt_target(targets: frozenset[StateId]) -> str:
    if len(targets) == 1:
        return next(iter(targets)).text
    return "{" + ", ".join(sorted(targets)) + "}"


def serialize(aut: ModalAutomaton) -> str:
    """Render in canonical order; reparsing yields the same automaton.

    Canonical order is lexicographic over the rendered transition lines.
    MIA input-mays underlying a must are implied and not written.  States
    that appear in no transition and are not initial cannot be expressed in
    the format and are dropped.
    """
    lines = [f"{aut.flavor} {aut.name} {{"]
    if aut.flavor == DMTS:
        lines.append(_fmt_alphabet("actions", aut.alphabet.outputs))
    else:
        lines.append(_fmt_alphabet("inputs", aut.alphabet.inputs))
        lines.append(_fmt_alphabet("outputs", aut.alphabet.outputs))
    lines.append(f"  initial {aut.initial.text};")

    if aut.flavor == IA:
        for src, label, tgt in aut.sorted_may:
            lines.append(f"  {src.text} -{label}-> {tgt.text};")
    else:
        covered = set()
        for src, label, targets in aut.sorted_must:
            lines.append(f"  must {src.text} -{label}-> {_fmt_target(targets)};")
            if label in aut.alphabet.inputs:
                covered.update((src, label, t) for t in targets)
        for src, label, tgt in aut.sorted_may:
            if (src, label, tgt) not in covered:
                lines.append(f"  may {src.text} -{label}-> {tgt.text};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _edge_label(aut: ModalAutomaton, label: str) -> str:
    if label == TAU:
        return TAU
    if aut.alphabet.is_input(label):
        return f"{label}?"
    return f"{label}!"


def export_dot(aut: ModalAutomaton) -> str:
    """Graphviz rendering: solid musts, dashed may-only transitions.

    Disjunctive musts are routed through a point-shaped junction node and
    the initial state gets a double border.  Junction nodes are named
    ``__junction_<n>``, with more leading ``_`` while some state's name
    starts with that prefix, so that no junction takes a state's name.
    """
    prefix = "__junction_"
    while any(state.startswith(prefix) for state in aut.states):
        prefix = "_" + prefix
    out = [f"digraph {_q(aut.name)} {{", "  rankdir=LR;",
           "  node [shape=ellipse];"]
    for state in aut.sorted_states:
        extra = " peripheries=2" if state == aut.initial else ""
        out.append(f"  {_q(state.text)} [label={_q(state.text)}{extra}];")
    covered = set()
    junction = 0
    for src, label, targets in aut.sorted_must:
        covered.update((src, label, t) for t in targets)
        text = _edge_label(aut, label)
        if len(targets) == 1:
            tgt = next(iter(targets))
            out.append(f"  {_q(src.text)} -> {_q(tgt.text)} [label={_q(text)}];")
        else:
            j = f"{prefix}{junction}"
            junction += 1
            out.append(f"  {_q(j)} [shape=point label=\"\"];")
            out.append(f"  {_q(src.text)} -> {_q(j)} [label={_q(text)} arrowhead=none];")
            for tgt in sorted(targets):
                out.append(f"  {_q(j)} -> {_q(tgt.text)};")
    for src, label, tgt in aut.sorted_may:
        if (src, label, tgt) in covered:
            continue
        text = _edge_label(aut, label)
        out.append(f"  {_q(src.text)} -> {_q(tgt.text)} [label={_q(text)} style=dashed];")
    out.append("}")
    return "\n".join(out) + "\n"
