"""The regular-expression tokenizer against the character-loop frontend.

``_ref_lex`` and ``_RefParser`` are a frozen copy of the lexer and parser
that ``mialib.frontend`` had before its tokens came from one compiled
regular expression.  Every input below must give the same outcome from
both: for a document that parses, the same flavor, name, alphabet,
initial state, states, may and must sets and declaration spans; for one
that does not, the same exception type, message, line and column.

The inputs are seeded and fixed: the corpus and the golden files, mutants
of them, random token soups, random Unicode text, Unicode identifiers,
documents cut short after a trailing comment, and state names nested
around ``MAX_NESTING`` parentheses.  A second test takes serialized
operator results of more than 1000 states, whole and cut short.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

from conftest import CORPUS, GOLDEN
from mialib.frontend import MAX_NESTING, ParseError, parse_document, serialize
from mialib.model import (DMTS, FLAVORS, IA, MIA, TAU, ModalAutomaton, StateId,
                          atom, make_automaton, pair_id, tagged_id, vee_id,
                          wedge_id)
from mialib.ia_ops import ia_conjoin
from mialib.mia_ops import mia_conj_product, mia_disjoin
from mialib.testkit import gen_over, gen_pair, gen_random

# ---------------------------------------------------------------------------
# Reference: the character-loop lexer and its parser, frozen

_REF_MAX_NESTING = 200
_REF_PUNCT = set("{}(),;:@&|")


@dataclass(frozen=True)
class _RefTok:
    kind: str  # ident | punct | dash | arrow | eof
    value: str
    line: int
    col: int


def _ref_lex(text: str) -> list[_RefTok]:
    toks: list[_RefTok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "-":
            if text.startswith("->", i):
                toks.append(_RefTok("arrow", "->", line, col))
                i += 2
                col += 2
            else:
                toks.append(_RefTok("dash", "-", line, col))
                i += 1
                col += 1
        elif ch in _REF_PUNCT:
            toks.append(_RefTok("punct", ch, line, col))
            i += 1
            col += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_RefTok("ident", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_RefTok("eof", "", line, col))
    return toks


class _RefParser:
    def __init__(self, text: str):
        self.toks = _ref_lex(text)
        self.pos = 0
        self.depth = 0
        self.ids: dict[tuple, StateId] = {}

    def peek(self) -> _RefTok:
        return self.toks[self.pos]

    def next(self) -> _RefTok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _RefTok | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_punct(self, ch: str) -> _RefTok:
        tok = self.next()
        if tok.kind != "punct" or tok.value != ch:
            self.fail(f"expected {ch!r}, found {tok.value!r}", tok)
        return tok

    def expect_ident(self, what: str = "identifier") -> _RefTok:
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
        while self.peek().kind == "punct" and self.peek().value in "&|":
            op = self.next().value
            right = self.postfix()
            left = self.make_id(wedge_id if op == "&" else vee_id, left, right)
        return left

    def postfix(self) -> StateId:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            sid = self.make_id(atom, tok.value)
        elif tok.kind == "punct" and tok.value == "(":
            if self.depth == _REF_MAX_NESTING:
                self.fail(f"state name nested deeper than {_REF_MAX_NESTING} "
                          "parentheses", tok)
            self.next()
            self.depth += 1
            first = self.state_id()
            sep = self.next()
            if sep.kind == "punct" and sep.value == ",":
                second = self.state_id()
                self.expect_punct(")")
                sid = self.make_id(pair_id, first, second)
            elif sep.kind == "punct" and sep.value == ")":
                sid = first
            else:
                self.fail("expected ',' or ')' in state name", sep)
            self.depth -= 1
        else:
            self.fail(f"expected state name, found {tok.value!r}", tok)
            raise AssertionError
        while self.peek().kind == "punct" and self.peek().value == "@":
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
        self.expect_punct("{")

        inputs: set[str] = set()
        outputs: set[str] = set()
        while self.peek().kind == "ident" and self.peek().value in ("inputs", "outputs", "actions"):
            kind_tok = self.next()
            kind = kind_tok.value
            if kind == "actions" and flavor != DMTS:
                self.fail("'actions' is only valid in dmts files", kind_tok)
            if kind in ("inputs", "outputs") and flavor == DMTS:
                self.fail(f"'{kind}' is not valid in dmts files; use 'actions'", kind_tok)
            self.expect_punct(":")
            spans[("alphabet", kind)] = (kind_tok.line, kind_tok.col)
            while self.peek().kind == "ident":
                action = self.next()
                if action.value == TAU:
                    self.fail("'tau' cannot be declared as an action", action)
                (inputs if kind == "inputs" else outputs).add(action.value)
                if self.peek().kind == "punct" and self.peek().value == ",":
                    self.next()
                else:
                    break
            self.expect_punct(";")

        init_tok = self.peek()
        if not (init_tok.kind == "ident" and init_tok.value == "initial"):
            self.fail("expected 'initial'", init_tok)
        self.next()
        initial = self.state_id()
        spans[("initial",)] = (init_tok.line, init_tok.col)
        self.expect_punct(";")

        may: set = set()
        must: set = set()
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            self.transition(flavor, inputs, may, must, spans)
        self.expect_punct("}")
        if self.peek().kind != "eof":
            self.fail("trailing input after closing '}'")

        automaton = make_automaton(flavor, name.value, inputs, outputs,
                                   initial, may, must)
        return automaton, spans

    def transition(self, flavor: str, inputs: set[str], may: set, must: set,
                   spans: dict) -> None:
        tok = self.peek()
        modality = ""
        if tok.kind == "ident" and tok.value in ("may", "must"):
            modality = tok.value
            self.next()
        elif flavor != IA:
            # a bare transition only makes sense where modality is implied
            if tok.kind != "ident" and not (tok.kind == "punct" and tok.value == "("):
                self.fail(f"expected transition, found {tok.value!r}", tok)
            self.fail("transitions in dmts/mia files need 'may' or 'must'", tok)
        src = self.state_id()
        dash = self.next()
        if dash.kind != "dash":
            self.fail("expected '-label->'", dash)
        label_tok = self.expect_ident("action label")
        label = label_tok.value
        arrow = self.next()
        if arrow.kind != "arrow":
            self.fail("expected '->'", arrow)

        targets: list[StateId] = []
        braced = False
        if self.peek().kind == "punct" and self.peek().value == "{":
            braced = True
            if flavor == IA:
                self.fail("set targets are not allowed in ia files")
            self.next()
            targets.append(self.state_id())
            while self.peek().kind == "punct" and self.peek().value == ",":
                self.next()
                targets.append(self.state_id())
            self.expect_punct("}")
        else:
            targets.append(self.state_id())
        self.expect_punct(";")

        pos = (tok.line, tok.col)
        if modality == "must" or (modality == "" and flavor == IA and label in inputs):
            if label == TAU:
                raise ParseError("silent must-transitions are not allowed",
                                 label_tok.line, label_tok.col)
            tset = frozenset(targets)
            must.add((src, label, tset))
            spans[("must", src, label, tset)] = pos
            if flavor in (IA, MIA) and label in inputs:
                for t in targets:
                    may.add((src, label, t))
        if modality in ("", "may") and not (modality == "" and flavor == IA and label in inputs):
            if len(targets) > 1:
                self.fail("may-transitions take a single target state", tok)
            may.add((src, label, targets[0]))
            spans[("may", src, label, targets[0])] = pos



def _reference(text: str):
    return _RefParser(text).document()


def _current(text: str):
    doc = parse_document(text)
    return doc.automaton, doc.spans


def _outcome(parse, text: str):
    try:
        aut, spans = parse(text)
    except Exception as err:  # the exception itself is what is compared
        return (type(err), getattr(err, "message", str(err)),
                getattr(err, "line", None), getattr(err, "col", None))
    return (aut.flavor, aut.name, aut.alphabet, aut.initial, aut.states,
            aut.may, aut.must, spans)


# ---------------------------------------------------------------------------
# Inputs

# Separators the lexer treats differently: spaces, tabs, carriage returns,
# newlines, and comments with and without a line end after them.
_SEPS = (" ", " ", " ", "", "\t", "\n", "\r\n", "  ", " # note\n", "#\n", " # c")
# Layout between the tokens of a well-formed document.
_LAYOUT = (" ", " ", "\t", "\n", "\r\n", " # note\n")
_PUNCT = ("{", "}", "(", ")", ",", ";", ":", "@", "&", "|", "-", "->", "-->", ">")
_WORDS = ("ia", "dmts", "mia", "inputs", "outputs", "actions", "initial",
          "may", "must", "tau", "s", "t", "p1", "a", "b", "o", "L", "_x",
          "é", "x²", "漢字", "ǅ", "٣")
# Characters the lexer refuses (among them whitespace to ``str.isspace``
# and a combining mark), Unicode word characters, and layout.
_ODD = ("$", "\x0b", "\x0c", "\xa0", "\u2003", "\u0301", "\x00", "\ufeff",
        "\xe9", "\xb2", "\u216b", "\xdf", "_", "-", ">", "#", "\r", "\t", "\n")


def _corpus_texts() -> list[str]:
    paths = sorted(CORPUS.glob("*.*")) + sorted(GOLDEN.glob("*.*"))
    return [path.read_text(encoding="utf-8") for path in paths]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 6))
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(_ODD + _PUNCT + _SEPS) + text[i:]
        elif op == 2:
            text = text[:i] + text[i:j] + text[i:]
        elif op == 3:
            text = text[:i] + rng.choice(_SEPS[-3:])
        elif op == 4:
            text = text.replace("\n", rng.choice(("\r\n", "\n\t", " # x\n")))
        else:
            text = text[:i] + rng.choice(_WORDS) + text[j:]
    return text


def _name(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 3 or roll < 0.6:
        return rng.choice(("s", "t", "p0", "q_1", "é", "x²", "漢"))
    if roll < 0.7:
        return f"({_name(rng, depth + 1)},{_name(rng, depth + 1)})"
    if roll < 0.8:
        return f"{_name(rng, depth + 1)}{rng.choice('&|')}{_name(rng, depth + 1)}"
    if roll < 0.9:
        return f"({_name(rng, depth + 1)})"
    return f"{_name(rng, depth + 1)}@{rng.choice(('L', 'R', 'ü'))}"


def _document(rng: random.Random) -> str:
    """A mostly well-formed document with random layout."""
    flavor = rng.choice(FLAVORS)
    actions = rng.sample(("a", "b", "o", "ä", "c²"), rng.randint(1, 4))
    cut = rng.randint(0, len(actions))
    head = [flavor, "N", "{"]
    if flavor == DMTS:
        head += ["actions", ":", *", ".join(actions).split(" "), ";"]
    else:
        head += ["inputs", ":", *", ".join(actions[:cut]).split(" "), ";",
                 "outputs", ":", *", ".join(actions[cut:]).split(" "), ";"]
    toks = [t for t in head if t] + ["initial", _name(rng), ";"]
    for _ in range(rng.randint(0, 6)):
        label = rng.choice(actions + [TAU] * (rng.random() < 0.2))
        modality = rng.choice(("may", "must", "") if flavor == IA else ("may", "must"))
        if flavor != IA and rng.random() < 0.3:
            target = "{" + ", ".join(_name(rng) for _ in range(rng.randint(1, 3))) + "}"
        else:
            target = _name(rng)
        toks += [modality, _name(rng), "-", label, "->", target, ";"]
    toks.append("}")
    return "".join(tok + rng.choice(_LAYOUT) for tok in toks if tok)


def _soup(rng: random.Random) -> str:
    pool = _WORDS + _PUNCT
    return "".join(rng.choice(pool) + rng.choice(_SEPS)
                   for _ in range(rng.randint(0, 30)))


def _unicode(rng: random.Random) -> str:
    def char() -> str:
        top = rng.choice((0x80, 0x800, 0x10000, sys.maxunicode + 1))
        return chr(rng.randrange(top))
    return "".join(char() for _ in range(rng.randint(0, 12)))


def _nested(depth: int, where: int) -> str:
    name = "(" * depth + "s" + ")" * depth
    pair = "(" * depth + "s,t" + ")" * depth
    return (
        f"mia M {{ initial {name}; }}",
        f"mia M {{ outputs: o; initial s; may s -o-> {name}@L; }}",
        f"dmts D {{ actions: a; initial s; must s -a-> {{t, {pair}}}; }}",
        f"mia M {{ initial {name}",
    )[where]


def _inputs() -> list[str]:
    rng = random.Random(20131)
    corpus = _corpus_texts()
    texts = list(corpus)
    for text in corpus:
        texts += [text.replace("\n", "\r\n"), text.replace("  ", "\t"),
                  text.rstrip("\n") + "  # trailing comment"]
        texts += [_mutate(rng, text) for _ in range(40)]
        # documents cut short, then closed by a comment at the end of input
        texts += [text[:rng.randrange(len(text))] + rng.choice(("# cut", " #", "#\t#"))
                  for _ in range(4)]
    for flavor in FLAVORS:
        for seed in range(20):
            texts.append(serialize(gen_random(flavor, seed=seed, transition_density=0.5)))
    for _ in range(1200):
        doc = _document(rng)
        texts += [doc, _mutate(rng, doc)]
    texts += [_soup(rng) for _ in range(1000)]
    for _ in range(400):
        text = _unicode(rng)
        texts += [text, "mia M { initial s; " + text, "mia M {\n initial " + text + "; }"]
    texts += [_nested(depth, where)
              for depth in (0, 1, 2, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 5000)
              for where in range(4)]
    return texts


def test_tokenizer_and_parser_match_the_character_loop_reference():
    texts = _inputs()
    assert len(texts) >= 5000
    outcomes = [(_outcome(_reference, text), _outcome(_current, text)) for text in texts]
    parsed = sum(type(ref[0]) is str for ref, _ in outcomes)
    assert 1000 <= parsed <= len(texts) - 1000  # both outcomes well represented
    mismatches = [(text, ref, new) for text, (ref, new) in zip(texts, outcomes)
                  if ref != new]
    assert not mismatches, (len(mismatches), mismatches[:3])


def _large_documents() -> list[str]:
    """Serialized operator results of more than 1000 states: an IA
    conjunction (wedges of tagged atoms), a MIA conjunctive product (pairs of
    tagged atoms) and a product of a disjunction (pairs holding a vee)."""
    p, q = gen_pair(IA, 13, max_states=40, transition_density=0.3)
    a, b = gen_pair(MIA, 18, max_states=40, transition_density=0.3)
    c = gen_over(MIA, a.alphabet.inputs, a.alphabet.outputs, max_states=40, seed=0)
    d = gen_over(MIA, a.alphabet.inputs, a.alphabet.outputs, max_states=2, seed=0)
    auts = [ia_conjoin(p, q), mia_conj_product(a, b).automaton,
            mia_conj_product(mia_disjoin(c, d), a).automaton]
    kinds = {part.kind for aut in auts for state in aut.states
             for part in (state, *state.parts) if isinstance(part, StateId)}
    assert kinds == {StateId.ATOM, StateId.PAIR, StateId.WEDGE, StateId.VEE, StateId.TAG}
    assert min(len(aut.states) for aut in auts) >= 1000
    return [serialize(aut) for aut in auts]


def test_parser_matches_the_reference_on_large_documents():
    rng = random.Random(8)
    texts = []
    for text in _large_documents():
        # the whole document, and cut short deep inside with an error
        texts.append(text)
        cut = rng.randrange(len(text) // 2, len(text))
        texts += [text[:cut] + "$", text[:cut] + " # cut", text[:cut] + "\n}\n"]
    outcomes = [(_outcome(_reference, text), _outcome(_current, text)) for text in texts]
    assert sum(type(ref[0]) is str for ref, _ in outcomes) >= 3
    mismatches = [k for k, (ref, new) in enumerate(outcomes) if ref != new]
    assert not mismatches, mismatches
