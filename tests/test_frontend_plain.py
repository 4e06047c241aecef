"""The plain-document reader against the token parser.

``parse_document`` first reads a document in the exact layout ``serialize``
writes, with atom names, without lexing; anything else goes to the token
parser (``_Parser``).  For every document the plain reader accepts, both
must give the same automaton, the same declaration spans and one atom id
per name.  Near-canonical mutants that the token parser reads differently
or rejects must be handed on, so they give the token parser's result or its
``ParseError`` (message, line and column).
"""

from __future__ import annotations

import random
import re

import pytest

from conftest import CORPUS, GOLDEN
from mialib import frontend
from mialib.frontend import (ParseError, SourceDocument, _Parser, _plain_document,
                             parse_document, serialize, validate_document)
from mialib.model import DMTS, FLAVORS, IA, MIA, atom, make_automaton, pair_id, validate
from mialib.testkit import gen_pair, gen_random
from test_validate_differential import _mutants


def _outcome(read, text: str):
    try:
        aut, spans = read(text)
    except ParseError as err:
        return ("error", err.message, err.line, err.col)
    return (aut.flavor, aut.name, aut.alphabet, aut.initial, aut.states,
            aut.may, aut.must, spans)


def _plain(text: str):
    doc = _plain_document(text)
    assert doc is not None
    return doc.automaton, doc.spans


def _tokens(text: str):
    return _Parser(text).document()


def _parsed(text: str):
    doc = parse_document(text)
    return doc.automaton, doc.spans


def _ids(aut, spans) -> dict:
    """Every state id the document holds, by name, as the set of the
    distinct objects and their structure."""
    found = [aut.initial, *aut.states]
    for src, _, tgt in aut.may:
        found += [src, tgt]
    for src, _, targets in aut.must:
        found += [src, *targets]
    for key in spans:
        if key[0] == "may":
            found += [key[1], key[3]]
        elif key[0] == "must":
            found += [key[1], *key[3]]
    by_name: dict = {}
    for sid in found:
        structure = (type(sid).__name__, sid.kind, sid.parts)
        by_name.setdefault(sid.text, {})[id(sid)] = structure
    return {name: sorted(objs.values()) for name, objs in by_name.items()}


def _special_documents() -> list[str]:
    """Hand-written documents in the serializer's layout: keyword-like and
    Unicode names, empty alphabets, duplicate declarations, empty bodies."""
    return [
        "ia E {\n  inputs: ;\n  outputs: ;\n  initial s;\n}\n",
        "dmts E {\n  actions: ;\n  initial s;\n}\n",
        "mia E {\n  inputs: ;\n  outputs: ;\n  initial initial;\n}\n",
        "mia K {\n  inputs: a;\n  outputs: o;\n  initial initial;\n"
        "  must initial -a-> {tau, initial};\n  may tau -o-> initial;\n"
        "  may initial -tau-> tau;\n}\n",
        "ia K {\n  inputs: a;\n  outputs: o;\n  initial tau;\n"
        "  tau -a-> initial;\n  initial -o-> tau;\n  initial -tau-> initial;\n}\n",
        "dmts U {\n  actions: ä, c²;\n  initial é;\n  must é -ä-> {漢字, x²};\n"
        "  may 漢字 -c²-> é;\n  may x² -tau-> é;\n}\n",
        "ia D {\n  inputs: a, a;\n  outputs: o, o;\n  initial s;\n"
        "  s -a-> t;\n  s -o-> t;\n  s -a-> t;\n  s -o-> t;\n}\n",
        "mia D {\n  inputs: a;\n  outputs: o;\n  initial s;\n"
        "  must s -a-> {t, u};\n  may s -o-> t;\n  must s -a-> {t, u};\n"
        "  may s -a-> t;\n  must s -o-> t;\n  may s -o-> t;\n}\n",
        # explicit modalities in IA, on inputs and outputs alike
        "ia M {\n  inputs: a;\n  outputs: o;\n  initial s;\n"
        "  must s -a-> t;\n  may s -a-> u;\n  must s -o-> t;\n  may t -o-> s;\n}\n",
        # names the token parser reads as keywords elsewhere
        "dmts N {\n  actions: inputs, initial;\n  initial actions;\n"
        "  must actions -inputs-> {outputs, dmts};\n  may ia -initial-> mia;\n}\n",
    ]


def _accepted_inputs() -> list[str]:
    paths = sorted(CORPUS.glob("*.*")) + sorted(GOLDEN.glob("*.*"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    for flavor in FLAVORS:
        for seed in range(25):
            texts.append(serialize(gen_random(flavor, seed=seed, max_states=8,
                                              transition_density=0.5)))
            texts += map(serialize, gen_pair(flavor, seed, max_states=12))
    texts += _special_documents()
    return texts


# Rewrites of a document that the plain reader must hand on: each applies
# where its pattern occurs, once.
_HAND_ON = (
    # a source, target or initial name that is a modality keyword
    lambda t: re.sub(r"\n  initial \w+;", "\n  initial must;", t, count=1),
    lambda t: _rename(t, "must", 0),
    lambda t: _rename(t, "may", 0),
    lambda t: _rename(t, "may", 1),
    # a bare line outside IA
    lambda t: t.replace("\n  must ", "\n  ", 1) if not t.startswith("ia ") else None,
    lambda t: t.replace("\n  may ", "\n  ", 1) if not t.startswith("ia ") else None,
    # a set target in IA, or on a may
    lambda t: _set_target(t, "  ") if t.startswith("ia ") else None,
    lambda t: _set_target(t, "  may "),
    # a silent must
    lambda t: _silent_must(t),
    # the other flavors' alphabet lines
    lambda t: t.replace("  inputs:", "  actions:", 1) if "  inputs:" in t else None,
    lambda t: t.replace("  actions:", "  inputs:", 1) if "  actions:" in t else None,
    lambda t: (t.replace("  actions: ", "  inputs: ; outputs: ", 1)
               if "  actions:" in t else None),
    # a declared tau
    lambda t: t.replace("puts: ", "puts: tau, ", 1).replace(", ;", ";"),
    lambda t: t.replace("actions: ", "actions: tau, ", 1).replace(", ;", ";"),
    # comments, CRLF, tabs and any other spacing
    lambda t: t.replace(";\n", "; # c\n", 1),
    lambda t: "# c\n" + t,
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n  ", "\n\t", 1),
    lambda t: t.replace(" -", "  -", 1),
    lambda t: t.replace(";\n", " ;\n", 1),
    lambda t: t.replace("\n", "\n\n", 2),
    lambda t: t.replace(", ", ",", 1),
    lambda t: t.replace("{\n", " {\n", 1),
    lambda t: t.rstrip("\n"),
    # text after the closing brace
    lambda t: t + "x",
    lambda t: t + "}\n",
    lambda t: t + "# end\n",
    lambda t: t[:-2] + "  may s -a-> t;\n}\n}\n",
)


def _lines(text: str, prefix: str) -> list[int]:
    lines = text.split("\n")
    return [k for k, line in enumerate(lines) if line.startswith(prefix) and "->" in line]


def _rename(text: str, name: str, end: int) -> str | None:
    """The first transition's source (``end`` 0) or first target (1) named
    ``name``."""
    lines = text.split("\n")
    found = _lines(text, "  ")
    if not found:
        return None
    k = found[0]
    head, tail = lines[k].split("-> ")
    if end == 0:
        words = head.split(" ")
        words[-2] = name
        lines[k] = " ".join(words) + "-> " + tail
    else:
        lines[k] = head + "-> " + re.sub(r"\w+", name, tail, count=1)
    return "\n".join(lines)


def _set_target(text: str, prefix: str) -> str | None:
    """The first single target after ``prefix`` written as a set of two."""
    lines = text.split("\n")
    found = [k for k in _lines(text, prefix) if "{" not in lines[k]]
    if not found:
        return None
    k = found[0]
    head, tgt = lines[k].rsplit("> ", 1)
    lines[k] = f"{head}> {{{tgt[:-1]}, {tgt[:-1]}}};"
    return "\n".join(lines)


def _silent_must(text: str) -> str | None:
    """The first transition as a must on ``tau``."""
    found = re.search(r"\n  (?:may |must )?(\w+) -\w+->", text)
    if found is None:
        return None
    return (text[:found.start()] + f"\n  must {found.group(1)} -tau->"
            + text[found.end():])


def test_plain_reader_agrees_with_the_token_parser():
    texts = _accepted_inputs()
    accepted = {IA: 0, DMTS: 0, MIA: 0}
    for text in texts:
        if _plain_document(text) is None:
            continue
        plain, tokens = _outcome(_plain, text), _outcome(_tokens, text)
        assert plain == tokens, text
        assert _ids(*_plain(text)) == _ids(*_tokens(text)), text
        assert all(len(objs) == 1 for objs in _ids(*_plain(text)).values()), text
        accepted[plain[0]] += 1
    # the corpus files with comments or pair names are not in the layout
    assert min(accepted.values()) >= 40, accepted
    for text in _special_documents():
        assert _plain_document(text) is not None, text


def test_near_canonical_mutants_go_to_the_token_parser():
    rng = random.Random(5)
    texts = [text for text in _accepted_inputs() if _plain_document(text) is not None]
    checked = errors = 0
    for text in texts:
        for k, mutate in enumerate(_HAND_ON):
            mutant = mutate(text)
            if mutant is None or mutant == text:
                continue
            assert _plain_document(mutant) is None, (k, mutant)
            parsed = _outcome(_parsed, mutant)
            assert parsed == _outcome(_tokens, mutant), (k, mutant)
            checked += 1
            errors += parsed[0] == "error"
        # a transition declared twice stays in the layout; its later
        # line gives its span
        lines = text.split("\n")
        found = _lines(text, "  ")
        if found:
            k = rng.choice(found)
            doubled = "\n".join(lines[:k + 1] + lines[k:])
            assert _outcome(_plain, doubled) == _outcome(_tokens, doubled)
    assert checked >= 2000 and 500 <= errors <= checked - 500, (checked, errors)


def _big(flavor: str):
    """A seeded automaton of 1200 atom-named states, each in a transition."""
    rng = random.Random(f"big|{flavor}")
    states = [atom(f"s{i}") for i in range(1200)]
    label = "o" if flavor == DMTS else "a"
    may: set = set()
    must: set = set()
    for i, state in enumerate(states):
        may.add((state, "o", states[i - 1]))
        targets = frozenset(rng.sample(states, 1 if flavor == IA else rng.randint(1, 3)))
        must.add((state, label, targets))
        may.update((state, label, t) for t in targets)
    return make_automaton(flavor, "Big", [] if flavor == DMTS else ["a"], ["o"],
                          states[0], may, must)


class _Refused:
    def __init__(self, text):
        raise AssertionError("the token parser was called")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_serialized_atom_documents_take_the_plain_path(flavor, monkeypatch):
    auts = [gen_random(flavor, seed=seed, transition_density=0.5) for seed in range(10)]
    auts.append(_big(flavor))
    texts = [serialize(aut) for aut in auts]
    expected = [_outcome(_tokens, text) for text in texts]
    monkeypatch.setattr(frontend, "_Parser", _Refused)
    for text, want in zip(texts, expected):
        assert _outcome(_parsed, text) == want
    assert len(expected[-1][4]) == 1200


@pytest.mark.parametrize("flavor", FLAVORS)
def test_pair_names_and_comments_reach_the_token_parser(flavor, monkeypatch):
    s, t = atom("s"), atom("t")
    aut = make_automaton(flavor, "P", ["a"] if flavor != DMTS else [], ["o"], s,
                         may=[(s, "o", pair_id(s, t))])
    calls = []

    class Recording(_Parser):
        def __init__(self, text):
            calls.append(text)
            super().__init__(text)

    monkeypatch.setattr(frontend, "_Parser", Recording)
    paired = serialize(aut)
    plain = serialize(make_automaton(flavor, "P", aut.alphabet.inputs,
                                     aut.alphabet.outputs, s, may=[(s, "o", t)]))
    commented = plain.replace("\n", " # note\n", 1)
    for text in (paired, commented):
        parse_document(text)
    assert calls == [paired, commented]
    parse_document(plain)
    assert len(calls) == 2


def _first_row_again(text: str) -> str:
    """``text`` with its first transition line declared again, last."""
    lines = text.split("\n")
    found = _lines(text, "  ")
    if not found:
        return text
    return "\n".join(lines[:-2] + [lines[found[0]]] + lines[-2:])


@pytest.mark.parametrize("flavor", FLAVORS)
def test_valid_plain_documents_validate_without_placing_transitions(flavor, monkeypatch):
    auts = [gen_random(flavor, seed=seed, transition_density=0.5) for seed in range(10)]
    auts.append(_big(flavor))
    texts = [_first_row_again(serialize(aut)) for aut in auts]
    texts += [text for text in _special_documents()
              if text.startswith(f"{flavor} ") and not validate(_tokens(text)[0])]
    expected = [_tokens(text)[1] for text in texts]
    monkeypatch.setattr(frontend, "_Parser", _Refused)
    repeated = 0
    for text, want in zip(texts, expected):
        doc = parse_document(text)
        assert validate_document(doc) == []
        # only the header lines are placed until the spans are read
        assert {key[0] for key in doc._spans} <= {"header", "alphabet", "initial"}
        assert doc.spans == want and list(doc.spans) == list(want)
        repeated += len(doc.spans) < text.count("\n") - 1
    assert repeated >= 10


def test_invalid_plain_documents_place_violations_as_the_token_parser_does():
    checked = placed = 0
    for aut in _mutants():
        if aut.flavor not in FLAVORS:
            continue
        text = _first_row_again(serialize(aut))
        if _plain_document(text) is None:
            continue
        expected = validate_document(SourceDocument(*_tokens(text)))
        assert validate_document(parse_document(text)) == expected
        checked += bool(expected)
        placed += sum(at is not None for _, at in expected)
    assert checked >= 200 and placed >= 400, (checked, placed)
