from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, GOLDEN
from mialib.frontend import (MAX_COMPOSITES, MAX_NESTING, ParseError, _Parser,
                             export_dot, parse, parse_document, serialize,
                             validate_document)
from mialib.model import (FLAVORS, atom, make_automaton, make_ia, pair_id,
                          tagged_id, validate, vee_id, wedge_id)
from mialib.testkit import gen_random


# ---------------------------------------------------------------------------
# Parsing


def test_parse_blackhole_example():
    aut = parse("ia B { inputs: a; outputs: ; initial b; b -a-> b; }")
    b = atom("b")
    assert aut.flavor == "ia"
    assert aut.alphabet.inputs == frozenset(["a"])
    assert aut.alphabet.outputs == frozenset()
    assert aut.may == frozenset([(b, "a", b)])
    assert aut.must == frozenset([(b, "a", frozenset([b]))])
    assert validate(aut) == []


def test_parse_mia_example_with_implied_input_mays():
    aut = parse("mia M { inputs: i; outputs: o; initial p; "
                "must p -i-> {p1,p2}; may p1 -o-> p2; }")
    p = atom("p")
    assert (p, "i", atom("p1")) in aut.may
    assert (p, "i", atom("p2")) in aut.may
    assert validate(aut) == []


def test_parse_rejects_tau_must():
    with pytest.raises(ParseError) as err:
        parse("dmts D { actions: a; initial s; must s -tau-> s; }")
    assert "silent must" in str(err.value)


def test_parse_rejects_bare_transition_outside_ia():
    with pytest.raises(ParseError):
        parse("mia M { inputs: i; outputs: ; initial s; s -i-> s; }")


def test_parse_rejects_set_targets_in_ia():
    with pytest.raises(ParseError):
        parse("ia A { inputs: a; outputs: ; initial s; s -a-> {s, t}; }")


def test_parse_rejects_actions_outside_dmts():
    with pytest.raises(ParseError):
        parse("ia A { actions: a; initial s; }")
    with pytest.raises(ParseError):
        parse("dmts D { inputs: a; initial s; }")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("ia A { inputs: a; outputs: ;\n  initial s\n}")
    assert err.value.line == 3  # the missing ';' surfaces at the brace


def test_state_name_nesting_limit():
    def nested(depth: int) -> str:
        return "mia M { initial " + "(" * depth + "s" + ")" * depth + "; }"

    assert parse(nested(MAX_NESTING)).initial == atom("s")
    with pytest.raises(ParseError) as err:
        parse(nested(MAX_NESTING + 1))
    assert "nested deeper" in err.value.message
    with pytest.raises(ParseError):
        parse(nested(5000))


def _chain(name: str) -> str:
    return ("mia M {\n  outputs: o;\n  initial " + name + ";\n  may " + name
            + " -o-> " + name + ";\n}\n")


def _operator_col(name: str, k: int) -> int:
    """Column of the ``k``-th operator (from 1) of ``name`` in :func:`_chain`."""
    at = [i for i, ch in enumerate(name) if ch in "&|@,"][k - 1]
    return len("  initial ") + at + 1


@pytest.mark.parametrize("head, step", [("a", "&a"), ("a", "|a"), ("a", "@t"),
                                        ("(a,b)", "&a"), ("(a@t,b)", "@L")])
def test_state_name_operator_limit(head, step):
    ops = sum(head.count(ch) for ch in "&|@,")
    at_bound = head + step * (MAX_COMPOSITES - ops)
    # the bound holds for each name, not for the document
    assert len(parse(_chain(at_bound)).states) == 1
    for extra in (1, 8000):
        over = at_bound + step * extra
        parser = _Parser(_chain(over))
        with pytest.raises(ParseError) as err:
            parser.document()
        assert (err.value.line, err.value.col) == (3, _operator_col(over, MAX_COMPOSITES + 1))
        assert f"more than {MAX_COMPOSITES} operators" in err.value.message
        assert len(parser.composites) == MAX_COMPOSITES  # none built past it


def test_braced_singleton_may_target_allowed():
    a = parse("mia M { inputs: ; outputs: o; initial s; may s -o-> {t}; }")
    b = parse("mia M { inputs: ; outputs: o; initial s; may s -o-> t; }")
    assert a.may == b.may
    with pytest.raises(ParseError):
        parse("mia M { inputs: ; outputs: o; initial s; may s -o-> {t, u}; }")


def test_duplicate_declarations_idempotent():
    a = parse("ia A { inputs: a; outputs: ; initial s; s -a-> s; s -a-> s; }")
    b = parse("ia A { inputs: a, a; outputs: ; initial s; s -a-> s; }")
    assert a.may == b.may and a.must == b.must and a.alphabet == b.alphabet


def test_parse_structured_state_names():
    aut = parse("mia M { inputs: ; outputs: o; initial (p,q); "
                "may (p,q) -o-> x@L; may x@L -o-> a&b; may a&b -o-> a|b; }")
    assert pair_id(atom("p"), atom("q")) == aut.initial
    assert wedge_id(atom("a"), atom("b")) in aut.states


def test_comments_and_whitespace():
    aut = parse("# heading\nia A {\n  inputs: a; # trailing\n  outputs: ;\n"
                "  initial s;\n}\n")
    assert aut.states == frozenset([atom("s")])


def _error(text: str) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.message, err.value.line, err.value.col


def test_tab_and_crlf_columns():
    # a tab and a carriage return each take one column; CRLF ends a line
    doc = parse_document("mia M {\r\n\toutputs: o;\r\n\tinitial s;\r\n"
                         "\t\tmay s -o-> t;\r\n}")
    assert doc.spans[("alphabet", "outputs")] == (2, 2)
    assert doc.spans[("initial",)] == (3, 2)
    assert doc.spans[("may", atom("s"), "o", atom("t"))] == (4, 3)


def test_end_of_input_column_after_a_trailing_comment():
    # a comment advances no column: the end of input is where it started
    assert _error("mia M { initial s;  # no closing brace") == \
        ("expected transition, found ''", 1, 21)


def test_double_dash_lexes_as_dash_then_arrow():
    assert _error("mia M { outputs: o; initial s; may s --> t; }") == \
        ("expected action label, found '->'", 1, 39)


def test_unicode_identifiers():
    aut = parse("mia M { inputs: é; outputs: ; initial x²; must x² -é-> 漢; }")
    assert aut.alphabet.inputs == frozenset(["é"])
    assert aut.must == frozenset([(atom("x²"), "é", frozenset([atom("漢")]))])


def test_unexpected_character_position():
    assert _error("mia M {\n  initial $;") == ("unexpected character '$'", 2, 11)
    assert _error("mia M {\n\x0b initial s; }") == \
        ("unexpected character '\\x0b'", 2, 1)


@given(st.text(alphabet="iam dts{}();:,-><@&|#\ntau" + "xyz01", max_size=80))
def test_parser_total_on_garbage(text):
    # bad input produces a positioned ParseError, never another exception
    try:
        parse(text)
    except ParseError:
        pass


@given(st.text(max_size=40))
def test_lexer_total_on_arbitrary_unicode(text):
    try:
        parse("mia M { initial s; " + text)
    except ParseError:
        pass


def test_validate_document_reports_spans():
    doc = parse_document("mia M { inputs: i; outputs: ;\n  initial s;\n"
                         "  may s -i-> t;\n  must s -i-> s;\n}")
    problems = validate_document(doc)
    spanned = [(v.rule, span) for v, span in problems if span]
    assert any(rule == "mia-input-may-under-must" and span == (3, 3)
               for rule, span in spanned)


def test_validate_document_places_an_implied_may_at_its_must():
    # line 6 declares ``s -a-> t;``, the input must that implies the may
    doc = parse_document((CORPUS / "invalid_nondet.ia").read_text(encoding="utf-8"))
    [(violation, span)] = validate_document(doc)
    assert violation.rule == "ia-input-determinism"
    assert ("may", atom("s"), "a", atom("t")) not in doc.spans
    assert span == (6, 3)


def test_validate_document_keeps_an_explicit_may_position():
    # the may to t is implied by line 2 and declared again on line 4
    doc = parse_document("ia Bad { inputs: a; outputs: ; initial s;\n"
                         "  s -a-> t;\n  s -a-> u;\n  may s -a-> t;\n}")
    [(violation, span)] = validate_document(doc)
    assert violation.subject == ("may", atom("s"), "a", atom("t"))
    assert span == (4, 3)


# ---------------------------------------------------------------------------
# Serialization


def test_serialize_canonical_shapes():
    aut = make_automaton(
        "mia", "M", ["i"], ["o"], wedge_id(atom("p"), atom("q")),
        may=[(wedge_id(atom("p"), atom("q")), "o", pair_id(atom("a"), atom("b")))])
    text = serialize(aut)
    assert "initial p&q;" in text
    assert "may p&q -o-> (a,b);" in text


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.*")) + sorted(GOLDEN.glob("*.*")))
def test_roundtrip_corpus(path):
    text = path.read_text(encoding="utf-8")
    aut = parse(text)
    again = serialize(aut)
    assert parse(again).may == aut.may
    assert parse(again).must == aut.must
    assert parse(again).alphabet == aut.alphabet
    assert parse(again).initial == aut.initial
    assert serialize(parse(again)) == again  # fixed point
    if not path.name.startswith("invalid_"):
        assert validate(aut) == [], path.name


@pytest.mark.parametrize("flavor", ["ia", "dmts", "mia"])
@pytest.mark.parametrize("seed", range(12))
def test_roundtrip_generated(flavor, seed):
    aut = gen_random(flavor, seed=seed, transition_density=0.5)
    again = parse(serialize(aut))
    assert again.may == aut.may and again.must == aut.must
    assert again.initial == aut.initial and again.alphabet == aut.alphabet


@pytest.mark.parametrize("source", [atom("may"), atom("must"),
                                    tagged_id(atom("may"), "L"),
                                    wedge_id(atom("must"), atom("x"))])
def test_roundtrip_ia_states_named_like_modality_keywords(source):
    """A bare IA line must not start with ``may``/``must``: it would be read
    as that keyword.  Such lines carry the keyword the transition implies."""
    other = atom("must") if source == "may" else atom("may")
    aut = make_ia("A", ["i"], ["o"], source,
                  [(source, "o", other), (source, "tau", other),
                   (other, "i", source), (source, "i", atom("mayor"))])
    text = serialize(aut)
    lines = {line.strip() for line in text.splitlines()}
    assert f"may {source.text} -o-> {other.text};" in lines
    assert f"may {source.text} -tau-> {other.text};" in lines
    assert f"must {source.text} -i-> mayor;" in lines
    again = parse(text)
    assert again == aut
    assert validate(again) == []
    assert serialize(again) == text


# Wrap a state name in one more operator; each step adds at most one level
# of parentheses.  Sibling atoms are never state names of ``gen_random``.
_WRAPS = {
    "pair-l": lambda s, x: pair_id(s, atom(x)),
    "pair-r": lambda s, x: pair_id(atom(x), s),
    "wedge-l": lambda s, x: wedge_id(s, atom(x)),
    "wedge-r": lambda s, x: wedge_id(atom(x), s),
    "vee-l": lambda s, x: vee_id(s, atom(x)),
    "vee-r": lambda s, x: vee_id(atom(x), s),
    "tag": lambda s, x: tagged_id(s, x.upper()),
}


def _nesting(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


@settings(max_examples=60, deadline=None)
@given(flavor=st.sampled_from(FLAVORS), seed=st.integers(0, 10**6),
       wraps=st.lists(st.tuples(st.sampled_from(sorted(_WRAPS)),
                                st.sampled_from(["x", "y1", "z_"])),
                      min_size=1, max_size=6),
       depths=st.lists(st.integers(0, MAX_NESTING - 1) | st.just(MAX_NESTING - 1),
                       min_size=1, max_size=8))
def test_roundtrip_nested_operator_names(flavor, seed, wraps, depths):
    base = gen_random(flavor, seed=seed, max_states=6, transition_density=0.5)
    rename = {}
    for k, state in enumerate(base.sorted_states):
        name = state
        for step in range(depths[k % len(depths)]):
            kind, sibling = wraps[step % len(wraps)]
            name = _WRAPS[kind](name, sibling)
        rename[state] = name
    aut = make_automaton(
        flavor, base.name, base.alphabet.inputs, base.alphabet.outputs,
        rename[base.initial],
        may=[(rename[s], l, rename[t]) for s, l, t in base.may],
        must=[(rename[s], l, [rename[t] for t in T]) for s, l, T in base.must],
        states=rename.values())
    assert max(_nesting(s.text) for s in aut.states) < MAX_NESTING

    text = serialize(aut)
    again = parse(text)
    shown = ({aut.initial} | {s for s, _, _ in aut.may} | {t for _, _, t in aut.may}
             | {s for s, _, _ in aut.must})
    assert again.states == shown  # isolated states are not representable
    assert (again.flavor, again.name, again.alphabet, again.initial) == \
        (aut.flavor, aut.name, aut.alphabet, aut.initial)
    assert again.may == aut.may and again.must == aut.must
    assert serialize(again) == text


# ---------------------------------------------------------------------------
# DOT export


def test_dot_may_only_is_dashed():
    aut = parse("mia M { inputs: ; outputs: o; initial s; may s -o-> t; }")
    dot = export_dot(aut)
    assert '"s" -> "t" [label="o!" style=dashed];' in dot


def test_dot_disjunctive_must_uses_junction():
    aut = parse("mia M { inputs: i; outputs: ; initial s; must s -i-> {a, b}; }")
    dot = export_dot(aut)
    assert dot.count("shape=point") == 1
    assert '"__junction_0" -> "a";' in dot
    assert '"__junction_0" -> "b";' in dot
    assert 'label="i?"' in dot


def test_dot_junction_names_avoid_state_names():
    aut = parse("dmts D { actions: a; initial s; must s -a-> {t, __junction_0}; "
                "may __junction_0 -a-> s; }")
    dot = export_dot(aut)
    assert '"__junction_0" [label="__junction_0"];' in dot
    assert '"___junction_0" [shape=point label=""];' in dot
    assert '"___junction_0" -> "__junction_0";' in dot
    assert '"__junction_0" -> "__junction_0"' not in dot
    assert dot.count("shape=point") == 1


def test_dot_blackhole():
    aut = parse("ia B { inputs: a; outputs: ; initial b; b -a-> b; }")
    dot = export_dot(aut)
    assert 'label="a?"' in dot
    assert 'peripheries=2' in dot  # initial state double border
    assert '"b" -> "b"' in dot


def test_dot_tau_and_output_decoration():
    aut = parse("mia M { inputs: ; outputs: o; initial s; "
                "may s -tau-> t; may t -o-> s; must t -o-> s; }")
    dot = export_dot(aut)
    assert 'label="tau"' in dot
    assert '"t" -> "s" [label="o!"];' in dot  # must drawn solid
