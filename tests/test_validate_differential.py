"""Differential test: flavor validation against a frozen copy of its former code.

``_ref_validate`` with ``_ref_validate_ia`` and ``_ref_validate_mia`` is
the validation that ``mialib.model`` had before the IA and MIA rules read
each state's edges grouped by label: a loop over every state and every
sorted input, scanning that state's edges for each.  It is kept verbatim
apart from names and from building the sorted views and the per-source
index itself.  On the corpus, the golden files and seeded invalid mutants
of all three flavors at up to a few hundred states, ``validate`` must give
the same ``Violation`` list (rule, message, subject, order), and
``validate_document`` the same positions as ``_ref_positions``: a frozen
copy of the rule that placed a may only input musts imply at the earliest
of them, with declared subjects keeping their own span.

``validate`` first asks ``_valid_by_sets`` whether the automaton is valid
at all, and that answer must be exactly "the reference finds nothing".
Each rule is also planted alone on valid seeded automata of every flavor,
and the subset tests must refuse every such mutant.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import groupby
from operator import itemgetter

from conftest import CORPUS, GOLDEN
from mialib.frontend import ParseError, parse_document, serialize, validate_document
from mialib.model import (DMTS, FLAVORS, IA, MIA, TAU, Alphabet, ModalAutomaton,
                          Violation, _valid_by_sets, atom, validate)
from mialib.testkit import gen_random

# ---------------------------------------------------------------------------
# Reference: the per-state, per-input scans, frozen


def _ref_must_key(edge):
    src, label, targets = edge
    return (src, label, sorted(targets))


def _ref_by_src(edges) -> dict:
    return {src: [edge[1:] for edge in group]
            for src, group in groupby(edges, itemgetter(0))}


class _Views:
    """The sorted views and per-source lookups the former code read."""

    def __init__(self, aut: ModalAutomaton):
        self.sorted_states = sorted(aut.states)
        self.sorted_may = sorted(aut.may)
        self.sorted_must = sorted(aut.must, key=_ref_must_key)
        self.may_by_src = _ref_by_src(self.sorted_may)
        self.must_by_src = _ref_by_src(self.sorted_must)

    def may_targets(self, state, label):
        return [t for (lab, t) in self.may_by_src.get(state, []) if lab == label]

    def must_sets(self, state, label):
        return [T for (lab, T) in self.must_by_src.get(state, []) if lab == label]


def _ref_validate(aut: ModalAutomaton) -> list[Violation]:
    out: list[Violation] = []
    bad = out.append
    alph = aut.alphabet
    views = _Views(aut)

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

    labels = alph.actions
    for src, label, tgt in views.sorted_may:
        subj = ("may", src, label, tgt)
        if src not in aut.states or tgt not in aut.states:
            bad(Violation("unknown-state", f"may {src} -{label}-> {tgt} leaves the state set", subj))
        if label != TAU and label not in labels:
            bad(Violation("unknown-action", f"may {src} -{label}-> {tgt} uses an undeclared action", subj))

    may_set = aut.may
    for src, label, targets in views.sorted_must:
        subj = ("must", src, label, targets)
        tgt_text = "{" + ",".join(sorted(targets)) + "}"
        if label == TAU:
            bad(Violation("tau-must", f"must {src} -tau-> {tgt_text}: silent musts are not allowed", subj))
            continue
        if label not in labels:
            bad(Violation("unknown-action", f"must {src} -{label}-> {tgt_text} uses an undeclared action", subj))
        if not targets:
            bad(Violation("empty-must-target", f"must {src} -{label}-> {{}} has no targets", subj))
        if src not in aut.states or any(t not in aut.states for t in targets):
            bad(Violation("unknown-state", f"must {src} -{label}-> {tgt_text} leaves the state set", subj))
        for t in sorted(targets):
            if (src, label, t) not in may_set:
                bad(Violation("syntactic-consistency",
                              f"must {src} -{label}-> {tgt_text} lacks underlying may to {t}", subj))

    if aut.flavor == IA:
        _ref_validate_ia(aut, views, bad)
    elif aut.flavor == MIA:
        _ref_validate_mia(aut, views, bad)
    return out


def _ref_validate_ia(aut: ModalAutomaton, views: _Views, bad) -> None:
    alph = aut.alphabet
    for src, label, targets in views.sorted_must:
        subj = ("must", src, label, targets)
        if label not in alph.inputs:
            bad(Violation("ia-output-must",
                          f"must {src} -{label}->: IA musts exist only for inputs", subj))
        if len(targets) != 1:
            bad(Violation("ia-must-shape",
                          f"must {src} -{label}-> has {len(targets)} targets; IA musts are singletons", subj))
    must_pairs = {(src, label) for src, label, _ in aut.must}
    for state in views.sorted_states:
        for a in sorted(aut.alphabet.inputs):
            targets = views.may_targets(state, a)
            if len(targets) > 1:
                bad(Violation("ia-input-determinism",
                              f"{state} has {len(targets)} transitions on input {a}",
                              ("may", state, a, targets[0])))
            for t in targets:
                if (state, a) not in must_pairs:
                    bad(Violation("ia-input-encoding",
                                  f"input may {state} -{a}-> {t} lacks its singleton must",
                                  ("may", state, a, t)))


def _ref_validate_mia(aut: ModalAutomaton, views: _Views, bad) -> None:
    for state in views.sorted_states:
        for i in sorted(aut.alphabet.inputs):
            sets = views.must_sets(state, i)
            if len(sets) > 1:
                bad(Violation("mia-input-must-unique",
                              f"{state} has {len(sets)} distinct musts on input {i}",
                              ("must", state, i, sets[0])))
            covered = set().union(*sets) if sets else set()
            for t in views.may_targets(state, i):
                if t not in covered:
                    bad(Violation("mia-input-may-under-must",
                                  f"input may {state} -{i}-> {t} is not underlain by an {i}-must",
                                  ("may", state, i, t)))


def _ref_positions(doc) -> dict:
    """Position of every declared subject and of every implied input may."""
    inputs = doc.automaton.alphabet.inputs
    implied: dict = {}
    for key, at in doc.spans.items():
        if key[0] == "must" and key[2] in inputs:
            for t in key[3]:
                edge = ("may", key[1], key[2], t)
                implied[edge] = min(at, implied.get(edge, at))
    return {**implied, **doc.spans}


# ---------------------------------------------------------------------------
# Seeded invalid mutants

GHOST = atom("ghost")


def _pick(rng: random.Random, items):
    items = sorted(items, key=str)
    return rng.choice(items) if items else None


def _labels(aut: ModalAutomaton) -> list[str]:
    return sorted(aut.alphabet.actions) or ["a"]


def _drop_underlying_may(aut, rng):
    edge = _pick(rng, [e for e in aut.must if e[2]])
    if edge is None:
        return aut
    src, label, targets = edge
    return replace(aut, may=aut.may - {(src, label, _pick(rng, targets))})


def _second_input_must(aut, rng):
    src = _pick(rng, {e[0] for e in aut.must if e[1] in aut.alphabet.inputs}) \
        or _pick(rng, aut.states)
    label = _pick(rng, aut.alphabet.inputs) or "a"
    t = _pick(rng, aut.states)
    may = aut.may | {(src, label, t)} if rng.random() < 0.5 else aut.may
    return replace(aut, must=aut.must | {(src, label, frozenset([t]))}, may=may)


def _duplicate_input_target(aut, rng):
    edge = _pick(rng, [e for e in aut.may if e[1] in aut.alphabet.inputs])
    if edge is None:
        return aut
    src, label, _ = edge
    return replace(aut, may=aut.may | {(src, label, _pick(rng, aut.states))})


def _output_must(aut, rng):
    src, t = _pick(rng, aut.states), _pick(rng, aut.states)
    label = _pick(rng, aut.alphabet.outputs) or "o"
    return replace(aut, must=aut.must | {(src, label, frozenset([t]))},
                   may=aut.may | {(src, label, t)})


def _tau_must(aut, rng):
    src, t = _pick(rng, aut.states), _pick(rng, aut.states)
    return replace(aut, must=aut.must | {(src, TAU, frozenset([t]))})


def _unknown_state(aut, rng):
    src, t, label = _pick(rng, aut.states), _pick(rng, aut.states), rng.choice(_labels(aut))
    roll = rng.randrange(3)
    if roll == 0:
        return replace(aut, may=aut.may | {(src, label, GHOST)})
    if roll == 1:
        return replace(aut, may=aut.may | {(GHOST, label, t)})
    return replace(aut, must=aut.must | {(src, label, frozenset([t, GHOST]))})


def _unknown_action(aut, rng):
    src, t = _pick(rng, aut.states), _pick(rng, aut.states)
    if rng.random() < 0.5:
        return replace(aut, may=aut.may | {(src, "zz", t)})
    return replace(aut, must=aut.must | {(src, "zz", frozenset([t]))})


def _bare_input_may(aut, rng):
    src, t = _pick(rng, aut.states), _pick(rng, aut.states)
    label = _pick(rng, aut.alphabet.inputs) or "a"
    return replace(aut, may=aut.may | {(src, label, t)})


def _drop_must(aut, rng):
    edge = _pick(rng, aut.must)
    return aut if edge is None else replace(aut, must=aut.must - {edge})


def _wide_or_empty_must(aut, rng):
    src, label = _pick(rng, aut.states), rng.choice(_labels(aut))
    targets = frozenset(rng.sample(sorted(aut.states), min(2, len(aut.states))))
    if rng.random() < 0.3:
        targets = frozenset()
    return replace(aut, must=aut.must | {(src, label, targets)},
                   may=aut.may | {(src, label, t) for t in targets})


def _alphabet_or_initial(aut, rng):
    inputs, outputs = set(aut.alphabet.inputs), set(aut.alphabet.outputs)
    roll = rng.randrange(4)
    if roll == 0:
        inputs.add(_pick(rng, outputs) or "o")  # overlap, or inputs in a dMTS
    elif roll == 1:
        outputs.add(TAU)
    elif roll == 2:
        return replace(aut, initial=GHOST)
    else:
        return replace(aut, flavor=rng.choice(("ia", "mia", "dmts", "xx")))
    return replace(aut, alphabet=Alphabet(frozenset(inputs), frozenset(outputs)))


MUTATIONS = (_drop_underlying_may, _second_input_must, _duplicate_input_target,
             _output_must, _tau_must, _unknown_state, _unknown_action,
             _bare_input_may, _drop_must, _wide_or_empty_must, _alphabet_or_initial)


def _mutants() -> list[ModalAutomaton]:
    rng = random.Random(2013)
    out = []
    for flavor in FLAVORS:
        for seed in range(60):
            size = (6, 40, 300)[seed % 3]
            aut = gen_random(flavor, seed=seed, max_states=size, max_actions=4,
                             transition_density=0.4)
            out.append(aut)
            for _ in range(3):
                mutant = aut
                for _ in range(rng.randint(1, 3)):
                    mutant = rng.choice(MUTATIONS)(mutant, rng)
                out.append(mutant)
    return out


def _corpus_documents() -> list[str]:
    paths = sorted(CORPUS.glob("*.*")) + sorted(GOLDEN.glob("*.*"))
    return [path.read_text(encoding="utf-8") for path in paths]


# ---------------------------------------------------------------------------
# Tests


def test_validation_matches_the_per_state_scans():
    auts = [parse_document(text).automaton for text in _corpus_documents()]
    auts += _mutants()
    assert max(len(aut.states) for aut in auts) >= 200
    rules = set()
    for aut in auts:
        expected = _ref_validate(aut)
        assert validate(aut) == expected, aut.name
        assert _valid_by_sets(aut) == (not expected), aut.name
        rules.update(v.rule for v in expected)
    # every rule is exercised
    assert rules == {
        "flavor", "alphabet-disjoint", "tau-reserved", "dmts-io-split",
        "initial-state", "unknown-state", "unknown-action", "tau-must",
        "empty-must-target", "syntactic-consistency", "ia-output-must",
        "ia-must-shape", "ia-input-determinism", "ia-input-encoding",
        "mia-input-must-unique", "mia-input-may-under-must"}


def test_validate_document_spans_match():
    texts = _corpus_documents()
    texts += [serialize(aut) for aut in _mutants() if aut.flavor in FLAVORS]
    checked = spanned = implied = 0
    for text in texts:
        try:
            doc = parse_document(text)
        except ParseError:
            continue
        positions = _ref_positions(doc)
        expected = [(v, positions.get(v.subject)) for v in _ref_validate(doc.automaton)]
        assert validate_document(doc) == expected
        checked += 1
        spanned += sum(span is not None for _, span in expected)
        implied += sum(span is not None and v.subject not in doc.spans
                       for v, span in expected)
    assert checked >= 200 and spanned >= 100 and implied >= 50


# ---------------------------------------------------------------------------
# One rule at a time: the subset tests refuse each


def _fresh_actions(aut: ModalAutomaton) -> ModalAutomaton:
    """``aut`` with an unused output ``zo`` and, outside dMTS, an unused
    input ``zi``: still valid, and every state is free on both."""
    inputs = aut.alphabet.inputs | ({"zi"} if aut.flavor != DMTS else set())
    return replace(aut, alphabet=Alphabet(inputs, aut.alphabet.outputs | {"zo"}))


def _with(aut, may=(), must=()) -> ModalAutomaton:
    return replace(aut, may=aut.may | set(may), must=aut.must | set(must))


def _plants(aut: ModalAutomaton) -> dict:
    """Rule -> ``aut`` with one fault planted that breaks it; ``aut`` has
    the fresh actions and at least two states."""
    s, t = aut.sorted_states[:2]
    inputs, outputs = aut.alphabet.inputs, aut.alphabet.outputs
    own = "zi" if aut.flavor == IA else "zo"  # the label a valid must may have
    plants = {
        "flavor": replace(aut, flavor="xx"),
        "tau-reserved": replace(aut, alphabet=Alphabet(inputs, outputs | {TAU})),
        "initial-state": replace(aut, initial=GHOST),
        "unknown-state": _with(aut, may=[(s, "zo", GHOST)]),
        "unknown-action": _with(aut, may=[(s, "zz", t)]),
        "syntactic-consistency": _with(aut, must=[(s, own, frozenset([t]))]),
    }
    if aut.flavor == DMTS:
        plants["dmts-io-split"] = replace(aut, alphabet=Alphabet({"zi"}, outputs))
    else:
        plants["alphabet-disjoint"] = replace(
            aut, alphabet=Alphabet(inputs | {"zo"}, outputs))
    if aut.flavor != IA:
        plants["tau-must"] = _with(aut, may=[(s, TAU, t)],
                                   must=[(s, TAU, frozenset([t]))])
        plants["empty-must-target"] = _with(aut, must=[(s, "zo", frozenset())])
    if aut.flavor == IA:
        plants["ia-output-must"] = _with(aut, may=[(s, "zo", t)],
                                         must=[(s, "zo", frozenset([t]))])
        plants["ia-must-shape"] = _with(aut, may=[(s, "zi", s), (s, "zi", t)],
                                        must=[(s, "zi", frozenset([s, t]))])
        plants["ia-input-determinism"] = _with(aut, may=[(s, "zi", s), (s, "zi", t)],
                                               must=[(s, "zi", frozenset([s]))])
        plants["ia-input-encoding"] = _with(aut, may=[(s, "zi", t)])
    if aut.flavor == MIA:
        plants["mia-input-must-unique"] = _with(
            aut, may=[(s, "zi", s), (s, "zi", t)],
            must=[(s, "zi", frozenset([s])), (s, "zi", frozenset([t]))])
        plants["mia-input-may-under-must"] = _with(aut, may=[(s, "zi", t)])
    return plants


def test_subset_tests_refuse_each_rule_planted_alone():
    planted = set()
    for flavor in FLAVORS:
        for seed, size in enumerate((6, 40, 300)):
            aut = _fresh_actions(gen_random(flavor, seed=seed, max_states=size,
                                            max_actions=4, transition_density=0.4))
            if len(aut.states) < 2:
                aut = replace(aut, states=aut.states | {atom("s_extra")})
            assert _valid_by_sets(aut) and validate(aut) == _ref_validate(aut) == []
            for rule, mutant in _plants(aut).items():
                expected = _ref_validate(mutant)
                assert rule in {v.rule for v in expected}, (flavor, seed, rule)
                assert not _valid_by_sets(mutant), (flavor, seed, rule)
                assert validate(mutant) == expected, (flavor, seed, rule)
                planted.add(rule)
    assert planted == {
        "flavor", "alphabet-disjoint", "tau-reserved", "dmts-io-split",
        "initial-state", "unknown-state", "unknown-action", "tau-must",
        "empty-must-target", "syntactic-consistency", "ia-output-must",
        "ia-must-shape", "ia-input-determinism", "ia-input-encoding",
        "mia-input-must-unique", "mia-input-may-under-must"}
