"""Differential test: the passes after a product, and both printers,
against frozen copies of their former code.

``remove_states`` now keeps every edge it does not touch as the same
object and hands the result its sorted musts when the source has them;
``serialize`` leaves the covered input mays out before it sorts;
``export_dot`` quotes each label once; the incompatibility closure sorts
its edges source by source and drops an edge once its source is
incompatible; a composition's closure reuses the tested pairs and error
rule of its first walk.  The oracles below are the former code, kept
verbatim apart from names and docstrings; the former closure tests
every pair, as it did when no pairs were known tested.  Outputs must be
equal byte for byte, and results field for field, on:

* seeded testkit automata of every flavor, and their conjunctions and
  compositions;
* invalid dMTS and MIA automata, with input mays no must covers and with
  multi-target musts;
* IA states named like the modality keywords;
* the refused benchmark compositions at three sizes;
* partial benchmark conjunctions whose pruning shrinks two musts of one
  state and label to the same set.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

from mialib import dmts_ops, ia_ops, mia_ops
from mialib.frontend import export_dot, parse, serialize
from mialib.mia_ops import _error_rule, _prune
from mialib.model import (DMTS, IA, MIA, TAU, EmptiedMustError, IdTable,
                          atom, make_automaton, make_ia, remove_states)
from mialib.testkit import gen_composable_pair, gen_pair, gen_random

from test_early_decision_differential import (BENCH, CONJ_PRODUCT,
                                              INCOMPATIBLE, INCONSISTENT,
                                              PARALLEL_PRODUCT, SIZES)

SEEDS = 40
CONJOIN = {DMTS: dmts_ops.dmts_conjoin, MIA: mia_ops.mia_conjoin}
COMPOSE = {IA: ia_ops.ia_parallel_compose, MIA: mia_ops.mia_parallel_compose}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(BENCH))
        import workloads
        yield workloads


# ---------------------------------------------------------------------------
# Frozen oracles


_OLD_KEYWORD_LED = re.compile(r"(?:may|must)(?!\w)")
_OLD_KEYWORD = ("may ", "must ")


def _old_fmt_alphabet(label: str, actions) -> str:
    return f"  {label}: {', '.join(sorted(actions))};"


def _old_fmt_target(targets) -> str:
    if len(targets) == 1:
        return next(iter(targets)).text
    return "{" + ", ".join(sorted(targets)) + "}"


def old_serialize(aut) -> str:
    lines = [f"{aut.flavor} {aut.name} {{"]
    if aut.flavor == DMTS:
        lines.append(_old_fmt_alphabet("actions", aut.alphabet.outputs))
    else:
        lines.append(_old_fmt_alphabet("inputs", aut.alphabet.inputs))
        lines.append(_old_fmt_alphabet("outputs", aut.alphabet.outputs))
    lines.append(f"  initial {aut.initial.text};")

    inputs = aut.alphabet.inputs
    if aut.flavor == IA:
        led = {state for state in aut.states if _OLD_KEYWORD_LED.match(state)}
        lines += [f"  {_OLD_KEYWORD[label in inputs] if src in led else ''}"
                  f"{src.text} -{label}-> {tgt.text};"
                  for src, label, tgt in aut.sorted_may]
    else:
        lines += [f"  must {src.text} -{label}-> {_old_fmt_target(targets)};"
                  for src, label, targets in aut.sorted_must]
        covered = {(src, label, t) for src, label, targets in aut.must
                   if label in inputs for t in targets}
        lines += [f"  may {edge[0].text} -{edge[1]}-> {edge[2].text};"
                  for edge in aut.sorted_may if edge not in covered]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _old_q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _old_edge_label(aut, label: str) -> str:
    if label == TAU:
        return TAU
    if label in aut.alphabet.inputs:
        return f"{label}?"
    return f"{label}!"


def old_export_dot(aut) -> str:
    prefix = "__junction_"
    while any(state.startswith(prefix) for state in aut.states):
        prefix = "_" + prefix
    quoted = IdTable(lambda state: _old_q(state.text))
    out = [f"digraph {_old_q(aut.name)} {{", "  rankdir=LR;",
           "  node [shape=ellipse];"]
    for state in aut.sorted_states:
        extra = " peripheries=2" if state == aut.initial else ""
        out.append(f"  {quoted[state]} [label={quoted[state]}{extra}];")
    covered = set()
    junction = 0
    for src, label, targets in aut.sorted_must:
        covered.update((src, label, t) for t in targets)
        text = _old_edge_label(aut, label)
        if len(targets) == 1:
            tgt = next(iter(targets))
            out.append(f"  {quoted[src]} -> {quoted[tgt]} [label={_old_q(text)}];")
        else:
            j = f"{prefix}{junction}"
            junction += 1
            out.append(f"  {_old_q(j)} [shape=point label=\"\"];")
            out.append(f"  {quoted[src]} -> {_old_q(j)} [label={_old_q(text)} arrowhead=none];")
            for tgt in sorted(targets):
                out.append(f"  {_old_q(j)} -> {quoted[tgt]};")
    for src, label, tgt in aut.sorted_may:
        if (src, label, tgt) in covered:
            continue
        text = _old_edge_label(aut, label)
        out.append(f"  {quoted[src]} -> {quoted[tgt]} [label={_old_q(text)} style=dashed];")
    out.append("}")
    return "\n".join(out) + "\n"


def old_remove_states(aut, dead):
    dead = frozenset(dead)
    if dead.isdisjoint(aut.states):
        return aut
    keep = aut.states - dead
    may = frozenset((s, l, t) for s, l, t in aut.may if s in keep and t in keep)
    must = set()
    for s, l, T in aut.must:
        if s not in keep:
            continue
        T2 = frozenset(T - dead)
        if not T2:
            raise EmptiedMustError(
                f"pruning emptied must {s} -{l}-> at a surviving state")
        must.add((s, l, T2))
    return replace(aut, states=keep, may=may, must=frozenset(must))


def old_incompatible(product, p1, p2):
    """The former ``_incompatible`` without ``tested``: every pair tested,
    and the closure swept over the whole-tuple sort of its edges."""
    error = _error_rule(p1, p2)
    errors = {}
    for state in product.states:
        found = error(state)
        if found is not None:
            errors[state] = found
    if not errors:
        return mia_ops.IncompatibilitySet(errors=frozenset(),
                                          incompatible=frozenset(),
                                          provenance={})
    autonomous = product.alphabet.outputs | {TAU}
    edges = sorted([edge for edge in product.may if edge[1] in autonomous])
    provenance = dict(errors)
    incompatible = set(errors)
    changed = True
    while changed:
        changed = False
        for src, label, tgt in edges:
            if src not in incompatible and tgt in incompatible:
                incompatible.add(src)
                provenance[src] = ("autonomous-step", f"{src} -{label}-> {tgt}")
                changed = True
    return mia_ops.IncompatibilitySet(errors=frozenset(errors),
                                      incompatible=frozenset(incompatible),
                                      provenance=provenance)


# ---------------------------------------------------------------------------
# Checks


def _same_printed(aut) -> None:
    assert serialize(aut) == old_serialize(aut)
    assert export_dot(aut) == old_export_dot(aut)


def _same_removal(aut, dead) -> object:
    """``remove_states`` against the oracle: the same automaton, the same
    printed text, sorted musts as a fresh sort gives them, and every edge
    it did not touch kept as the source's own object."""
    new, old = remove_states(aut, dead), old_remove_states(aut, dead)
    assert new == old
    assert serialize(new) == old_serialize(old)
    assert new.sorted_must == old.sorted_must
    assert new.sorted_may == old.sorted_may
    dead = frozenset(dead)
    mays = {edge: edge for edge in aut.may}
    assert all(mays[edge] is edge for edge in new.may)
    musts = {edge: edge for edge in aut.must}
    untouched = [edge for edge in new.must if edge in musts]
    assert all(musts[edge] is edge for edge in untouched)
    assert len(untouched) == sum(1 for src, _, targets in aut.must
                                 if src not in dead and targets.isdisjoint(dead))
    return new


def _merged(aut, dead) -> int:
    """How many musts of ``aut`` shrink onto another kept must."""
    kept = [(src, label, targets - dead) for src, label, targets in aut.must
            if src not in dead]
    return len(kept) - len(set(kept))


# ---------------------------------------------------------------------------
# Printers


@pytest.mark.parametrize("flavor", (IA, DMTS, MIA))
def test_printers_match_on_testkit_automata(flavor):
    for seed in range(SEEDS):
        p, q = gen_pair(flavor, seed, max_states=6, transition_density=0.6)
        _same_printed(p)
        _same_printed(q)
        _same_printed(gen_random(flavor, max_states=5, seed=seed))


def _raw(flavor: str, rng: random.Random):
    """An automaton built without validation: random mays, and musts of
    one to three targets, each with its underlying mays or without."""
    inputs = {"i", "j"} if flavor == MIA else set()
    outputs = {"o", "p"}
    labels = sorted(inputs | outputs) + ([TAU] if rng.random() < 0.5 else [])
    states = [atom(f"s{k}") for k in range(rng.randint(1, 6))]
    may, must = set(), set()
    for _ in range(rng.randint(0, 12)):
        may.add((rng.choice(states), rng.choice(labels), rng.choice(states)))
    for _ in range(rng.randint(0, 6)):
        src, label = rng.choice(states), rng.choice(sorted(inputs | outputs))
        targets = frozenset(rng.sample(states, rng.randint(1, min(3, len(states)))))
        must.add((src, label, targets))
        if rng.random() < 0.6:
            may.update((src, label, t) for t in targets)
    return make_automaton(flavor, "raw", inputs, outputs, states[0], may,
                          must, states=states)


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_printers_match_on_invalid_automata(flavor):
    rng = random.Random(f"passes|invalid|{flavor}")
    uncovered = multi = 0
    for _ in range(300):
        aut = _raw(flavor, rng)
        _same_printed(aut)
        covered = {(s, l, t) for s, l, T in aut.must for t in T}
        uncovered += any(l in aut.alphabet.inputs and e not in covered
                         for e in aut.may for l in [e[1]])
        multi += any(len(T) > 1 for _, _, T in aut.must)
    assert multi > 20 and (flavor == DMTS or uncovered > 20)


def test_printers_match_on_keyword_named_ia_states():
    may, must, mayday, must_x, maybe, mayor = map(atom, (
        "may", "must", "mayday", "must_x", "maybe", "may_or"))
    aut = make_ia("K", {"must", "i"}, {"may", "o"}, may,
                  [(may, "must", must), (must, "i", mayday),
                   (must, "may", must_x), (mayday, "o", must_x),
                   (must_x, TAU, may), (may, "o", maybe), (maybe, "i", mayor)])
    _same_printed(aut)
    text = serialize(aut)
    assert "  must may -must-> must;" in text and "  may must -may-> must_x;" in text
    assert parse(text) == aut


# ---------------------------------------------------------------------------
# remove_states


@pytest.mark.parametrize("flavor", (IA, DMTS, MIA))
def test_removal_matches_on_testkit_automata(flavor):
    rng = random.Random(f"passes|remove|{flavor}")
    for seed in range(SEEDS):
        p, q = gen_pair(flavor, seed, max_states=6, transition_density=0.6)
        for aut in (p, q):
            for _ in range(3):
                dead = set(rng.sample(sorted(aut.states),
                                      rng.randint(0, len(aut.states))))
                # a must's source dies with all of its targets
                while not dead >= {s for s, _, T in aut.must if T <= dead}:
                    dead |= {s for s, _, T in aut.must if T <= dead}
                if rng.random() < 0.5:
                    aut.sorted_must  # the source holds its sorted musts
                _same_removal(aut, dead)


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_shrunk_musts_of_one_state_and_label_merge(flavor):
    a, b, c, d, s = map(atom, "abcds")
    outputs = {"o"}
    may = {(s, "o", t) for t in (a, b, c, d)}
    must = {(s, "o", frozenset([a, b])), (s, "o", frozenset([a, c])),
            (s, "o", frozenset([a])), (s, "o", frozenset([b, d])),
            (s, "o", frozenset([c, d]))}
    aut = make_automaton(flavor, "m", (), outputs, s, may, must)
    for in_order in (False, True):
        if in_order:
            aut.sorted_must
        new = _same_removal(aut, {b, c})
        assert new.sorted_must == ((s, "o", frozenset([a])),
                                   (s, "o", frozenset([d])))


def test_untouched_edges_are_the_sources_own_objects(workloads):
    p, q = workloads.conj_pair(MIA, "partial", 40, 40,
                               random.Random("passes|mia|40|40|0"))
    product = mia_ops.mia_conj_product(p, q)
    aut = product.automaton
    dead = mia_ops.mia_inconsistent(product).members
    new = _same_removal(aut, dead)
    assert 0 < len(new.may) < len(aut.may) and 0 < len(new.must) < len(aut.must)
    assert sum(edge in aut.must for edge in new.must) < len(new.must)


@pytest.mark.parametrize("flavor", (DMTS, MIA))
def test_partial_conjunctions_match_the_former_pruning(workloads, flavor):
    merged = 0
    for n1, n2 in ((20, 30), (40, 40)):
        for seed in range(6):
            rng = random.Random(f"passes|{flavor}|{n1}|{n2}|{seed}")
            p, q = workloads.conj_pair(flavor, "partial", n1, n2, rng)
            for reachable in (False, True):
                product = CONJ_PRODUCT[flavor](p, q, reachable=reachable)
                bad = INCONSISTENT[flavor](product)
                aut = product.automaton
                assert bad.members and aut.initial not in bad.members
                conj = CONJOIN[flavor](p, q, reachable=reachable)
                ref = _prune(product, bad, reachable)
                assert conj.automaton == ref.automaton
                assert conj.inconsistency == bad
                assert serialize(conj.automaton) == old_serialize(ref.automaton)
                dead = aut.states - ref.automaton.states
                assert aut.sorted_must  # the fixpoint sorted them
                _same_removal(aut, dead)
                merged += _merged(aut, dead)
    assert merged > 0


@pytest.mark.parametrize("flavor", (IA, DMTS, MIA))
def test_testkit_results_print_as_before(flavor):
    for seed in range(SEEDS):
        p, q = gen_pair(flavor, seed, max_states=6, transition_density=0.6)
        for reachable in (False, True):
            if flavor == IA:
                results = [ia_ops.ia_conjoin(p, q, reachable=reachable)]
            else:
                conj = CONJOIN[flavor](p, q, reachable=reachable)
                product = CONJ_PRODUCT[flavor](p, q, reachable=reachable)
                ref = _prune(product, INCONSISTENT[flavor](product), reachable)
                assert conj.automaton == ref.automaton
                results = [conj.automaton] if conj.defined else []
            for aut in results:
                _same_printed(aut)


# ---------------------------------------------------------------------------
# The incompatibility closure


def _same_incompatibility(comp, p1, p2, flavor: str) -> None:
    ref = old_incompatible(comp.product, p1, p2)
    assert comp.incompatibility == ref
    assert INCOMPATIBLE[flavor](comp.product, p1, p2) == ref


@pytest.mark.parametrize("flavor", (IA, MIA))
def test_refused_compositions_match_the_former_closure(workloads, flavor):
    for n1, n2 in SIZES:
        rng = random.Random(f"early|{flavor}|refused|{n1}|{n2}")
        p1, p2 = workloads.compose_pair(flavor, "refused", n1, n2, rng)
        comp = COMPOSE[flavor](p1, p2)
        assert not comp.compatible
        _same_incompatibility(comp, p1, p2, flavor)
        assert comp.product == PARALLEL_PRODUCT[flavor](p1, p2)
        assert len(comp.incompatibility.incompatible) > 1


@pytest.mark.parametrize("flavor", (IA, MIA))
def test_testkit_compositions_match_the_former_closure(flavor):
    refused = 0
    for seed in range(SEEDS):
        p1, p2 = gen_composable_pair(flavor, seed, max_states=6,
                                     transition_density=0.6)
        comp = COMPOSE[flavor](p1, p2)
        _same_incompatibility(comp, p1, p2, flavor)
        if comp.compatible:
            _same_printed(comp.automaton)
        refused += not comp.compatible
    assert refused > 3
