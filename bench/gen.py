"""Seeded generator of automata whose every state is reachable.

The testkit generators draw edges independently, so most states of a large
automaton are unreachable and every operator skips them.  This generator
starts from a random spanning tree rooted at the initial state and adds
seeded extra edges, so every state takes part in the work:

* ``tau_share`` of the edges are silent, the rest carry a random action;
* ``must_share`` of the eligible mays are promoted to musts (dMTS and MIA;
  IA inputs are always singleton musts);
* ``tree_labels``, when given, are the only actions on spanning-tree edges;
* IA stays input-deterministic, and a MIA state has at most one must per
  input, which covers every may on that input.

The reserved output ``RESERVED`` is declared but never used on an edge, so
a failing refinement can be planted by adding one may on it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from mialib import DMTS, IA, TAU, ModalAutomaton, atom, make_automaton, testkit, validate
from mialib.model import reachable_states

RESERVED = "zerr"
# Extra mays that ``loosen`` adds, per state of the specification.
LOOSEN_EXTRA = 0.3


class GeneratorError(Exception):
    """A generated automaton broke one of the generator's invariants."""


@dataclass(frozen=True)
class GenParams:
    """Shape of one generated automaton."""

    flavor: str
    states: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    extra_per_state: float = 2.0
    tau_share: float = 0.1
    must_share: float = 0.3
    reserved_output: bool = False
    receptive: tuple[str, ...] = ()
    tree_labels: tuple[str, ...] = ()
    prefix: str = "s"


def alphabet_for(flavor: str, n_actions: int, rng: random.Random) -> tuple[tuple, tuple]:
    """Inputs and outputs over ``n_actions`` actions; dMTS has outputs only."""
    actions = [f"a{i}" for i in range(n_actions)]
    if flavor == DMTS:
        return (), tuple(actions)
    k_in = rng.randint(1, n_actions - 1)
    return tuple(actions[:k_in]), tuple(actions[k_in:])


def generate(params: GenParams, rng: random.Random, name: str) -> ModalAutomaton:
    """One automaton of the given shape; every state reachable, valid."""
    n = params.states
    states = [atom(f"{params.prefix}{i}") for i in range(n)]
    inputs, outputs = list(params.inputs), list(params.outputs)
    # Receptive inputs get exactly one edge per state below, never a random one.
    labels = [a for a in inputs + outputs if a not in params.receptive]
    may: set = set()
    input_taken: set = set()

    def pick_label(src, choices=labels) -> str:
        if rng.random() < params.tau_share:
            return TAU
        label = rng.choice(choices)
        if params.flavor == IA and label in inputs:
            if (src, label) in input_taken:
                # IA inputs are deterministic; fall back to an output.
                return rng.choice(outputs) if outputs else TAU
            input_taken.add((src, label))
        return label

    for i in range(1, n):
        # Parents drawn from the recent half keep the tree deep.
        parent = states[rng.randrange(i // 2, i)]
        may.add((parent, pick_label(parent, params.tree_labels or labels), states[i]))
    for _ in range(int(params.extra_per_state * n)):
        src = rng.choice(states)
        may.add((src, pick_label(src), rng.choice(states)))
    for src in states:
        for a in params.receptive:
            may.add((src, a, rng.choice(states)))

    must: set = set()
    if params.flavor == IA:
        must = {(s, a, frozenset([t])) for s, a, t in may if a in inputs}
    else:
        by_src_label: dict = {}
        for s, a, t in may:
            if a != TAU:
                by_src_label.setdefault((s, a), []).append(t)
        for (s, a), targets in sorted(by_src_label.items(),
                                      key=lambda kv: (kv[0][0].text, kv[0][1])):
            targets.sort()
            if a in inputs:
                # MIA: the single input must covers every may on that input.
                must.add((s, a, frozenset(targets)))
            elif rng.random() < params.must_share:
                k = rng.randint(1, min(2, len(targets)))
                must.add((s, a, frozenset(rng.sample(targets, k))))

    all_outputs = outputs + ([RESERVED] if params.reserved_output else [])
    aut = make_automaton(params.flavor, name, inputs, all_outputs, states[0],
                         may, must, states=states)
    check_invariants(aut)
    return aut


def check_invariants(aut: ModalAutomaton) -> None:
    problems = validate(aut)
    if problems:
        raise GeneratorError(f"{aut.name}: {problems[0]}")
    if reachable_states(aut) != aut.states:
        raise GeneratorError(f"{aut.name}: unreachable states")


def farthest_state(aut: ModalAutomaton, labels=None):
    """State farthest from the initial one along ``labels`` steps.

    ``labels`` defaults to the outputs and ``tau``: the steps a refinement
    check must match on the specification side.
    """
    autonomous = (set(aut.alphabet.outputs) if labels is None else set(labels)) | {TAU}
    dist = {aut.initial: 0}
    queue = deque([aut.initial])
    while queue:
        cur = queue.popleft()
        for label, tgt in aut.may_from(cur):
            if label in autonomous and tgt not in dist:
                dist[tgt] = dist[cur] + 1
                queue.append(tgt)
    return max(dist, key=lambda s: (dist[s], s.text)), max(dist.values())


def plant_failure(impl: ModalAutomaton) -> ModalAutomaton:
    """Add one may on the reserved output at the farthest state.

    The specification never offers ``RESERVED``, and the state is reached
    from the root by moves the specification must match, so refinement of
    the result fails at the root.
    """
    if RESERVED not in impl.alphabet.outputs:
        raise GeneratorError(f"{impl.name}: no reserved output to plant on")
    state, _ = farthest_state(impl)
    return rebuild(impl, set(impl.may) | {(state, RESERVED, impl.initial)},
                   impl.must)


def rebuild(aut: ModalAutomaton, may, must, outputs=None) -> ModalAutomaton:
    """``aut`` with other transitions (and optionally other outputs)."""
    return make_automaton(aut.flavor, aut.name, aut.alphabet.inputs,
                          aut.alphabet.outputs if outputs is None else outputs,
                          aut.initial, may, must, states=aut.states)


def holding_impl(spec: ModalAutomaton, rng: random.Random) -> ModalAutomaton:
    """``testkit.weaken(spec)`` with the spec's tree mays put back.

    Weakening alone can drop the root's only outgoing mays and leave a
    one-state implementation.  Restoring mays of the spec keeps the
    identity relation a witness (impl mays stay a subset of spec mays,
    spec musts a subset of impl musts) and every state reachable.
    """
    impl = testkit.weaken(spec, rng)
    tree = _tree_mays(spec)
    return rebuild(impl, set(impl.may) | tree, impl.must)


def _tree_mays(aut: ModalAutomaton) -> set:
    seen = {aut.initial}
    queue = deque([aut.initial])
    tree = set()
    while queue:
        cur = queue.popleft()
        for label, tgt in aut.may_from(cur):
            if tgt not in seen:
                seen.add(tgt)
                tree.add((cur, label, tgt))
                queue.append(tgt)
    return tree


def loosen(spec: ModalAutomaton, rng: random.Random) -> ModalAutomaton:
    """A specification that ``spec`` refines: fewer output musts, more mays.

    Input musts stay (dropping one would drop its mays in IA and MIA);
    added mays carry outputs or ``tau``, which need no must in any flavor.
    """
    inputs = spec.alphabet.inputs
    must = {e for e in sorted(spec.must, key=_must_key)
            if e[1] in inputs or rng.random() < 0.5}
    states = spec.sorted_states
    labels = sorted(spec.alphabet.outputs - {RESERVED}) + [TAU]
    may = set(spec.may)
    for _ in range(int(LOOSEN_EXTRA * len(states))):
        may.add((rng.choice(states), rng.choice(labels), rng.choice(states)))
    return rebuild(spec, may, must)


def _must_key(edge) -> tuple:
    src, label, targets = edge
    return (src.text, label, sorted(t.text for t in targets))


def plant_root_must(aut: ModalAutomaton) -> ModalAutomaton:
    """Require the reserved output at the initial state (must plus may)."""
    edge = (aut.initial, RESERVED, aut.initial)
    return rebuild(aut, set(aut.may) | {edge},
                   set(aut.must) | {(aut.initial, RESERVED, frozenset([aut.initial]))},
                   outputs=aut.alphabet.outputs | {RESERVED})


def drop_input(aut: ModalAutomaton, state, action: str) -> ModalAutomaton:
    """Remove every may and must of ``state`` on input ``action``."""
    return rebuild(aut, {e for e in aut.may if (e[0], e[1]) != (state, action)},
                   {e for e in aut.must if (e[0], e[1]) != (state, action)})


def renamed_copy(aut: ModalAutomaton, prefix: str) -> ModalAutomaton:
    """Isomorphic copy with every state renamed; equivalent by construction."""
    ren = {s: atom(prefix + s.text) for s in aut.states}
    return make_automaton(aut.flavor, aut.name + "_copy", aut.alphabet.inputs,
                          aut.alphabet.outputs, ren[aut.initial],
                          {(ren[s], a, ren[t]) for s, a, t in aut.may},
                          {(ren[s], a, frozenset(ren[t] for t in T))
                           for s, a, T in aut.must},
                          states=ren.values())
