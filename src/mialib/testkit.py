"""Randomized checking harness: generators, oracle, theorem suites.

The generator produces valid automata of any flavor from a seed.  The
refinement oracle re-decides refinement by a memoized game-tree search with
an assumption set (revisiting a pair on the current path counts as success)
and shares no code with the fixpoint checker, so the two can cross-validate
each other.  Theorem suites draw seeded instances, check an algebraic law,
and shrink plus serialize any counterexample.

The suites come from one law table, ``_LAWS``: a name pattern, the flavors
it holds for, a sampler ``(flavor, rng)`` and a check ``(flavor, automata)``
returning a failure message or None.  A check reads the operators from
``ia_ops``, ``dmts_ops`` and ``mia_ops`` when it runs, so a patched
operator reaches every suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from . import dmts_ops, embeddings, ia_ops, mia_ops
from .frontend import serialize
from .model import (DMTS, FLAVORS, IA, MIA, TAU, FlavorMismatchError,
                    MialibError, ModalAutomaton, StateId, atom, make_automaton,
                    make_ia, validate)
from .refinement import _verdict, holds, mia_equiv, refines

ORACLE_STATE_LIMIT = 7
SHRINK_BUDGET = 400  # candidates one shrink may try


class SizeLimitError(MialibError):
    """The oracle is exponential and refuses large instances."""


class UnknownSuiteError(MialibError):
    pass


class InvalidGeneratedError(MialibError):
    """A generator built an automaton that breaks a flavor invariant."""


def _checked(aut: ModalAutomaton) -> ModalAutomaton:
    problems = validate(aut)
    if problems:
        raise InvalidGeneratedError(
            f"generated {aut.name} is invalid: "
            + "; ".join(str(v) for v in problems))
    return aut


# ---------------------------------------------------------------------------
# Generators


def blackhole(inputs, outputs) -> ModalAutomaton:
    """Single state, self-loops on every input, no outputs."""
    s = atom("blackhole")
    return make_ia("blackhole", inputs, outputs, s,
                   [(s, a, s) for a in sorted(inputs)])


def gen_over(flavor: str, inputs, outputs, *, max_states: int = 4,
             transition_density: float = 0.3, seed=0) -> ModalAutomaton:
    """Random valid automaton over the given alphabet, fixed by the seed."""
    rng = random.Random(f"{flavor}|{sorted(inputs)}|{sorted(outputs)}|"
                        f"{max_states}|{transition_density}|{seed}")
    return _gen(flavor, sorted(inputs), sorted(outputs), max_states,
                transition_density, rng)


def gen_random(flavor: str, *, max_states: int = 4, max_actions: int = 3,
               transition_density: float = 0.3, seed=0) -> ModalAutomaton:
    """Random valid automaton with a random alphabet, fixed by the seed."""
    rng = random.Random(f"{flavor}|{max_states}|{max_actions}|"
                        f"{transition_density}|{seed}")
    inputs, outputs = _alphabet(flavor, max_actions, rng)
    return _gen(flavor, inputs, outputs, max_states, transition_density, rng)


def _alphabet(flavor: str, max_actions: int,
              rng: random.Random) -> tuple[list[str], list[str]]:
    """Actions ``a0..``; outside dMTS each is an input with probability 1/2."""
    actions = [f"a{i}" for i in range(rng.randint(1, max_actions))]
    if flavor == DMTS:
        return [], actions
    inputs = [a for a in actions if rng.random() < 0.5]
    return inputs, [a for a in actions if a not in inputs]


def _gen(flavor: str, inputs: list[str], outputs: list[str], max_states: int,
         density: float, rng: random.Random) -> ModalAutomaton:
    n = rng.randint(1, max_states)
    states = [atom(f"s{i}") for i in range(n)]
    may: set = set()
    must: set = set()

    def targets(k_max: int) -> list[StateId]:
        k = 1 + (rng.random() < 0.25 * density and n > 1)
        return rng.sample(states, min(k, n, k_max))

    for s in states:
        if flavor == IA:
            for a in inputs:
                if rng.random() < density:
                    t = rng.choice(states)
                    may.add((s, a, t))
                    must.add((s, a, frozenset([t])))
        else:
            for i in sorted(inputs):
                if rng.random() < density:
                    tset = targets(2)
                    must.add((s, i, frozenset(tset)))
                    may.update((s, i, t) for t in tset)
        drawn = {}
        for o in list(outputs) + [TAU]:
            if rng.random() < density * (0.6 if o == TAU else 1.0):
                drawn[o] = targets(2)
                may.update((s, o, t) for t in drawn[o])
        if flavor != IA:
            for o in sorted(outputs):
                mays_here = sorted(drawn.get(o, ()))
                if mays_here and rng.random() < density * 0.7:
                    k = rng.randint(1, len(mays_here))
                    must.add((s, o, frozenset(rng.sample(mays_here, k))))

    return _checked(make_automaton(flavor, f"g{rng.randrange(10**6)}", inputs,
                                   outputs, states[0], may, must, states=states))


def gen_pair(flavor: str, seed, *, max_states: int = 4,
             transition_density: float = 0.35) -> tuple[ModalAutomaton, ModalAutomaton]:
    """Two automata over one shared random alphabet of at most 3 actions."""
    rng = random.Random(f"pair|{flavor}|{seed}")
    inputs, outputs = _alphabet(flavor, 3, rng)
    a = _gen(flavor, inputs, outputs, max_states, transition_density, rng)
    b = _gen(flavor, inputs, outputs, max_states, transition_density, rng)
    return a, b


def gen_composable_pair(flavor: str, seed, *, max_states: int = 4,
                        transition_density: float = 0.35) -> tuple[ModalAutomaton, ModalAutomaton]:
    """Two IAs or MIAs whose shared actions pair an output with an input.

    A dMTS has no inputs, so it is refused before any draw.
    """
    if flavor == DMTS:
        raise FlavorMismatchError("parallel composition is not defined for dmts")
    rng = random.Random(f"composable|{flavor}|{seed}")
    shared = [f"c{i}" for i in range(rng.randint(0, 2))]
    in1, out1 = set(), set()
    in2, out2 = set(), set()
    for c in shared:
        if rng.random() < 0.5:
            out1.add(c)
            in2.add(c)
        else:
            in1.add(c)
            out2.add(c)
    for i in range(rng.randint(0, 2)):
        (in1 if rng.random() < 0.5 else out1).add(f"l{i}")
    for i in range(rng.randint(0, 2)):
        (in2 if rng.random() < 0.5 else out2).add(f"r{i}")
    a = _gen(flavor, sorted(in1), sorted(out1), max_states, transition_density, rng)
    b = _gen(flavor, sorted(in2), sorted(out2), max_states, transition_density, rng)
    return a, b


def weaken(aut: ModalAutomaton, rng: random.Random) -> ModalAutomaton:
    """A derived automaton refining ``aut``.

    Drops may-transitions that underlie no must and, for modal flavors,
    occasionally promotes a kept output-may into a must.  The identity
    relation witnesses the refinement.
    """
    under = {(s, l, t) for (s, l, T) in aut.must for t in T}
    may = set(aut.may)
    for edge in sorted(may - under):
        if rng.random() < 0.4:
            may.discard(edge)
    must = set(aut.must)
    if aut.flavor != IA:
        for (s, l, t) in sorted(may):
            if l in aut.alphabet.outputs and rng.random() < 0.15:
                must.add((s, l, frozenset([t])))
    return _checked(make_automaton(aut.flavor, aut.name + "_impl",
                                   aut.alphabet.inputs, aut.alphabet.outputs,
                                   aut.initial, may, must, states=aut.states))


# ---------------------------------------------------------------------------
# Independent refinement oracle


def _o_eps(aut: ModalAutomaton, s: StateId) -> set[StateId]:
    seen = {s}
    stack = [s]
    while stack:
        cur = stack.pop()
        for lab, t in aut.may_from(cur):
            if lab == TAU and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _o_weak_hat(aut: ModalAutomaton, s: StateId, alpha: str) -> set[StateId]:
    if alpha == TAU:
        return _o_eps(aut, s)
    out = set()
    for mid in _o_eps(aut, s):
        for lab, t in aut.may_from(mid):
            if lab == alpha:
                out.add(t)
    return out


def oracle_refines(flavor: str, impl: ModalAutomaton, spec: ModalAutomaton) -> bool:
    """Decide refinement by game-tree search with an assumed-pairs set.

    A pair revisited on the current path succeeds coinductively.  Results
    proved without touching any assumption are cached.  Exponential in the
    worst case, hence the size limit.
    """
    if len(impl.states) > ORACLE_STATE_LIMIT or len(spec.states) > ORACLE_STATE_LIMIT:
        raise SizeLimitError(
            f"oracle limited to {ORACLE_STATE_LIMIT} states per automaton")
    domain = None if flavor == DMTS else spec.alphabet.outputs | {TAU}
    proven: set[tuple[StateId, StateId]] = set()

    def search(p: StateId, q: StateId, assumed: frozenset) -> tuple[bool, frozenset]:
        if (p, q) in proven:
            return True, frozenset()
        if (p, q) in assumed:
            return True, frozenset([(p, q)])
        here = assumed | {(p, q)}
        used: set = set()

        def attempt(p2: StateId, q2: StateId) -> bool:
            ok, sub_used = search(p2, q2, here)
            if ok:
                used.update(sub_used)
            return ok

        for a, spec_targets in spec.musts_from(q):
            matched = False
            for b, impl_targets in impl.musts_from(p):
                if b == a and all(any(attempt(p2, q2) for q2 in sorted(spec_targets))
                                  for p2 in sorted(impl_targets)):
                    matched = True
                    break
            if not matched:
                return False, frozenset()
        for alpha, p2 in impl.may_from(p):
            if domain is not None and alpha not in domain:
                continue
            if not any(attempt(p2, q2)
                       for q2 in sorted(_o_weak_hat(spec, q, alpha))):
                return False, frozenset()
        used.discard((p, q))
        if not used:
            proven.add((p, q))
        return True, frozenset(used)

    ok, _ = search(impl.initial, spec.initial, frozenset())
    return ok


def recheck_witness(flavor: str, impl: ModalAutomaton, spec: ModalAutomaton,
                    pairs: frozenset) -> bool:
    """Verify clause closure of a claimed refinement relation, pair by pair.

    Each weak successor set of the specification is computed once per call.
    """
    domain = None if flavor == DMTS else spec.alphabet.outputs | {TAU}
    pairset = set(pairs)
    hat: dict = {}
    for p, q in pairs:
        for a, spec_targets in spec.musts_from(q):
            if not any(b == a and all(any((p2, q2) in pairset for q2 in spec_targets)
                                      for p2 in impl_targets)
                       for b, impl_targets in impl.musts_from(p)):
                return False
        for alpha, p2 in impl.may_from(p):
            if domain is not None and alpha not in domain:
                continue
            successors = hat.get((q, alpha))
            if successors is None:
                successors = hat[q, alpha] = _o_weak_hat(spec, q, alpha)
            if not any((p2, q2) in pairset for q2 in successors):
                return False
    return True


# ---------------------------------------------------------------------------
# Shrinking


def _drop_may(aut: ModalAutomaton, edge) -> ModalAutomaton:
    return replace(aut, may=aut.may - {edge})


def _drop_must(aut: ModalAutomaton, edge) -> ModalAutomaton:
    src, label, targets = edge
    # an input must takes its underlying mays with it
    under = {(src, label, t) for t in targets if label in aut.alphabet.inputs}
    return replace(aut, may=aut.may - under, must=aut.must - {edge})


def _drop_state(aut: ModalAutomaton, state: StateId) -> ModalAutomaton:
    may = {(s, l, t) for (s, l, t) in aut.may if s != state and t != state}
    must = set()
    for s, l, T in aut.must:
        if s == state:
            continue
        T2 = frozenset(T - {state})
        if T2:
            must.add((s, l, T2))
        elif l in aut.alphabet.inputs:
            may -= {(s, l, t) for t in T}
    return replace(aut, may=may, must=must, states=aut.states - {state})


def _shrink_candidates(aut: ModalAutomaton):
    under = {(s, l, t) for (s, l, T) in aut.must for t in T}
    for edge in aut.sorted_must:
        yield _drop_must(aut, edge)
    for edge in sorted(aut.may - under):
        yield _drop_may(aut, edge)
    for state in aut.sorted_states:
        if state != aut.initial:
            yield _drop_state(aut, state)


def shrink(inputs: dict, check: Callable[[dict], str | None]) -> dict:
    """Greedy minimization keeping the law violated; validity-preserving."""
    current = dict(inputs)
    spent = 0
    improved = True
    while improved and spent < SHRINK_BUDGET:
        improved = False
        for key in sorted(current):
            for candidate in _shrink_candidates(current[key]):
                spent += 1
                if spent >= SHRINK_BUDGET:
                    break
                if validate(candidate):
                    continue
                trial = dict(current)
                trial[key] = candidate
                try:
                    message = check(trial)
                except MialibError:
                    continue
                if message is not None:
                    current = trial
                    improved = True
                    break
            if improved or spent >= SHRINK_BUDGET:
                break
    return current


# ---------------------------------------------------------------------------
# Theorem suites


@dataclass(frozen=True)
class SuiteFailure:
    trial: int
    message: str
    files: tuple[str, ...]


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    seed: int
    failures: tuple[SuiteFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class _Suite:
    name: str
    sample: Callable[[random.Random], dict]
    check: Callable[[dict], str | None]


def _structural(aut: ModalAutomaton, what: str) -> str | None:
    problems = validate(aut)
    if problems:
        return f"{what} is invalid: {problems[0]}"
    return None


def _op(flavor: str, name: str):
    """``<flavor>_ops.<flavor>_<name>`` as the module holds it now."""
    module = {IA: ia_ops, DMTS: dmts_ops, MIA: mia_ops}[flavor]
    return getattr(module, f"{flavor}_{name}")


def _conjunction(flavor: str, p: ModalAutomaton,
                 q: ModalAutomaton) -> tuple[ModalAutomaton | None, frozenset]:
    """``p ^ q`` (None when inconsistent) and the states it must not keep.

    An inconsistent conjunction keeps no state, so its inconsistency set,
    which it would build only on this read, is not read."""
    conj = _op(flavor, "conjoin")(p, q)
    if flavor == IA:
        return conj, frozenset()
    if not conj.defined:
        return None, frozenset()
    return conj.automaton, conj.inconsistency.members


def _sample_one(flavor: str, rng: random.Random) -> dict:
    return {"a": gen_random(flavor, seed=rng.random(), transition_density=0.4)}


def _sample_pair(flavor: str, rng: random.Random) -> dict:
    return dict(zip(("p", "q"), gen_pair(flavor, rng.random())))


def _sample_oracle_pair(flavor: str, rng: random.Random) -> dict:
    return dict(zip(("p", "q"), gen_pair(flavor, rng.random(), max_states=6)))


def _sample_composable(flavor: str, rng: random.Random) -> dict:
    return dict(zip(("p", "q"), gen_composable_pair(flavor, rng.random())))


def _sample_triple(flavor: str, rng: random.Random) -> dict:
    p, q = gen_pair(flavor, rng.random())
    r = _gen(flavor, sorted(p.alphabet.inputs), sorted(p.alphabet.outputs),
             4, 0.35, rng)
    return {"p": p, "q": q, "r": r}


def _sample_refining_plus(flavor: str, rng: random.Random) -> dict:
    q, r = gen_pair(flavor, rng.random())
    return {"p": weaken(q, rng), "q": q, "r": r}


def _sample_chain(flavor: str, rng: random.Random) -> dict:
    # Rejection sampling over a mixed candidate stream: derived chains
    # are frequent hits, independent draws keep the distribution honest.
    while True:
        if rng.random() < 0.5:
            c = gen_random(flavor, max_states=4, seed=rng.random(),
                           transition_density=0.4)
            b = weaken(c, rng)
            a = weaken(b, rng)
        else:
            c, b = gen_pair(flavor, rng.random())
            a = weaken(b, rng)
        if holds(a, b) and holds(b, c):
            return {"a": a, "b": b, "c": c}


def _sample_par(flavor: str, rng: random.Random) -> dict:
    while True:
        q1, p2 = gen_composable_pair(flavor, rng.random())
        if _op(flavor, "parallel_compose")(q1, p2).compatible:
            return {"p1": weaken(q1, rng), "q1": q1, "p2": p2}


def _check_refl(flavor: str, auts: dict) -> str | None:
    a = auts["a"]
    for state in a.sorted_states:
        if not _verdict(a, a, flavor, state, state):
            return f"refinement not reflexive at {state}"
    return None


def _check_trans(flavor: str, auts: dict) -> str | None:
    a, b, c = auts["a"], auts["b"], auts["c"]
    if not (holds(a, b) and holds(b, c)):
        return None  # precondition broken (can happen while shrinking)
    if not holds(a, c):
        return "transitivity violated"
    return None


def _check_oracle(flavor: str, auts: dict) -> str | None:
    p, q = auts["p"], auts["q"]
    witness = refines(p, q)
    expected = oracle_refines(flavor, p, q)
    if witness.verdict != expected:
        return (f"checker says {witness.verdict}, oracle says {expected}")
    if witness.verdict and (p.initial, q.initial) not in witness.pairs:
        return "holds-witness lacks the root pair"
    if witness.verdict and not recheck_witness(flavor, p, q, witness.pairs):
        return "holds-witness failed independent clause re-check"
    return None


def _check_glb(flavor: str, auts: dict) -> str | None:
    p, q, r = auts["p"], auts["q"], auts["r"]
    below_both = holds(r, p) and holds(r, q)
    conj, inconsistent = _conjunction(flavor, p, q)
    if conj is None:
        return ("common implementation exists but conjunction undefined"
                if below_both else None)
    bad = _structural(conj, "conjunction")
    if bad:
        return bad
    survivors = inconsistent & conj.states
    if survivors:
        return f"inconsistent state survived pruning: {sorted(survivors)[0]}"
    if below_both != holds(r, conj):
        return "glb law violated: r<=p and r<=q iff r<=p^q"
    return None


def _check_lub(flavor: str, auts: dict) -> str | None:
    p, q, r = auts["p"], auts["q"], auts["r"]
    d = _op(flavor, "disjoin")(p, q)
    bad = _structural(d, "disjunction")
    if bad:
        return bad
    if holds(d, r) != (holds(p, r) and holds(q, r)):
        return "lub law violated: p v q <= r iff p<=r and q<=r"
    return None


def _check_mono(flavor: str, auts: dict) -> str | None:
    p, q, r = auts["p"], auts["q"], auts["r"]
    if not holds(p, q):
        return None  # precondition broken while shrinking
    disjoin = _op(flavor, "disjoin")
    dp, dq = disjoin(p, r), disjoin(q, r)
    for aut, what in ((dp, "p v r"), (dq, "q v r")):
        bad = _structural(aut, what)
        if bad:
            return bad
    if not holds(dp, dq):
        return "disjunction not monotone: p<=q but not p v r <= q v r"
    cp, _ = _conjunction(flavor, p, r)
    if cp is not None:
        cq, _ = _conjunction(flavor, q, r)
        if cq is None:
            return "p^r defined but q^r undefined although p<=q"
        if not holds(cp, cq):
            return "conjunction not monotone: p^r <= q^r fails"
    return None


def _check_structural(flavor: str, auts: dict) -> str | None:
    p, q = auts["p"], auts["q"]
    results = [(_op(flavor, "disjoin")(p, q), "disjunction")]
    conj, inconsistent = _conjunction(flavor, p, q)
    if conj is not None:
        results.append((conj, "conjunction"))
        if inconsistent & conj.states:
            return "inconsistent state survived pruning"
    for aut, what in results:
        bad = _structural(aut, what)
        if bad:
            return bad
    return None


def _check_par(flavor: str, auts: dict) -> str | None:
    p1, q1, p2 = auts["p1"], auts["q1"], auts["p2"]
    if not holds(p1, q1):
        return None
    compose = _op(flavor, "parallel_compose")
    spec_comp = compose(q1, p2)
    if not spec_comp.compatible:
        return None
    impl_comp = compose(p1, p2)
    if not impl_comp.compatible:
        return "p1<=q1 and q1,p2 compatible, but p1,p2 incompatible"
    for comp, what in ((impl_comp, "p1|p2"), (spec_comp, "q1|p2")):
        bad = _structural(comp.automaton, what)
        if bad:
            return bad
        leftover = comp.incompatibility.incompatible & comp.automaton.states
        if leftover:
            return f"incompatible state survived pruning: {sorted(leftover)[0]}"
    if not holds(impl_comp.automaton, spec_comp.automaton):
        return "parallel composition not compositional: p1|p2 <= q1|p2 fails"
    return None


def _check_embed_refines(flavor: str, auts: dict) -> str | None:
    p, q = auts["p"], auts["q"]
    direct = holds(p, q)
    via_mia = holds(embeddings.embed_ia_to_mia(p), embeddings.embed_ia_to_mia(q))
    via_dmts = holds(embeddings.embed_ia_to_dmts(p), embeddings.embed_ia_to_dmts(q))
    if direct != via_mia:
        return f"ia refinement {direct} but mia embedding {via_mia}"
    if direct != via_dmts:
        return f"ia refinement {direct} but dmts embedding {via_dmts}"
    return None


def _check_embed_hom_conj(flavor: str, auts: dict) -> str | None:
    p, q = auts["p"], auts["q"]
    lhs = mia_ops.mia_conjoin(embeddings.embed_ia_to_mia(p),
                              embeddings.embed_ia_to_mia(q))
    if not lhs.defined:
        return "conjunction of embeddings unexpectedly inconsistent"
    rhs = embeddings.embed_ia_to_mia(ia_ops.ia_conjoin(p, q))
    bad = _structural(lhs.automaton, "embedded conjunction")
    if bad:
        return bad
    if not mia_equiv(lhs.automaton, rhs):
        return "embedding is not homomorphic for conjunction"
    return None


def _check_embed_hom_par(flavor: str, auts: dict) -> str | None:
    p, q = auts["p"], auts["q"]
    ia_comp = ia_ops.ia_parallel_compose(p, q)
    mia_comp = mia_ops.mia_parallel_compose(embeddings.embed_ia_to_mia(p),
                                            embeddings.embed_ia_to_mia(q))
    if ia_comp.compatible != mia_comp.compatible:
        return (f"compatibility differs: ia {ia_comp.compatible}, "
                f"embedded {mia_comp.compatible}")
    if ia_comp.compatible and not mia_equiv(
            mia_comp.automaton, embeddings.embed_ia_to_mia(ia_comp.automaton)):
        return "embedding is not homomorphic for parallel composition"
    return None


def _check_embed_dmts_oneway(flavor: str, auts: dict) -> str | None:
    p, q = auts["p"], auts["q"]
    ep = embeddings.embed_ia_to_dmts(p)
    eq = embeddings.embed_ia_to_dmts(q)
    conj = dmts_ops.dmts_conjoin(ep, eq)
    if not conj.defined:
        return "conjunction of dmts embeddings unexpectedly inconsistent"
    if not holds(embeddings.embed_ia_to_dmts(ia_ops.ia_conjoin(p, q)),
                 conj.automaton):
        return "embedded conjunction does not refine conjoined embeddings"
    disj = dmts_ops.dmts_disjoin(ep, eq)
    if not holds(disj, embeddings.embed_ia_to_dmts(ia_ops.ia_disjoin(p, q))):
        return "disjoined embeddings do not refine the embedded disjunction"
    return None


# (name pattern, flavors, sampler, check): one suite per listed flavor.
_LAWS = (
    ("{}-refl", FLAVORS, _sample_one, _check_refl),
    ("{}-trans", FLAVORS, _sample_chain, _check_trans),
    ("{}-oracle", FLAVORS, _sample_oracle_pair, _check_oracle),
    ("{}-glb", FLAVORS, _sample_triple, _check_glb),
    ("{}-lub", FLAVORS, _sample_triple, _check_lub),
    ("{}-mono", FLAVORS, _sample_refining_plus, _check_mono),
    ("{}-structural", FLAVORS, _sample_pair, _check_structural),
    ("{}-par-comp", (IA, MIA), _sample_par, _check_par),
    ("embed-refines", (IA,), _sample_pair, _check_embed_refines),
    ("ia-embedding-hom", (IA,), _sample_pair, _check_embed_hom_conj),
    ("ia-embedding-hom-par", (IA,), _sample_composable, _check_embed_hom_par),
    ("embed-dmts-oneway", (IA,), _sample_pair, _check_embed_dmts_oneway),
)


def _registry() -> dict[str, _Suite]:
    suites = (_Suite(pattern.format(flavor), partial(sample, flavor),
                     partial(check, flavor))
              for pattern, flavors, sample, check in _LAWS for flavor in flavors)
    return {suite.name: suite for suite in suites}


SUITES = _registry()


def run_theorem_suite(name: str, trials: int, seed: int,
                      out_dir="results") -> SuiteReport:
    """Run a registered suite; failing trials are shrunk and serialized."""
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}; "
                                f"known: {', '.join(sorted(SUITES))}")
    suite = SUITES[name]
    failures: list[SuiteFailure] = []
    for trial in range(trials):
        rng = random.Random(f"{name}|{seed}|{trial}")
        auts = suite.sample(rng)
        message = suite.check(auts)
        if message is None:
            continue
        small = shrink(auts, suite.check)
        final_message = suite.check(small) or message
        directory = Path(out_dir) / name
        directory.mkdir(parents=True, exist_ok=True)
        files = []
        for key in sorted(small):
            aut = small[key]
            path = directory / f"trial{trial}_{key}.{aut.flavor}"
            path.write_text(serialize(aut), encoding="utf-8")
            files.append(str(path))
        failures.append(SuiteFailure(trial=trial, message=final_message,
                                     files=tuple(files)))
    return SuiteReport(suite=name, trials=trials, seed=seed,
                       failures=tuple(failures))
