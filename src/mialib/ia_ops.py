"""Conjunction, disjunction and parallel composition for Interface Automata.

Conjunction and disjunction build on disjoint copies of their operands and
add one fresh family of states (``p&q`` resp. ``p|q``) on top of the
components, kept as they are as far as the result reaches them.  An IA
keeps its inputs as singleton musts and its outputs as mays, so each rule
returns the singleton must of every input may it emits, the components
bring their own, and the result is built from the product's mays and musts
as a MIA one is.  Parallel composition is MIA composition with the result
flavored ``ia``: on IAs "the partner has a must" and "the partner has a
may" coincide on inputs, so the MIA error rule and pruning are the IA ones.
"""

from __future__ import annotations

from .mia_ops import (Composition, IncompatibilitySet, _incompatible,
                      _parallel_compose, _parallel_product)
from .model import (IA, TAU, IdTable, ModalAutomaton, StateId, explore_pairs,
                    product_operands, require_operands, vee_id, wedge_id)


def ia_conjoin(p: ModalAutomaton, q: ModalAutomaton, *,
               reachable: bool = False) -> ModalAutomaton:
    """Greatest lower bound of two IAs with common alphabets; with
    ``reachable`` only the part reachable from the initial pair."""
    require_operands(p, q, IA)
    p, q, ids = product_operands(p, q, wedge_id, reachable)
    inputs, outputs = p.alphabet.inputs, p.alphabet.outputs

    def rule(w):
        ps, qs = w.parts
        p_mays, q_mays = p.may_row(ps), q.may_row(qs)
        mays = []
        for a in inputs:
            pt = p_mays.get(a)
            qt = q_mays.get(a)
            if pt and not qt:                           # (I1)
                mays.append((a, pt[0]))
            elif qt and not pt:                         # (I2)
                mays.append((a, qt[0]))
            elif pt and qt:                             # (I3)
                mays.append((a, ids[pt[0], qt[0]]))
        musts = [(a, frozenset([t])) for a, t in mays]
        for o in outputs:                               # (O)
            for pt in p_mays.get(o, ()):
                for qt in q_mays.get(o, ()):
                    mays.append((o, ids[pt, qt]))
        for pt in p_mays.get(TAU, ()):                  # (T1)
            mays.append((TAU, ids[pt, qs]))
        for qt in q_mays.get(TAU, ()):                  # (T2)
            mays.append((TAU, ids[ps, qt]))
        return mays, musts

    init = ids[p.initial, q.initial]
    states, may, must = explore_pairs(ids, init, rule, (p, q), reachable)
    return ModalAutomaton(IA, f"{p.name}_and_{q.name}", p.alphabet, states,
                          init, may, must)


def ia_disjoin(p: ModalAutomaton, q: ModalAutomaton, *,
               reachable: bool = False) -> ModalAutomaton:
    """Least upper bound of two IAs: inputs synchronize, outputs commit;
    with ``reachable`` only the part reachable from the initial pair."""
    require_operands(p, q, IA)
    p, q, ids = product_operands(p, q, vee_id, reachable)
    inputs = p.alphabet.inputs

    def row_of(aut: ModalAutomaton):
        """Each state's may row, the labels of its input mays in row order,
        and its mays on outputs and tau."""

        def row(state: StateId):
            mays = aut.may_row(state)
            return (mays, tuple([a for a in mays if a in inputs]),
                    [(a, t) for a, ends in mays.items() if a not in inputs
                     for t in ends] or ())
        return IdTable(row)

    p_rows, q_rows = row_of(p), row_of(q)

    def rule(v):
        ps, qs = v.parts
        p_mays, p_in, p_free = p_rows[ps]
        q_mays, _, q_free = q_rows[qs]
        mays = [(a, ids[p_mays[a][0], q_mays[a][0]])    # (I)
                for a in p_in if a in q_mays]
        musts = [(a, frozenset([t])) for a, t in mays]
        return [*mays, *p_free, *q_free], musts         # (OT1), (OT2)

    init = ids[p.initial, q.initial]
    states, may, must = explore_pairs(ids, init, rule, (p, q), reachable)
    return ModalAutomaton(IA, f"{p.name}_or_{q.name}", p.alphabet, states,
                          init, may, must)


def ia_parallel_product(p1: ModalAutomaton, p2: ModalAutomaton) -> ModalAutomaton:
    """Synchronized product; matched actions become silent transitions."""
    return _parallel_product(p1, p2, IA)


def ia_incompatible(product: ModalAutomaton, p1: ModalAutomaton,
                    p2: ModalAutomaton) -> IncompatibilitySet:
    """Least set of product states that reach an error state autonomously."""
    return _incompatible(product, p1, p2)


def ia_parallel_compose(p1: ModalAutomaton, p2: ModalAutomaton) -> Composition:
    """Product plus pruning; incompatible when the initial pair is pruned,
    which is decided before the product is built."""
    return _parallel_compose(p1, p2, IA, ia_parallel_product, ia_incompatible)
