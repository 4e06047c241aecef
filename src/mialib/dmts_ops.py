"""Conjunction, disjunction and witness checking for dMTS.

A dMTS is a MIA without inputs, so every operator here is the MIA one with
the result flavored ``dmts``: a conjunctive product over all state pairs
whose rules match strong musts of one side with weak may-partners of the
other, then removal of the least set of logically inconsistent pairs.
Unlike the MIA product, the dMTS product does not carry its components,
which no input escape could lead to.  Parallel composition is deliberately
absent for this flavor.
"""

from __future__ import annotations

from .mia_ops import (Conjunction, ConjunctiveProduct, InconsistencySet,
                      _conjoin, _ConjunctiveRun, _disjoin, _inconsistent,
                      is_mia_witness)
from .model import DMTS, ModalAutomaton


def dmts_conj_product(p: ModalAutomaton, q: ModalAutomaton, *,
                      reachable: bool = False,
                      run: _ConjunctiveRun | None = None) -> ConjunctiveProduct:
    """Conjunctive product over the full pair space of two dMTSs, or over
    the pairs reachable from the initial one.  ``run``, begun by
    :func:`dmts_conjoin` over ``p`` and ``q``, is finished in place of a
    fresh one."""
    return (run or _ConjunctiveRun(p, q, DMTS, reachable)).product()


def dmts_inconsistent(product: ConjunctiveProduct) -> InconsistencySet:
    return _inconsistent(product)


def dmts_conjoin(p: ModalAutomaton, q: ModalAutomaton, *,
                 reachable: bool = False) -> Conjunction:
    """Conjunctive product minus its inconsistent states; with
    ``reachable`` only the part reachable from the initial pair.  An
    inconsistent initial pair is found before the product is built."""
    return _conjoin(p, q, DMTS, reachable, dmts_conj_product, dmts_inconsistent)


def dmts_disjoin(p: ModalAutomaton, q: ModalAutomaton, *,
                 reachable: bool = False) -> ModalAutomaton:
    """Least upper bound: fresh ``p|q`` states feed into the components."""
    return _disjoin(p, q, DMTS, reachable)


# Every dMTS action is an output and no product must leads into an operand,
# so the MIA witness conditions are the dMTS ones.
is_dmts_witness = is_mia_witness
