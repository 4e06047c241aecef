"""Modality-assigning translations of IA into dMTS and MIA.

The dMTS embedding adds a fresh catch-all state reachable by every missing
input; the MIA embedding keeps the carrier untouched because MIA treats
unspecified inputs as implicitly allowed.  Both preserve and reflect
refinement.
"""

from __future__ import annotations

from dataclasses import replace

from .model import (IA, MIA, ModalAutomaton, StateNameCollisionError, as_dmts,
                    require_flavor, universal_id)


def embed_ia_to_dmts(p: ModalAutomaton) -> ModalAutomaton:
    """Embed an IA into dMTS over the flattened action set.

    Every transition becomes a may, inputs additionally become singleton
    musts, each missing input gains a may into the fresh universal state,
    and the universal state allows every action of the alphabet.
    """
    require_flavor(p, IA)
    actions = p.alphabet.actions
    inputs = p.alphabet.inputs
    u = universal_id(p.name)
    if u in p.states:
        raise StateNameCollisionError(
            f"{p.name} already has a state named {u}, the universal state")

    added = {(state, a, u) for state in p.states for a in inputs
             if not p.has_may(state, a)}
    added.update((u, a, u) for a in actions)

    return replace(as_dmts(p), name=f"{p.name}_as_dmts",
                   states=p.states | {u}, may=p.may | added)


def embed_ia_to_mia(p: ModalAutomaton) -> ModalAutomaton:
    """Embed an IA into MIA: same carrier, inputs become singleton musts.

    On the shared transition store this is a re-flavoring; the transitions
    of an IA are already kept as mays with singleton musts on inputs.
    """
    require_flavor(p, IA)
    return replace(p, flavor=MIA, name=f"{p.name}_as_mia")
