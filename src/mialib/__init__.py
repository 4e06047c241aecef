"""Interface theories toolkit: IA, dMTS and MIA.

Refinement checking, conjunction, disjunction, parallel composition with
error pruning, embeddings between the theories, a textual automaton format
with a CLI, and a randomized theorem-checking harness.
"""

from .model import (DMTS, IA, MIA, TAU, Alphabet, AlphabetMismatchError,
                    FlavorMismatchError, MialibError, ModalAutomaton,
                    NotComposableError, StateId, Violation, WeakClosure,
                    as_dmts, atom, make_automaton, make_ia, pair_id,
                    rename_disjoint, universal_id, validate, vee_id,
                    weak_closure, wedge_id)
from .refinement import (RefinementWitness, dmts_refines, equiv, holds,
                         ia_refines, mia_equiv, mia_refines, refines)
from .mia_ops import (Composition, Conjunction, ConjunctiveProduct,
                      IncompatibilitySet, InconsistencySet, is_mia_witness,
                      mia_conj_product, mia_conjoin, mia_disjoin,
                      mia_incompatible, mia_parallel_compose,
                      mia_parallel_product, mia_inconsistent)
from .ia_ops import (ia_conjoin, ia_disjoin, ia_incompatible,
                     ia_parallel_compose, ia_parallel_product)
from .dmts_ops import (dmts_conj_product, dmts_conjoin, dmts_disjoin,
                       dmts_inconsistent, is_dmts_witness)
from .embeddings import embed_ia_to_dmts, embed_ia_to_mia
from .frontend import ParseError, export_dot, parse, parse_file, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
