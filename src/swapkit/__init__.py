"""swapkit: finite swap-structure semantics for paraconsistent logics.

Snapshots over finite Boolean algebras assemble into multialgebras whose
matrices decide the mbC family of logics of formal inconsistency; the
package covers the general multialgebra toolkit, the per-logic structure
classes with their axiomatic characterizations, power-of-two-element
representation embeddings, the classical pair construction with its duality,
Hilbert proof checking, and a batch CLI.

The proof checker and the table renderers are re-exported lazily: their
modules load on first access to one of their names (PEP 562).
"""

from importlib import import_module as _import_module

from .boolalg import (A2, BaHom, BoolAlg, atom_embedding, ba_product,
                      powerset_algebra)
from .formula import (Binary, Formula, ParseError, Signature, Unary, Var,
                      match_schema, parse, subformula_closure, to_text)
from .logics import CHAIN, LogicId, parse_logic
from .multialg import (EquivRel, MaMap, MultiAlg, is_full_homomorphism,
                       is_homomorphism, is_isomorphism, is_multicongruence,
                       is_submultialgebra, ma_product, quotient)
from .nmatrix import (Bivaluation, Nmatrix, PartialValuation, Verdict,
                      characteristic_matrix, clause_failures, decide,
                      decide_logic, extended_closure, induced_valuation,
                      is_bivaluation, is_legal_valuation, nmatrix_of)
from .swap import (KalmanAlgebra, Snapshot, SwapStructure, characterize,
                   duality_star, find_swap_decoding, full_swap, is_swap_for,
                   kalman_star, mbc_quotient_counterexample, product_iso,
                   random_swap_substructure, represent, universe, validates)

__version__ = "0.1.0"

#: name -> the module that defines it, for the re-exports loaded on first use
_LAZY = dict.fromkeys(("Proof", "axioms_of", "check_proof",
                       "derives_ciw_bottom", "parse_proof"), "hilbert")
_LAZY.update(dict.fromkeys(("render_tables", "tables_json"), "tables"))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
