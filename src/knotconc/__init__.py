"""Knot concordance invariants from cyclic branched covers.

Exact Levine-Tristram signatures at prime-order roots of unity, branched
cover Betti-number arithmetic, the delta -> xi -> theta invariant pipeline
over ingested equivariant d-invariant data, a bound-propagation inference
engine, and genus lower bounds for surfaces in definite 4-manifolds.
"""

from .branched import CoverInput, CoverTopology, cover_b_plus_for_genus_bound, cover_topology
from .definite import (
    HomologyClass,
    compare_bounds,
    eta,
    eta_from_lattice_minimum,
    genus_bound_odd_q,
    genus_bound_q2,
)
from .infer import BoundInterval, LedgerInconsistentError, infer_theta, infer_theta_m
from .knots import Atom, Mirror, Sum, expr_to_string, normalize, parse_expression
from .ledger import Fact, KnotAtom, Ledger, load_ledger, load_seed_ledger
from .seifert import SeifertMatrix, two_strand_torus_matrix
from .sequences import (
    DeltaSequence,
    DeltaUpperBound,
    ThetaValue,
    XiSequence,
    crossing_change_j_bounds,
    ell_lower_bound,
    j_value,
    j_value_m,
    sum_delta_upper,
    theta,
    theta_from_mirror_delta,
    theta_m,
    torus_delta_sequence,
    xi_sequence,
)
from .signatures import lt_signature, lt_signatures, sigma_q, signature

__version__ = "0.1.0"

__all__ = [
    "Atom", "BoundInterval", "CoverInput", "CoverTopology", "DeltaSequence",
    "DeltaUpperBound",
    "Fact", "HomologyClass", "KnotAtom", "Ledger", "LedgerInconsistentError",
    "Mirror", "SeifertMatrix", "Sum", "ThetaValue", "XiSequence",
    "compare_bounds", "cover_b_plus_for_genus_bound", "cover_topology",
    "crossing_change_j_bounds", "ell_lower_bound", "eta",
    "eta_from_lattice_minimum", "expr_to_string", "genus_bound_odd_q",
    "genus_bound_q2", "infer_theta", "infer_theta_m", "j_value", "j_value_m",
    "load_ledger", "load_seed_ledger", "lt_signature", "lt_signatures", "normalize",
    "parse_expression", "sigma_q", "signature", "sum_delta_upper", "theta",
    "theta_from_mirror_delta", "theta_m", "torus_delta_sequence",
    "two_strand_torus_matrix", "xi_sequence",
]
