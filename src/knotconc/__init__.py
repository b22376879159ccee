"""Knot concordance invariants from cyclic branched covers.

Exact Levine-Tristram signatures at prime-order roots of unity, branched
cover Betti-number arithmetic, the delta -> xi -> theta invariant pipeline
over ingested equivariant d-invariant data, a bound-propagation inference
engine, and genus lower bounds for surfaces in definite 4-manifolds.
"""

__version__ = "0.1.0"


class DataError(Exception):
    """Mixin of the errors that bad data, not bad usage, raises: a ledger,
    Seifert matrix, cover or genus-bound hypothesis that cannot hold, or a
    query the inference engine refuses.  The command line reports each one
    on a single line with exit code 2."""
