"""Knot concordance invariants from cyclic branched covers.

Exact Levine-Tristram signatures at prime-order roots of unity, branched
cover Betti-number arithmetic, the delta -> xi -> theta invariant pipeline
over ingested equivariant d-invariant data, a bound-propagation inference
engine, and genus lower bounds for surfaces in definite 4-manifolds.
"""

__version__ = "0.1.0"
