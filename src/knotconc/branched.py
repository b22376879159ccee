"""Topology of cyclic branched covers of 4-manifolds along surfaces.

For a degree-q cyclic cover W -> X branched over a properly embedded genus-g
surface with self-intersection [S]^2, boundary knots K_out (outgoing) and
optionally K_in (ingoing), and H_1(X) = 0:

    b_2(W)   = q b_2(X) + (q-1) * 2g
    sigma(W) = q sigma(X) - ((q^2-1)/(3q)) [S]^2 + sigma^(q)(K_out)
                                          [- sigma^(q)(K_in) if two boundaries]
    b_+-(W)  = (b_2(W) +- sigma(W)) / 2

The inputs are numerical characteristics and the fractions (q^2-1)/3q,
(q^2-1)/6q are genuinely non-integral, so everything is computed in exact
rational arithmetic with integrality asserted at the end: a non-integer or
negative b_+- means the input data cannot come from an actual cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import DataError
from .cyclotomic import is_prime


class CoverDataError(ValueError, DataError):
    pass


@dataclass(frozen=True)
class CoverInput:
    q: int
    b2X: int
    sigmaX: int
    genus: int
    self_int: int
    sigq_out: int
    sigq_in: Optional[int] = None

    def __post_init__(self):
        if not is_prime(self.q):
            raise CoverDataError(f"q must be prime, got {self.q}")
        if self.b2X < 0 or self.genus < 0:
            raise CoverDataError("b2(X) and the genus must be non-negative")
        if abs(self.sigmaX) > self.b2X:
            raise CoverDataError(
                f"|sigma(X)| = {abs(self.sigmaX)} exceeds b2(X) = {self.b2X}"
            )


@dataclass(frozen=True)
class CoverTopology:
    b2: int
    sigma: int
    b_plus: int
    b_minus: int


def cover_topology(inp: CoverInput) -> CoverTopology:
    q = inp.q
    b2 = q * inp.b2X + (q - 1) * 2 * inp.genus
    sigma = (
        q * inp.sigmaX
        - Fraction((q * q - 1) * inp.self_int, 3 * q)
        + inp.sigq_out
        - (inp.sigq_in if inp.sigq_in is not None else 0)
    )
    b_plus = (b2 + sigma) / 2
    b_minus = (b2 - sigma) / 2
    for label, v in (("sigma", sigma), ("b_plus", b_plus), ("b_minus", b_minus)):
        if Fraction(v).denominator != 1:
            raise CoverDataError(f"inconsistent cover data: {label} = {v} is not an integer")
    if b_plus < 0 or b_minus < 0:
        raise CoverDataError(
            f"inconsistent cover data: b_plus = {b_plus}, b_minus = {b_minus}"
        )
    return CoverTopology(b2=int(b2), sigma=int(sigma), b_plus=int(b_plus), b_minus=int(b_minus))


def cover_b_plus_for_genus_bound(q: int, g: int, a_sq: int, sigq: int) -> int:
    """b_+ of the branched cover used in the definite genus bounds:

        b_+(W) = (q-1) g - ((q^2-1)/(6q)) a^2 + sigma^(q)(K)/2

    for a genus-g surface of class a (a^2 = self-intersection) in a negative
    definite X bounded by K.  Errors on non-integer (inconsistent data) and
    on negative values (no such surface under the hypotheses).
    """
    if not is_prime(q):
        raise CoverDataError(f"q must be prime, got {q}")
    if g < 0:
        raise CoverDataError(f"genus must be non-negative, got {g}")
    val = (q - 1) * g - Fraction((q * q - 1) * a_sq, 6 * q) + Fraction(sigq, 2)
    if val.denominator != 1:
        raise CoverDataError(f"inconsistent data: b_plus = {val} is not an integer")
    if val < 0:
        raise CoverDataError(
            f"no such surface under hypotheses: b_plus = {val} is negative"
        )
    return int(val)
