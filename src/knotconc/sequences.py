"""The delta -> xi -> theta pipeline for branched-cover d-invariant data.

A knot K and prime q carry a non-increasing, eventually constant sequence of
integers delta_j^(q)(K) (equivariant d-invariants of the q-fold branched
cover in its distinguished spin^c structure).  This module never computes
those sequences from Floer theory; it consumes them (from a ledger, a closed
form, or an upper-bound construction) and runs the arithmetic layer:

    xi_j    = delta_j / 4 + sigma^(q) / 8           (integers, decreasing)
    j(K)    = least j with xi_j = 0
    j(K, m) = least j with delta_j <= m - sigma^(q)/2

    theta^(q)(K)    = max(0, (2 j^(q)(-K) - sigma^(q)(K)/2) / (q - 1))
                      and for q = 2 just max(0, j(-K) - sigma(K)/2)
    theta^(q)(K, m) likewise with j^(q)(-K, m).

A xi sequence is held as a ``DeltaSequence`` (it is non-increasing and
eventually constant too), and a theta value is a ``Fraction`` in
(1/(q-1)) * Z, at least 0.  Note the mirror: theta of K reads the sequence
of -K and the signature of K.  ``theta_from_mirror_delta`` keeps the signs
straight.

Also here: the min-plus convolution giving the connected-sum upper bound
delta_{i+j}(K1 + K2) <= delta_i(K1) + delta_j(K2), the crossing-change
index-shift bounds, and the lower bound on theta in terms of the lowest
nonvanishing degree of HF^+ of the branched cover.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import DataError, Record
from .cyclotomic import check_prime


class SequenceError(ValueError):
    pass


class InconsistentDataError(ValueError, DataError):
    """Ledger data that cannot belong to any knot (parity, threshold, ...)."""


class DeltaSequence(Record, frozen=True):
    """Non-increasing integer sequence with an eventual constant value.

    ``values[j]`` holds delta_j for j < len(values); delta_j = stable for all
    larger j.  The listed prefix may already contain the stable value.
    """

    __slots__ = ("values", "stable")

    def __init__(self, values: tuple[int, ...], stable: int):
        self._assign(values, stable)
        for a, b in zip(self.values, self.values[1:]):
            if b > a:
                raise SequenceError(f"delta sequence must be non-increasing: {self.values}")
        if self.values and self.values[-1] < self.stable:
            raise SequenceError(
                f"listed values must stay >= the stable value {self.stable}: {self.values}"
            )

    def value_at(self, j: int) -> int:
        if j < 0:
            raise SequenceError(f"delta sequence index must be >= 0, got {j}")
        return self.values[j] if j < len(self.values) else self.stable

    @staticmethod
    def constant(value: int) -> "DeltaSequence":
        return DeltaSequence((), value)


def xi_sequence(delta: DeltaSequence, sigq: int, q: int) -> DeltaSequence:
    """Normalize a delta sequence by the total signature of the same knot.

    Integrality of every xi_j is equivalent to the congruence
    delta_j = -sigma^(q)/2 (mod 4); failing it means the (delta, sigma) pair
    cannot come from one knot.
    """
    check_prime(q)
    shift = Fraction(sigq, 8)
    out = []
    for j, v in enumerate(delta.values):
        x = Fraction(v, 4) + shift
        if x.denominator != 1:
            raise InconsistentDataError(
                f"inconsistent (delta_{j}, sigma) pair: delta_{j}={v}, "
                f"sigma^({q})={sigq} gives non-integral xi"
            )
        out.append(int(x))
    xs = Fraction(delta.stable, 4) + shift
    if xs.denominator != 1:
        raise InconsistentDataError(
            f"inconsistent (delta_stable, sigma) pair: stable={delta.stable}, sigma^({q})={sigq}"
        )
    return DeltaSequence(tuple(out), int(xs))


def j_value(xi: DeltaSequence) -> int:
    """Least j with xi_j = 0; requires the sequence to stabilize at 0."""
    if xi.stable != 0:
        raise InconsistentDataError(
            f"xi sequence never vanishes (stable value {xi.stable})"
        )
    for j, v in enumerate(xi.values):
        if v == 0:
            return j
    return len(xi.values)


def j_value_m(delta: DeltaSequence, sigq: int, m: int) -> int:
    """Least j with delta_j <= m - sigma^(q)/2 (both data for the same knot)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if sigq % 2 != 0:
        raise InconsistentDataError(f"sigma^(q) must be even, got {sigq}")
    threshold = Fraction(m) - Fraction(sigq, 2)
    if delta.stable > threshold:
        raise InconsistentDataError(
            f"threshold unreachable: stable value {delta.stable} > m - sigma/2 = {threshold}"
        )
    for j, v in enumerate(delta.values):
        if v <= threshold:
            return j
    return len(delta.values)


def theta(q: int, j_mirror: int, sigq_K: int) -> Fraction:
    """theta^(q)(K) from j^(q)(-K) and sigma^(q)(K).

    q = 2:   max(0, j(-K) - sigma(K)/2)
    odd q:   max(0, (2 j^(q)(-K) - sigma^(q)(K)/2) / (q-1))
    """
    check_prime(q)
    if j_mirror < 0:
        raise ValueError(f"j value must be >= 0, got {j_mirror}")
    if sigq_K % 2 != 0:
        raise InconsistentDataError(f"sigma^(q) must be even, got {sigq_K}")
    if q == 2:
        return Fraction(max(0, j_mirror - sigq_K // 2))
    if sigq_K % 4 != 0:
        raise InconsistentDataError(
            f"sigma^({q}) must be divisible by 4 for odd q, got {sigq_K}"
        )
    return Fraction(max(0, 2 * j_mirror - sigq_K // 2), q - 1)


def theta_m(q: int, j_m_mirror: int, sigq_K: int) -> Fraction:
    """theta^(q)(K, m) from j^(q)(-K, m); same shape as theta."""
    return theta(q, j_m_mirror, sigq_K)


def theta_from_mirror_delta(
    q: int, delta_mirror: DeltaSequence, sigq_K: int, m: int = 0
) -> Fraction:
    """Full pipeline: theta^(q)(K, m) from the delta sequence of -K.

    Feeds sigma^(q)(-K) = -sigma^(q)(K) into the threshold scan, then shifts
    by sigma^(q)(K).  With m = 0 the scan agrees with j_value of the xi
    sequence (the two definitions coincide).  Only exact sequences qualify;
    a min-plus upper bound would not determine theta.
    """
    if isinstance(delta_mirror, DeltaUpperBound):
        raise SequenceError(
            "theta needs an exact delta sequence, not a min-plus upper bound"
        )
    jm = j_value_m(delta_mirror, -sigq_K, m)
    return theta_m(q, jm, sigq_K)


def torus_delta_sequence(family: str, n: int) -> DeltaSequence:
    """Closed-form delta sequences (q = 2) for T(3, 6n-1) and T(3, 6n+1),
    positive or mirrored.

    Mirrors (published equivariant d-invariant computations for the
    branched double covers):

        delta_j(-T(3,6n-1)) = -4*(floor(j/2) + 1)  for 0 <= j <= 2n-3,
                              -4n                  for j >= 2n-2,
        delta_j(-T(3,6n+1)) = -4*floor(j/2)        for 0 <= j <= 2n-1,
                              -4n                  for j >= 2n.

    Positive torus knots have the constant sequence -sigma/2 = 4n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    fam = family.replace(" ", "")
    if fam in ("T(3,6n-1)", "T(3,6n+1)"):
        return DeltaSequence.constant(4 * n)
    if fam == "-T(3,6n-1)":
        values = tuple(-4 * (j // 2 + 1) for j in range(0, 2 * n - 2))
        return DeltaSequence(values, -4 * n)
    if fam == "-T(3,6n+1)":
        values = tuple(-4 * (j // 2) for j in range(0, 2 * n))
        return DeltaSequence(values, -4 * n)
    raise ValueError(
        f"unknown family {family!r}; expected one of T(3,6n-1), T(3,6n+1), "
        "-T(3,6n-1), -T(3,6n+1)"
    )


class DeltaUpperBound(DeltaSequence):
    """An entrywise upper bound for a delta sequence.

    Deliberately a distinct type: upper bounds may enter further min-plus
    convolutions but must never be fed to the exact-value pipeline
    (j scans, theta) as if they were a knot's true sequence.
    """

    __slots__ = ()


def sum_delta_upper(d1: DeltaSequence, d2: DeltaSequence) -> DeltaUpperBound:
    """Min-plus convolution: out_k = min over i+j=k of d1_i + d2_j.

    Bounds the delta sequence of a connected sum from above.  Both inputs
    reach their stable values by the end of their listed prefixes, so the
    convolution stabilizes at the sum of the stable values no later than
    index len1 + len2.
    """
    out = []
    for k in range(len(d1.values) + len(d2.values)):
        out.append(min(d1.value_at(i) + d2.value_at(k - i) for i in range(k + 1)))
    return DeltaUpperBound(tuple(out), d1.stable + d2.stable)


class JBounds(Record, frozen=True):
    """Integer interval [lower, upper] for a j value, with the shifts used."""

    __slots__ = ("lower", "upper", "alpha", "beta")

    def __init__(self, lower: int, upper: int, alpha: int, beta: int):
        self._assign(lower, upper, alpha, beta)


def crossing_change_shifts(q: int, sigq_plus: int, sigq_minus: int) -> tuple[int, int]:
    """Index shifts (alpha, beta) for a positive-to-negative crossing change.

    The crossing-change cobordisms between the q-fold branched covers have
    b_+ = 2*alpha and b_- = 2*beta with

        alpha = (q-1)/2 + sigma^(q)(K+)/4 - sigma^(q)(K-)/4
        beta  = sigma^(q)(K-)/4 - sigma^(q)(K+)/4

    rounded up to integers where the raw values are half-integral (q = 2).
    Both must be >= 0, which pins the admissible signature jump to
    -2(q-1) <= sigma^(q)(K+) - sigma^(q)(K-) <= 0.
    """
    check_prime(q)
    jump = sigq_plus - sigq_minus
    if jump % 2 != 0 or not -2 * (q - 1) <= jump <= 0:
        raise InconsistentDataError(
            f"relation inconsistent with signatures: sigma^({q})(K+) - sigma^({q})(K-) "
            f"= {jump} outside [-{2 * (q - 1)}, 0]"
        )
    alpha = math.ceil(Fraction(q - 1, 2) + Fraction(jump, 4))
    beta = math.ceil(Fraction(-jump, 4))
    assert alpha >= 0 and beta >= 0
    return alpha, beta


def crossing_change_j_bounds(
    q: int,
    j_known: tuple[int, int],
    sigq_plus: int,
    sigq_minus: int,
    direction: str,
) -> JBounds:
    """Propagate a j-value interval across a crossing-change relation.

    The underlying inequality is j(K+) - beta <= j(K-) <= j(K+) + alpha.
    ``direction`` says which side is being solved for:

      "minus_from_plus": j_known bounds j(K+), returns bounds on j(K-)
      "plus_from_minus": j_known bounds j(K-), returns bounds on j(K+)

    Results are clamped at 0 (j values are non-negative).
    """
    alpha, beta = crossing_change_shifts(q, sigq_plus, sigq_minus)
    lo, hi = j_known
    if lo > hi or lo < 0:
        raise ValueError(f"bad j interval [{lo}, {hi}]")
    if direction == "minus_from_plus":
        out_lo, out_hi = lo - beta, hi + alpha
    elif direction == "plus_from_minus":
        out_lo, out_hi = lo - alpha, hi + beta
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return JBounds(max(0, out_lo), max(0, out_hi), alpha, beta)


def ell_lower_bound(q: int, ell_mirror: int, sigq_K: int, m: int = 0) -> Fraction:
    """Lower bound for theta^(q)(K, m) from the lowest nonzero degree of
    HF^+ of the branched cover of the mirror:

        theta^(q)(K, m) >= ell^(q)(-K)/(q-1) - m/(2(q-1)) - 3*sigma^(q)(K)/(4(q-1)).
    """
    check_prime(q)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return (
        Fraction(ell_mirror, q - 1)
        - Fraction(m, 2 * (q - 1))
        - Fraction(3 * sigq_K, 4 * (q - 1))
    )
