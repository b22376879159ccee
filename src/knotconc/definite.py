"""Genus lower bounds for surfaces in negative definite 4-manifolds.

X is a smooth compact oriented 4-manifold with boundary S^3, H_1(X) = 0 and
negative definite intersection form; by Donaldson's theorem the form is
diag(-1, ..., -1) in a suitable basis e_1, ..., e_r, and that basis is fixed
throughout.  Characteristic vectors are exactly the all-odd ones.

For a class x, eta(x) is the minimum of -(x+c)^2 - b_2(X) over
characteristics c.  Minimizing coordinatewise over odd c gives the closed
form eta(x) = -#{i : x_i odd}, pinned between -b_2(X) and 0.

The genus bounds: for a genus-g surface bounding K in class a,

    odd q, q | a:   g >= theta^(q)(K, m) + ((q+1)/(6q)) a^2,
                    m = -((q^2-1)/(6q)) a^2
    q = 2,  2 | a:  g >= theta(K, m) + a^2/4,
                    m = -a^2/4 + eta(a/2)

with a = 0 these collapse to g_H(K, X) >= theta^(q)(K).

The hypotheses make m an integer.  For odd q, q | a gives a = q b and
a^2 = q^2 b^2, so m = -((q^2-1) q / 6) b^2; and 6 divides (q^2-1) q, which
is 24 for q = 3, while every prime q >= 5 has 24 | q^2 - 1.  For q = 2,
a = 2x gives a^2 = 4 x^2 and m = -x^2 + eta(x).

A positive definite X is handled by mirroring: bound the genus in -X via
theta applied to -K; there is no separate code path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import DataError, Record
from .cyclotomic import is_prime
from .infer import BoundInterval, infer_theta_m
from .knots import Key
from .ledger import Ledger


class HypothesisError(ValueError, DataError):
    """The theorem hypotheses (divisibility, definiteness) are not met."""


class HomologyClass(Record, frozen=True):
    """An integer class a = sum a_i e_i in the diag(-1,...,-1) basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        self._assign(coords)

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def square(self) -> int:
        """Self-intersection a^2 = -sum a_i^2 <= 0."""
        return -sum(c * c for c in self.coords)

    def divisible_by(self, q: int) -> bool:
        return all(c % q == 0 for c in self.coords)

    def divide(self, q: int) -> "HomologyClass":
        assert self.divisible_by(q)
        return HomologyClass(tuple(c // q for c in self.coords))


def eta(x: HomologyClass) -> int:
    """eta(x) = min over characteristics c of -(x+c)^2 - b_2(X).

    Closed form: minus the number of odd coordinates of x."""
    return -sum(1 for c in x.coords if c % 2 != 0)


def eta_from_lattice_minimum(x: HomologyClass) -> int:
    """eta(x) straight from the definition, by enumerating odd c.

    The objective -(x+c)^2 - b_2 = sum (x_i + c_i)^2 - r splits over
    coordinates, so the exact lattice minimum is the sum of per-coordinate
    minima; each coordinate enumerates every odd c with |c| <= |x_i| + 3
    (the minimizer is the odd integer nearest -x_i, within |x_i| + 1).
    """
    total = 0
    for xi in x.coords:
        lim = abs(xi) + 3
        best = min((xi + c) ** 2 for c in range(-lim, lim + 1) if c % 2 != 0)
        total += best
    return total - x.rank


class GenusBound(Record, frozen=True):
    """A lower bound for g_4(K, X, a), with how theta was obtained."""

    __slots__ = ("value", "m", "a_square", "theta_interval")

    def __init__(self, value: Fraction, m: int, a_square: int,
                 theta_interval: BoundInterval):
        self._assign(value, m, a_square, theta_interval)


def _genus_bound(ledger: Ledger, expr: Key, q: int, m: int, a_sq: int,
                 shift: Fraction) -> GenusBound:
    """g_4(K, X, a) >= theta^(q)(K, m) + shift, once the hypotheses hold."""
    assert m >= 0
    interval = infer_theta_m(ledger, expr, q, m)
    return GenusBound(
        value=interval.lower + shift, m=m, a_square=a_sq,
        theta_interval=interval,
    )


def genus_bound_odd_q(
    q: int, ledger: Ledger, expr: Key, a: HomologyClass
) -> GenusBound:
    """g_4(K, X, a) >= theta^(q)(K, m) + ((q+1)/(6q)) a^2 for odd prime q
    and a divisible by q; m = -((q^2-1)/(6q)) a^2."""
    if not is_prime(q) or q == 2:
        raise HypothesisError(f"q must be an odd prime, got {q}")
    if not a.divisible_by(q):
        raise HypothesisError(
            f"theorem hypotheses not met: class {a.coords} is not divisible by {q}"
        )
    a_sq = a.square
    m = -(q * q - 1) * a_sq // (6 * q)  # exact: see the module docstring
    return _genus_bound(ledger, expr, q, m, a_sq, Fraction((q + 1) * a_sq, 6 * q))


def genus_bound_q2(ledger: Ledger, expr: Key, a: HomologyClass) -> GenusBound:
    """g_4(K, X, a) >= theta(K, m) + a^2/4 for a divisible by 2;
    m = -a^2/4 + eta(a/2)."""
    if not a.divisible_by(2):
        raise HypothesisError(
            f"theorem hypotheses not met: class {a.coords} is not divisible by 2"
        )
    x = a.divide(2)
    a_sq = a.square
    m = -x.square + eta(x)  # a^2 = 4 x^2
    return _genus_bound(ledger, expr, 2, m, a_sq, Fraction(a_sq, 4))


class BoundComparison(Record, frozen=True):
    """The four displayed genus bounds for T(3,6n+1) in class a = 2x."""

    __slots__ = ("theta_bound", "tau_bound", "sig1_bound", "sig2_bound")

    def __init__(self, theta_bound: Fraction, tau_bound: int, sig1_bound: int,
                 sig2_bound: int):
        self._assign(theta_bound, tau_bound, sig1_bound, sig2_bound)


def compare_bounds(n: int, x: Sequence[int], r: int) -> BoundComparison:
    """Closed-form comparison of four genus bounds for K = T(3,6n+1) and a
    surface in class a = 2x inside a rank-r negative definite X:

        theta:  max(4n + x^2, 6n + 3x^2/2 - eta(x)/2)
        tau:    6n + 2x^2 + ||x||
        sig1:   4n + x^2
        sig2:   -4n - r + (x_1^2 + ... + x_r^2)

    where x^2 = -sum x_i^2 and ||x|| = sum |x_i|.  All values are exact; the
    theta expression is an integer because x^2 + eta(x) is even.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    coords = tuple(int(c) for c in x)
    if len(coords) != r:
        raise ValueError(f"class has {len(coords)} coordinates but rank is {r}")
    hx = HomologyClass(coords)
    x_sq = hx.square
    norm1 = sum(abs(c) for c in coords)
    piece1 = Fraction(4 * n + x_sq)
    piece2 = Fraction(6 * n) + Fraction(3 * x_sq, 2) - Fraction(eta(hx), 2)
    assert piece2.denominator == 1
    theta_bound = max(piece1, piece2)
    tau_bound = 6 * n + 2 * x_sq + norm1
    sig1 = 4 * n + x_sq
    sig2 = -4 * n - r - x_sq
    return BoundComparison(
        theta_bound=theta_bound,
        tau_bound=tau_bound,
        sig1_bound=sig1,
        sig2_bound=sig2,
    )
