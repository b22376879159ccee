"""Exact arithmetic in the cyclotomic field Q(zeta_q) for prime q.

Elements are stored in the power basis 1, zeta, ..., zeta^(q-2) of a fixed
primitive q-th root of unity zeta, as an integer coefficient vector over a
single positive common denominator (cheaper than per-coefficient rationals
in the congruence-elimination hot path).  Reduction uses the minimal
polynomial

    Phi_q(x) = 1 + x + ... + x^(q-1),

i.e. zeta^(q-1) = -(1 + zeta + ... + zeta^(q-2)).  The Galois automorphisms
sigma_j: zeta -> zeta^j (j prime to q) permute the exponents; complex
conjugation is sigma_(-1).

Inversion uses the field norm N(a) = a * sigma_2(a) * ... * sigma_(q-1)(a),
a nonzero rational for a != 0: the inverse is the product of the other
q - 2 conjugates divided by N(a).  The Galois group is cyclic, generated by
tau = sigma_g for a generator g of (Z/q)^*, so that product is built by
doubling, tau(a)...tau^(2m)(a) = P * tau^m(P) with P = tau(a)...tau^m(a),
in about 2 log2(q) integer multiplications and no polynomial division.

Sign determination for real elements (those fixed by conjugation) embeds
zeta at exp(2*pi*i/q) and evaluates with interval arithmetic at increasing
precision until the enclosure excludes zero.  This terminates for every
nonzero real element, so no numerical tolerance ever enters a result.  The
enclosures of cos(2*pi*k/q) are computed once per (q, precision) and cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from mpmath.ctx_iv import MPIntervalContext

_SIGN_START_PREC = 64
_SIGN_MAX_PREC = 1 << 15


# Largest prime order accepted from the command line or a ledger fact.  Exact
# signature work grows quickly with q (the field Q(zeta_q) has degree q-1),
# so larger primes are refused up front, before the primality test.
MAX_Q = 97


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class CyclotomicError(ValueError):
    pass


def _normalized(q: int, num: list[int], den: int) -> "Cyclotomic":
    if den < 0:
        num = [-a for a in num]
        den = -den
    g = den
    for a in num:
        if a:
            g = math.gcd(g, a)
        if g == 1:
            break
    if g > 1:
        num = [a // g for a in num]
        den //= g
    out = object.__new__(Cyclotomic)
    out.q = q
    out.num = tuple(num)
    out.den = den
    return out


class Cyclotomic:
    """An element of Q(zeta_q), q prime, in the power basis of zeta_q."""

    __slots__ = ("q", "num", "den")

    def __init__(self, q: int, coeffs: Iterable):
        if not is_prime(q):
            raise CyclotomicError(f"q must be prime, got {q}")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != q - 1:
            raise CyclotomicError(
                f"need {q - 1} coefficients for Q(zeta_{q}), got {len(cs)}"
            )
        den = math.lcm(*(c.denominator for c in cs)) if cs else 1
        self.q = q
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(q: int) -> "Cyclotomic":
        return _normalized(q, [0] * (q - 1), 1)

    @staticmethod
    def one(q: int) -> "Cyclotomic":
        return Cyclotomic.from_rational(q, 1)

    @staticmethod
    def from_rational(q: int, a) -> "Cyclotomic":
        f = Fraction(a)
        num = [0] * (q - 1)
        num[0] = f.numerator
        return _normalized(q, num, f.denominator)

    @staticmethod
    def zeta_power(q: int, k: int) -> "Cyclotomic":
        """zeta_q^k, any integer k."""
        k %= q
        num = [0] * (q - 1)
        if k == q - 1:
            num = [-1] * (q - 1)  # zeta^(q-1) = -(1 + ... + zeta^(q-2))
        else:
            num[k] = 1
        return _normalized(q, num, 1)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _normalized(self.q, [a + b for a, b in zip(self.num, other.num)], d1)
        return _normalized(
            self.q, [a * d2 + b * d1 for a, b in zip(self.num, other.num)], d1 * d2
        )

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _normalized(self.q, [a - b for a, b in zip(self.num, other.num)], d1)
        return _normalized(
            self.q, [a * d2 - b * d1 for a, b in zip(self.num, other.num)], d1 * d2
        )

    def __neg__(self) -> "Cyclotomic":
        return _normalized(self.q, [-a for a in self.num], self.den)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        q = self.q
        # integer convolution with exponents mod q (zeta^q = 1), then fold
        # the single remaining exponent q-1
        acc = [0] * q
        for i, a in enumerate(self.num):
            if not a:
                continue
            for j, b in enumerate(other.num):
                if b:
                    acc[(i + j) % q] += a * b
        top = acc[q - 1]
        if top:
            num = [c - top for c in acc[: q - 1]]
        else:
            num = acc[: q - 1]
        return _normalized(q, num, self.den * other.den)

    def scale(self, a) -> "Cyclotomic":
        f = Fraction(a)
        return _normalized(
            self.q, [x * f.numerator for x in self.num], self.den * f.denominator
        )

    def galois(self, j: int) -> "Cyclotomic":
        """The automorphism sigma_j: zeta -> zeta^j, for j prime to q."""
        q = self.q
        if j % q == 0:
            raise CyclotomicError(f"sigma_{j} is not an automorphism of Q(zeta_{q})")
        acc = [0] * q
        for k, a in enumerate(self.num):
            if a:
                acc[(j * k) % q] += a
        top = acc[q - 1]
        if top:
            num = [c - top for c in acc[: q - 1]]
        else:
            num = acc[: q - 1]
        return _normalized(q, num, self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, the automorphism zeta -> zeta^(-1)."""
        return self.galois(-1)

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse by the Galois norm: with rest the product
        of the q - 2 conjugates sigma_j(self), j = 2..q-1, N = rest * self
        is a nonzero rational, so self^(-1) = rest / N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        q = self.q
        g = _generator(q)
        # rest = tau(a) tau^2(a) ... tau^m(a) for tau = sigma_g, with m
        # doubled along the bits of q - 2: log q multiplications, not q
        rest, m = Cyclotomic.one(q), 0
        for bit in bin(q - 2)[2:]:
            if m:
                rest = rest * rest.galois(pow(g, m, q))
                m *= 2
            if bit == "1":
                rest = self.galois(g) * rest.galois(g)
                m += 1
        norm = rest * self
        out = rest.scale(Fraction(norm.den, norm.num[0]))
        assert out * self == Cyclotomic.one(q)
        return out

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_real(self) -> bool:
        return self.conjugate() == self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cyclotomic)
            and self.q == other.q
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.q, self.num, self.den))

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z^{k}" if k else f"{c}")
        return " + ".join(terms) if terms else "0"

    def _check(self, other: "Cyclotomic") -> None:
        if self.q != other.q:
            raise CyclotomicError(f"mixed fields Q(zeta_{self.q}), Q(zeta_{other.q})")

    # -- sign of a real element --------------------------------------------

    def sign(self) -> int:
        """Sign (-1, 0, +1) of a real element under zeta -> exp(2*pi*i/q).

        Zero is decided exactly from the coefficients.  Otherwise the real
        embedding sum(c_k * cos(2*pi*k/q)) is enclosed with mpmath interval
        arithmetic, doubling the working precision until the interval
        excludes zero.  The sign at zeta -> exp(2*pi*i*j/q) is
        ``self.galois(j).sign()``.
        """
        if self.is_zero():
            return 0
        if not self.is_real():
            raise CyclotomicError("sign requested for a non-real element")
        prec = _SIGN_START_PREC
        while prec <= _SIGN_MAX_PREC:
            iv, cosines = _cos_enclosures(self.q, prec)
            total = iv.mpf(0)
            for a, c in zip(self.num, cosines):
                if a:
                    total += iv.mpf(a) * c
            total /= iv.mpf(self.den)
            if total > 0:
                return 1
            if total < 0:
                return -1
            prec *= 2
        raise CyclotomicError(
            "could not certify the sign of a nonzero real element "
            f"up to precision {_SIGN_MAX_PREC} bits: {self!r}"
        )


@lru_cache(maxsize=64)
def _generator(q: int) -> int:
    """A generator of the cyclic group (Z/q)^*, q prime."""
    return next(g for g in range(1, q) if len({pow(g, k, q) for k in range(q - 1)}) == q - 1)


@lru_cache(maxsize=16)
def _interval_context(prec: int) -> MPIntervalContext:
    iv = MPIntervalContext()
    iv.prec = prec
    return iv


@lru_cache(maxsize=64)
def _cos_enclosures(q: int, prec: int):
    """An interval context at ``prec`` bits and enclosures of cos(2*pi*k/q)
    for k = 0..q-2.  The context is shared by every caller (threads too), so
    nothing may set its precision after it is made."""
    iv = _interval_context(prec)
    two_pi = 2 * iv.pi
    return iv, tuple(iv.cos(two_pi * k / q) for k in range(q - 1))

