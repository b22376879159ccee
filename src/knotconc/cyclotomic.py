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
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_q(x) over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        q = self.q
        phi = [Fraction(1)] * q  # 1 + x + ... + x^(q-1)
        g, s = _poly_half_xgcd([Fraction(a, self.den) for a in self.num], phi)
        # g is a nonzero constant since Phi_q is irreducible over Q
        assert len(g) == 1 and g[0] != 0
        inv_c = 1 / g[0]
        cs = [c * inv_c for c in s]
        cs += [Fraction(0)] * (q - 1 - len(cs))
        out = _reduce_poly(q, cs)
        assert (out * self) == Cyclotomic.one(q)
        return out

    def __truediv__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self * other.inverse()

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


def _reduce_poly(q: int, cs: list[Fraction]) -> Cyclotomic:
    folded = [Fraction(0)] * q
    for e, c in enumerate(cs):
        if c:
            folded[e % q] += c
    top = folded[q - 1]
    if top:
        out = [c - top for c in folded[: q - 1]]
    else:
        out = folded[: q - 1]
    return Cyclotomic(q, out)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [Fraction(0)] * max(1, len(a) - db)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] / lb
        quo[da - db] = f
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
        a.pop()
    return _poly_trim(quo), _poly_trim(a if a else [Fraction(0)])


def _poly_half_xgcd(a: list[Fraction], b: list[Fraction]):
    """Return (g, s) with s*a = g (mod b) and g = gcd(a, b)."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while any(r1) and r1 != [Fraction(0)]:
        quo, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(quo, s1))
        if r1 == [Fraction(0)]:
            break
    return r0, s0


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]
    return _poly_trim(out)
