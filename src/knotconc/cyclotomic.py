"""Exact arithmetic in the cyclotomic field Q(zeta_q) for prime q.

Elements are stored in the power basis 1, zeta, ..., zeta^(q-2) of a fixed
primitive q-th root of unity zeta, as an integer coefficient vector over a
single positive common denominator (cheaper than per-coefficient
rationals).  They are built the same way, from q - 1 integer numerators
over one integer denominator (a rational r is ``Cyclotomic(q,
[r.numerator, 0, ..., 0], r.denominator)``), and every element, built or
computed, is stored normalized: the denominator positive and coprime to
the numerators.  Reduction uses the minimal polynomial

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
zeta at exp(2*pi*i*j/q), for any j prime to q, and evaluates with integer
fixed-point enclosures: each cos(2*pi*k/q) is an integer within 1 of its
value times 2^prec, and cos(2*pi*j*k/q) is the table entry at min(r, q-r)
for r = j*k mod q, so the integer sum of the coefficients against them lies
within a known bound of the element times 2^prec.  The precision doubles
until the sum clears that bound.  This terminates for every nonzero real
element, so no numerical tolerance ever enters a result.  The table of
cosines is computed once per (q, precision) and cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_SIGN_START_PREC = 64
_SIGN_MAX_PREC = 1 << 15


# Largest prime order accepted from the command line or a ledger fact.  Exact
# signature work grows quickly with q (the field Q(zeta_q) has degree q-1),
# so larger primes are refused up front, before the primality test.
MAX_Q = 97


# The first twelve primes.  As Miller-Rabin bases they decide primality
# exactly below _PSI_12, the least strong pseudoprime to all twelve.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Trial division by the witnesses, then Miller-Rabin with them as bases;
    exact for n < _PSI_12 (about 3.2e23), and larger n raise ValueError."""
    if n >= _PSI_12:
        raise ValueError(f"is_prime is exact only below {_PSI_12}, got {n}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n < 37 * 37:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CyclotomicError(ValueError):
    pass


def check_prime(q: int) -> None:
    """Raise CyclotomicError unless q is prime; every constructor of
    Q(zeta_q) and the signature, sequence and engine layers call it."""
    if not is_prime(q):
        raise CyclotomicError(f"q must be prime, got {q}")


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
    out._real = None
    return out


def _convolved(q: int, x: tuple[int, ...], y: tuple[int, ...]) -> list[int]:
    """The q coefficients of (sum x_i zeta^i)(sum y_j zeta^j) in powers
    zeta^0..zeta^(q-1), exponents taken mod q (zeta^q = 1), not folded."""
    acc = [0] * q
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if b:
                acc[(i + j) % q] += a * b
    return acc


def _folded(q: int, acc: list[int], den: int) -> "Cyclotomic":
    """sum(acc[k] * zeta^k for k = 0..q-1) / den, with the top power folded
    by zeta^(q-1) = -(1 + zeta + ... + zeta^(q-2)); ``acc`` is consumed."""
    top = acc.pop()
    return _normalized(q, [c - top for c in acc] if top else acc, den)


class Cyclotomic:
    """An element of Q(zeta_q), q prime, in the power basis of zeta_q.

    ``Cyclotomic(q, num, den)`` is the element
    sum(num[k] * zeta^k for k = 0..q-2) / den, from q - 1 integer numerators
    over a nonzero integer denominator.  Elements are never mutated, so
    ``is_real`` is decided once per element and kept."""

    __slots__ = ("q", "num", "den", "_real")

    def __new__(cls, q: int, num, den: int = 1) -> "Cyclotomic":
        check_prime(q)
        num = list(num)
        if len(num) != q - 1:
            raise CyclotomicError(
                f"need {q - 1} numerators for Q(zeta_{q}), got {len(num)}"
            )
        for a in (*num, den):
            if isinstance(a, bool) or not isinstance(a, int):
                raise CyclotomicError(f"numerators and denominator must be integers, got {a!r}")
        if den == 0:
            raise CyclotomicError("denominator must be nonzero")
        return _normalized(q, num, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(q: int) -> "Cyclotomic":
        return Cyclotomic(q, [1] + [0] * (q - 2))

    @staticmethod
    def zeta_power(q: int, k: int) -> "Cyclotomic":
        """zeta_q^k, any integer k."""
        check_prime(q)
        acc = [0] * q
        acc[k % q] = 1
        return _folded(q, acc, 1)

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
        return self + -other

    def __neg__(self) -> "Cyclotomic":
        return _normalized(self.q, [-a for a in self.num], self.den)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return _folded(self.q, _convolved(self.q, self.num, other.num), self.den * other.den)

    def galois(self, j: int) -> "Cyclotomic":
        """The automorphism sigma_j: zeta -> zeta^j, for j prime to q."""
        q = self.q
        if j % q == 0:
            raise CyclotomicError(f"sigma_{j} is not an automorphism of Q(zeta_{q})")
        acc = [0] * q
        for k, a in enumerate(self.num):
            if a:
                acc[(j * k) % q] += a
        return _folded(q, acc, self.den)

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
        norm = rest * self  # rational: norm.num[0] / norm.den
        out = _normalized(q, [a * norm.den for a in rest.num], rest.den * norm.num[0])
        assert out * self == Cyclotomic.one(q)
        return out

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_real(self) -> bool:
        if self._real is None:
            self._real = self.conjugate() == self
        return self._real

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cyclotomic)
            and self.q == other.q
            and self.den == other.den
            and self.num == other.num
        )

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

    def sign(self, j: int = 1) -> int:
        """Sign (-1, 0, +1) of a real element under zeta -> exp(2*pi*i*j/q),
        for j prime to q; this is the sign of ``self.galois(j)``.

        Zero is decided exactly from the coefficients.  Otherwise the real
        embedding sum(c_k * cos(2*pi*j*k/q)) is bounded by integer
        fixed-point enclosures: with a_k = den * c_k and C from
        ``_cosines``, cos(2*pi*j*k/q) is within 1 of C at min(r, q-r) over
        2^prec, where r = j*k mod q, and r = 0 only at k = 0, where the
        entry is exact.  So sum(a_k * C) is within sum_{k>=1} |a_k| of
        2^prec * den * sigma_j(self), and den > 0.  Its sign is returned
        once it clears twice that bound; until then the precision doubles.
        """
        q = self.q
        if j % q == 0:
            raise CyclotomicError(f"zeta -> zeta^{j} is not an embedding of Q(zeta_{q})")
        if self.is_zero():
            return 0
        if not self.is_real():
            raise CyclotomicError("sign requested for a non-real element")
        margin = 2 * sum(map(abs, self.num[1:]))
        at = _embedding_index(q, j % q)
        prec = _SIGN_START_PREC
        while prec <= _SIGN_MAX_PREC:
            cos = _cosines(q, prec)
            total = sum(a * cos[i] for a, i in zip(self.num, at) if a)
            if abs(total) > margin:
                return 1 if total > 0 else -1
            prec *= 2
        raise CyclotomicError(
            "could not certify the sign of a nonzero real element "
            f"up to precision {_SIGN_MAX_PREC} bits: {self!r}"
        )


@lru_cache(maxsize=128)
def _embedding_index(q: int, j: int) -> tuple[int, ...]:
    """min(r, q - r) for r = j*k mod q, k = 0..q-2: the index into
    ``_cosines`` of cos(2*pi*j*k/q).  ``lt_signatures`` asks for j <= q/2,
    48 values at q = 97, so 128 entries keep them with those of smaller q."""
    return tuple(min(j * k % q, -j * k % q) for k in range(q - 1))


@lru_cache(maxsize=64)
def _generator(q: int) -> int:
    """A generator of the cyclic group (Z/q)^*, q prime."""
    return next(g for g in range(1, q) if len({pow(g, k, q) for k in range(q - 1)}) == q - 1)


def _atan_inv(x: int, w: int) -> int:
    """2^w * atan(1/x) for an integer x >= 5, to within w/4 + 2 (see
    ``_cosines``)."""
    total, power, n, sign = 0, (1 << w) // x, 1, 1
    while power:
        total += sign * (power // n)
        power //= x * x
        n += 2
        sign = -sign
    return total


@lru_cache(maxsize=64)
def _cosines(q: int, prec: int) -> tuple[int, ...]:
    """Integers C_k, k = 0..q-2, with |C_k - 2^prec * cos(2*pi*k/q)| <= 1
    and C_0 = 2^prec exactly.

    Proof of the bound.  Work in fixed point at w = prec + 64 bits, S = 2^w;
    an error "in units" is an absolute error times S, for complex values its
    modulus.  Every truncation below is one floor division, off by less than
    1 unit, and floor(floor(a / b) / c) = floor(a / (b c)) for integers
    b, c > 0, so chained floors cost one unit, not two.

    * pi = 16 atan(1/5) - 4 atan(1/239) (Machin).  ``_atan_inv`` sums the
      alternating series of 2^w atan(1/x) while floor(S / x^(2n+1)) > 0,
      which is at most w/4 + 1 terms for x >= 5.  Each term is below its
      exact value by less than 1, and the omitted tail, an alternating
      series of decreasing terms, is below its first term, itself below 1.
      So P is within 16 (w/4 + 2) + 4 (w/4 + 2) = 5w + 40 units of S pi.
    * T = floor(2P / q) is within (10w + 80)/q + 1 < 4w + 28 units of
      S * 2 pi / q (q >= 3; for q = 2 only the exact C_0 is returned).  As
      |exp(ia) - exp(ib)| <= |a - b|, exp(i T / S) is as close to zeta.
    * The Taylor terms t_0 = S, t_n = floor(t_(n-1) T / (n S)) of
      exp(i T / S) stop at the first t_n = 0.  With theta = T/S < 2.1, the
      exact terms tau_n = S theta^n / n! satisfy 0 <= tau_n - t_n = e_n,
      e_1 = 0 and e_n < e_(n-1) theta / n + 1, so e_n < 10/3 (theta/n < 0.7
      for n >= 3).  Since 4.2^n <= n! for n >= 12, tau_n <= S 2^(-n), so
      at most w + 1 terms are taken; the first omitted term is tau_N = e_N,
      and the tail from it is below (10/3)/(1 - 0.7) < 12.  So Z, the sum of
      i^n t_n, is within (10/3)(w + 1) + 12 < 4w units of exp(i T / S), and
      within 8w + 28 < 9w units of S zeta.
    * Z_k = floor(Z_(k-1) Z / S) componentwise.  With E_k the error of Z_k
      and eps = 9w / S, E_k < E_(k-1) (1 + eps) + 9w + 2, so
      E_k < k (9w + 2)(1 + eps)^k < 20 k w while k eps < 1/2.
    * C_k rounds Re Z_k to the nearest multiple of 2^64 and drops those 64
      bits: |C_k - 2^prec cos(2 pi k / q)| <= E_k / 2^64 + 1/2 <= 1 when
      20 k w <= 2^63.  Here prec <= 2^15, so w < 2^16, and k < q, which is
      far below 2^40 in any process (an element stores q - 1 integers).
    """
    w = prec + 64
    S = 1 << w
    pi = 16 * _atan_inv(5, w) - 4 * _atan_inv(239, w)
    theta = 2 * pi // q
    parts, t, n = [0, 0, 0, 0], S, 0  # the terms at i^0, i^1, i^2, i^3
    while t:
        parts[n % 4] += t
        n += 1
        t = (t * theta >> w) // n
    x, y = parts[0] - parts[2], parts[1] - parts[3]
    out = [1 << prec]
    zx, zy = x, y
    for _ in range(1, q - 1):
        out.append((zx + (1 << 63)) >> 64)
        zx, zy = (zx * x - zy * y) >> w, (zx * y + zy * x) >> w
    return tuple(out)
