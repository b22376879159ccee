"""Exact Levine-Tristram signatures at prime-order roots of unity.

For a Seifert matrix V and omega = exp(2*pi*i*j/q) on the unit circle, the
Levine-Tristram signature sigma_K(omega) is the signature of the Hermitian
form

    H(omega) = (1 - omega) V + (1 - conj(omega)) V^T.

We evaluate it exactly.  The form H(zeta) at the generator zeta of the
cyclotomic field Q(zeta_q) is diagonalized by congruence over that field,
one Schur complement per pivot (with the usual off-diagonal pivot trick
when every remaining diagonal entry vanishes).  Each pivot is a nonzero real
element of the field whose sign is certified by integer fixed-point
enclosures.  No floating point number ever decides a signature.

Only the upper triangle is stored and updated.  A Schur complement of a
Hermitian matrix is Hermitian: below the diagonal, m_cr - m_ck p^(-1) m_kr
is the conjugate of m_rc - m_rk p^(-1) m_kc, because the pivot p is real
and conj(m_ck) = m_kc.  The field is commutative and every element is
stored normalized, so that conjugate is the very (numerators, denominator)
pair a full update would compute, and reading an entry below the diagonal
as the conjugate of the one above loses nothing.  Each update
m_rc - f m_kc is one fused multiply-subtract (``Cyclotomic.sub_mul``).

One elimination serves every root.  V is rational, so H(zeta^j) is the
Galois conjugate sigma_j(H(zeta)) entry by entry, where sigma_j: zeta ->
zeta^j.  Every choice the elimination makes is a zero test, and sigma_j
preserves zero tests, so whatever the pivot order, the same steps
diagonalize H(zeta^j) with the pivots sigma_j(p).  The sign of sigma_j(p)
is the sign of p under the embedding zeta -> exp(2*pi*i*j/q)
(``Cyclotomic.sign(j)``), and sigma_K(omega^j) is the sum of those signs.
A pivot p is real, so sigma_(q-j)(p) = conj(sigma_j(p)) = sigma_j(p) and
the roots j and q-j have the same signature: only j <= q/2 are signed.

At omega of prime order the form is nonsingular (roots of unity of prime
power order are never roots of an Alexander polynomial normalized with
p(1) = 1); degeneracy is still checked and reported as an error rather
than a value.

The total over all nontrivial q-th roots,

    sigma^(q)(K) = sum over j = 1..q-1 of sigma_K(exp(2*pi*i*j/q)),

equals the signature of the q-fold cyclic cover of the 4-ball branched over
a pushed-in Seifert surface for K.  For odd q it is divisible by 4, by the
symmetry sigma_K(omega) = sigma_K(conj(omega)).
"""

from __future__ import annotations

from .cyclotomic import Cyclotomic, is_prime
from .seifert import SeifertMatrix


class SingularFormError(ArithmeticError):
    """The Hermitian form is degenerate at the requested root of unity."""


def _hermitian_form(V: SeifertMatrix, q: int) -> list[list[Cyclotomic]]:
    """The upper triangle of H(zeta) for the generator zeta of Q(zeta_q):
    row r lists the entries (r, c) for c = r..n-1.  Entry (r, c) is
    V[r][c] (1 - zeta) + V[c][r] (1 - conj(zeta)), built straight from the
    integer numerators u of 1 - zeta and w of 1 - conj(zeta)."""
    one, zeta = Cyclotomic.one(q), Cyclotomic.zeta_power(q, 1)
    u, w = (one - zeta).num, (one - zeta.conjugate()).num  # both over 1
    rows = V.rows
    return [[Cyclotomic(q, [a * x + b * y for x, y in zip(u, w)])
             for a, b in zip(row[r:], column[r:])]
            for r, (row, column) in enumerate(zip(rows, zip(*rows)))]


def _congruence_pivots(m: list[list[Cyclotomic]]) -> list[Cyclotomic]:
    """The diagonal of a congruence diagonalization of a Hermitian matrix
    over Q(zeta_q), one Schur complement at a time.  ``m`` is the upper
    triangle, row r holding the entries (r, c) for c >= r in the current
    order, and is consumed.  Raises SingularFormError on a degenerate
    form."""
    pivots = []
    while m:
        k = next((i for i, row in enumerate(m) if not row[0].is_zero()), None)
        if k is None:
            off = next(((i, i + d) for i, row in enumerate(m)
                        for d in range(1, len(row)) if not row[d].is_zero()), None)
            if off is None:
                raise SingularFormError(
                    "Hermitian form is degenerate (omega is a root of the "
                    "Alexander polynomial)"
                )
            # Every diagonal entry is zero: adding a times row j to row i
            # (and conj(a) times column j to column i) puts 2*a*conj(a) > 0
            # at position (i, i) when a = m[i][j] is nonzero.  Rare, so it
            # is done on the full matrix, rebuilt from the upper triangle.
            i, j = off
            n = len(m)
            full = [[m[r][c - r] if c >= r else m[c][r - c].conjugate() for c in range(n)]
                    for r in range(n)]
            a = full[i][j]
            abar = a.conjugate()
            full[i] = [x + a * y for x, y in zip(full[i], full[j])]
            for row in full:
                row[i] = row[i] + abar * row[j]
            m = [row[r:] for r, row in enumerate(full)]
            k = i
            assert not m[k][0].is_zero()
        upper = m.pop(k)
        p = upper[0]
        assert p.is_real()
        pivots.append(p)
        # row k of the full matrix without column k, in the order left:
        # entry (k, c) is the conjugate of the stored (c, k) for c < k
        row_k = [row.pop(k - r).conjugate() for r, row in enumerate(m[:k])] + upper[1:]
        p_inv = None  # inverted only if a remaining row needs it
        for r, row in enumerate(m):
            x = row_k[r]
            if x.is_zero():
                continue
            if p_inv is None:
                p_inv = p.inverse()
            f = x.conjugate() * p_inv  # the entry (r, k) over p
            m[r] = [y if z.is_zero() else y.sub_mul(f, z) for y, z in zip(row, row_k[r:])]
    return pivots


def lt_signatures(V: SeifertMatrix, q: int) -> tuple[int, ...]:
    """(sigma_K(omega^1), ..., sigma_K(omega^(q-1))) for omega =
    exp(2*pi*i/q), from one congruence diagonalization.

    q must be prime.  Every entry is exact and even.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    pivots = _congruence_pivots(_hermitian_form(V, q))
    half = []
    for j in range(1, q // 2 + 1):
        sig = sum(p.sign(j) for p in pivots)
        assert sig % 2 == 0 and abs(sig) <= len(pivots)
        half.append(sig)
    return tuple(half[min(j, q - j) - 1] for j in range(1, q))


def lt_signature(V: SeifertMatrix, q: int, j: int) -> int:
    """Levine-Tristram signature sigma_K(omega) at omega = exp(2*pi*i*j/q).

    q must be prime and 1 <= j <= q-1, so omega != 1.  The result is exact
    and always even.
    """
    if not 1 <= j <= q - 1:
        raise ValueError(f"need 1 <= j <= q-1, got j={j}, q={q}")
    return lt_signatures(V, q)[j - 1]


def signature(V: SeifertMatrix) -> int:
    """Ordinary knot signature sigma(K) = sigma_K(-1)."""
    return lt_signatures(V, 2)[0]


def sigma_q(V: SeifertMatrix, q: int) -> int:
    """sigma^(q)(K): the sum of sigma_K over all nontrivial q-th roots.

    The terms come from one diagonalization (see ``lt_signatures``); each
    is a sum of certified pivot signs.  For odd q they pair up as j and q-j,
    so the total is divisible by 4, which is asserted.
    """
    total = sum(lt_signatures(V, q))
    if q % 2 == 1:
        assert total % 4 == 0, f"sigma^({q}) = {total} is not divisible by 4"
    return total
