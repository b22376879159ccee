"""Exact Levine-Tristram signatures at prime-order roots of unity.

For a Seifert matrix V and omega = exp(2*pi*i*j/q) on the unit circle, the
Levine-Tristram signature sigma_K(omega) is the signature of the Hermitian
form

    H(omega) = (1 - omega) V + (1 - conj(omega)) V^T.

We evaluate it exactly, from the nested principal minors of H(zeta) at the
generator zeta of Q(zeta_q), computed modulo a product of primes and read
back into Z[zeta].  No floating point number is used anywhere.

Minors and signatures.  Take the indices in the order of a pivot plan, a
sequence of 1x1 pivots and 2x2 blocks, and let D_k be the k-th leading
principal minor of H(zeta) in that order (D_0 = 1).  Each D_k is an
element of Z[zeta], and it is real, since H(zeta) is Hermitian.  V is
rational, so the minors of H(zeta^j) are the Galois conjugates
sigma_j(D_k), whose signs ``Cyclotomic.sign(j)`` certifies.  The plan makes
every D_k nonzero except the inner minor D_(k+1) of a 2x2 block
(k+1, k+2), which is 0, and a nonzero element of the field is nonzero in
every embedding.  So the Sylvester-Jacobi rule gives

    sigma_K(omega^j) = sum over k = 1..n of s(D_(k-1)) s(D_k),

with s the sign of sigma_j(.), and s(0) = 0.  The inner minor adds 0 to
this sum, which is Frobenius' rule: the block's Schur
complement is [[0, b], [conj(b), d]] with b != 0, whose determinant
-|b|^2 is negative, so the block has one positive and one negative
eigenvalue.  H(zeta^(q-j)) is the transpose of H(zeta^j) and has the same
minors, so the roots j and q - j have the same signature: only j <= q/2
are signed.

Residues.  Each prime p = 1 (mod 2q) splits completely in Z[zeta]: with r
of order q modulo p, pZ[zeta] is the product of the q - 1 primes
(p, zeta - r^e), and reducing modulo the one for e maps D_k to the minor
of the integer matrix H(r^e) mod p.  The primes are found lazily below
2^62 and cached per q; ``cyclotomic.is_prime`` (Miller-Rabin with the
first twelve primes as bases) decides primality exactly below 3.18e23,
far above them.  They are used together: with N = p_1 ... p_k and R = r_i
(mod p_i) for each i, by the Chinese remainder theorem, R has order q
modulo every p_i and Z/N is the product of the fields F_(p_i).  So one
elimination modulo N at zeta = R^e, e = 1..q//2 in lockstep, gives the
residues at every p_i at once.  H(R^(-e)) = H(R^e)^T has the same
principal minors, so these roots cover all q - 1 of them.

The modulus.  |H_rc(omega)| <= 2(|V_rc| + |V_cr|) at every root of unity,
so by Hadamard's inequality every minor of H, in every embedding, is at
most B = prod over rows r of max(1, ||row_r||) in modulus, where row_r is
the vector of those entry bounds.  N is the product of the fewest primes,
largest first, with N > 4B.

Exact zeros.  Along the elimination, each entry of a Schur complement is a
minor M of H over the last pivot minor D_k, and each 2x2 principal
determinant of it is a principal minor M of H over D_k (Sylvester's
identity); D_k is a unit mod N.  The values mod N of an entry at R^e and
of its transpose entry at R^e are those of M at R^e and R^(-e), and a
principal minor is real, so its values at R^e and R^(-e) agree.  If all
of them are 0, M lies in pZ[zeta] for each p dividing N, so M = N M' with
M' in Z[zeta]; were M nonzero, |Norm M| >= N^(q-1) > B^(q-1) >= |Norm M|.
So M is exactly 0, and a value that is not 0 at some root proves M != 0.

The plan.  At each step the plan takes the first diagonal entry of the
Schur complement that is not 0 mod N at every root, or failing that the
first 2x2 principal block whose determinant is not: the first that are
exactly nonzero, so the plan depends on H alone.  The elimination divides
by every pivot, so each must be a unit mod N at every root.  A pivot that
shares a factor with N names, by the gcd, the primes that divide its norm
(unlucky primes): they are dropped, the next primes are added until
N > 4B again, and the elimination starts over.  The plan's pivots are
finitely many and nonzero, so only finitely many primes are ever dropped.
When no diagonal entry and no 2x2 principal determinant of a Schur
complement is nonzero, the complement is 0, since a Hermitian block
[[0, b], [conj(b), 0]] has determinant -|b|^2.  Then H(zeta) is singular
and ``SeifertMatrixError`` is raised.

Lazy reduction.  The elimination holds integers congruent mod N to the
entries and reduces mod N only where a residue is read: the entries of a
pivot and of its row or rows, which then multiply; each row's factor f (or
u and v); the diagonal entries and 2x2 determinants the plan tests for 0;
and each minor D_k.  So every residue, plan, gcd and minor is what
reducing every entry would give.  An entry as built, (1 - x) V_rc +
(1 - x^(-1)) V_cr with x and x^(-1) in [0, N), is below
N (|V_rc| + |V_cr|) <= N B / 2 < N^2 / 8 in modulus.  A 1x1 step subtracts
f z with 0 <= f, z < N from it, and a 2x2 step u g + v w: less than N^2
per index eliminated.  With k indices eliminated every entry is below
(k + 1/8) N^2, about 2 log2 N + log2 k bits, and an update costs a
multiplication and a subtraction but no division by N.

Nondegeneracy.  H(zeta) = (1 - zeta)(V - conj(zeta) V^T).  Were det H(zeta)
0, conj(zeta) would be a root of det(V - t V^T), so Phi_q would divide it
in Z[t] and q = Phi_q(1) would divide det(V - V^T), which ``SeifertMatrix``
makes +/-1.  So H(zeta) is nonsingular, and that error is never raised
for a Seifert matrix.

Read-back.  With D = sum c_i zeta^i over i = 0..q-2, Tr(zeta^m) is q - 1
when q divides m and -1 otherwise, so

    c_i = (Tr(D zeta^(-i)) - Tr(D zeta)) / q,

and modulo N each trace is the sum over e = 1..q-1 of D(R^e) R^(-ei), with
D(R^(q-e)) = D(R^e).  A trace is a sum of q - 1 embeddings, so
|c_i| <= 2 (q - 1) B / q < 2B, and c_i is the representative of its class
in (-N/2, N/2).

The total over all nontrivial q-th roots,

    sigma^(q)(K) = sum over j = 1..q-1 of sigma_K(exp(2*pi*i*j/q)),

equals the signature of the q-fold cyclic cover of the 4-ball branched over
a pushed-in Seifert surface for K.  For odd q it is divisible by 4, by the
symmetry sigma_K(omega) = sigma_K(conj(omega)).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import add, mul

from .cyclotomic import Cyclotomic, check_prime, is_prime
from .seifert import SeifertMatrix, SeifertMatrixError

# the primes used lie just below 2^_PRIME_BITS
_PRIME_BITS = 62
# q -> the primes p = 1 (mod 2q) found so far, largest first, each with a
# root of order q mod p.  Extended on demand and replaced whole, so a
# concurrent reader sees a prefix of the same sequence.
_primes: dict[int, tuple[tuple[int, int], ...]] = {}


def _prime(q: int, i: int) -> tuple[int, int]:
    """The i-th largest prime p = 1 (mod 2q) below 2^_PRIME_BITS, with an r
    of order q modulo p."""
    found = _primes.get(q, ())
    if len(found) <= i:
        more = list(found)
        t = (more[-1][0] - 1) // (2 * q) - 1 if more else ((1 << _PRIME_BITS) - 1) // (2 * q)
        while len(more) <= i:
            p = 2 * q * t + 1
            t -= 1
            if is_prime(p):
                g = 2
                while pow(g, (p - 1) // q, p) == 1:
                    g += 1
                more.append((p, pow(g, (p - 1) // q, p)))
        found = _primes[q] = tuple(more)
    return found[i]


def _hadamard_square(rows) -> int:
    """B^2, where B = prod over rows r of max(1, ||row_r||) and row_r holds
    the bounds 2(|V_rc| + |V_cr|) of |H_rc| at every root of unity: every
    minor of H, in every embedding, is at most B in modulus."""
    absolute = [list(map(abs, row)) for row in rows]
    out = 1
    for row, column in zip(absolute, zip(*absolute)):
        bounds = list(map(add, row, column))  # |V_rc| + |V_cr|
        out *= max(1, 4 * sum(map(mul, bounds, bounds)))
    return out


def _modulus(q: int, bound: int, unlucky: int) -> tuple[int, int]:
    """(N, R): N the product of the fewest largest primes p = 1 (mod 2q)
    that do not divide ``unlucky`` with N^2 > bound, and R the residue mod
    N that is, mod each p, its root of order q."""
    n, root, i = 1, 0, 0
    while n * n <= bound:
        p, r = _prime(q, i)
        i += 1
        if unlucky % p:
            root += n * ((r - root) * pow(n, -1, p) % p)
            n *= p
    return n, root


def _forms_mod(rows, q: int, n: int, root: int) -> list[list[list[int]]]:
    """Integer matrices congruent mod n to H(root^e), e = 1..q//2, not
    reduced: an entry is (1 - x) V_rc + (1 - x^(-1)) V_cr with x and x^(-1)
    taken in [0, n), so it is below n (|V_rc| + |V_cr|) in modulus."""
    pairs = [list(zip(row, column)) for row, column in zip(rows, zip(*rows))]
    out = []
    for e in range(1, q // 2 + 1):
        a, b = 1 - pow(root, e, n), 1 - pow(root, q - e, n)
        out.append([[v * a + w * b for v, w in row] for row in pairs])
    return out


def _plan_step(forms: list[list[list[int]]], n: int) -> tuple[int, ...] | None:
    """The first diagonal position of the Schur complement that is not 0
    mod n at every root, else the first 2x2 principal block whose
    determinant is not, else None."""
    size = len(forms[0])
    for i in range(size):
        if any(m[i][i] % n for m in forms):
            return (i,)
    for i in range(size):
        for j in range(i + 1, size):
            if any((m[i][i] * m[j][j] - m[i][j] * m[j][i]) % n for m in forms):
                return (i, j)
    return None


def _eliminate(forms: list[list[list[int]]], n: int) -> list[list[int]] | int:
    """The residues mod n of the nested principal minors D_1, D_2, ... at
    each root, one list over the roots per minor, along the pivot plan of
    ``_plan_step``: (i,) for a 1x1 pivot and (i, j) with i < j for a 2x2
    block.  ``forms`` is consumed; its entries are reduced mod n only where
    they are read (see "Lazy reduction").  A pivot that is not a unit mod n
    stops it and its gcd with n, the product of the primes of n that divide
    the pivot, is returned instead.  Raises ``SeifertMatrixError`` when no
    pivot is left."""
    dk = [1] * len(forms)  # the last minor at each root
    minors = []
    while forms[0]:
        pivot = _plan_step(forms, n)
        if pivot is None:
            raise SeifertMatrixError("degenerate form: H(zeta) is singular, so the rows "
                                     "are not a knot's Seifert matrix")
        if len(pivot) == 1:
            (i,) = pivot
            for e, m in enumerate(forms):
                row = [z % n for z in m.pop(i)]
                a = row.pop(i)
                try:
                    inv = pow(a, -1, n)
                except ValueError:  # a shares a factor with n
                    return gcd(a, n)
                for k, s in enumerate(m):
                    f = s.pop(i) * inv % n
                    if f:
                        m[k] = [y - f * z for y, z in zip(s, row)]
                dk[e] = dk[e] * a % n
            minors.append(list(dk))
        else:
            i, j = pivot
            inner = []
            for e, m in enumerate(forms):
                rj = [z % n for z in m.pop(j)]
                ri = [z % n for z in m.pop(i)]
                b, a = ri.pop(j), ri.pop(i)
                d, c = rj.pop(j), rj.pop(i)
                det = (a * d - b * c) % n
                try:
                    inv = pow(det, -1, n)
                except ValueError:
                    return gcd(det, n)
                # row s minus (s_i, s_j) S^(-1) (row i; row j), S = [[a, b], [c, d]]
                for k, s in enumerate(m):
                    y, x = s.pop(j), s.pop(i)
                    u, v = (x * d - y * c) * inv % n, (y * a - x * b) * inv % n
                    if u or v:
                        m[k] = [t - u * g - v * w for t, g, w in zip(s, ri, rj)]
                inner.append(dk[e] * a % n)
                dk[e] = dk[e] * det % n
            minors += [inner, list(dk)]
    return minors


@lru_cache(maxsize=32)
def _weights(q: int, n: int, root: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The weight of D(root^e), e = 1..q//2, in T_i = Tr(D zeta^(-i)) mod n
    for i = 0..q-1 (see ``_read_back``), and q^(-1) mod n.  Cached, since
    one (q, N, R) serves every matrix whose bound needs the same primes."""
    power = [pow(root, k, n) for k in range(q)]
    # D(root^(q-e)) = D(root^e); e = q - e only for the root -1 at q = 2
    return tuple(tuple(power[-e * i % q] + (power[e * i % q] if 2 * e != q else 0)
                       for e in range(1, q // 2 + 1)) for i in range(q)), pow(q, -1, n)


def _read_back(values: list[list[int]], q: int, n: int, root: int) -> list[list[int]]:
    """The power-basis coefficients mod n of real elements D of Z[zeta]
    from their values mod n at zeta = root^e, e = 1..q//2:
    c_i = (T_i - T_(q-1)) / q, where T_i = Tr(D zeta^(-i)) is the sum over
    e = 1..q-1 of D(root^e) root^(-ei), and D(root^(q-e)) = D(root^e)."""
    weights, inv_q = _weights(q, n, root)
    out = []
    for vals in values:
        t = [sum(map(mul, vals, row)) for row in weights]
        out.append([(x - t[-1]) * inv_q % n for x in t[:-1]])
    return out


def _symmetric(xs: list[int], m: int) -> list[int]:
    """The representatives in (-m/2, m/2) of residues mod an odd m."""
    return [x - m if 2 * x > m else x for x in xs]


def _principal_minors(rows, q: int) -> list[Cyclotomic]:
    """The nested principal minors D_1..D_n of H(zeta) for the rows of a
    Seifert matrix and prime q, in the order of the pivot plan, exact in
    Z[zeta], from one elimination modulo N > 4B.  Rows whose H(zeta) is
    singular, which no Seifert matrix has, raise ``SeifertMatrixError``."""
    bound = 16 * _hadamard_square(rows)  # N must exceed 4B
    unlucky = 1  # the product of the primes dropped so far
    while True:
        n, root = _modulus(q, bound, unlucky)
        minors = _eliminate(_forms_mod(rows, q, n, root), n)
        if isinstance(minors, int):
            unlucky *= minors
            continue
        return [Cyclotomic(q, _symmetric(c, n)) for c in _read_back(minors, q, n, root)]

def lt_signatures(V: SeifertMatrix, q: int) -> tuple[int, ...]:
    """(sigma_K(omega^1), ..., sigma_K(omega^(q-1))) for omega =
    exp(2*pi*i/q), from the signs of one chain of nested principal minors.

    q must be prime.  Every entry is exact and even.
    """
    check_prime(q)
    minors = _principal_minors(V.rows, q)
    half = []
    for j in range(1, q // 2 + 1):
        signs = [1] + [d.sign(j) for d in minors]
        sig = sum(a * b for a, b in zip(signs, signs[1:]))
        assert sig % 2 == 0 and abs(sig) <= len(minors)
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

    The terms come from one chain of minors (see ``lt_signatures``); each
    is a sum of products of certified signs.  For odd q they pair up as j
    and q-j, so the total is divisible by 4, which is asserted.
    """
    total = sum(lt_signatures(V, q))
    if q % 2 == 1:
        assert total % 4 == 0, f"sigma^({q}) = {total} is not divisible by 4"
    return total
