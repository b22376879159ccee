import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from knotconc.cyclotomic import MAX_Q, Cyclotomic, is_prime
from knotconc.ledger import load_seed_ledger
from knotconc.seifert import SeifertMatrix, SeifertMatrixError, two_strand_torus_matrix
from knotconc.signatures import (
    _eliminate,
    _forms_mod,
    _hadamard_square,
    _modulus,
    _plan_step,
    _prime,
    _principal_minors,
    lt_signature,
    lt_signatures,
    sigma_q,
    signature,
)
from conftest import block_sum, float_lt_signature, random_seifert

TREFOIL = SeifertMatrix.from_rows([[-1, 1], [0, -1]])


def transpose(V):
    """V^T, a Seifert matrix of the knot with reversed orientation."""
    return SeifertMatrix(tuple(zip(*V.rows)))


def mirror(V):
    """Seifert matrix -V^T of the mirror knot."""
    n = V.size
    return SeifertMatrix(tuple(tuple(-V.rows[j][i] for j in range(n)) for i in range(n)))


def test_trefoil_values():
    # float check: eigenvalues of [[-4, 2], [2, -4]] are -2 and -6
    assert lt_signature(TREFOIL, 2, 1) == -2
    # eigenvalues of the q=3 form are -3 +- sqrt(3), both negative
    assert lt_signature(TREFOIL, 3, 1) == -2
    assert signature(TREFOIL) == -2
    assert signature(mirror(TREFOIL)) == 2


def test_unknot_all_zero():
    for q in (2, 3, 5, 7):
        for j in range(1, q):
            assert lt_signature(SeifertMatrix(()), q, j) == 0
        assert sigma_q(SeifertMatrix(()), q) == 0


def test_sigma_q_trefoil():
    assert sigma_q(TREFOIL, 2) == -2
    assert sigma_q(TREFOIL, 3) == -4


def test_sigma_3_two_strand_torus_family():
    # sigma^(3)(T(2,6n+-1)) = sigma(T(3,6n+-1)) = -8n
    for n in range(1, 6):
        assert sigma_q(two_strand_torus_matrix(6 * n - 1), 3) == -8 * n
        assert sigma_q(two_strand_torus_matrix(6 * n + 1), 3) == -8 * n


def test_bad_arguments():
    with pytest.raises(ValueError):
        lt_signature(TREFOIL, 4, 1)
    with pytest.raises(ValueError):
        lt_signature(TREFOIL, 3, 0)
    with pytest.raises(ValueError):
        lt_signature(TREFOIL, 3, 3)
    with pytest.raises(ValueError):
        sigma_q(TREFOIL, 6)


def reference_form(V, q):
    """The full matrix H(zeta), every entry built from V."""
    one, zeta = Cyclotomic.one(q), Cyclotomic.zeta_power(q, 1)
    u, w = (one - zeta).num, (one - zeta.conjugate()).num
    return [[Cyclotomic(q, [a * x + b * y for x, y in zip(u, w)])
             for a, b in zip(row, column)]
            for row, column in zip(V.rows, zip(*V.rows))]


def reference_pivots(m):
    """Congruence pivots computed on the full matrix: every entry of every
    Schur complement, with the same pivot rules as the library."""
    pivots = []
    while m:
        k = next((i for i, row in enumerate(m) if not row[i].is_zero()), None)
        if k is None:
            off = next(((i, j) for i, row in enumerate(m)
                        for j in range(i + 1, len(m)) if not row[j].is_zero()), None)
            if off is None:
                raise ArithmeticError("degenerate form")
            i, j = off
            a = m[i][j]
            abar = a.conjugate()
            m[i] = [x + a * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] = row[i] + abar * row[j]
            k = i
        row_k = m.pop(k)
        p = row_k.pop(k)
        pivots.append(p)
        p_inv = None
        for r, row in enumerate(m):
            x = row.pop(k)
            if x.is_zero():
                continue
            if p_inv is None:
                p_inv = p.inverse()
            f = x * p_inv
            m[r] = [y - f * z for y, z in zip(row, row_k)]
    return pivots


def reference_signatures(V, q):
    """(sigma_K(omega^j) for j = 1..q-1) from the signs of the reference
    pivots."""
    pivots = reference_pivots(reference_form(V, q))
    return tuple(sum(p.sign(j) for p in pivots) for j in range(1, q))


def test_lt_signatures_match_reference_elimination():
    # zero diagonals take 2x2 blocks; entries up to 9 bring coefficient
    # growth
    rng = random.Random(37)
    for i in range(40):
        V = random_seifert(rng, 1 + i % 6, span=(3, 9)[i % 2],
                           zero_diagonal=i % 5 == 0)
        q = (2, 3, 5, 7, 11, 13)[(i + i // 6) % 6]
        assert lt_signatures(V, q) == reference_signatures(V, q), (V.rows, q)
    for k in (3, 7, 13):
        V = two_strand_torus_matrix(k)
        assert lt_signatures(V, 97) == reference_signatures(V, 97), k
    V = random_seifert(random.Random(38), 10, span=9)
    assert lt_signatures(V, 31) == reference_signatures(V, 31)


def spy_moduli(monkeypatch):
    """The (N, R) of every elimination ``_principal_minors`` starts, in
    order: the last one produced the minors."""
    seen = []

    def spied(rows, q, n, root):
        seen.append((n, root))
        return _forms_mod(rows, q, n, root)

    monkeypatch.setattr("knotconc.signatures._forms_mod", spied)
    return seen


def used_primes(n, q):
    """The primes of ``_prime(q, .)`` that divide a modulus n in which none
    was dropped, largest first."""
    return [p for p, _ in (_prime(q, i) for i in range(n.bit_length() // 61 + 1))
            if n % p == 0]


def assert_pivots_are_units(minors, q, n, root):
    """No factor of N divides a pivot: every minor that is not exactly 0 is a
    unit mod N at every root R^e (the pivots are quotients of such minors),
    and the inner minors of 2x2 blocks are 0 mod N."""
    for d in minors:
        for e in range(1, q):
            value = sum(c * pow(root, e * i, n) for i, c in enumerate(d.num)) % n
            assert (value == 0) if d.is_zero() else math.gcd(value, n) == 1, (d, e)


def test_pivot_vanishing_mod_a_prime_in_use(monkeypatch):
    # an entry equal to the first prime, or to minus the second, makes the
    # first pivot a multiple of that prime: it is dropped and the
    # elimination starts over once, at a modulus of two other primes
    moduli = spy_moduli(monkeypatch)
    base = random_seifert(random.Random(39), 2)
    for q in (2, 3, 7):
        first, second = _prime(q, 0)[0], _prime(q, 1)[0]
        for entry, unlucky in ((first, first), (-second, second)):
            rows = [list(row) for row in base.rows]
            rows[0][0] = entry
            V = SeifertMatrix.from_rows(rows)
            moduli.clear()
            minors = _principal_minors(V.rows, q)
            assert [n % unlucky == 0 for n, _ in moduli] == [True, False], (q, entry)
            assert moduli[-1][0] > 1 << 64  # still more than one prime
            assert_pivots_are_units(minors, q, *moduli[-1])
            assert lt_signatures(V, q) == reference_signatures(V, q), (q, entry)


def test_primes_split_with_a_root_of_order_q():
    for q in (2, 3, 5, 7, 97):
        for i in range(3):
            p, r = _prime(q, i)
            assert p < 2 ** 62 and p % (2 * q) == 1 and is_prime(p)
            assert r != 1 and pow(r, q, p) == 1
        assert _prime(q, 0)[0] > _prime(q, 1)[0] > _prime(q, 2)[0]


def test_block_pivot_vanishing_at_a_later_prime(monkeypatch):
    # H(-1) = 2(V + V^T) = [[0, 2p], [2p, 0]] for the second prime p: the
    # plan opens with the 2x2 block (0, 1), whose determinant -4p^2 shares
    # p with the first modulus, so p is dropped and the elimination starts
    # over once
    moduli = spy_moduli(monkeypatch)
    p = _prime(2, 1)[0]
    V = SeifertMatrix.from_rows([[0, (p + 1) // 2], [(p - 1) // 2, 0]])
    minors = _principal_minors(V.rows, 2)
    assert [n % p == 0 for n, _ in moduli] == [True, False]
    assert minors[0].is_zero() and not minors[1].is_zero()
    assert_pivots_are_units(minors, 2, *moduli[-1])
    assert lt_signatures(V, 2) == reference_signatures(V, 2)


def test_no_plan_at_a_prime_is_skipped(monkeypatch):
    # V_ji = V_ij / r (mod p) makes H_ji(r) vanish mod p: the circulant
    # below has every 2x2 principal determinant 0 mod the first prime but
    # not exactly, so the plan's first block shares that prime with the
    # first modulus; it is dropped and the elimination starts over once
    moduli = spy_moduli(monkeypatch)
    q = 3
    p, r = _prime(q, 0)
    s = pow(r, -1, p)
    V = SimpleNamespace(rows=((0, 1, s), (s, 0, 1), (1, s, 0)))
    minors = _principal_minors(V.rows, q)
    assert [n % p == 0 for n, _ in moduli] == [True, False]
    assert_pivots_are_units(minors, q, *moduli[-1])
    signs = [1] + [d.sign(1) for d in minors]
    assert sum(a * b for a, b in zip(signs, signs[1:])) == reference_signatures(V, q)[0]


def test_singular_forms_raise_at_once(monkeypatch):
    # once N > 4B, a Schur complement entry or 2x2 principal determinant
    # that is 0 mod N at every root is exactly 0, so a singular H(zeta)
    # raises at the first modulus instead of dropping primes without end.
    # The 4x4 V is symmetric, so det(V - V^T) = 0, and its row 1 is twice
    # its row 0: two pivots leave a zero Schur complement
    moduli = spy_moduli(monkeypatch)
    for rows in (((0, 0), (0, 0)),
                 ((1, 2, 0, 1), (2, 4, 0, 2), (0, 0, 1, 1), (1, 2, 1, 2))):
        for q in (2, 3):
            moduli.clear()
            with pytest.raises(SeifertMatrixError) as info:
                _principal_minors(rows, q)
            assert str(info.value) == ("degenerate form: H(zeta) is singular, so the rows "
                                       "are not a knot's Seifert matrix")
            assert len(moduli) == 1, (rows, q)


def test_forms_at_prime_order_roots_are_nondegenerate():
    # det(V - V^T) = +/-1 keeps Phi_q from dividing the Alexander
    # polynomial, so the last minor det H(zeta) is never 0 and no Seifert
    # matrix makes the elimination raise
    rng = random.Random(43)
    seed = [V for V in load_seed_ledger().atoms.values() if V is not None]
    assert len(seed) == 12 and seed[0] == SeifertMatrix(())  # no minors to check
    cases = seed[1:]
    cases += [random_seifert(rng, 1 + i % 3, zero_diagonal=i % 2 == 0) for i in range(6)]
    for q in filter(is_prime, range(MAX_Q + 1)):
        for V in cases:
            assert not _principal_minors(V.rows, q)[-1].is_zero(), (V.rows, q)


def test_zero_diagonal_reaches_frobenius_block():
    # every diagonal entry of H is exactly 0, so the plan opens with a 2x2
    # block whose inner minor D_1 is exactly 0: Frobenius' rule counts it 0
    rng = random.Random(40)
    for q in (2, 3, 5, 13):
        V = random_seifert(rng, 3, zero_diagonal=True)
        minors = _principal_minors(V.rows, q)
        assert minors[0].is_zero() and not minors[1].is_zero()
        assert lt_signatures(V, q) == reference_signatures(V, q), (V.rows, q)


def test_hadamard_square_bounds_every_minor():
    # |H_rc| <= 2(|V_rc| + |V_cr|): rows (4, 2) and (2, 4) give B^2 = 20 * 20
    assert _hadamard_square(TREFOIL.rows) == 400
    assert _hadamard_square(()) == 1
    assert _hadamard_square(((0, 0), (0, 0))) == 1
    assert _hadamard_square(((1, 0), (0, 0))) == 16
    rng = random.Random(41)
    for i in range(12):
        V = random_seifert(rng, 1 + i % 4, span=9, zero_diagonal=i % 3 == 0)
        bound = _hadamard_square(V.rows)
        q = (3, 5, 7, 11)[i % 4]
        for d in _principal_minors(V.rows, q):
            assert d.den == 1 and all(c * c < 4 * bound for c in d.num)


def test_lift_stops_at_the_first_modulus_past_4b(monkeypatch):
    # the modulus multiplies primes until N > 4B and no further; with B just
    # under p1/2 (B^2 = 64 x^2 + 16 for x = p1 // 16) one prime is too few
    moduli = spy_moduli(monkeypatch)
    rng = random.Random(42)
    q = 3
    x = _prime(q, 0)[0] // 16
    cases = [SeifertMatrix.from_rows([[x, 1], [0, 0]])]
    cases += [random_seifert(rng, g, span=9) for g in (2, 5, 8)]
    counts = []
    for V in cases:
        moduli.clear()
        _principal_minors(V.rows, q)
        ((n, _),) = moduli  # one elimination
        used = used_primes(n, q)
        assert math.prod(used) == n
        bound = 16 * _hadamard_square(V.rows)
        assert n ** 2 > bound >= (n // used[-1]) ** 2, V.rows
        counts.append(len(used))
    assert counts[0] == 2


def test_multi_prime_moduli_match_references(monkeypatch):
    # bounds that need two primes (genus 8-10 at span 3, genus 5-9 at span
    # 9), three (genus 10 at span 9) and five (genus 3, entries near 2^40)
    moduli = spy_moduli(monkeypatch)
    rng = random.Random(44)
    cases = [random_seifert(rng, g, span=3) for g in (8, 10)]
    cases += [random_seifert(rng, g, span=9) for g in (5, 9, 10)]
    cases.append(random_seifert(rng, 3, span=1 << 40))
    counts, checked = set(), 0
    for V in cases:
        for q in (2, 3, 7):
            moduli.clear()
            minors = _principal_minors(V.rows, q)
            ((n, root),) = moduli
            counts.add(len(used_primes(n, q)))
            assert_pivots_are_units(minors, q, n, root)
            values = lt_signatures(V, q)
            assert values == reference_signatures(V, q), (V.rows, q)
            for j, value in enumerate(values, start=1):
                approx = float_lt_signature(V, q, j)
                if approx is not None:
                    assert value == approx, (V.rows, q, j)
                    checked += 1
    assert counts == {2, 3, 5}, counts
    assert checked >= 30



def eager_forms(rows, q, n, root):
    """H(root^e) mod n, e = 1..q//2, with every entry in [0, n)."""
    out = []
    for e in range(1, q // 2 + 1):
        x = pow(root, e, n)
        a, b = 1 - x, 1 - pow(x, -1, n)
        out.append([[(v * a + w * b) % n for v, w in zip(row, column)]
                    for row, column in zip(rows, zip(*rows))])
    return out


def eager_eliminate(forms, n):
    """The reference for ``_eliminate``: the same plan and updates, with
    every entry of every Schur complement reduced into [0, n)."""
    dk, minors = [1] * len(forms), []
    while forms[0]:
        size = len(forms[0])
        pivot = next(((i,) for i in range(size) if any(m[i][i] for m in forms)), None)
        pivot = pivot or next(((i, j) for i in range(size) for j in range(i + 1, size)
                               if any((m[i][i] * m[j][j] - m[i][j] * m[j][i]) % n
                                      for m in forms)), None)
        if pivot is None:
            raise SeifertMatrixError("degenerate form")
        if len(pivot) == 1:
            (i,) = pivot
            for e, m in enumerate(forms):
                row = m.pop(i)
                a = row.pop(i)
                if math.gcd(a, n) > 1:
                    return math.gcd(a, n)
                inv = pow(a, -1, n)
                for k, s in enumerate(m):
                    f = s.pop(i) * inv % n
                    m[k] = [(y - f * z) % n for y, z in zip(s, row)]
                dk[e] = dk[e] * a % n
            minors.append(list(dk))
        else:
            i, j = pivot
            inner = []
            for e, m in enumerate(forms):
                rj, ri = m.pop(j), m.pop(i)
                b, a = ri.pop(j), ri.pop(i)
                d, c = rj.pop(j), rj.pop(i)
                det = (a * d - b * c) % n
                if math.gcd(det, n) > 1:
                    return math.gcd(det, n)
                inv = pow(det, -1, n)
                for k, s in enumerate(m):
                    y, x = s.pop(j), s.pop(i)
                    u, v = (x * d - y * c) * inv % n, (y * a - x * b) * inv % n
                    m[k] = [(t - u * g - v * w) % n for t, g, w in zip(s, ri, rj)]
                inner.append(dk[e] * a % n)
                dk[e] = dk[e] * det % n
            minors += [inner, list(dk)]
    return minors


def unlucky_prime_rows():
    """The adversarial rows of ``test_pivot_vanishing_mod_a_prime_in_use``
    (q = 3) and ``test_no_plan_at_a_prime_is_skipped``, each with its q:
    the first modulus of each holds a prime that divides a pivot."""
    rows = [list(row) for row in random_seifert(random.Random(39), 2).rows]
    rows[0][0] = _prime(3, 0)[0]
    p, r = _prime(3, 0)
    s = pow(r, -1, p)
    return [(rows, 3), (((0, 1, s), (s, 0, 1), (1, s, 0)), 3)]


# at q = 2 the 2x2 Schur complement left by four pivots opens with a
# diagonal entry that is exactly 0 but held as a nonzero multiple of N: the
# plan must reduce it before testing it
LATER_ZERO_DIAGONAL = ((1, 0, 1, -1, 0, 1), (-1, 0, -1, 0, 0, -1), (1, -1, -1, 0, 1, 1),
                       (-1, 0, -1, 0, 0, 1), (0, 0, 1, 0, 0, 0), (1, -1, 1, 1, -1, 1))


def test_lazy_elimination_matches_eager_reference():
    # the same pivots, minors and unlucky gcds as with every entry reduced:
    # random forms at q <= 11, zero diagonals (2x2 blocks), entries in
    # [-1, 1] (exact zeros in later Schur complements), moduli of up to
    # three primes, and both unlucky-prime cases at their first and second
    # moduli
    rng = random.Random(46)
    cases = [(random_seifert(rng, 1 + i % 6, span=(3, 9)[i % 2],
                             zero_diagonal=i % 3 == 0).rows, (2, 3, 5, 7, 11)[i % 5])
             for i in range(30)]
    cases += [(random_seifert(rng, 2 + i % 3, span=1, zero_diagonal=i % 2 == 0).rows,
               (2, 3, 5)[i % 3]) for i in range(30)]
    cases.append((LATER_ZERO_DIAGONAL, 2))
    cases += [(random_seifert(rng, 10, span=9, zero_diagonal=z).rows, q)
              for z in (False, True) for q in (2, 3, 7)]
    cases += unlucky_prime_rows()
    counts, unlucky_cases = set(), 0
    for rows, q in cases:
        bound, unlucky = 16 * _hadamard_square(rows), 1
        while True:
            n, root = _modulus(q, bound, unlucky)
            counts.add(len(used_primes(n, q)) if unlucky == 1 else 0)
            lazy = _eliminate(_forms_mod(rows, q, n, root), n)
            assert lazy == eager_eliminate(eager_forms(rows, q, n, root), n), (rows, q, n)
            if not isinstance(lazy, int):
                break
            unlucky *= lazy
        unlucky_cases += unlucky > 1
    assert {1, 2, 3} <= counts, counts
    assert unlucky_cases == 2


def test_lazy_entries_stay_below_the_growth_bound(monkeypatch):
    # an entry as built is below N (|V_rc| + |V_cr|) < N^2/8, and each
    # eliminated index subtracts less than N^2, so with k indices eliminated
    # every entry is below (k + 1/8) N^2; the bound is reached lazily, with
    # entries outside [0, N)
    steps = []

    def spied(forms, n):
        steps.append((len(forms[0]), n, max(abs(x) for m in forms for row in m for x in row),
                      all(0 <= x < n for m in forms for row in m for x in row)))
        return _plan_step(forms, n)

    monkeypatch.setattr("knotconc.signatures._plan_step", spied)
    rng = random.Random(47)
    cases = [random_seifert(rng, g, span=9, zero_diagonal=z) for g in (3, 10) for z in (False, True)]
    cases += [random_seifert(rng, 4, span=1 << 40)]
    unreduced = 0
    for V in cases:
        for q in (2, 5, 11):
            steps.clear()
            _principal_minors(V.rows, q)
            size, n, first, _ = steps[0]
            assert first <= n * max(abs(a) + abs(b) for row, column in zip(V.rows, zip(*V.rows))
                                    for a, b in zip(row, column))
            for left, _, largest, reduced in steps:
                assert 8 * largest < (8 * (size - left) + 1) * n * n, (V.rows, q, left)
                unreduced += not reduced
    assert unreduced > 100, unreduced

def test_conjugation_symmetry_random():
    # the form of V^T at omega is H(conj(omega)), so V^T's values are V's
    # in reverse order, from another chain of minors
    rng = random.Random(31)
    for _ in range(25):
        V = random_seifert(rng, rng.randint(1, 3))
        for q in (3, 5):
            for j in range(1, (q - 1) // 2 + 1):
                assert lt_signature(V, q, j) == lt_signature(V, q, q - j)
            assert lt_signatures(transpose(V), q) == lt_signatures(V, q)[::-1]
    for q in (31, 97):
        for _ in range(3):
            V = random_seifert(rng, rng.randint(1, 3))
            values = lt_signatures(V, q)
            assert values == values[::-1]
            assert lt_signatures(transpose(V), q) == values[::-1], (V.rows, q)


def test_mirror_antisymmetry_random():
    rng = random.Random(32)
    for i in range(26):
        V = random_seifert(rng, rng.randint(1, 3))
        for q in (2, 3) if i < 20 else (31, 97):
            assert sigma_q(mirror(V), q) == -sigma_q(V, q)


def test_block_sum_additivity_random():
    rng = random.Random(33)
    for i in range(19):
        a = random_seifert(rng, rng.randint(1, 2))
        b = random_seifert(rng, rng.randint(1, 2))
        for q in (2, 3) if i < 15 else (31, 97):
            assert sigma_q(block_sum(a, b), q) == sigma_q(a, q) + sigma_q(b, q)


def test_matches_float_oracle_spot():
    rng = random.Random(34)
    checked = 0
    for _ in range(40):
        V = random_seifert(rng, rng.randint(1, 4))
        q = rng.choice((2, 3, 5, 7))
        j = rng.randint(1, q - 1)
        approx = float_lt_signature(V, q, j)
        if approx is None:
            continue
        assert lt_signature(V, q, j) == approx
        checked += 1
    assert checked >= 30


def test_lt_signatures_match_float_oracle_and_per_j_calls():
    # zero diagonals force the off-diagonal pivot branch; entries up to 9
    # bring coefficient growth
    rng = random.Random(35)
    checked = 0
    for i in range(40):
        V = random_seifert(rng, rng.randint(1, 3), span=rng.choice((3, 9)),
                           zero_diagonal=i % 3 == 0)
        q = (2, 3, 5, 7, 11)[i % 5]
        per_j = lt_signatures(V, q)
        assert len(per_j) == q - 1
        assert sigma_q(V, q) == sum(per_j)
        for j, value in enumerate(per_j, start=1):
            approx = float_lt_signature(V, q, j)
            if approx is not None:
                assert value == approx, (V.rows, q, j)
                checked += 1
    assert checked >= 150


def litherland_two_strand(k, q, j):
    """sigma_K(exp(2*pi*i*j/q)) for K = T(2,k), k odd, by Litherland's count:
    with x = j/q, the sums 1/2 + i/k (i = 1..k-1) outside (x, x + 1) count
    +1 and those inside count -1 (so sigma(T(2,3)) = -2).  No sum equals x
    or x + 1: in lowest terms (k + 2i)/(2k) has an even denominator, j/q has
    an odd one for odd q, and for q = 2 equality would need i = 0 or i = k.
    So exact comparisons decide every term."""
    x = Fraction(j, q)
    inside = sum(x < Fraction(1, 2) + Fraction(i, k) < x + 1 for i in range(1, k))
    return k - 1 - 2 * inside


def test_two_strand_torus_matches_litherland():
    assert litherland_two_strand(3, 2, 1) == -2
    for k in range(3, 32, 2):
        V = two_strand_torus_matrix(k)
        for q in (2, 3, 5, 7, 11, 13):
            want = tuple(litherland_two_strand(k, q, j) for j in range(1, q))
            assert lt_signatures(V, q) == want, (k, q)


# (genus, span, zero_diagonal, then sigma_K(omega^j) for j = 1..(q-1)/2 at
# q = 3, 7 and 13) for consecutive random_seifert draws from
# random.Random(36); the other half of each tuple is the mirror image, by
# conjugation symmetry.
PINNED_LT_SIGNATURES = [
    (1, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (2, 9, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (3, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (4, 3, True, (0,), (0, 0, 0), (-2, 0, 0, 0, 0, 0)),
    (5, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (6, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (1, 9, False, (-2,), (-2, -2, -2), (-2, -2, -2, -2, -2, -2)),
    (2, 3, False, (0,), (0, 0, 0), (2, 0, 0, 0, 0, 0)),
    (3, 3, True, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (4, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (5, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (6, 9, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (1, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (2, 3, True, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (3, 3, False, (-2,), (-2, -2, -2), (0, -2, -2, -2, -2, -2)),
    (4, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (5, 9, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (6, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (1, 3, True, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (2, 3, False, (-2,), (-2, -2, -2), (-2, -2, -2, -2, -2, -2)),
    (3, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (4, 9, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (5, 3, False, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
    (6, 3, True, (0,), (0, 0, 0), (0, 0, 0, 0, 0, 0)),
]


def test_pinned_lt_signatures():
    rng = random.Random(36)
    for genus, span, zero_diagonal, *halves in PINNED_LT_SIGNATURES:
        V = random_seifert(rng, genus, span=span, zero_diagonal=zero_diagonal)
        for q, half in zip((3, 7, 13), halves):
            assert lt_signatures(V, q) == half + half[::-1], (V.rows, q)
