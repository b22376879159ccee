import random
from fractions import Fraction

import pytest

from knotconc.cyclotomic import Cyclotomic
from knotconc.seifert import SeifertMatrix, UNKNOT_MATRIX, two_strand_torus_matrix
from knotconc.signatures import (
    SingularFormError,
    _congruence_pivots,
    _hermitian_form,
    lt_signature,
    lt_signatures,
    sigma_q,
    signature,
)
from conftest import float_lt_signature, random_seifert

TREFOIL = SeifertMatrix.from_rows([[-1, 1], [0, -1]])


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
            assert lt_signature(UNKNOT_MATRIX, q, j) == 0
        assert sigma_q(UNKNOT_MATRIX, q) == 0


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


def test_singular_form_reported():
    zero = Cyclotomic.zero(3)
    with pytest.raises(SingularFormError):
        _congruence_pivots([[zero, zero], [zero]])  # the upper triangle


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
                raise SingularFormError("degenerate")
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


def exact(elements):
    return [(x.num, x.den) for x in elements]


def test_upper_triangle_pivots_match_full_elimination():
    # zero diagonals take the off-diagonal pivot; entries up to 9 bring
    # coefficient growth
    rng = random.Random(37)
    for i in range(40):
        V = random_seifert(rng, 1 + i % 6, span=(3, 9)[i % 2],
                           zero_diagonal=i % 5 == 0)
        q = (2, 3, 5, 7, 11, 13)[(i + i // 6) % 6]
        assert exact(_congruence_pivots(_hermitian_form(V, q))) \
            == exact(reference_pivots(reference_form(V, q))), (V.rows, q)
    for k in (3, 7, 13):
        V = two_strand_torus_matrix(k)
        assert exact(_congruence_pivots(_hermitian_form(V, 97))) \
            == exact(reference_pivots(reference_form(V, 97))), k


def test_schur_updates_stay_in_the_upper_triangle(monkeypatch):
    calls = []
    sub_mul = Cyclotomic.sub_mul

    def counted(self, f, w):
        calls.append(1)
        return sub_mul(self, f, w)

    monkeypatch.setattr(Cyclotomic, "sub_mul", counted)
    V = random_seifert(random.Random(38), 6, span=9)
    _congruence_pivots(_hermitian_form(V, 7))
    # a full-matrix update would take sum(n * n) = 506
    assert 0 < len(calls) <= sum(n * (n + 1) // 2 for n in range(1, 12))


def test_conjugation_symmetry_random():
    rng = random.Random(31)
    for _ in range(25):
        V = random_seifert(rng, rng.randint(1, 3))
        for q in (3, 5):
            for j in range(1, (q - 1) // 2 + 1):
                assert lt_signature(V, q, j) == lt_signature(V, q, q - j)


def test_mirror_antisymmetry_random():
    rng = random.Random(32)
    for _ in range(20):
        V = random_seifert(rng, rng.randint(1, 3))
        for q in (2, 3):
            assert sigma_q(mirror(V), q) == -sigma_q(V, q)


def test_block_sum_additivity_random():
    rng = random.Random(33)
    for _ in range(15):
        a = random_seifert(rng, rng.randint(1, 2))
        b = random_seifert(rng, rng.randint(1, 2))
        for q in (2, 3):
            assert sigma_q(a.block_sum(b), q) == sigma_q(a, q) + sigma_q(b, q)


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
