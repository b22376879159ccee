import cmath
import math
import random
from fractions import Fraction

import pytest

from knotconc.cyclotomic import Cyclotomic, CyclotomicError, _cosines, is_prime


def random_element(rng, q, span=6):
    cs = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(q - 1)]
    den = math.lcm(*(c.denominator for c in cs))
    return Cyclotomic(q, [c.numerator * (den // c.denominator) for c in cs], den)


def rational(q: int, r) -> Cyclotomic:
    r = Fraction(r)
    return Cyclotomic(q, [r.numerator] + [0] * (q - 2), r.denominator)


def to_complex(a: Cyclotomic) -> complex:
    z = cmath.exp(2j * cmath.pi / a.q)
    return sum(float(c) * z ** k for k, c in enumerate(a.coeffs))


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    n = 10 ** 5
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]
    # strong pseudoprimes to the bases 2, 3, 5, 7 (psi_4) and to the first
    # eleven primes (psi_11): trial division by the witnesses passes both
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


@pytest.mark.parametrize("n", [318665857834031151167461, 2 ** 89 - 1])
def test_is_prime_refuses_integers_beyond_its_exact_range(n):
    # psi_12 is a strong pseudoprime to all twelve bases; 2^89 - 1 is a prime
    # above it.  Both are refused at once, not answered
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(n)


def test_basic_identities():
    for q in (2, 3, 5, 7):
        one = Cyclotomic.one(q)
        z = Cyclotomic.zeta_power(q, 1)
        # zeta^q = 1 and 1 + zeta + ... + zeta^(q-1) = 0
        acc = one
        for _ in range(q - 1):
            acc = acc * z
        assert acc == Cyclotomic.zeta_power(q, q - 1)
        total = rational(q, 0)
        for k in range(q):
            total = total + Cyclotomic.zeta_power(q, k)
        assert total.is_zero()


def test_field_axioms_random():
    rng = random.Random(11)
    for q in (2, 3, 5, 7):
        for _ in range(60):
            a, b, c = (random_element(rng, q) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == Cyclotomic.one(q)


def test_inverse_at_larger_q():
    rng = random.Random(16)
    for q in (11, 13, 31, 97):
        one = Cyclotomic.one(q)
        elements = [random_element(rng, q) for _ in range(4)]
        elements += [Cyclotomic.zeta_power(q, 3) + one,
                     rational(q, Fraction(-7, 3))]
        for a in elements:
            inv = a.inverse()
            assert a * inv == one
            assert inv.inverse() == a
    for q in (2, 3, 11):
        with pytest.raises(ZeroDivisionError):
            rational(q, 0).inverse()


def test_conjugation_is_an_involution_and_ring_map():
    rng = random.Random(12)
    for q in (3, 5, 7):
        for _ in range(40):
            a, b = random_element(rng, q), random_element(rng, q)
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_conjugate_of_zeta_is_inverse_power():
    for q in (3, 5, 7):
        z = Cyclotomic.zeta_power(q, 1)
        assert z.conjugate() == Cyclotomic.zeta_power(q, q - 1)
        assert (z * z.conjugate()) == Cyclotomic.one(q)


def test_galois_is_a_ring_map_fixing_the_reals():
    rng = random.Random(15)
    for q in (3, 5, 7, 11):
        for _ in range(15):
            a, b = random_element(rng, q), random_element(rng, q)
            re = a + a.conjugate()
            for j in range(1, q):
                s = lambda x: x.galois(j)  # noqa: E731
                assert s(a * b) == s(a) * s(b)
                assert s(a + b) == s(a) + s(b)
                assert s(re).is_real()
                # sigma_j(a) evaluated at zeta is a evaluated at zeta^j
                w = cmath.exp(2j * cmath.pi * j / q)
                want = sum(float(c) * w ** k for k, c in enumerate(a.coeffs))
                assert abs(to_complex(s(a)) - want) < 1e-9 * (1 + abs(want))
            assert a.galois(q - 1) == a.conjugate()
            assert a.galois(1) == a
    with pytest.raises(CyclotomicError):
        Cyclotomic.one(5).galois(10)


PRECS = (64, 1024)


def test_cosines_third_root_of_unity():
    # cos(2*pi/3) = -1/2 exactly
    for prec in PRECS:
        assert abs(_cosines(3, prec)[1] + (1 << (prec - 1))) <= 1


def test_cosines_fifth_root_of_unity():
    # 4 * 2^prec * cos(2*pi/5) = sqrt(5) 2^prec - 2^prec, and isqrt pins
    # sqrt(5) 2^prec to [s, s + 1)
    for prec in PRECS:
        s = math.isqrt(5 * 4 ** prec)
        c = _cosines(5, prec)[1]
        assert s - (1 << prec) - 4 <= 4 * c < s + 1 - (1 << prec) + 4


def test_cosines_sum_of_roots_of_unity_vanishes():
    # 1 + 2 * sum_{k=1}^{(q-1)/2} cos(2*pi*k/q) = 0 for odd q, and each C_k
    # is within 1 of 2^prec cos(2*pi*k/q), C_0 exactly 2^prec
    for q in range(3, 98):
        if not is_prime(q):
            continue
        for prec in PRECS:
            c = _cosines(q, prec)
            assert len(c) == q - 1 and c[0] == 1 << prec
            assert abs(c[0] + 2 * sum(c[1:(q + 1) // 2])) <= q


def test_sign_escalates_precision():
    # 2cos(2*pi/5) = (sqrt(5) - 1)/2 is approached by F(n)/F(n+1) from
    # alternating sides, within about 1/F(n+1)^2: the sign of the difference
    # needs well over 64 bits once F(n+1) passes 2^32, and 2048 bits at
    # n = 800, where F(n+1) is about 2^555.
    z = Cyclotomic.zeta_power(5, 1)
    x = z + z.conjugate()
    fib = [0, 1]
    while len(fib) < 803:
        fib.append(fib[-1] + fib[-2])
    for n in (10, 60, 61, 118, 800, 801):
        d = x - rational(5, Fraction(fib[n], fib[n + 1]))
        assert d.sign() == (1 if n % 2 == 0 else -1)


def test_norm_is_real_and_positive():
    rng = random.Random(13)
    for q in (2, 3, 5, 7):
        for _ in range(30):
            a = random_element(rng, q)
            n = a * a.conjugate()
            assert n.is_real()
            if not a.is_zero():
                assert n.sign() == 1


def test_sign_matches_float_evaluation():
    rng = random.Random(14)
    for q in (2, 3, 5, 7):
        for _ in range(60):
            a = random_element(rng, q)
            re = a + a.conjugate()  # always real
            if re.is_zero():
                assert re.sign() == 0
                continue
            approx = to_complex(re).real
            assert abs(approx) > 1e-9  # corpus stays away from 0 in float terms
            assert re.sign() == (1 if approx > 0 else -1)


def test_sign_under_each_embedding_is_the_sign_of_the_conjugate():
    rng = random.Random(15)
    for q in (2, 3, 5, 7, 11, 13, 31):
        for _ in range(10):
            a = random_element(rng, q)
            x = a + a.conjugate()
            # j outside 1..q-1 reads the same cached embedding as j mod q
            for j in (*range(1, q), q + 1, -1, 3 * q - 1):
                assert x.sign(j) == x.galois(j).sign(), (x, j)
            for j in (0, q):
                with pytest.raises(CyclotomicError):
                    x.sign(j)


def test_sign_rejects_non_real():
    # realness is decided once per element; every later sign is refused too
    z = Cyclotomic.zeta_power(5, 1)
    for j in (1, 2, 1):
        with pytest.raises(CyclotomicError):
            z.sign(j)
    assert not z.is_real()


def test_sign_of_tiny_real_rational():
    a = rational(7, Fraction(1, 10 ** 30))
    assert a.sign() == 1
    assert (-a).sign() == -1


def test_mixed_fields_rejected():
    with pytest.raises(CyclotomicError):
        Cyclotomic.one(3) + Cyclotomic.one(5)
    with pytest.raises(CyclotomicError):
        Cyclotomic.one(3) * Cyclotomic.one(5)


@pytest.mark.parametrize("q", [1, 4, 9])
def test_named_constructors_refuse_non_prime_q(q):
    for build in (Cyclotomic.one, lambda q: Cyclotomic.zeta_power(q, 1)):
        with pytest.raises(CyclotomicError):
            build(q)


@pytest.mark.parametrize("args", [
    (4, [1, 0, 0]),                # q not prime
    (1, []),
    (5, [1, 0, 0]),                # wrong length
    (5, [1, 0, 0, 0, 0]),
    (5, [1, 0.0, 0, 0]),           # numerators must be int, bool refused
    (5, [Fraction(1, 2), 0, 0, 0]),
    (5, [True, 0, 0, 0]),
    (5, [1, 0, 0, 0], 0),          # denominator must be a nonzero int
    (5, [1, 0, 0, 0], 2.0),
    (5, [1, 0, 0, 0], True),
])
def test_constructor_refuses(args):
    with pytest.raises(CyclotomicError):
        Cyclotomic(*args)


def test_repr_lists_the_nonzero_power_basis_terms():
    assert repr(Cyclotomic(5, [1, 0, -2, 3])) == "1 + -2*z^2 + 3*z^3"
    assert repr(Cyclotomic(5, [1, 0, -2, 3], 2)) == "1/2 + -1*z^2 + 3/2*z^3"
    assert repr(Cyclotomic(3, [0, 4], 6)) == "2/3*z^1"
    assert repr(rational(5, 0)) == "0"


def test_constructor_stores_the_normalized_element():
    q = 5
    z = Cyclotomic.zeta_power
    want = (rational(q, Fraction(-1, 2)) + z(q, 1)
            - rational(q, Fraction(3, 2)) * z(q, 2))
    a = Cyclotomic(q, [2, -4, 6, 0], -4)
    assert a == want
    assert (a.num, a.den) == ((-1, 2, -3, 0), 2)
    assert Cyclotomic(q, (0, 0, 0, 0), -7) == rational(q, 0)
    assert Cyclotomic(q, [-1] * 4) == z(q, 4)
