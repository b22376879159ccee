import random
from fractions import Fraction

import pytest

from knotconc.sequences import (
    DeltaSequence,
    DeltaUpperBound,
    InconsistentDataError,
    SequenceError,
    crossing_change_j_bounds,
    crossing_change_shifts,
    ell_lower_bound,
    j_value,
    j_value_m,
    sum_delta_upper,
    theta,
    theta_from_mirror_delta,
    theta_m,
    torus_delta_sequence,
    xi_sequence,
)


def random_consistent_pair(rng, q=2):
    """Random (delta sequence, sigma^(q)) pair satisfying the congruence
    delta_j = -sigma/2 (mod 4) with stable value exactly -sigma/2."""
    if q == 2:
        sig = 2 * rng.randint(-6, 6)
    else:
        sig = 4 * rng.randint(-4, 4)
    stable = -sig // 2
    steps = [4 * rng.randint(0, 2) for _ in range(rng.randint(0, 6))]
    vals, cur = [], stable + sum(steps)
    for s in steps:
        vals.append(cur)
        cur -= s
    return DeltaSequence(tuple(vals), stable), sig


# -- DeltaSequence type ---------------------------------------------------------


def test_delta_sequence_validation():
    DeltaSequence((0, 0, -4), -4)
    with pytest.raises(SequenceError):
        DeltaSequence((0, 4), 0)  # increasing
    with pytest.raises(SequenceError):
        DeltaSequence((0, -8), -4)  # dips below the stable value


def test_value_at_and_stability():
    d = DeltaSequence((4, 0), -4)
    assert [d.value_at(j) for j in range(5)] == [4, 0, -4, -4, -4]
    with pytest.raises(SequenceError):
        d.value_at(-1)


# -- xi and j -------------------------------------------------------------------


def test_xi_quasi_alternating_shape():
    # constant delta = -sigma/2 gives the zero xi sequence
    xs = xi_sequence(DeltaSequence.constant(2), -4, 2)
    assert xs.values == () and xs.stable == 0
    assert j_value(xs) == 0


def test_xi_minus_t37():
    xs = xi_sequence(torus_delta_sequence("-T(3,6n+1)", 1), 8, 2)
    assert (xs.values, xs.stable) == ((1, 1), 0)
    assert j_value(xs) == 2


def test_xi_minus_t35():
    # n = 1 in the 6n-1 family: the non-stable range is empty
    xs = xi_sequence(torus_delta_sequence("-T(3,6n-1)", 1), 8, 2)
    assert (xs.values, xs.stable) == ((), 0)
    assert j_value(xs) == 0


def test_xi_rejects_incongruent_pair():
    with pytest.raises(InconsistentDataError):
        xi_sequence(DeltaSequence.constant(2), -2, 2)


def test_j_value_requires_vanishing():
    xs = xi_sequence(DeltaSequence.constant(6), -4, 2)
    assert xs.stable == 1
    with pytest.raises(InconsistentDataError):
        j_value(xs)


def test_j_value_simple_scan():
    xs = xi_sequence(DeltaSequence((8, 4, 4), 4), -8, 2)
    assert (xs.values, xs.stable) == ((1, 0, 0), 0)
    assert j_value(xs) == 1


def test_j_value_m():
    d37 = torus_delta_sequence("-T(3,6n+1)", 1)
    assert j_value_m(d37, 8, 0) == 2
    assert j_value_m(d37, 8, 4) == 0
    assert j_value_m(DeltaSequence((12, 4), 0), 0, 1000) == 0
    with pytest.raises(InconsistentDataError):
        j_value_m(DeltaSequence.constant(8), 0, 2)  # stable above the threshold


# -- theta ----------------------------------------------------------------------


def test_theta_q2_examples():
    assert theta(2, 2, -8) == 6            # T(3,7)
    assert theta(2, 0, 8) == 0             # -T(3,7)
    assert theta(2, 0, -4) == 2            # quasi-alternating with sigma = -4


def test_theta_odd_q():
    # theta^(3)(T(2,7)) = 3 comes from j^(3)(-K) = 1 and sigma^(3) = -8
    assert theta(3, 1, -8) == 3
    assert theta(3, 0, 8) == 0
    # (2 j - sigma/2)/(q - 1) = 6/2; theta lies in (1/(q-1)) Z
    v = theta(3, 2, -4)
    assert isinstance(v, Fraction) and v == 3 and (v * 2).denominator == 1
    assert theta(5, 1, -4) == 1 and theta(5, 1, 0) == Fraction(1, 2)
    with pytest.raises(InconsistentDataError):
        theta(3, 1, -6)  # sigma^(3) not divisible by 4


def test_theta_m_matches_closed_forms():
    for n in range(1, 6):
        dm = torus_delta_sequence("-T(3,6n-1)", n)
        dp = torus_delta_sequence("-T(3,6n+1)", n)
        for m in range(0, 21):
            tm = theta_m(2, j_value_m(dm, 8 * n, m), -8 * n)
            assert tm == max(4 * n, 6 * n - 2 - 2 * (m // 4))
            tp = theta_m(2, j_value_m(dp, 8 * n, m), -8 * n)
            assert tp == max(4 * n, 6 * n - 2 * (m // 4))


def test_xi_sequence_rejects_an_incongruent_listed_term():
    with pytest.raises(InconsistentDataError) as exc:
        xi_sequence(DeltaSequence((4, 2), 0), 0, 2)
    assert str(exc.value) == ("inconsistent (delta_1, sigma) pair: delta_1=2, "
                              "sigma^(2)=0 gives non-integral xi")


def test_j_value_m_and_theta_reject_bad_arguments():
    d = DeltaSequence((), 0)
    with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
        j_value_m(d, 0, -1)
    with pytest.raises(InconsistentDataError, match=r"^sigma\^\(q\) must be even, got 1$"):
        j_value_m(d, 1, 0)
    with pytest.raises(ValueError, match=r"^j value must be >= 0, got -1$"):
        theta(2, -1, 0)
    with pytest.raises(InconsistentDataError, match=r"^sigma\^\(q\) must be even, got 1$"):
        theta(2, 0, 1)


def test_xi_invariants_random():
    """For any (delta, sigma) pair of one knot: xi is integer-valued,
    non-increasing, non-negative, and stabilizes at 0."""
    rng = random.Random(50)
    for _ in range(1000):
        q = rng.choice((2, 3, 5))
        d, sig = random_consistent_pair(rng, q)
        xs = xi_sequence(d, sig, q)
        span = len(d.values) + 2
        vals = [xs.value_at(j) for j in range(span)]
        assert all(isinstance(v, int) for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(v >= 0 for v in vals)
        assert xs.stable == 0
        assert j_value(xs) <= len(d.values)


def test_theta_m_at_zero_equals_theta_random():
    rng = random.Random(51)
    for _ in range(1000):
        d, sig_mirror = random_consistent_pair(rng)  # data of -K
        sig = -sig_mirror
        jm = j_value_m(d, sig_mirror, 0)
        assert theta_from_mirror_delta(2, d, sig, 0) == theta_m(2, jm, sig)


def test_theta_m_non_increasing_in_m_random():
    rng = random.Random(52)
    for _ in range(1000):
        q = rng.choice((2, 3, 5))
        d, sig_mirror = random_consistent_pair(rng, q)
        sig = -sig_mirror
        prev = None
        for m in range(0, 12, rng.randint(1, 3)):
            v = theta_from_mirror_delta(q, d, sig, m)
            assert v >= 0
            if prev is not None:
                assert v <= prev
            prev = v


def rho_vanishing_index(xi_mirror: DeltaSequence, sigma_K: int) -> int:
    """theta(K) for q = 2 via the shifted sequence rho_j(-K) = xi_{j + sigma(K)/2}(-K),
    extended by xi_j = xi_0 for j < 0; returns the least j >= 0 with rho_j = 0."""
    if sigma_K % 2 != 0:
        raise InconsistentDataError(f"sigma must be even, got {sigma_K}")
    if xi_mirror.stable != 0:
        raise InconsistentDataError("xi sequence never vanishes")
    shift = sigma_K // 2
    j = 0
    while True:
        if xi_mirror.value_at(max(0, j + shift)) == 0:
            return j
        j += 1


def test_rho_shift_equals_max_form_random():
    rng = random.Random(53)
    seen = 0
    while seen < 1000:
        d, sig_mirror = random_consistent_pair(rng, 2)
        sig = -sig_mirror
        xs = xi_sequence(d, sig_mirror, 2)
        if j_value(xs) == 0 and sig < 0:
            continue  # the one corner where the two forms differ, see below
        seen += 1
        assert rho_vanishing_index(xs, sig) == theta_from_mirror_delta(2, d, sig)


def test_rho_shift_divergent_corner():
    """The shifted-sequence scan, with xi extended by xi_j = xi_0 for j < 0,
    disagrees with the max-form exactly when xi_0(-K) = 0 and sigma(K) < 0.

    T(2,11) realizes the corner: it is quasi-alternating with sigma = -10,
    so xi(-K) is identically zero and the literal scan stops at 0, while the
    quasi-alternating closed form (and the max-form) give -sigma/2 = 5.  The
    max-form is the operative definition everywhere in this package.
    """
    d = DeltaSequence.constant(-5)   # delta of -T(2,11)
    sig = -10                        # sigma of T(2,11)
    xs = xi_sequence(d, -sig, 2)
    assert theta_from_mirror_delta(2, d, sig) == 5  # matches the closed form
    assert rho_vanishing_index(xs, sig) == 0              # the literal scan does not


# -- torus closed forms -----------------------------------------------------------


def test_torus_delta_sequences():
    assert torus_delta_sequence("-T(3,6n+1)", 1) == DeltaSequence((0, 0), -4)
    assert torus_delta_sequence("-T(3,6n+1)", 2) == DeltaSequence((0, 0, -4, -4), -8)
    assert torus_delta_sequence("-T(3,6n-1)", 1) == DeltaSequence((), -4)
    assert torus_delta_sequence("-T(3,6n-1)", 2) == DeltaSequence((-4, -4), -8)
    assert torus_delta_sequence("T(3,6n+1)", 1) == DeltaSequence((), 4)
    with pytest.raises(ValueError):
        torus_delta_sequence("T(4,5)", 1)
    with pytest.raises(ValueError):
        torus_delta_sequence("T(3,6n+1)", 0)


# -- min-plus convolution ---------------------------------------------------------


def test_sum_delta_upper_examples():
    c1, c2 = DeltaSequence.constant(4), DeltaSequence.constant(-2)
    out = sum_delta_upper(c1, c2)
    assert out.stable == 2 and out.value_at(0) == 2
    d = DeltaSequence((0, 0), -4)
    out = sum_delta_upper(d, d)
    assert [out.value_at(j) for j in range(6)] == [0, 0, -4, -4, -8, -8]
    assert out.stable == -8


def test_sum_delta_upper_is_a_distinct_type():
    out = sum_delta_upper(DeltaSequence.constant(0), DeltaSequence.constant(0))
    assert isinstance(out, DeltaUpperBound)
    # an upper bound is not an exact sequence and cannot feed theta
    with pytest.raises(SequenceError):
        theta_from_mirror_delta(2, out, 0)


def test_sum_delta_upper_unit():
    rng = random.Random(54)
    unit = DeltaSequence.constant(0)
    for _ in range(1000):
        d, _ = random_consistent_pair(rng)
        out = sum_delta_upper(d, unit)
        assert all(out.value_at(j) == d.value_at(j) for j in range(len(d.values) + 3))
        assert out.stable == d.stable


def test_sum_delta_upper_algebra_random():
    rng = random.Random(55)
    for _ in range(1000):
        a, _ = random_consistent_pair(rng)
        b, _ = random_consistent_pair(rng)
        c, _ = random_consistent_pair(rng)
        ab, ba = sum_delta_upper(a, b), sum_delta_upper(b, a)
        span = len(ab.values) + 2
        assert all(ab.value_at(j) == ba.value_at(j) for j in range(span))
        lhs = sum_delta_upper(ab, c)
        rhs = sum_delta_upper(a, sum_delta_upper(b, c))
        span = len(lhs.values) + len(rhs.values) + 2
        assert all(lhs.value_at(j) == rhs.value_at(j) for j in range(span))
        assert lhs.stable == rhs.stable == a.stable + b.stable + c.stable


def test_sum_delta_upper_monotone_random():
    rng = random.Random(56)
    for _ in range(1000):
        a, _ = random_consistent_pair(rng)
        b, _ = random_consistent_pair(rng)
        # worsen a pointwise and check the convolution never improves
        bump = 4 * rng.randint(1, 2)
        a2 = DeltaSequence(tuple(v + bump for v in a.values), a.stable + bump)
        lo, hi = sum_delta_upper(a, b), sum_delta_upper(a2, b)
        span = max(len(lo.values), len(hi.values)) + 2
        assert all(lo.value_at(j) <= hi.value_at(j) for j in range(span))


# -- crossing-change bounds --------------------------------------------------------


def test_crossing_shifts_q2():
    assert crossing_change_shifts(2, -4, -4) == (1, 0)
    assert crossing_change_shifts(2, -4, -2) == (0, 1)
    with pytest.raises(InconsistentDataError):
        crossing_change_shifts(2, -2, -4)  # jump +2 not admissible
    with pytest.raises(InconsistentDataError):
        crossing_change_shifts(2, -8, -2)  # jump -6 out of range


def test_crossing_shifts_odd_q():
    assert crossing_change_shifts(3, -8, -8) == (1, 0)
    assert crossing_change_shifts(3, -8, -4) == (0, 1)
    with pytest.raises(InconsistentDataError):
        crossing_change_shifts(3, -12, -4)


def test_crossing_j_bounds_examples():
    out = crossing_change_j_bounds(2, (2, 2), -4, -4, "plus_from_minus")
    assert (out.lower, out.upper) == (1, 2)
    out = crossing_change_j_bounds(2, (0, 0), -4, -2, "minus_from_plus")
    assert (out.lower, out.upper) == (0, 0)  # clamped from [-1, 0]
    out = crossing_change_j_bounds(2, (0, 0), 0, 0, "minus_from_plus")
    assert (out.lower, out.upper) == (0, 1)
    # no-op relation between unknots: [-1, 0] clamps to [0, 0]
    out = crossing_change_j_bounds(2, (0, 0), 0, 0, "plus_from_minus")
    assert (out.lower, out.upper) == (0, 0)
    with pytest.raises(ValueError):
        crossing_change_j_bounds(2, (1, 0), 0, 0, "minus_from_plus")
    with pytest.raises(ValueError):
        crossing_change_j_bounds(2, (0, 1), 0, 0, "sideways")


# -- lowest HF+ degree bound --------------------------------------------------------


def test_ell_lower_bound_values():
    assert ell_lower_bound(3, -2, -8, 0) == 2
    assert ell_lower_bound(3, 0, -8, 0) == 3
    assert ell_lower_bound(2, 0, 0, 0) == 0
    assert ell_lower_bound(3, 0, -8, 4) == 2
    assert ell_lower_bound(2, 1, -2, 0) == Fraction(5, 2)
    with pytest.raises(ValueError):
        ell_lower_bound(4, 0, 0, 0)
    with pytest.raises(ValueError):
        ell_lower_bound(3, 0, 0, -1)
