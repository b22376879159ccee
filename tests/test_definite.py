import itertools
import random
from fractions import Fraction

import pytest

from knotconc.definite import (
    HomologyClass,
    HypothesisError,
    compare_bounds,
    eta,
    eta_from_lattice_minimum,
    genus_bound_odd_q,
    genus_bound_q2,
)
from knotconc.knots import parse_expression
from knotconc.ledger import load_seed_ledger


def test_eta_examples():
    assert eta(HomologyClass((0, 0, 0))) == 0
    assert eta(HomologyClass((1, 2, 3))) == -2
    assert eta(HomologyClass((1, 1, 1, 1))) == -4
    assert eta(HomologyClass(())) == 0


def test_eta_range():
    rng = random.Random(81)
    for _ in range(500):
        r = rng.randint(1, 8)
        x = HomologyClass(tuple(rng.randint(-4, 4) for _ in range(r)))
        assert -r <= eta(x) <= 0


def test_eta_brute_force_full_product_low_rank():
    """Literal lattice minimization (full product over characteristic
    vectors c, all coordinates odd) for every |x_i| <= 4 in ranks 1 and 2.
    In the diag(-1,...,-1) form, -(x+c)^2 - b_2 = sum (x_i+c_i)^2 - r."""
    for r in (1, 2):
        for x in itertools.product(range(-4, 5), repeat=r):
            odd_ranges = [
                [o for o in range(-abs(v) - 3, abs(v) + 4) if o % 2 != 0] for v in x
            ]
            best = min(
                sum((xi + ci) ** 2 for xi, ci in zip(x, c)) - r
                for c in itertools.product(*odd_ranges)
            )
            hx = HomologyClass(x)
            assert eta(hx) == best == eta_from_lattice_minimum(hx)


def test_eta_brute_force_signed_exhaustive_mid_rank():
    for r in (3, 4, 5):
        for x in itertools.product(range(-4, 5), repeat=r):
            hx = HomologyClass(x)
            assert eta(hx) == eta_from_lattice_minimum(hx)


def test_homology_class_arithmetic():
    a = HomologyClass((2, 0, -4))
    assert a.square == -20
    assert a.divisible_by(2) and not a.divisible_by(3)
    assert a.divide(2).coords == (1, 0, -2)


def test_genus_bound_q2_values():
    L = load_seed_ledger()
    t37 = parse_expression("T(3,7)")
    assert genus_bound_q2(L, t37, HomologyClass((0, 0, 0))).value == 6
    b = genus_bound_q2(L, t37, HomologyClass((2, 0, 0)))
    assert b.value == 5 and b.m == 0 and b.a_square == -4 and b.theta_interval.exact
    assert genus_bound_q2(L, parse_expression("unknot"), HomologyClass((0,))).value == 0


def test_genus_bound_q2_matches_closed_form_grid():
    # against max(4n + x^2, 6n + 3x^2/2 - eta(x)/2) for T(3,7), n = 1
    L = load_seed_ledger()
    t37 = parse_expression("T(3,7)")
    for x in itertools.product(range(-2, 3), repeat=2):
        hx = HomologyClass(x)
        a = HomologyClass(tuple(2 * c for c in x))
        want = max(Fraction(4 + hx.square),
                   Fraction(6) + Fraction(3 * hx.square, 2) - Fraction(eta(hx), 2))
        got = genus_bound_q2(L, t37, a)
        assert got.value == want, (x, got.value, want)


def test_genus_bound_odd_q_values():
    L = load_seed_ledger()
    t27 = parse_expression("T(2,7)")
    assert genus_bound_odd_q(3, L, t27, HomologyClass((0,))).value == 3
    b = genus_bound_odd_q(3, L, t27, HomologyClass((3,)))
    assert b.m == 4 and b.a_square == -9
    assert b.value == b.theta_interval.lower - 2
    assert not b.theta_interval.exact


def test_zero_class_reduces_to_theta():
    L = load_seed_ledger()
    from knotconc.infer import infer_theta
    for text in ("T(3,7)", "T(2,5)", "9_42", "-9_42", "Wh(T(2,3))"):
        e = parse_expression(text)
        iv = infer_theta(L, e, q=2)
        b = genus_bound_q2(L, e, HomologyClass((0, 0)))
        assert b.m == 0 and b.value == iv.lower
        if iv.exact:
            assert b.theta_interval.exact and b.value == iv.value
    iv3 = infer_theta(L, parse_expression("T(2,7)"), q=3)
    b3 = genus_bound_odd_q(3, L, parse_expression("T(2,7)"), HomologyClass((0, 0)))
    assert b3.value == iv3.value == 3


def test_genus_bound_hypotheses():
    L = load_seed_ledger()
    t37 = parse_expression("T(3,7)")
    with pytest.raises(HypothesisError, match="not divisible"):
        genus_bound_q2(L, t37, HomologyClass((1, 0)))
    with pytest.raises(HypothesisError, match="not divisible"):
        genus_bound_odd_q(3, L, t37, HomologyClass((2,)))
    with pytest.raises(HypothesisError, match="odd prime"):
        genus_bound_odd_q(2, L, t37, HomologyClass((0,)))


def test_compare_bounds_tables():
    c = compare_bounds(1, (0, 0, 0), 3)
    assert (c.theta_bound, c.tau_bound, c.sig1_bound, c.sig2_bound) == (6, 6, 4, -7)
    c = compare_bounds(1, (1, 0, 0), 3)
    assert (c.theta_bound, c.tau_bound, c.sig1_bound, c.sig2_bound) == (5, 5, 3, -6)
    c = compare_bounds(1, (3, 3, 3), 3)
    assert c.theta_bound == -23 and c.sig2_bound == 20


def test_compare_bounds_bad_input():
    with pytest.raises(ValueError):
        compare_bounds(0, (0,), 1)
    with pytest.raises(ValueError):
        compare_bounds(1, (0, 0), 3)
