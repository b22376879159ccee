import random

import pytest

from knotconc.branched import (
    CoverDataError,
    CoverInput,
    cover_b_plus_for_genus_bound,
    cover_topology,
)


def test_crossing_change_cylinder_q2():
    # double cover of [0,1] x S^3 branched over the genus-1 crossing surface
    for sp, sm in ((-4, -2), (0, 0), (-2, -2), (2, 4)):
        t = cover_topology(CoverInput(q=2, b2X=0, sigmaX=0, genus=1,
                                      self_int=0, sigq_out=sp, sigq_in=sm))
        assert t.b2 == 2
        assert t.sigma == sp - sm


def test_crossing_change_cylinder_odd_q():
    for q in (3, 5, 7):
        t = cover_topology(CoverInput(q=q, b2X=0, sigmaX=0, genus=1,
                                      self_int=0, sigq_out=-8, sigq_in=-8))
        assert t.b2 == 2 * (q - 1)
        assert t.sigma == 0
        assert t.b_plus == t.b_minus == q - 1


def test_unknot_disc_cover():
    t = cover_topology(CoverInput(q=2, b2X=0, sigmaX=0, genus=0,
                                  self_int=0, sigq_out=0))
    assert (t.b2, t.sigma, t.b_plus, t.b_minus) == (0, 0, 0, 0)


def test_rejects_q1_and_bad_input():
    with pytest.raises(CoverDataError):
        CoverInput(q=1, b2X=0, sigmaX=0, genus=0, self_int=0, sigq_out=0)
    with pytest.raises(CoverDataError):
        CoverInput(q=2, b2X=1, sigmaX=2, genus=0, self_int=0, sigq_out=0)
    with pytest.raises(CoverDataError):
        CoverInput(q=2, b2X=-1, sigmaX=0, genus=0, self_int=0, sigq_out=0)


def test_b_plus_for_genus_bound_refuses_a_negative_genus():
    with pytest.raises(CoverDataError, match=r"^genus must be non-negative, got -1$"):
        cover_b_plus_for_genus_bound(2, -1, 0, 0)


def test_non_integer_and_negative_outputs_rejected():
    # sigma(W) picks up (q^2-1)/(3q) * self_int = 8/9 here
    with pytest.raises(CoverDataError):
        cover_topology(CoverInput(q=3, b2X=0, sigmaX=0, genus=1,
                                  self_int=1, sigq_out=0))
    # b_+ would be negative: cylinder with a huge signature drop
    with pytest.raises(CoverDataError):
        cover_topology(CoverInput(q=2, b2X=0, sigmaX=0, genus=1,
                                  self_int=0, sigq_out=-8, sigq_in=0))


def test_b_plus_for_genus_bound_values():
    assert cover_b_plus_for_genus_bound(2, 6, 0, -8) == 2
    assert cover_b_plus_for_genus_bound(3, 0, 0, 0) == 0
    assert cover_b_plus_for_genus_bound(2, 2, -4, -2) == 2
    with pytest.raises(CoverDataError):
        cover_b_plus_for_genus_bound(2, 0, 0, -2)  # negative
    with pytest.raises(CoverDataError):
        cover_b_plus_for_genus_bound(3, 1, 1, 0)  # non-integer
    with pytest.raises(CoverDataError):
        cover_b_plus_for_genus_bound(4, 1, 0, 0)  # q not prime


def _random_valid_input(rng):
    while True:
        q = rng.choice((2, 3, 5, 7, 11))
        b2X = rng.randint(0, 6)
        sigmaX = rng.randint(-b2X, b2X)
        genus = rng.randint(0, 5)
        self_int = 3 * q * rng.randint(-2, 2)
        sigq_out = 2 * rng.randint(-8, 8)
        sigq_in = 2 * rng.randint(-8, 8) if rng.random() < 0.5 else None
        try:
            inp = CoverInput(q=q, b2X=b2X, sigmaX=sigmaX, genus=genus,
                             self_int=self_int, sigq_out=sigq_out, sigq_in=sigq_in)
            return inp, cover_topology(inp)
        except CoverDataError:
            continue


def test_betti_identities_random():
    rng = random.Random(61)
    for _ in range(2000):
        inp, t = _random_valid_input(rng)
        assert t.b_plus + t.b_minus == t.b2
        assert t.b_plus - t.b_minus == t.sigma
        assert t.b2 == inp.q * inp.b2X + (inp.q - 1) * 2 * inp.genus


def test_genus_monotonicity_random():
    rng = random.Random(62)
    for _ in range(300):
        inp, t = _random_valid_input(rng)
        bumped = CoverInput(q=inp.q, b2X=inp.b2X, sigmaX=inp.sigmaX,
                            genus=inp.genus + 1, self_int=inp.self_int,
                            sigq_out=inp.sigq_out, sigq_in=inp.sigq_in)
        t2 = cover_topology(bumped)
        assert t2.b2 - t.b2 == 2 * (inp.q - 1)
        assert t2.b_plus - t.b_plus == inp.q - 1
        assert t2.b_minus - t.b_minus == inp.q - 1
