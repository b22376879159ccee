"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 4 is split: the five inference-chain values that the rule set can
actually force are one test; the published pair T(2,5) + -Wh(T(2,3)) and its
mirror is another.  The published values (1 and 2) contradict the theta
axioms themselves: sigma(K) = -4 forces theta(K) >= 2, and subadditivity caps
the mirror at 1.  That test asserts the values the axioms force, from premises
taken independently of the query on the sum, and that each published value
lies outside the engine's interval; the discrepancy is documented in the
README, and ``knotconc reproduce`` still reports the published values as
failing checks.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

from knotconc.branched import CoverDataError, CoverInput, cover_topology
from knotconc.definite import (
    HomologyClass,
    compare_bounds,
    eta,
    eta_from_lattice_minimum,
)
from knotconc.infer import infer_theta
from knotconc.knots import parse_expression
from knotconc.ledger import load_seed_ledger
from knotconc.sequences import (
    ell_lower_bound,
    j_value,
    j_value_m,
    theta,
    theta_m,
    torus_delta_sequence,
    xi_sequence,
)
from knotconc.signatures import lt_signature, sigma_q, signature

from conftest import float_lt_signature

import test_infer
import test_knots
import test_sequences


def _report(num: int, title: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    # write past pytest's capture so the per-criterion line always shows
    print(f"ACCEPTANCE {num} [{status}]: {title}", file=sys.__stdout__)
    assert not failures, f"criterion {num}: {failures[:10]}"


def _pipeline_theta(family: str, n: int, sigma_K: int) -> Fraction:
    """theta through the stated chain: closed-form delta of the mirror ->
    xi -> j -> theta."""
    delta_mirror = torus_delta_sequence(family, n)
    xs = xi_sequence(delta_mirror, -sigma_K, 2)
    return theta(2, j_value(xs), sigma_K)


def test_criterion_1_torus_theta_closed_forms():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 6):
        got = _pipeline_theta("-T(3,6n-1)", n, -8 * n)
        if got != 6 * n - 2:
            failures.append(("T(3,%d)" % (6 * n - 1), got))
        got = _pipeline_theta("-T(3,6n+1)", n, -8 * n)
        if got != 6 * n:
            failures.append(("T(3,%d)" % (6 * n + 1), got))
        for fam in ("T(3,6n-1)", "T(3,6n+1)"):
            got = _pipeline_theta(fam, n, 8 * n)  # mirrors: delta of -(-T) = T
            if got != 0:
                failures.append(("-" + fam, n, got))
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report(1, "torus-knot theta closed forms, n = 1..5", failures)


def test_criterion_2_torus_theta_m_closed_forms():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 6):
        dm = torus_delta_sequence("-T(3,6n-1)", n)
        dp = torus_delta_sequence("-T(3,6n+1)", n)
        for m in range(0, 21):
            got = theta_m(2, j_value_m(dm, 8 * n, m), -8 * n)
            want = max(4 * n, 6 * n - 2 - 2 * (m // 4))
            if got != want:
                failures.append(("6n-1", n, m, got, want))
            got = theta_m(2, j_value_m(dp, 8 * n, m), -8 * n)
            want = max(4 * n, 6 * n - 2 * (m // 4))
            if got != want:
                failures.append(("6n+1", n, m, got, want))
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report(2, "theta(., m) closed forms, n = 1..5, m = 0..20", failures)


def test_criterion_3_ell_bounds_q3():
    ledger = load_seed_ledger()
    failures = []
    for n in range(1, 6):
        if ell_lower_bound(3, -2, -8 * n, 0) != 3 * n - 1:
            failures.append(("bound 6n-1", n))
        if ell_lower_bound(3, 0, -8 * n, 0) != 3 * n:
            failures.append(("bound 6n+1", n))
        for e, want in ((-1, 3 * n - 1), (1, 3 * n)):
            k = 6 * n + e
            iv = infer_theta(ledger, parse_expression(f"T(2,{k})"), q=3)
            g4 = ledger.quantity(f"T(2,{k})", "g4")[0]
            if not (iv.exact and iv.value == want == g4):
                failures.append((f"T(2,{k})", iv.lower, iv.upper, g4))
    _report(3, "HF+ degree bounds pin theta^(3)(T(2,6n-+1)) to g4", failures)


def test_criterion_4_inference_chains():
    ledger = load_seed_ledger()
    failures = []
    cases = [
        ("9_42", 0),
        ("-9_42", 1),
        ("-9_42 + Wh(T(2,3))", 2),
        ("Wh(T(2,3))", 1),
        ("-Wh(T(2,3))", 0),
    ]
    for text, want in cases:
        iv = infer_theta(ledger, parse_expression(text), q=2)
        if not (iv.exact and iv.value == want):
            failures.append((text, iv.lower, iv.upper, want))
        if not iv.justification or not iv.provenance:
            failures.append((text, "missing justification trace"))
    _report(4, "inference-chain examples over the seed ledger", failures)


def test_criterion_4_published_t25_whitehead_pair():
    """What the engine does with the published pair K = T(2,5) + -Wh(T(2,3)),
    -K = -T(2,5) + Wh(T(2,3)), and that the published values theta(K) = 1,
    theta(-K) = 2 are refuted by it.

    The premises come from outside the query on the sum: sigma(K) from the
    T(2,5) Seifert matrix and the ledger's sigma fact for Wh(T(2,3)), and the
    four summand values from single-atom queries.  The signature lower bound
    max(0, -sigma(K)/2) = 2 meets the subadditive cap
    theta(T(2,5)) + theta(-Wh(T(2,3))) = 2, so theta(K) = 2 exactly; the cap
    theta(-T(2,5)) + theta(Wh(T(2,3))) = 1 bounds theta(-K).  Each published
    value lies outside its interval; see the README discussion.
    """
    ledger = load_seed_ledger()
    failures = []

    def summand(text):
        iv = infer_theta(ledger, parse_expression(text), q=2)
        if not iv.exact:
            failures.append((text, "summand not exact", iv.lower, iv.upper))
        return iv.lower

    sigma_K = (signature(ledger.atoms["T(2,5)"])
               - ledger.fact("Wh(T(2,3))", "sigma").value)
    if sigma_K != -4:
        failures.append(("sigma(K)", sigma_K, -4))
    t25, mirror_wh = summand("T(2,5)"), summand("-Wh(T(2,3))")
    mirror_t25, wh = summand("-T(2,5)"), summand("Wh(T(2,3))")
    if (t25, mirror_wh, mirror_t25, wh) != (2, 0, 0, 1):
        failures.append(("summands", t25, mirror_wh, mirror_t25, wh))

    iv = infer_theta(ledger, parse_expression("T(2,5) + -Wh(T(2,3))"), q=2)
    signature_bound = max(0, Fraction(-sigma_K, 2))
    cap = t25 + mirror_wh
    if not (iv.exact and iv.value == signature_bound == cap):
        failures.append(("T(2,5) + -Wh(T(2,3))", iv.lower, iv.upper,
                         signature_bound, cap))
    miv = infer_theta(ledger, parse_expression("-T(2,5) + Wh(T(2,3))"), q=2)
    mirror_cap = mirror_t25 + wh
    if not (miv.upper is not None and miv.upper <= mirror_cap
            and miv.lower >= 0):
        failures.append(("-T(2,5) + Wh(T(2,3))", miv.lower, miv.upper,
                         mirror_cap))

    # the published values lie outside the intervals the axioms force
    if not 1 < iv.lower:
        failures.append(("published theta(K) = 1 not refuted", iv.lower))
    if not (miv.upper is not None and 2 > miv.upper):
        failures.append(("published theta(-K) = 2 not refuted", miv.upper))
    _report(4, "published theta(K) = 1, theta(-K) = 2 for K = T(2,5) + "
               "-Wh(T(2,3)) refuted by the theta axioms", failures)


def test_criterion_5_signature_oracle(seifert_corpus):
    t0 = time.monotonic()
    rng = random.Random(99)
    failures = []
    oracle_counts = {q: 0 for q in (2, 3, 5, 7)}
    for idx, V in enumerate(seifert_corpus):
        for q in (2, 3, 5, 7):
            sigs = {j: lt_signature(V, q, j) for j in range(1, q)}
            for j in range(1, q):
                if sigs[j] != sigs[q - j]:
                    failures.append(("conjugation", idx, q, j))
            if q % 2 == 1 and sum(sigs.values()) % 4 != 0:
                failures.append(("mod 4", idx, q))
            j = rng.randint(1, q - 1)
            approx = float_lt_signature(V, q, j)
            if approx is None:
                continue  # uncertified eigenvalue, sample discarded
            if sigs[j] != approx:
                failures.append(("oracle", idx, q, j, sigs[j], approx))
            oracle_counts[q] += 1
    for q, count in oracle_counts.items():
        if count < 195:
            failures.append(("too few certified oracle samples", q, count))
    for _ in range(20):
        a, b = rng.choice(seifert_corpus), rng.choice(seifert_corpus)
        if a.size + b.size > 12:
            continue
        for q in (2, 3):
            if sigma_q(a.block_sum(b), q) != sigma_q(a, q) + sigma_q(b, q):
                failures.append(("additivity", q))
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(5, "exact signatures vs certified eigenvalue oracle, 200 x {2,3,5,7}",
            failures)


def test_criterion_6_branched_cover_formulas():
    rng = random.Random(66)
    failures = []
    accepted = 0
    while accepted < 10_000:
        q = rng.choice((2, 3, 5, 7, 11))
        b2X = rng.randint(0, 6)
        inp = dict(
            q=q, b2X=b2X, sigmaX=rng.randint(-b2X, b2X), genus=rng.randint(0, 5),
            self_int=3 * q * rng.randint(-2, 2), sigq_out=2 * rng.randint(-8, 8),
            sigq_in=2 * rng.randint(-8, 8) if rng.random() < 0.5 else None,
        )
        try:
            t = cover_topology(CoverInput(**inp))
        except CoverDataError:
            continue
        accepted += 1
        if t.b_plus + t.b_minus != t.b2 or t.b_plus - t.b_minus != t.sigma:
            failures.append(("betti identity", inp))
    for q in (2, 3, 5, 7):
        for g in (0, 1, 2, 3):
            t = cover_topology(CoverInput(q=q, b2X=0, sigmaX=0, genus=g,
                                          self_int=0, sigq_out=-8, sigq_in=-8))
            if t.b2 != 2 * (q - 1) * g:
                failures.append(("cylinder b2", q, g, t.b2))
    for sp, sm in ((-4, -2), (0, 0), (-6, -4), (2, 2)):
        t = cover_topology(CoverInput(q=2, b2X=0, sigmaX=0, genus=1,
                                      self_int=0, sigq_out=sp, sigq_in=sm))
        if t.sigma != sp - sm:
            failures.append(("cylinder sigma", sp, sm, t.sigma))
    _report(6, "branched-cover formulas on 10^4 random valid inputs", failures)


def test_criterion_7_eta_oracle():
    """Closed form vs exhaustive lattice minimization for all r <= 8,
    |x_i| <= 4.

    Coverage: all signed vectors in ranks 1-4; all sorted non-negative
    representatives in ranks 5-8 (both eta and the lattice minimum are
    invariant under coordinate signs and permutations, which the signed
    low-rank sweep and a 2000-vector random signed sample verify for the
    brute force itself)."""
    t0 = time.monotonic()
    failures = []
    for r in range(1, 5):
        for x in itertools.product(range(-4, 5), repeat=r):
            hx = HomologyClass(x)
            if eta(hx) != eta_from_lattice_minimum(hx):
                failures.append(x)
    for r in range(5, 9):
        for x in itertools.combinations_with_replacement(range(0, 5), r):
            hx = HomologyClass(x)
            if eta(hx) != eta_from_lattice_minimum(hx):
                failures.append(x)
    rng = random.Random(77)
    for _ in range(2000):
        r = rng.randint(5, 8)
        x = tuple(rng.randint(-4, 4) for _ in range(r))
        canon = tuple(sorted(abs(c) for c in x))
        hx = HomologyClass(x)
        brute = eta_from_lattice_minimum(hx)
        if brute != eta_from_lattice_minimum(HomologyClass(canon)):
            failures.append(("symmetry", x))
        if eta(hx) != brute:
            failures.append(("random", x))
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(7, "eta closed form equals exhaustive lattice minimization", failures)


def test_criterion_8_comparison_grid():
    failures = []
    c = compare_bounds(1, (0, 0, 0), 3)
    if (c.theta_bound, c.tau_bound, c.sig1_bound, c.sig2_bound) != (6, 6, 4, -7):
        failures.append(("table x=0", c))
    c = compare_bounds(1, (1, 0, 0), 3)
    if (c.theta_bound, c.tau_bound, c.sig1_bound, c.sig2_bound) != (5, 5, 3, -6):
        failures.append(("table x=e1", c))
    for n in range(1, 5):
        for r in range(1, 7):
            for x in itertools.product(range(-3, 4), repeat=r):
                c = compare_bounds(n, x, r)
                if c.theta_bound.denominator != 1:
                    failures.append(("non-integer", n, r, x))
                    break
                if c.theta_bound < c.tau_bound:
                    failures.append(("tau beats theta", n, r, x))
                    break
    _report(8, "four-bound comparison grid, theta always >= tau", failures)


def test_criterion_9_property_suites():
    failures = []
    suites = [
        ("xi sequence invariants", test_sequences.test_xi_invariants_random),
        ("theta_m monotonicity",
         test_sequences.test_theta_m_non_increasing_in_m_random),
        ("theta_m equals theta at m = 0",
         test_sequences.test_theta_m_at_zero_equals_theta_random),
        ("min-plus unit", test_sequences.test_sum_delta_upper_unit),
        ("min-plus commutative/associative",
         test_sequences.test_sum_delta_upper_algebra_random),
        ("min-plus monotone", test_sequences.test_sum_delta_upper_monotone_random),
        ("expression key laws", test_knots.test_key_laws_random),
        ("infer monotone in facts", test_infer.test_monotone_adding_facts_never_widens),
        ("infer rule-order independent", test_infer.test_rule_order_independence),
    ]
    for label, fn in suites:
        try:
            fn()
        except AssertionError as e:
            failures.append((label, str(e)[:100]))
    _report(9, "property suites (>= 10^3 cases each)", failures)
