"""Regression catalogue: every worked numeric example this package's data
sources report, recomputed from scratch and compared.

Each check recomputes a published value through the library (exact
signatures, the delta -> xi -> j -> theta pipeline, the inference engine,
branched-cover arithmetic, or the definite-manifold bounds) and compares it
with the cited value.  ``run`` returns each check with what it got and
what it wants; the CLI renders them and exits nonzero when anything fails.

Two checks (the `T(2,5) + -Wh(T(2,3))` pair) are known to fail: the source
example's claimed values contradict the theta axioms themselves (its own
sigma(K) = -4 forces theta(K) >= 2 through the signature lower bound, while
the claimed value is 1, and subadditivity caps the mirror at 1 while the
claim is 2).  The engine returns the values the axioms force.  They are kept
in the catalogue, and fail, so the discrepancy stays visible; see README.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from . import Record
from .branched import CoverInput, cover_b_plus_for_genus_bound, cover_topology
from .definite import HomologyClass, compare_bounds, eta, genus_bound_odd_q, genus_bound_q2
from .infer import infer_theta
from .knots import parse_expression
from .ledger import Ledger
from .seifert import two_strand_torus_matrix
from .sequences import (
    ell_lower_bound,
    j_value,
    theta_from_mirror_delta,
    torus_delta_sequence,
    xi_sequence,
)
from .signatures import sigma_q, signature


class Check(Record):
    __slots__ = ("check_id", "section", "description", "fn", "note")

    def __init__(self, check_id: str, section: int, description: str,
                 fn: Callable[[Ledger], tuple[str, str]], note: str = ""):
        self.check_id = check_id
        self.section = section
        self.description = description
        self.fn = fn
        self.note = note


def _theta_engine(ledger: Ledger, text: str, q: int = 2) -> str:
    return repr(infer_theta(ledger, parse_expression(text), q=q))


def _torus_theta(n: int, sign: int, mirror: bool) -> Fraction:
    """theta(+-T(3,6n+sign)) through the closed-form pipeline."""
    fam = f"T(3,6n{'+' if sign > 0 else '-'}1)"
    sig = -8 * n
    if mirror:
        delta = torus_delta_sequence(fam, n)  # sequence of the mirror of -T
        return theta_from_mirror_delta(2, delta, -sig)
    delta = torus_delta_sequence("-" + fam, n)
    return theta_from_mirror_delta(2, delta, sig)


def checks() -> list[Check]:
    out: list[Check] = []

    def add(check_id, section, description, fn, note=""):
        out.append(Check(check_id, section, description, fn, note))

    # ---- section 2: signatures and branched covers ----
    add("sig-trefoil", 2, "sigma(T(2,3)) = -2 (positive trefoil calibration)",
        lambda L: (str(signature(two_strand_torus_matrix(3))), "-2"))

    def sigma3_family(L):
        got = [sigma_q(two_strand_torus_matrix(6 * n + e), 3)
               for n in range(1, 6) for e in (-1, 1)]
        want = [-8 * n for n in range(1, 6) for _ in (0, 1)]
        return str(got), str(want)
    add("sigma3-torus-family", 2, "sigma^(3)(T(2,6n+-1)) = -8n, n = 1..5",
        sigma3_family)

    def sigma_div4(L):
        vals = [sigma_q(two_strand_torus_matrix(5), q) % 4 for q in (3, 5, 7)]
        return str(vals), str([0, 0, 0])
    add("sigma-q-divisible-4", 2, "sigma^(q)(T(2,5)) divisible by 4 for odd q",
        sigma_div4)

    def cover_cylinder(L):
        sp, sm = -4, -2
        t = cover_topology(CoverInput(q=2, b2X=0, sigmaX=0, genus=1,
                                      self_int=0, sigq_out=sp, sigq_in=sm))
        return f"b2={t.b2},sigma={t.sigma}", f"b2=2,sigma={sp - sm}"
    add("cover-crossing-cylinder", 2,
        "double cover of the crossing-change cylinder: b2 = 2, sigma = s(K+)-s(K-)",
        cover_cylinder)

    def cover_oddq(L):
        got = [cover_topology(CoverInput(q=q, b2X=0, sigmaX=0, genus=1,
                                         self_int=0, sigq_out=-8, sigq_in=-8)).b2
               for q in (3, 5, 7)]
        return str(got), str([2 * (q - 1) for q in (3, 5, 7)])
    add("cover-crossing-odd-q", 2, "q-cover of the cylinder has b2 = 2(q-1)",
        cover_oddq)

    add("cover-b-plus", 2, "b_plus for a genus-6 null-homologous surface, sigma^(2) = -8",
        lambda L: (str(cover_b_plus_for_genus_bound(2, 6, 0, -8)), "2"))

    # ---- section 4: the xi pipeline and small-knot inferences ----
    def xi_t37(L):
        xs = xi_sequence(torus_delta_sequence("-T(3,6n+1)", 1), 8, 2)
        return f"{xs.values} stable {xs.stable}", "(1, 1) stable 0"
    add("xi-of-minus-T37", 4, "xi(-T(3,7)) = (1, 1, 0, ...)", xi_t37)

    add("j-of-minus-T37", 4, "j(-T(3,7)) = 2",
        lambda L: (str(j_value(xi_sequence(torus_delta_sequence("-T(3,6n+1)", 1), 8, 2))), "2"))

    add("theta-9_42", 4, "theta(9_42) = 0", lambda L: (_theta_engine(L, "9_42"), "0"))
    add("theta-minus-9_42", 4, "theta(-9_42) = 1", lambda L: (_theta_engine(L, "-9_42"), "1"))
    add("theta-8_19", 4, "theta(8_19) = 3", lambda L: (_theta_engine(L, "8_19"), "3"))
    add("theta-minus-8_19", 4, "theta(-8_19) = 0", lambda L: (_theta_engine(L, "-8_19"), "0"))
    add("theta-9_46", 4, "theta(9_46) = 0 (slice)", lambda L: (_theta_engine(L, "9_46"), "0"))

    # ---- section 5: torus knot closed forms and the worked sums ----
    def torus_thetas(L):
        got, want = [], []
        for n in range(1, 6):
            got += [_torus_theta(n, -1, False), _torus_theta(n, +1, False)]
            want += [Fraction(6 * n - 2), Fraction(6 * n)]
        return str(got), str(want)
    add("theta-torus-pipeline", 5,
        "theta(T(3,6n-1)) = 6n-2 and theta(T(3,6n+1)) = 6n, n = 1..5", torus_thetas)

    def torus_mirror_thetas(L):
        got = [_torus_theta(n, e, True) for n in range(1, 6) for e in (-1, 1)]
        return str(got), str([Fraction(0)] * 10)
    add("theta-torus-mirrors", 5, "theta(-T(3,6n+-1)) = 0", torus_mirror_thetas)

    def torus_theta_m(L):
        bad = []
        for n in range(1, 6):
            for m in range(0, 21):
                tm = theta_from_mirror_delta(2, torus_delta_sequence("-T(3,6n-1)", n), -8 * n, m)
                if tm != max(4 * n, 6 * n - 2 - 2 * (m // 4)):
                    bad.append(("6n-1", n, m, tm))
                tp = theta_from_mirror_delta(2, torus_delta_sequence("-T(3,6n+1)", n), -8 * n, m)
                if tp != max(4 * n, 6 * n - 2 * (m // 4)):
                    bad.append(("6n+1", n, m, tp))
        return str(bad), "[]"
    add("theta-m-torus", 5,
        "theta(T(3,6n-+1), m) closed forms for n = 1..5, m = 0..20", torus_theta_m)

    def delta_closed(L):
        got, want = [], []
        for text, family, n in (("-T(3,7)", "-T(3,6n+1)", 1), ("-T(3,13)", "-T(3,6n+1)", 2),
                                ("-T(3,11)", "-T(3,6n-1)", 2), ("T(3,7)", "T(3,6n+1)", 1)):
            key = parse_expression(text)
            L.require_atoms(key)
            [(name, mirrored)] = key
            got.append(repr(L.quantity(name, "delta_seq", mirror=mirrored, q=2)[0]))
            want.append(repr(torus_delta_sequence(family, n)))
        return str(got), str(want)
    add("delta-closed-forms", 5, "ingested delta sequences match their closed forms",
        delta_closed)

    def ell_bound(L):
        got, want = [], []
        for n in range(1, 6):
            got.append(ell_lower_bound(3, -2, -8 * n, 0))
            want.append(Fraction(3 * n - 1))
            got.append(ell_lower_bound(3, 0, -8 * n, 0))
            want.append(Fraction(3 * n))
        return str(got), str(want)
    add("ell-lower-bound-q3", 5,
        "HF+ bound gives theta^(3)(T(2,6n-1)) >= 3n-1 and theta^(3)(T(2,6n+1)) >= 3n",
        ell_bound)

    def ell_certified(L):
        got, want = [], []
        for n in range(1, 6):
            for e, target in ((-1, 3 * n - 1), (1, 3 * n)):
                got.append(_theta_engine(L, f"T(2,{6 * n + e})", q=3))
                want.append(str(target))
        return str(got), str(want)
    add("theta3-torus-certified", 5,
        "engine certifies theta^(3)(T(2,6n-+1)) equality with g4", ell_certified)

    add("theta-whitehead", 5, "theta(Wh(T(2,3))) = 1",
        lambda L: (_theta_engine(L, "Wh(T(2,3))"), "1"))
    add("theta-minus-whitehead", 5, "theta(-Wh(T(2,3))) = 0",
        lambda L: (_theta_engine(L, "-Wh(T(2,3))"), "0"))
    add("theta-whitehead-difference", 5, "theta(Wh(T(2,5)) + -Wh(T(2,3))) = 1",
        lambda L: (_theta_engine(L, "Wh(T(2,5)) + -Wh(T(2,3))"), "1"))
    add("theta-942-whitehead-sum", 5, "theta(-9_42 + Wh(T(2,3))) = 2",
        lambda L: (_theta_engine(L, "-9_42 + Wh(T(2,3))"), "2"))

    inconsistent_note = (
        "source example is inconsistent with the theta axioms "
        "(sigma forces theta(K) >= 2 and subadditivity forces "
        "theta(-K) <= 1); the engine output is the axiom-forced value"
    )
    add("theta-t25-whitehead", 5, "theta(T(2,5) + -Wh(T(2,3))) = 1 (as published)",
        lambda L: (_theta_engine(L, "T(2,5) + -Wh(T(2,3))"), "1"),
        note=inconsistent_note)
    add("theta-t25-whitehead-mirror", 5, "theta(-T(2,5) + Wh(T(2,3))) = 2 (as published)",
        lambda L: (_theta_engine(L, "-T(2,5) + Wh(T(2,3))"), "2"),
        note=inconsistent_note)

    # ---- section 6: definite-manifold genus bounds ----
    add("eta-example", 6, "eta((1,2,3)) = -2",
        lambda L: (str(eta(HomologyClass((1, 2, 3)))), "-2"))

    add("genus-bound-T37", 6, "g_H(T(3,7), X) >= 6",
        lambda L: (str(genus_bound_q2(L, parse_expression("T(3,7)"),
                                      HomologyClass((0, 0, 0))).value), "6"))
    add("genus-bound-T37-class", 6, "g_4(T(3,7), X, 2e1) >= 5",
        lambda L: (str(genus_bound_q2(L, parse_expression("T(3,7)"),
                                      HomologyClass((2, 0, 0))).value), "5"))
    add("genus-bound-q3-T27", 6, "g_H(T(2,7), X) >= 3 via q = 3",
        lambda L: (str(genus_bound_odd_q(3, L, parse_expression("T(2,7)"),
                                         HomologyClass((0,))).value), "3"))

    def cmp_table(L):
        a = compare_bounds(1, (0, 0, 0), 3)
        b = compare_bounds(1, (1, 0, 0), 3)
        got = [(a.theta_bound, a.tau_bound, a.sig1_bound, a.sig2_bound),
               (b.theta_bound, b.tau_bound, b.sig1_bound, b.sig2_bound)]
        want = [(Fraction(6), 6, 4, -7), (Fraction(5), 5, 3, -6)]
        return str(got), str(want)
    add("compare-bounds-table", 6, "four-bound comparison for n=1, x = 0 and e1",
        cmp_table)

    def theta_beats_tau(L):
        import itertools
        for n in (1, 2):
            for r in (1, 2, 3):
                for x in itertools.product(range(-3, 4), repeat=r):
                    c = compare_bounds(n, x, r)
                    if c.theta_bound < c.tau_bound:
                        return f"counterexample n={n} x={x}", "none"
        return "none", "none"
    add("theta-bound-dominates-tau", 6,
        "theta bound >= tau bound on a sample grid (full grid in the test suite)",
        theta_beats_tau)

    return out


def run(ledger: Ledger, section: Optional[int] = None) -> list[tuple[Check, str, str]]:
    """``(check, got, want)`` for each check of ``section`` (all when None)."""
    results = []
    for check in checks():
        if section is not None and check.section != section:
            continue
        try:
            got, want = check.fn(ledger)
        except Exception as e:  # a crash is a failing check, not a crash of the driver
            got, want = f"error: {e}", "(value)"
        results.append((check, got, want))
    return results
