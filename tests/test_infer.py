import json
import random
from fractions import Fraction

import pytest

import knotconc.infer as infer_module
from knotconc.infer import (BoundInterval, InferenceEngine, LedgerInconsistentError, infer_theta,
                            infer_theta_m)
from knotconc.knots import parse_expression, signed_atoms
from knotconc.ledger import ledger_from_json, load_seed_ledger, seed_ledger_text


def infer(L, text, q=2, **kw):
    return infer_theta(L, parse_expression(text), q=q, **kw)


# -- the worked inference chains -------------------------------------------------


def test_9_42_pair():
    L = load_seed_ledger()
    assert infer(L, "9_42").value == 0
    assert infer(L, "-9_42").value == 1


def test_9_42_whitehead_sum():
    L = load_seed_ledger()
    iv = infer(L, "-(9_42) + Wh(T(2,3))")
    assert iv.value == 2
    assert any("R5" in line for line in iv.justification)
    assert any("delta_MO(9_42)" in k for k in iv.provenance)
    # the derivation is a sequence: an index or a slice gives the same lines
    lines = list(iv.justification)
    assert len(lines) >= 3
    assert iv.justification[0] == lines[0]
    assert iv.justification[-1] == lines[-1]
    assert iv.justification[1:3] == lines[1:3]


def test_whitehead_pair():
    L = load_seed_ledger()
    assert infer(L, "Wh(T(2,3))").value == 1
    assert infer(L, "-Wh(T(2,3))").value == 0
    assert infer(L, "Wh(T(2,5))").value == 1


def test_whitehead_difference():
    L = load_seed_ledger()
    assert infer(L, "Wh(T(2,5)) + -Wh(T(2,3))").value == 1


def test_torus_atoms_exact_via_sequences():
    L = load_seed_ledger()
    for n, want in ((1, 6), (2, 12), (5, 30)):
        iv = infer(L, f"T(3,{6 * n + 1})")
        assert iv.value == want
        assert any("R8" in line for line in iv.justification)
    assert infer(L, "-T(3,7)").value == 0


def test_quasi_alternating_closed_form():
    L = load_seed_ledger()
    assert infer(L, "T(2,5)").value == 2
    assert infer(L, "-T(2,5)").value == 0
    assert infer(L, "T(2,31)").value == 15


def test_q3_certified_equalities():
    L = load_seed_ledger()
    for n in range(1, 6):
        assert infer(L, f"T(2,{6 * n - 1})", q=3).value == 3 * n - 1
        assert infer(L, f"T(2,{6 * n + 1})", q=3).value == 3 * n


def test_slice_and_unknot():
    L = load_seed_ledger()
    assert infer(L, "unknot").value == 0
    assert infer(L, "9_46").value == 0
    assert infer(L, "9_46 + -9_46").value == 0
    assert infer(L, "T(3,7) + -T(3,7)").value == 0  # mirror pair cancels


def test_concordance_rearrangement_gives_lower_bound():
    # T(2,5) is concordant to (T(2,5) + -Wh) + Wh, so theta of the sum is
    # at least theta(T(2,5)) - theta(Wh) = 1; the signature pushes it to 2.
    L = load_seed_ledger()
    iv = infer(L, "T(2,5) + -Wh(T(2,3))")
    assert iv.value == 2
    miv = infer(L, "-T(2,5) + Wh(T(2,3))")
    assert (miv.lower, miv.upper) == (0, 1)


def test_unknotting_number_chain():
    """Crossing-change relations compose: along unknot -> A -> B the engine
    derives theta(B) + theta(-B) <= 2 with no unknotting facts at all."""
    data = {
        "atoms": [{"name": "unknot", "seifert": []}, {"name": "A"}, {"name": "B"}],
        "facts": [
            {"knot": "unknot", "kind": "slice", "value": True, "provenance": "t"},
            {"knot": "A", "kind": "sigma", "value": -2, "provenance": "t"},
            {"knot": "B", "kind": "sigma", "value": -4, "provenance": "t"},
        ],
        "relations": [
            {"plus": "A", "minus": "unknot"},
            {"plus": "B", "minus": "A"},
        ],
    }
    L = ledger_from_json(data)
    b = infer(L, "B")
    mb = infer(L, "-B")
    assert b.value == 2       # sigma lower bound meets the chain upper bound
    assert mb.value == 0      # mirrored chain pins the mirror at zero
    assert b.value + mb.value <= 2


def test_subadditivity_over_equal_halves():
    """K + K has one split, K | K, and only R2 over it bounds theta above."""
    data = {
        "atoms": [{"name": "K"}],
        "facts": [
            {"knot": "K", "kind": "sigma", "value": -2, "provenance": "t"},
            {"knot": "K", "kind": "quasi_alternating", "value": True, "provenance": "t"},
        ],
        "relations": [],
    }
    L = ledger_from_json(data)
    assert infer(L, "K").value == 1
    assert infer(L, "K + K").value == 2
    assert infer(L, "K + K + K + K").value == 4


def test_r2_needs_every_binary_split(monkeypatch):
    """R3 bounds x1 + x2 and y1 + y2 by 1 each through their slice partners,
    and only R2 over the split (x1 + x2) | (y1 + y2) adds them: with one-atom
    splits only, the partner z1 + z2 + z3 + y1 + y2, larger than the query,
    is never created, so R3 never lifts into the sum."""
    atoms = ["x1", "x2", "y1", "y2", "z1", "z2", "z3", "w1", "w2", "w3"]
    L = ledger_from_json({
        "atoms": [{"name": a} for a in atoms],
        "facts": [{"knot": a, "kind": "g4", "value": 5 if a[0] in "xy" else 0,
                   "provenance": "t"} for a in atoms],
        "relations": [{"plus": "x1 + x2", "minus": "z1 + z2 + z3"},
                      {"plus": "y1 + y2", "minus": "w1 + w2 + w3"}]})
    query = "x1 + x2 + y1 + y2"
    full = infer(L, query)
    assert (full.lower, full.upper) == (0, 2)
    every_split = infer_module._binary_splits
    monkeypatch.setattr(infer_module, "_binary_splits", lambda key: [
        (a, b) for a, b in every_split(key) if 1 in (len(a), len(b))])
    peeled = infer(L, query)
    assert peeled.lower == 0 and peeled.upper > full.upper


def test_universe_sizes():
    """Nodes and crossing-change relations of a query's universe, as the
    pass-based engine built them: a partner larger than its node is related
    from its own side, and a relation end brings in the other end."""
    L = load_seed_ledger()
    for text, nodes, relations in [
        ("T(2,3)", 11, 10), ("unknot", 11, 10), ("T(2,5) + -Wh(T(2,3))", 15, 18),
        ("9_42 + T(2,3) + -T(2,5)", 31, 58), ("T(2,3) + T(2,3) + Wh(T(2,5))", 27, 40),
    ]:
        engine = InferenceEngine(L, 2)
        engine.run(parse_expression(text))
        assert (len(engine.nodes), len(engine.relations)) == (nodes, relations), text


def test_inconsistent_ledger_reports_rules():
    data = {
        "atoms": [{"name": "K"}],
        "facts": [
            {"knot": "K", "kind": "sigma", "value": -4, "provenance": "t"},
            {"knot": "K", "kind": "g4", "value": 1, "provenance": "t"},
        ],
        "relations": [],
    }
    L = ledger_from_json(data)
    with pytest.raises(LedgerInconsistentError) as exc:
        infer(L, "K")
    msg = str(exc.value)
    assert "R1" in msg  # names the clashing rules


def test_inconsistency_message_does_not_depend_on_which_bound_is_second():
    # sigma = -2 gives theta >= 1 and g4 = 0 gives theta <= 0; the rule
    # order decides whether set_lower or set_upper finds the clash
    L = ledger_from_json({"atoms": [{"name": "K"}], "facts": [
        {"knot": "K", "kind": "sigma", "value": -2, "provenance": "t"},
        {"knot": "K", "kind": "g4", "value": 0, "provenance": "t"}]})
    raised_in = set()
    for seed in range(8):
        with pytest.raises(LedgerInconsistentError) as exc:
            infer(L, "K", rule_seed=seed)
        assert str(exc.value) == (
            "ledger inconsistent at K: lower bound 1 (R1 signature lower bound, "
            "sigma^(2) = -2) exceeds upper bound 0 (R1 slice genus upper bound, g4 <= 0)")
        raised_in.add(exc.traceback[-1].name)
    assert raised_in == {"set_lower", "set_upper"}


def test_library_errors():
    with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
        infer_theta_m(load_seed_ledger(), parse_expression("T(2,3)"), 2, -1)
    for upper in (Fraction(1), None):
        with pytest.raises(ValueError, match=r"is not a point$"):
            BoundInterval(lower=Fraction(0), upper=upper).value


def test_no_facts_means_unbounded_above():
    L = ledger_from_json({"atoms": [{"name": "X"}], "facts": [], "relations": []})
    iv = infer(L, "X")
    assert iv.lower == 0 and iv.upper is None
    assert not iv.exact


def test_unknown_atom_raises():
    L = load_seed_ledger()
    with pytest.raises(Exception, match="unknown knot atom"):
        infer(L, "mystery_knot")


# -- interval-valued theta(K, m) --------------------------------------------------


def test_infer_theta_m_exact_torus():
    L = load_seed_ledger()
    for m, want in ((0, 6), (4, 4), (8, 4), (100, 4)):
        iv = infer_theta_m(L, parse_expression("T(3,7)"), 2, m)
        assert iv.exact and iv.value == want


def test_infer_theta_m_exact_cites_only_what_it_reads():
    # R8 reads the mirror's delta sequence and sigma; the reduction reads
    # the slice flags of the summands it drops
    L = load_seed_ledger()
    torus = {"delta_seq(-T(3,7), q=2)", "sigma(T(3,7))"}
    for text, cited in (("T(3,7)", torus),
                        ("T(3,7) + unknot + 9_46", torus | {"slice(unknot)", "slice(9_46)"})):
        for m in (0, 4):
            iv = infer_theta_m(L, parse_expression(text), 2, m)
            assert iv.exact and set(iv.provenance) == cited, (text, m)
    # the engine still runs first: a ledger that contradicts the exact value
    # is reported, not cited around
    data = json.loads(seed_ledger_text())
    for f in data["facts"]:
        if (f["knot"], f["kind"]) == ("T(3,7)", "g4"):
            f["value"] = 2
    with pytest.raises(LedgerInconsistentError):
        infer_theta_m(ledger_from_json(data), parse_expression("T(3,7)"), 2, 4)


def test_infer_theta_m_interval_path():
    L = load_seed_ledger()
    iv = infer_theta_m(L, parse_expression("T(2,7)"), 3, 4)
    assert not iv.exact
    assert iv.lower == 2 and iv.upper == 3


def test_infer_theta_m_properties_random():
    """theta(K, 0) is theta(K), and theta(K, m) is non-increasing in m: its
    lower end never rises with m and its upper end never passes theta(K)'s.
    Every seed atom and its mirror, and seeded sums of 2 or 3 of them."""
    L = load_seed_ledger()
    names = sorted(L.atoms)
    rng = random.Random(81)
    keys = [((name, mirrored),) for name in names for mirrored in (False, True)]
    keys += [signed_atoms((rng.choice(names), rng.random() < 0.5)
                          for _ in range(rng.choice((2, 3)))) for _ in range(100)]
    for key in keys:
        for q in (2, 3):
            base = infer_theta(L, key, q=q)
            lowers = []
            for m in range(9):
                iv = infer_theta_m(L, key, q, m)
                if m == 0:
                    assert (iv.lower, iv.upper) == (base.lower, base.upper), key
                if base.upper is not None:
                    assert iv.upper is not None and iv.upper <= base.upper, (key, q, m)
                lowers.append(iv.lower)
            assert lowers == sorted(lowers, reverse=True), (key, q, lowers)


# -- engine-level properties -------------------------------------------------------


QUERIES = [
    "9_42", "-9_42", "Wh(T(2,3))", "-Wh(T(2,3))", "-(9_42) + Wh(T(2,3))",
    "T(2,5) + -Wh(T(2,3))", "T(3,7)", "-T(3,13)", "T(2,11)",
    "Wh(T(2,5)) + -Wh(T(2,3))", "T(2,3) + T(2,3)", "8_19 + -T(2,3)",
    "T(2,5) + -Wh(T(2,3)) + T(3,7) + -T(2,11) + 8_19",
]


def test_rule_order_independence():
    L = load_seed_ledger()
    for text in QUERIES:
        base = infer(L, text)
        for seed in range(10):
            iv = infer(L, text, rule_seed=seed)
            assert (iv.lower, iv.upper) == (base.lower, base.upper), (text, seed)


def test_exact_results_respect_axioms():
    L = load_seed_ledger()
    for text in QUERIES:
        iv = infer(L, text)
        e = parse_expression(text)
        sig = L.sigma_q_expr(e, 2)
        g4s = [L.quantity(name, "g4", mirror=m)[0] for name, m in signed_atoms(e)]
        g4 = None if None in g4s else sum(g4s)
        if sig is not None:
            assert iv.lower >= max(0, Fraction(-sig, 2))
        if g4 is not None and iv.upper is not None:
            assert iv.upper <= g4


def _random_subledger(rng, data):
    keep = {
        "atoms": data["atoms"],
        "facts": [f for f in data["facts"] if rng.random() < 0.75],
        "relations": [r for r in data["relations"] if rng.random() < 0.75],
    }
    try:
        return ledger_from_json(keep)
    except Exception:
        return None


def test_monotone_adding_facts_never_widens():
    """Dropping ledger facts can only loosen the interval, so the full-ledger
    interval always sits inside the sub-ledger interval."""
    full = load_seed_ledger()
    data = json.loads(seed_ledger_text())
    rng = random.Random(71)
    checked = 0
    while checked < 1000:
        sub = _random_subledger(rng, data)
        if sub is None:
            continue
        text = rng.choice(QUERIES)
        try:
            wide = infer(sub, text)
        except LedgerInconsistentError:
            continue
        tight = infer(full, text)
        assert tight.lower >= wide.lower, text
        if wide.upper is not None:
            assert tight.upper is not None and tight.upper <= wide.upper, text
        checked += 1


# (lower, upper) at q = 2, 3 and 5 for seeded sums of 1-8 seed atoms, relation
# atoms and mirrors among them, as computed by the pass-based engine that
# re-fired every rule on every node until nothing changed.  The worklist
# engine must reach the same fixed point.
PINNED = [
    ('-Wh(T(2,5))', ('0', '0'), ('0', '0'), ('0', '0')),
    ('T(2,11)', ('5', '5'), ('5', '5'), ('3', '5')),
    ('Wh(T(2,3))', ('1', '1'), ('0', '1'), ('0', '1')),
    ('9_42', ('0', '0'), ('0', '0'), ('0', '0')),
    ('-Wh(T(2,5))', ('0', '0'), ('0', '0'), ('0', '0')),
    ('-Wh(T(2,3)) + T(2,3)', ('1', '1'), ('0', '1'), ('0', '1')),
    ('-T(3,7) + -T(2,5)', ('0', '0'), ('0', '6'), ('0', '6')),
    ('-T(2,23) + -Wh(T(2,3))', ('0', '0'), ('0', '0'), ('0', '4')),
    ('T(2,7) + Wh(T(2,5))', ('3', '4'), ('3', '4'), ('2', '4')),
    ('T(3,7) + Wh(T(2,3))', ('6', '7'), ('0', '7'), ('0', '7')),
    ('T(3,19) + T(2,5) + -T(3,11)', ('8', '20'), ('0', '30'), ('0', '30')),
    ('T(2,29) + -T(2,19) + -T(2,5)', ('3', '14'), ('3', '14'), ('3/2', '17')),
    ('T(2,7) + Wh(T(2,5)) + 9_46', ('3', '4'), ('3', '4'), ('2', '4')),
    ('T(2,11) + T(3,7) + T(3,5)', ('13', '15'), ('0', '15'), ('0', '15')),
    ('-T(3,13) + 9_42 + T(3,19)', ('5', '18'), ('0', '30'), ('0', '30')),
    ('T(2,23) + -T(2,31) + T(3,19) + -T(2,3)', ('7', '29'), ('0', '29'), ('0', '35')),
    ('-T(2,17) + unknot + -T(3,11) + T(2,25)', ('0', '12'), ('0', '22'), ('0', '25')),
    ('T(2,5) + Wh(T(2,3)) + T(2,23) + 8_19', ('16', '17'), ('8', '17'), ('11/2', '17')),
    ('T(2,13) + -Wh(T(2,5)) + T(3,5) + T(3,31)', ('30', '40'), ('0', '40'), ('0', '40')),
    ('unknot + Wh(T(2,3)) + Wh(T(2,5)) + -T(2,3)', ('0', '2'), ('0', '2'), ('0', '2')),
    ('T(2,5) + -T(3,5) + T(3,13) + -9_46 + -T(3,5)', ('4', '14'), ('0', '22'), ('0', '22')),
    ('Wh(T(2,3)) + T(2,5) + T(2,11) + T(2,19) + T(3,5)', ('20', '21'), ('8', '21'), ('13/2', '21')),
    ('-T(3,25) + T(2,23) + -9_42 + T(3,25) + -8_19', ('9', '12'), ('8', '15'), ('4', '15')),
    ('T(3,11) + T(2,13) + -T(3,31) + -T(2,5) + T(3,13)', ('0', '28'), ('0', '58'), ('0', '58')),
    ('-unknot + Wh(T(2,5)) + T(3,23) + T(2,7) + -T(2,17)', ('14', '26'), ('0', '26'), ('0', '29')),
    ('-T(2,13) + -T(2,23) + -T(2,19) + T(3,25) + Wh(T(2,3)) + -9_46', ('0', '25'), ('0', '25'), ('0', '34')),
    ('-Wh(T(2,5)) + -T(2,5) + -T(2,3) + T(3,17) + T(3,13) + -T(2,29)', ('3', '28'), ('0', '28'), ('0', '33')),
    ('-T(2,3) + unknot + -T(2,5) + -T(2,5) + T(2,31) + T(2,23)', ('21', '26'), ('13', '26'), ('12', '26')),
    ('-T(2,23) + T(2,13) + -Wh(T(2,5)) + Wh(T(2,3)) + -T(3,19) + T(2,25)', ('0', '19'), ('0', '37'), ('0', '41')),
    ('T(2,3) + Wh(T(2,3)) + -T(2,11) + T(2,17) + T(3,23) + T(3,11)', ('28', '42'), ('0', '42'), ('0', '44')),
    ('T(2,17) + T(3,7) + -T(2,25) + T(3,29) + -T(2,29) + T(2,17) + -Wh(T(2,3))', ('14', '50'), ('0', '50'), ('0', '119/2')),
    ('T(3,25) + T(3,29) + -T(3,23) + T(3,23) + -T(2,7) + T(3,5) + -T(2,23)', ('26', '56'), ('0', '56'), ('0', '61')),
    ('-T(2,5) + -unknot + T(3,7) + -T(2,11) + T(3,13) + -T(3,11) + -T(3,25)', ('0', '18'), ('0', '52'), ('0', '54')),
    ('-Wh(T(2,3)) + -T(2,23) + T(2,3) + -9_46 + T(3,13) + -8_19 + -Wh(T(2,3))', ('0', '13'), ('0', '16'), ('0', '20')),
    ('T(2,29) + -Wh(T(2,3)) + -9_42 + -T(3,17) + -T(3,19) + T(2,11) + -T(2,5)', ('0', '20'), ('0', '54'), ('0', '54')),
    ('Wh(T(2,3)) + -Wh(T(2,3)) + T(3,17) + -T(2,13) + -T(2,7) + T(2,17) + -T(2,31) + T(2,19)', ('5', '33'), ('0', '33'), ('0', '42')),
    ('T(3,17) + -T(2,23) + -T(3,7) + T(3,23) + -9_42 + T(3,29) + -unknot + -T(2,29)', ('20', '67'), ('0', '73'), ('0', '82')),
    ('T(2,19) + T(3,29) + -T(2,23) + -8_19 + Wh(T(2,5)) + 9_42 + T(3,5) + -T(3,5)', ('14', '38'), ('0', '41'), ('0', '45')),
    ('T(2,25) + -T(3,11) + T(3,17) + T(3,23) + Wh(T(2,3)) + -T(2,11) + -unknot + T(2,13)', ('33', '57'), ('0', '67'), ('0', '69')),
    ('-Wh(T(2,5)) + Wh(T(2,3)) + T(3,11) + -unknot + -T(3,23) + T(3,23) + -T(2,23) + T(3,7)', ('1', '17'), ('0', '17'), ('0', '21')),
]


def test_pinned_intervals():
    L = load_seed_ledger()
    for text, *per_q in PINNED:
        for q, (lower, upper) in zip((2, 3, 5), per_q):
            iv = infer(L, text, q=q)
            want = (Fraction(lower), None if upper is None else Fraction(upper))
            assert (iv.lower, iv.upper) == want, (text, q)
