import json

import pytest

from knotconc.cli import main
from knotconc.knots import parse_expression, signed_atoms
from knotconc.ledger import (
    LedgerError,
    ledger_from_json,
    load_ledger,
    load_seed_ledger,
)
from knotconc.sequences import DeltaSequence


def minimal(facts=(), atoms=None, relations=()):
    if atoms is None:
        atoms = [{"name": "K", "seifert": [[-1, 1], [0, -1]]}, {"name": "unknot", "seifert": []}]
    return {"atoms": atoms, "facts": list(facts), "relations": list(relations)}


def test_seed_ledger_loads():
    L = load_seed_ledger()
    assert "T(2,3)" in L.atoms and "9_42" in L.atoms and "Wh(T(2,3))" in L.atoms
    assert len(L.relations) == 5
    # spot values
    assert L.quantity("9_42", "sigma")[0] == 2
    assert L.quantity("9_42", "sigma", mirror=True)[0] == -2
    assert L.quantity("T(3,7)", "g4", mirror=True)[0] == 6
    assert L.fact("T(2,5)", "ell_q", mirror=True, q=3).value == -2
    assert L.fact("T(2,5)", "ell_q", mirror=False, q=3) is None


def test_simple_file_round_trip(tmp_path):
    data = minimal(facts=[
        {"knot": "K", "kind": "sigma", "value": -2, "provenance": "test"},
        {"knot": "K", "kind": "g4", "value": 1, "provenance": "test"},
    ])
    path = tmp_path / "two_facts.json"
    path.write_text(json.dumps(data))
    L = load_ledger(path)
    assert len(L.atoms) == 2 and len(L.facts) == 2


def test_single_atom_two_facts(tmp_path):
    data = {
        "atoms": [{"name": "T(2,3)"}],
        "facts": [
            {"knot": "T(2,3)", "kind": "sigma", "value": -2, "provenance": "test"},
            {"knot": "T(2,3)", "kind": "g4", "value": 1, "provenance": "test"},
        ],
        "relations": [],
    }
    path = tmp_path / "one_atom.json"
    path.write_text(json.dumps(data))
    L = load_ledger(path)
    assert len(L.atoms) == 1 and len(L.facts) == 2


def test_odd_sigma_rejected():
    with pytest.raises(LedgerError, match="sigma must be even"):
        ledger_from_json(minimal(facts=[
            {"knot": "K", "kind": "sigma", "value": 3, "provenance": "test"},
        ]))


def test_sigma_q_mod4_rejected():
    with pytest.raises(LedgerError, match="divisible by 4"):
        ledger_from_json(minimal(facts=[
            {"knot": "K", "kind": "sigma_q", "q": 3, "value": -6, "provenance": "t"},
        ]))


def test_unknown_atom_and_kind_rejected():
    with pytest.raises(LedgerError, match="unknown atom"):
        ledger_from_json(minimal(facts=[
            {"knot": "nope", "kind": "sigma", "value": 0, "provenance": "t"},
        ]))
    with pytest.raises(LedgerError, match="unknown fact kind"):
        ledger_from_json(minimal(facts=[
            {"knot": "K", "kind": "sigma_squared", "value": 0, "provenance": "t"},
        ]))


@pytest.mark.parametrize("name", ["-K", "A + B", "T(2, 3)", "(K)", "K)"])
def test_atom_name_outside_the_grammar_rejected(name, tmp_path, capsys):
    # "-K" would read as the mirror of K in a fact and could never be queried
    data = minimal(atoms=[{"name": "K"}, {"name": name}],
                   facts=[{"knot": "-K", "kind": "g4", "value": 1, "provenance": "t"}])
    with pytest.raises(LedgerError, match="is not a single knot name"):
        ledger_from_json(data)
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(data))
    assert main(["theta", "--expr", "K", "--ledger", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: atom name {name!r} is not a single knot name\n"


@pytest.mark.parametrize("fact, message", [
    (5, "fact must be an object, got 5"),
    ({"knot": "K", "kind": "g4", "value": 1, "j": 1}, "fact g4(K) does not take j"),
    ({"knot": "K", "kind": "slice", "value": 1}, "fact slice(K) must be a boolean"),
    ({"knot": "K", "kind": "lt_signature", "q": 3, "j": 1, "value": -1},
     "lt_signature(K, q=3): signature values must be even, got -1"),
    ({"knot": "K", "kind": "g4", "value": -1}, "g4(K): must be >= 0, got -1"),
], ids=["not-an-object", "j-on-g4", "flag-not-boolean", "odd-lt-signature", "negative-g4"])
def test_malformed_fact_rejected(fact, message):
    with pytest.raises(LedgerError) as exc:
        ledger_from_json(minimal([fact]))
    assert str(exc.value) == message


def test_duplicate_fact_rejected():
    f = {"knot": "K", "kind": "g4", "value": 1, "provenance": "t"}
    with pytest.raises(LedgerError, match="duplicate fact"):
        ledger_from_json(minimal(facts=[f, dict(f)]))


def test_mirror_fact_key_is_distinct():
    L = ledger_from_json(minimal(facts=[
        {"knot": "K", "kind": "ell_q", "q": 3, "value": 0, "provenance": "t"},
        {"knot": "-K", "kind": "ell_q", "q": 3, "value": -2, "provenance": "t"},
    ]))
    assert L.fact("K", "ell_q", q=3).value == 0
    assert L.fact("K", "ell_q", mirror=True, q=3).value == -2


def test_delta_seq_stabilization_checked_against_sigma():
    # K has sigma = -2 from its Seifert matrix (trefoil), so the delta
    # sequence must stabilize at exactly 1
    with pytest.raises(LedgerError, match="stabilizes"):
        ledger_from_json(minimal(facts=[
            {"knot": "K", "kind": "delta_seq", "q": 2,
             "value": {"values": [1], "stable": -3}, "provenance": "t"},
        ]))
    # congruence mod 4 also checked: stable = 3 is not = 1 mod 4
    with pytest.raises(LedgerError, match="congruent"):
        ledger_from_json(minimal(facts=[
            {"knot": "K", "kind": "delta_seq", "q": 2,
             "value": {"values": [], "stable": 3}, "provenance": "t"},
        ]))
    # and it must not stabilize above -sigma/2 either: the theta scan could
    # never reach its threshold
    with pytest.raises(LedgerError, match="stabilizes at 5 != -sigma"):
        ledger_from_json(minimal(facts=[
            {"knot": "K", "kind": "delta_seq", "q": 2,
             "value": {"values": [], "stable": 5}, "provenance": "t"},
        ]))
    L = ledger_from_json(minimal(facts=[
        {"knot": "K", "kind": "delta_seq", "q": 2,
         "value": {"values": [5], "stable": 1}, "provenance": "t"},
    ]))
    assert L.fact("K", "delta_seq", q=2).value == DeltaSequence((5,), 1)


def test_relation_sigma_jump_checked():
    # sigma(K) = -2; "unknot -> K" by a positive-to-negative change would
    # need sigma(K) - sigma(unknot) in {0, 2}
    with pytest.raises(LedgerError, match="sigma jump"):
        ledger_from_json(minimal(relations=[{"plus": "unknot", "minus": "K"}]))
    # the other orientation is admissible
    L = ledger_from_json(minimal(relations=[{"plus": "K", "minus": "unknot"}]))
    assert len(L.relations) == 1


def test_signature_fact_must_match_matrix():
    # K is the positive trefoil: sigma = -2, sigma^(3) = -4
    with pytest.raises(LedgerError, match="disagrees with the Seifert matrix"):
        ledger_from_json(minimal(facts=[
            {"knot": "K", "kind": "sigma", "value": 2, "provenance": "t"},
        ]))
    with pytest.raises(LedgerError, match="disagrees"):
        ledger_from_json(minimal(facts=[
            {"knot": "-K", "kind": "sigma_q", "q": 3, "value": -4, "provenance": "t"},
        ]))
    # a fact about -K is checked by negating K's signature
    for kind, extra in (("lt_signature", {"q": 5, "j": 2}), ("sigma", {})):
        with pytest.raises(LedgerError, match="disagrees"):
            ledger_from_json(minimal(facts=[
                {"knot": "-K", "kind": kind, "value": -2, "provenance": "t", **extra},
            ]))
    L = ledger_from_json(minimal(facts=[
        {"knot": "K", "kind": "sigma", "value": -2, "provenance": "t"},
        {"knot": "-K", "kind": "sigma_q", "q": 3, "value": 4, "provenance": "t"},
        {"knot": "K", "kind": "lt_signature", "q": 5, "j": 2, "value": -2, "provenance": "t"},
        {"knot": "-K", "kind": "lt_signature", "q": 5, "j": 2, "value": 2, "provenance": "t"},
    ]))
    assert len(L.facts) == 4


def test_seifert_matrix_above_the_size_limit_rejected():
    # refused before any entry is read, so non-integer entries go unreported
    for rows in ([[0] * 32] * 32, [["x"] * 32] * 32, [[0] * 31]):
        with pytest.raises(LedgerError, match="size (32|31) is above the limit 30"):
            ledger_from_json(minimal(atoms=[{"name": "K", "seifert": rows}]))
    assert load_seed_ledger().atoms["T(2,31)"].size == 30


def test_relation_with_unknown_atom_rejected():
    with pytest.raises(LedgerError):
        ledger_from_json(minimal(relations=[{"plus": "K", "minus": "mystery"}]))


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"atoms": [,]}')
    with pytest.raises(LedgerError, match="line 1"):
        load_ledger(path)


def test_sigma_q_from_seifert_matrix():
    L = ledger_from_json(minimal())
    assert L.quantity("K", "sigma_q", q=2)[0] == -2
    assert L.quantity("K", "sigma_q", q=3)[0] == -4
    assert L.quantity("K", "sigma_q", mirror=True, q=3)[0] == 4
    assert L.sigma_q_expr(parse_expression("K + K"), 2) == -4
    assert L.sigma_q_expr(parse_expression("K + -K"), 3) == 0


def _summed(L, text, kind, q=None):
    """An additive quantity of a formal sum: ``Ledger.quantity`` summed over
    its summands, None if one of them lacks it."""
    total = 0
    for name, mirrored in signed_atoms(parse_expression(text)):
        v = L.quantity(name, kind, mirror=mirrored, q=q)[0]
        if v is None:
            return None
        total += v
    return total


def test_additive_lookups():
    L = load_seed_ledger()
    e = "-9_42 + Wh(T(2,3))"
    assert L.sigma_q_expr(parse_expression(e), 2) == -2
    assert _summed(L, e, "delta_MO") == 1 - 4
    assert _summed(L, e, "g4") == 2
    assert _summed(L, e, "unknotting_upper") == 2
    assert all(L.quantity(name, "slice")[0] is True for name in ("unknot", "9_46"))
    assert not all(L.quantity(name, "slice", mirror=m)[0] is True
                   for name, m in signed_atoms(parse_expression(e)))
    assert _summed(L, "T(3,7) + 8_19", "tau") is None


def test_quantity_fallbacks_and_citations():
    def fact(knot, kind, value, **fields):
        return {"knot": knot, "kind": kind, "value": value, "provenance": kind, **fields}

    def cited(*args, **kwargs):
        return [f.describe() for f in L.quantity(*args, **kwargs)[1]]

    L = ledger_from_json(minimal(facts=[
        fact("K", "g4_upper", 1),
        fact("-K", "sigma", 2),
        fact("K", "tau", 1),
        fact("-K", "ell_q", -2, q=3),
        fact("unknot", "g4", 0),
        fact("unknot", "g4_upper", 0),
    ]))
    # g4 falls back to g4_upper; a value cites the one fact it was read from
    assert L.quantity("K", "g4", mirror=True)[0] == 1
    assert cited("K", "g4", mirror=True) == ["g4_upper(K)"]
    assert L.quantity("unknot", "g4")[0] == 0
    assert cited("unknot", "g4") == ["g4(unknot)"]
    # sigma_q at q = 2 falls back to sigma, served from the other side
    assert L.quantity("K", "sigma_q", q=2)[0] == -2
    assert cited("K", "sigma_q", q=2) == ["sigma(-K)"]
    # then to the Seifert matrix, which cites no fact
    assert L.quantity("K", "sigma_q", mirror=True, q=3) == (4, [])
    # q is dropped for a kind that does not take one
    assert L.quantity("K", "tau", mirror=True, q=3)[0] == -1
    assert cited("K", "tau", mirror=True, q=3) == ["tau(K)"]
    # no value, no citation: ell_q does not pass to the other side
    assert L.quantity("K", "ell_q", q=3) == (None, [])
    assert L.quantity("K", "ell_q", mirror=True, q=3)[0] == -2
    assert L.quantity("unknot", "tau") == (None, [])


def test_two_sided_facts_must_agree():
    def fact(knot, kind, value, **fields):
        return {"knot": knot, "kind": kind, "value": value, "provenance": "t", **fields}

    bare = [{"name": "K"}]
    for pair in (
            [fact("K", "sigma", -2), fact("-K", "sigma", -2)],
            [fact("K", "g4", 1), fact("-K", "g4", 3)],
            [fact("K", "quasi_alternating", True), fact("-K", "quasi_alternating", False)],
            [fact("K", "lt_signature", -2, q=5, j=2), fact("-K", "lt_signature", -2, q=5, j=2)],
            [fact("K", "l_space", True, q=3), fact("-K", "l_space", False, q=3)]):
        with pytest.raises(LedgerError, match="disagree"):
            ledger_from_json(minimal(facts=pair, atoms=bare))
    # values that agree under the mirror rule, at different j, of bound kinds
    # and of kinds served for one side only all load
    L = ledger_from_json(minimal(atoms=bare, facts=[
        fact("K", "tau", 1), fact("-K", "tau", -1),
        fact("K", "lt_signature", -2, q=5, j=2), fact("-K", "lt_signature", -2, q=5, j=1),
        fact("K", "g4_upper", 3), fact("-K", "g4_upper", 5),
        fact("K", "unknotting_upper", 3), fact("-K", "unknotting_upper", 2),
        fact("K", "ell_q", 0, q=3), fact("-K", "ell_q", -2, q=3),
    ]))
    assert L.quantity("K", "g4", mirror=True)[0] == 5
