"""An oracle for the engine's ledger-only rules.

``LedgerBounds.bounds`` gives R1, R4, R5, R7 and R8 in integer lattice
steps 1/(q-1).  The oracle here computes each bound from the module
docstring's formula in ``Fraction`` arithmetic, straight from
``Ledger.quantity``, and rounds it inward: up for a lower bound, down for an
upper one.  The rules are read from one table per (ledger, q), kept on the
ledger; the last tests check that it is that ledger's own and bounded.
"""

import copy
import gc
import json
import math
import random
from fractions import Fraction

from knotconc.infer import InferenceEngine, infer_theta
from knotconc.knots import parse_expression
from knotconc.ledger import ledger_from_json, load_seed_ledger, seed_ledger_text
from knotconc.ledger_bounds import LedgerBounds
from knotconc.sequences import DeltaSequence


def _value(L, atom, kind, q, mirror=False):
    name, mirrored = atom
    return L.quantity(name, kind, mirror=mirrored != mirror, q=q)[0]


def _sum(L, key, kind, q):
    values = [_value(L, atom, kind, q) for atom in key]
    return None if None in values else sum(values)


def _family(L, name, q):
    if q == 2 and L.quantity(name, "quasi_alternating")[0] is True:
        return "quasi-alternating"
    if L.quantity(name, "l_space", q=q)[0] is True:
        return "L-space"
    return None


def _theta_from_mirror(q, seq, sig):
    """theta = max(0, (2 j(-K) - sigma(K)/2)/(q-1)), j(-K) for q = 2, where
    j(-K) is the least j with delta_j(-K) <= -sigma(-K)/2 = sigma(K)/2."""
    j = next(j for j in range(len(seq.values) + 1) if seq.value_at(j) <= Fraction(sig, 2))
    return max(Fraction(0), Fraction((2 if q > 2 else 1) * j) - Fraction(sig, 2)) / (q - 1)


def oracle(L, key, q):
    step = q - 1
    out = []

    def add(lower, upper, why):
        out.append((None if lower is None else math.ceil(lower * step),
                    None if upper is None else math.floor(upper * step), why))

    sig = _sum(L, key, "sigma_q", q)
    g4 = _sum(L, key, "g4", q)
    delta = _sum(L, key, "delta_MO" if q == 2 else "delta_q_jabuka", q)
    if sig is not None:
        add(Fraction(-sig, 2 * step), None, f"R1 signature lower bound, sigma^({q}) = {sig}")
    if g4 is not None:
        add(None, Fraction(g4), f"R1 slice genus upper bound, g4 <= {g4}")
    family = None if len(key) != 1 or sig is None else _family(L, key[0][0], q)
    if family is not None:
        value = max(Fraction(0), Fraction(-sig, 2 * step))
        add(value, value, f"R4 {family} closed form")
    if sig is not None and delta is not None and sig <= 0 and delta < Fraction(-sig, 2):
        add(Fraction(1, step) - Fraction(sig, 2 * step), None,
            f"R5 delta jump: delta^({q}) = {delta} < -sigma/2 = {Fraction(-sig, 2)} "
            "with sigma <= 0")
    if len(key) != 1:
        return out
    ell = _value(L, key[0], "ell_q", q, mirror=True)
    if sig is not None and ell is not None:
        add(Fraction(ell, step) - Fraction(3 * sig, 4 * step), None,
            f"R7 HF+ degree bound: ell^({q})(mirror) = {ell}")
    seq = _value(L, key[0], "delta_seq", q, mirror=True)
    sig_mirror = _value(L, key[0], "sigma_q", q, mirror=True)
    if seq is None and sig_mirror is not None and _family(L, key[0][0], q) is not None:
        seq = DeltaSequence.constant(-sig_mirror // 2)
    if seq is not None and sig is not None:
        value = _theta_from_mirror(q, seq, sig)
        add(value, value, "R8 exact delta sequence of the mirror")
    return out


def test_bounds_match_the_formulas_on_seed_universes():
    # every node of the universes of random 1-4-summand seed queries
    L = load_seed_ledger()
    rng = random.Random(35)
    atoms = sorted(L.atoms)
    seen = set()
    for q in (2, 3, 5):
        for n in (1, 1, 2, 2, 3, 4):
            expr = " + ".join(rng.choice(("", "-")) + a for a in rng.sample(atoms, n))
            engine = InferenceEngine(L, q)
            engine.run(parse_expression(expr))
            rules = LedgerBounds(L, q)  # a view of the table the engine filled
            for key in engine.nodes:
                found, u = rules.bounds(key)
                assert found == oracle(L, key, q), (expr, q, key)
                assert u == _sum(L, key, "unknotting_upper", q), (expr, q, key)
                seen.update(why.split()[0] for _, _, why in found)
    assert seen == {"R1", "R4", "R5", "R7", "R8"}


def _synthetic(*facts):
    return ledger_from_json({
        "atoms": ["K"], "relations": [],
        "facts": [{"knot": knot, "kind": kind, "value": value, "provenance": "t",
                   **({"q": 2} if kind in ("sigma_q", "ell_q") else {})}
                  for knot, kind, value in facts],
    })


def test_r7_off_the_lattice_rounds_up():
    # sigma(K) = -2 at q = 2: R7 gives ell + 3/2, not a whole step
    L = _synthetic(("K", "sigma_q", -2), ("-K", "ell_q", 0))
    key = parse_expression("K")
    r7 = [b for b in LedgerBounds(L, 2).bounds(key)[0] if b[2].startswith("R7")]
    assert r7 == [(2, None, "R7 HF+ degree bound: ell^(2)(mirror) = 0")]
    assert LedgerBounds(L, 2).bounds(key)[0] == oracle(L, key, 2)


def test_r5_strict_boundary():
    # R5 needs 2 delta < -sigma: equality gives no bound, one step less does
    key = parse_expression("K")
    for delta, want in ((2, []), (1, [(3, None, "R5 delta jump: delta^(2) = 1 < "
                                                "-sigma/2 = 2 with sigma <= 0")])):
        L = _synthetic(("K", "sigma_q", -4), ("K", "delta_MO", delta))
        found = LedgerBounds(L, 2).bounds(key)[0]
        assert [b for b in found if b[2].startswith("R5")] == want
        assert found == oracle(L, key, 2)


def test_one_bounded_table_per_ledger_and_q(corpus):
    L = load_seed_ledger()
    for rnd in range(6):
        for op in corpus.engine_round(7, rnd, list(L.atoms)):
            infer_theta(L, parse_expression(op["expr"]), q=op["q"])
    tables = {key: table for key, table in L._derived.items() if isinstance(key, tuple)}
    assert sorted(tables) == [("atoms", 2), ("atoms", 3)]
    assert all(0 < len(table) <= 2 * len(L.atoms) for table in tables.values())
    assert set(L._derived) - set(tables) == {"slice", "relations"}
    assert len(L._derived["slice"]) <= 2 * len(L.atoms)
    # the table is not a field: the ledger prints and compares as before
    assert L == load_seed_ledger() and repr(L) == repr(load_seed_ledger())
    assert "_derived" not in repr(L)


def test_a_second_ledger_reads_its_own_table():
    # same atom names, one g4 fact changed: a table keyed by atom name, or
    # by a reused id() of the first ledger, would answer from the first
    key = parse_expression("T(3,5)")
    L = load_seed_ledger()
    seed = infer_theta(L, key, q=3)
    assert (seed.lower, seed.upper) == (0, 4)
    assert seed.provenance["g4(T(3,5))"].startswith("g4(T(a,b))")
    data = json.loads(seed_ledger_text())
    changed = copy.deepcopy(data)
    fact = next(f for f in changed["facts"] if (f["knot"], f["kind"]) == ("T(3,5)", "g4"))
    fact["value"], fact["provenance"] = 3, "a changed g4 fact"
    # each ledger below is made just after another was freed, so it may
    # take the freed one's id(): the changed one after the seed and the
    # seed after the changed one
    del L
    gc.collect()
    for _ in range(2):
        other = ledger_from_json(changed)
        iv = infer_theta(other, key, q=3)
        assert (iv.lower, iv.upper) == (0, 3)
        assert iv.provenance["g4(T(3,5))"] == "a changed g4 fact"
        assert infer_theta(ledger_from_json(data), key, q=3) == seed
        del other
        gc.collect()
