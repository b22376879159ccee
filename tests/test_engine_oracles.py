"""Two oracles for the inference engine: a model that no interval may
exclude, and a fixed point that no rule instance may move.

The model is theta_M(K) = max(0, -sigma^(q)(K) / (2(q-1))).  It satisfies
every rule R1-R8 once the ledger's facts are true of it:

* sigma^(q) is additive and max(0, x + y) <= max(0, x) + max(0, y), which
  gives R2 and each of its rearrangements;
* theta_M(K) + theta_M(-K) = |sigma^(q)(K)|/(2(q-1)), at most the genus,
  so R1 (theta <= g4) and R6 (theta(K) + theta(-K) <= u) hold for any g4
  and u at least that;
* at q = 2 the quasi-alternating closed form (R4) is theta_M, and a constant
  mirror delta sequence sigma(K)/2 makes R8 return theta_M.

The ledgers drawn below hold atoms with random Seifert matrices and only
facts of those kinds with values true of theta_M: g4_upper and
unknotting_upper between the least such value (the largest
|sigma^(q)|/(2(q-1)) over the tested q, rounded up) and the genus,
quasi_alternating flags, and at q = 2 the mirror delta sequence.  They hold
no relation (R3), delta_MO (R5) or ell_q (R7) fact, and no rule that holds
for theta but not for theta_M is left out (there is none).  Where the
ledger knows every sigma^(q), R1 gives each node's lower bound as theta_M
itself and no rearranged lower bound of R2 fires, so about half the atoms
come without their matrix, with sigma_q facts at some q only, and tight
upper facts make the rearranged lower bounds positive.  The model
catches errors of implementation (a sign, a rounding, a mirror), not a
wrong theorem.
"""

import random
from fractions import Fraction

from conftest import random_seifert
from knotconc.infer import InferenceEngine, infer_theta
from knotconc.knots import parse_expression
from knotconc.ledger import ledger_from_json, load_seed_ledger
from knotconc.signatures import sigma_q


def _fact(knot, kind, value, **q):
    return {"knot": knot, "kind": kind, "value": value, "provenance": "model", **q}


def _model_ledger(rng):
    """A ledger of 3-5 atoms of genus 1-3 whose facts are true of theta_M,
    and each atom's Seifert matrix.  About half the atoms are given to the
    ledger by name only, each with its sigma^(q) at a random subset of
    q = 2, 3, 5."""
    atoms, facts, matrices = [], [], {}
    for i in range(rng.randint(3, 5)):
        name = f"K{i}"
        V = matrices[name] = random_seifert(rng, rng.randint(1, 3))
        if rng.random() < 0.5:
            atoms.append({"name": name, "seifert": [list(row) for row in V.rows]})
        else:
            atoms.append({"name": name})
            facts += [_fact(name, "sigma_q", sigma_q(V, q), q=q)
                      for q in (2, 3, 5) if rng.random() < 0.5]
        genus = V.size // 2
        least = max(-(-abs(sigma_q(V, q)) // (2 * q - 2)) for q in (2, 3, 5))  # rounded up
        facts += [_fact(name, "g4_upper", rng.randint(least, genus)),
                  _fact(name, "unknotting_upper", rng.randint(least, genus))]
        if rng.random() < 0.5:
            facts.append(_fact(name, "quasi_alternating", True))
        if rng.random() < 0.5:
            facts.append(_fact("-" + name, "delta_seq",
                               {"values": [], "stable": sigma_q(V, 2) // 2}, q=2))
    return ledger_from_json({"atoms": atoms, "facts": facts, "relations": []}), matrices


def test_model_lies_in_every_interval():
    """theta_M lies in the interval of every query, at q = 2, 3 and 5.

    Written for the unsound R2 mutant ``set_lower(b, lo[e] + hi[a], ...)``
    in ``InferenceEngine.rule_r2`` (the last setter call, ``lo[e] - hi[a]``
    in the code), which passed every other test when it was found."""
    rng = random.Random(36)
    exact = rearranged = 0
    for _ in range(100):
        L, matrices = _model_ledger(rng)
        names = sorted(matrices)
        for q in (2, 3, 5):
            sig = {name: sigma_q(V, q) for name, V in matrices.items()}
            for n in (1, 2, 3, 4, 4):
                expr = " + ".join(rng.choice(("", "-")) + rng.choice(names) for _ in range(n))
                key = parse_expression(expr)
                total = sum(-sig[name] if mirrored else sig[name] for name, mirrored in key)
                model = Fraction(max(0, -total), 2 * (q - 1))
                iv = infer_theta(L, key, q)
                assert iv.lower <= model, (expr, q, iv)
                assert iv.upper is None or model <= iv.upper, (expr, q, iv)
                exact += iv.exact
                rearranged += any("R2 rearranged for" in line for line in iv.justification)
    # the mutant's line must fire for the test to mean anything
    assert exact > 0 and rearranged > 0


def test_no_rule_instance_moves_a_bound_after_run(corpus):
    """After ``run``, firing every R2, R3 and R6 instance once more moves no
    bound at any node: the worklist stopped at a fixed point.

    Written for the mutant without the mirror requeue in
    ``InferenceEngine._requeue`` (``if upper: readers.append(...)``), which
    keeps every queried interval on the engine-sums corpus but leaves
    bounds at other nodes short of the fixed point."""
    L = load_seed_ledger()
    for rnd in range(2):
        for op in corpus.engine_round(7, rnd, list(L.atoms))[::3]:
            for rule_seed in (None, 1):
                engine = InferenceEngine(L, op["q"], rule_seed=rule_seed)
                engine.run(parse_expression(op["expr"]))
                before = (list(engine._lo), list(engine._hi))
                for i in range(len(engine._r2) // 3):
                    engine.rule_r2(i)
                for r in range(len(engine.relations)):
                    engine.rule_r3(r)
                for n in range(len(engine.nodes)):
                    engine.rule_r6(n)
                assert (engine._lo, engine._hi) == before, (op["expr"], op["q"], rule_seed)
