"""Byte-identical engine output over two fixed sets of queries.

Each digest is the sha256 of the concatenated ``json.dumps`` of one record
per query: ``[expr, q, rule_seed, str(lower), str(upper), justification,
provenance]``, or ``[expr, q, rule_seed, error class, message]`` when the
query raises.  A change that keeps every interval, derivation line and
citation keeps both digests; one that means to change any of them says so
and replaces the digest.
"""

import hashlib
import json

from knotconc.infer import infer_theta, infer_theta_m
from knotconc.knots import parse_expression
from knotconc.ledger import load_seed_ledger


def _record(expr, q, rule_seed, query):
    try:
        iv = query()
    except Exception as e:
        return [expr, q, rule_seed, type(e).__name__, str(e)]
    return [expr, q, rule_seed, str(iv.lower), str(iv.upper), list(iv.justification),
            iv.provenance]


def _digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record).encode())
    return h.hexdigest()


def test_engine_sums_digest(corpus):
    # the benchmark's engine-sums rounds 0-5 of seeds 7 and 1 (2,448 records)
    L = load_seed_ledger()
    records = []
    for seed in (7, 1):
        for rnd in range(6):
            for op in corpus.engine_round(seed, rnd, list(L.atoms)):
                expr, q = op["expr"], op["q"]
                for rule_seed in (None, 1):
                    records.append(_record(expr, q, rule_seed, lambda: infer_theta(
                        L, parse_expression(expr), q, rule_seed=rule_seed)))
    assert len(records) == 2448
    assert _digest(records) == (
        "7773769ce243cfaaaca381a26e8e4ddf5e2ea3fff422d3587dcb40fd5cffda78")


def test_theta_m_digest():
    # every seed atom, its mirror and a + -b for consecutive atoms in sorted
    # order, at q = 2, 3, 5 and m = 0, 1, 2, 4, 8 in the rule_seed field
    L = load_seed_ledger()
    atoms = sorted(L.atoms)
    exprs = [*atoms, *["-" + a for a in atoms],
             *[f"{a} + -{b}" for a, b in zip(atoms, atoms[1:])]]
    records = [_record(expr, q, m, lambda: infer_theta_m(L, parse_expression(expr), q, m))
               for expr in exprs for q in (2, 3, 5) for m in (0, 1, 2, 4, 8)]
    assert len(records) == 1200
    assert _digest(records) == (
        "4cd1156af5d869df77f93ed710cba0d7ed80e12e5422d49b0d9f28d684b85539")
