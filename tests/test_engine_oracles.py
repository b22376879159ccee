"""Three oracles for the inference engine: a model that no interval may
exclude, a fixed point that no rule instance may move, and a naive least
fixed point that every relation-free interval must equal.

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

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from conftest import random_seifert
from knotconc.infer import InferenceEngine, LedgerInconsistentError, infer_theta
from knotconc.knots import parse_expression
from knotconc.ledger import ledger_from_json, load_seed_ledger
from knotconc.sequences import DeltaSequence
from knotconc.signatures import sigma_q


def _fact(knot, kind, value, **q):
    return {"knot": knot, "kind": kind, "value": value, "provenance": "model", **q}


def _model_ledger(rng, extend=False):
    """A ledger of 3-5 atoms of genus 1-3 whose facts are true of theta_M,
    and each atom's Seifert matrix.  About half the atoms are given to the
    ledger by name only, each with its sigma^(q) at a random subset of
    q = 2, 3, 5.  With ``extend``, delta_MO, ell_q (on either side) and
    l_space facts are added, drawn near the values at which R5 and R7 start
    to bind; they need not be true of theta_M, and about a quarter of the
    queries on such ledgers are inconsistent."""
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
        if extend:
            if rng.random() < 0.9:
                # R5 fires at K for an offset below 0, at -K above 0
                facts.append(_fact(name, "delta_MO", -sigma_q(V, 2) // 2 + rng.randint(-1, 2)))
            for q in (2, 3, 5):
                if rng.random() < 0.4:
                    # R7 at the other side gives it -1, 0 or 1 lattice steps
                    side, sign = rng.choice(((name, 1), ("-" + name, -1)))
                    facts.append(_fact(side, "ell_q", -3 * sign * sigma_q(V, q) // 4
                                       + rng.randint(-1, 1), q=q))
                if rng.random() < 0.2:
                    facts.append(_fact(name, "l_space", rng.random() < 0.8, q=q))
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


def _naive_fixed_point(L, key, q):
    """The (lower, upper) of theta^(q) at every node of the universe of
    ``key``, by a naive least fixed point, or None where the rules force an
    empty interval; upper is None where no finite bound is known.

    The query is reduced by cancelling K + -K pairs (these ledgers have no
    slice atom).  Without relations its universe is every non-empty
    sub-multiset of Q and of -Q, as the ``infer`` docstring states.  Facts
    are read through ``Ledger.quantity``; every rule is written here from
    the ``infer`` docstring, in Fraction arithmetic, and every instance
    fires in every round: R1, R4, R5, R7, R8 and R6 (which reads the
    mirror's lower bound) at each node, and R2 with its rearrangements
    over each ordered split x = y + z, which give
    theta(x) <= theta(y) + theta(z), theta(x) >= theta(y) - theta(-z),
    theta(y) <= theta(x) + theta(-z) and theta(y) >= theta(x) - theta(z).
    A lower bound is rounded up to (1/(q-1)) Z and an upper bound down.
    It stops when a whole round moves nothing, or at the first empty
    interval."""
    step = q - 1
    counts = Counter(key)
    for name, _ in list(counts):
        k = min(counts[(name, False)], counts[(name, True)])
        counts[(name, False)] -= k
        counts[(name, True)] -= k
    query = tuple(sorted(counts.elements()))
    if not query:
        return {(): (Fraction(0), Fraction(0))}  # the unknot: sigma = g4 = 0
    atoms = sorted(set(query))
    nodes = []
    for mirrored in (False, True):
        for take in itertools.product(*[range(counts[a] + 1) for a in atoms]):
            if any(take):
                nodes.append(tuple(sorted((a[0], a[1] != mirrored)
                                          for a, t in zip(atoms, take) for _ in range(t))))
    mirror = {x: tuple(sorted((n, not m) for n, m in x)) for x in nodes}

    def value(atom, kind, mirrored=False):
        return L.quantity(atom[0], kind, mirror=atom[1] != mirrored, q=q)[0]

    def total(x, kind):
        values = [value(atom, kind) for atom in x]
        return None if None in values else sum(values)

    fixed = []  # (node, lower, upper) from the rules that read only the ledger
    for x in nodes:
        sig, g4 = total(x, "sigma_q"), total(x, "g4")
        delta = total(x, "delta_MO" if q == 2 else "delta_q_jabuka")
        if sig is not None:
            fixed.append((x, max(0, Fraction(-sig, 2 * step)), None))  # R1
        if g4 is not None:
            fixed.append((x, None, Fraction(g4)))  # R1
        if sig is not None and delta is not None and sig <= 0 and delta < Fraction(-sig, 2):
            fixed.append((x, Fraction(1, step) - Fraction(sig, 2 * step), None))  # R5
        if len(x) != 1 or sig is None:
            continue
        closed = ((q == 2 and value(x[0], "quasi_alternating") is True)
                  or L.quantity(x[0][0], "l_space", q=q)[0] is True)
        if closed:
            theta_m = max(0, Fraction(-sig, 2 * step))
            fixed.append((x, theta_m, theta_m))  # R4
        ell = value(x[0], "ell_q", mirrored=True)
        if ell is not None:
            fixed.append((x, Fraction(ell, step) - Fraction(3 * sig, 4 * step), None))  # R7
        seq = value(x[0], "delta_seq", mirrored=True)
        if seq is None and closed:
            seq = DeltaSequence.constant(-value(x[0], "sigma_q", mirrored=True) // 2)
        if seq is not None:  # R8: j(-K) is the least j with delta_j(-K) <= sigma(K)/2
            j = next(j for j in itertools.count() if 2 * seq.value_at(j) <= sig)
            exact = max(0, j - Fraction(sig, 2)) if q == 2 else max(
                0, Fraction(4 * j - sig, 2 * step))
            fixed.append((x, exact, exact))
    u = {x: total(x, "unknotting_upper") for x in nodes}
    splits = []  # (x, y, z) for every ordered split x = y + z into non-empty parts
    for x in nodes:
        parts = sorted(Counter(x).items())
        for take in itertools.product(*[range(c + 1) for _, c in parts]):
            if 0 < sum(take) < len(x):
                y = tuple(sorted(a for (a, _), t in zip(parts, take) for _ in range(t)))
                z = tuple(sorted((Counter(x) - Counter(y)).elements()))
                splits.append((x, y, z))

    lo = {x: Fraction(0) for x in nodes}
    hi = {x: None for x in nodes}
    changed = False

    def at_least(x, bound):
        nonlocal changed
        bound = Fraction(math.ceil(bound * step), step)
        if bound > lo[x]:
            lo[x], changed = bound, True

    def at_most(x, bound):
        nonlocal changed
        bound = Fraction(math.floor(bound * step), step)
        if hi[x] is None or bound < hi[x]:
            hi[x], changed = bound, True

    while True:
        changed = False
        for x, lower, upper in fixed:
            if lower is not None:
                at_least(x, lower)
            if upper is not None:
                at_most(x, upper)
        for x in nodes:  # R6
            if u[x] is not None:
                at_most(x, u[x] - lo[mirror[x]])
        for x, y, z in splits:  # R2
            if hi[y] is not None and hi[z] is not None:
                at_most(x, hi[y] + hi[z])
            if hi[mirror[z]] is not None:
                at_least(x, lo[y] - hi[mirror[z]])
                if hi[x] is not None:
                    at_most(y, hi[x] + hi[mirror[z]])
            if hi[z] is not None:
                at_least(y, lo[x] - hi[z])
        if any(hi[x] is not None and lo[x] > hi[x] for x in nodes):
            return None
        if not changed:
            return {x: (lo[x], hi[x]) for x in nodes}


def test_engine_equals_the_naive_fixed_point():
    """On relation-free universes the engine's (lower, upper) at every
    node, the query's among them, or its LedgerInconsistentError, is
    exactly the naive least fixed point's, at q = 2, 3 and 5 on extended
    model ledgers, with 1-4 summands and repeats.

    A sound but weaker engine passes the model test and fails this one.
    In a scratch copy, ``LedgerBounds.bounds`` read R7 only where
    sigma^(q) <= 0 (``ell = None if sig is None or sig > 0 else ...``),
    which drops sound instances only; it passed every other tier-1 test
    and fails this one.  So does the unsound R2 mutant of
    ``test_model_lies_in_every_interval``: its guard holds here with
    hi(a) > 0, where it sets a bound the rules do not give."""
    rng = random.Random(1)
    inconsistent = exact = 0
    for _ in range(80):
        L, matrices = _model_ledger(rng, extend=True)
        names = sorted(matrices)
        for q in (2, 3, 5):
            for n in (1, 2, 3, 4):
                key = parse_expression(" + ".join(
                    rng.choice(("", "-")) + rng.choice(names) for _ in range(n)))
                want = _naive_fixed_point(L, key, q)
                engine = InferenceEngine(L, q)
                try:
                    iv = engine.run(key)
                except LedgerInconsistentError:
                    assert want is None, (key, q)
                    inconsistent += 1
                    continue
                assert (iv.lower, iv.upper) == want[engine.nodes[0]], (key, q)
                assert {x: (Fraction(lo, q - 1), None if hi is None else Fraction(hi, q - 1))
                        for x, lo, hi in zip(engine.nodes, engine._lo, engine._hi)} == want
                exact += iv.exact
    assert inconsistent > 0 and exact > 0
