"""Seeded inputs for the three workloads.

Pure standard library: the measuring process imports this module, so it
must not pull in numpy (that would inflate ``peak_rss_mb``) or anything from
``knotconc`` (the inputs are made apart from the program under test).

Every round of a workload has the same make-up (the same genus x q cells,
summand counts or commands); the seed and the round number only choose the
entries, atoms and signs inside that make-up.  So the share of each kind of
operation is identical in every run, whatever the seed or run length.
"""

from __future__ import annotations

import random

# -- sig-sweep ------------------------------------------------------------------

# (genus, q) -> operations in one round: every genus 1-10 at q = 2, 3, 5, 7
# and genus 2, 6, 10 at q = 11 (the per-layer cells are g2, g6, g10 at
# q = 2, 5, 11), plus three blocks.  A percentile that falls between cells of
# different cost jumps from seed to seed, so the median is put in the middle
# of 40 operations of one cell (q = 3, genus 4) and the 90th percentile in
# the middle of 11 of another (q = 7, genus 6); 36 cheap q = 2 operations
# (genus 1-6) below the median block balance the dear ones above it.
SIG_CELLS = {(g, q): 1 for q in (2, 3, 5, 7) for g in range(1, 11)}
SIG_CELLS.update({(g, 2): 6 for g in range(1, 7)})
SIG_CELLS.update({(4, 3): 40, (6, 7): 11, (2, 11): 1, (6, 11): 1, (10, 11): 1})
# entry ranges: "std" as in the test suite's random_seifert, "big" beyond +-3
# (coefficient growth), "zero" with a zero diagonal (off-diagonal pivot branch)
ENTRY_RANGE = {"std": 3, "zero": 3, "big": 9}


def _matrix_kind(genus: int) -> str:
    return {3: "zero", 8: "zero", 5: "big", 9: "big"}.get(genus, "std")


def seifert_rows(rng: random.Random, genus: int, kind: str) -> list[list[int]]:
    """Random integer Seifert matrix whose V - V^T is the standard
    symplectic form, so det(V - V^T) = 1 and every draw presents a knot."""
    bound = ENTRY_RANGE[kind]
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0 if kind == "zero" else rng.randint(-bound, bound)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 and i % 2 == 0:
                a = rng.randint(-bound + 1, bound)
                rows[i][j], rows[j][i] = a, a - 1
            else:
                a = rng.randint(-bound, bound)
                rows[i][j] = rows[j][i] = a
    return rows


def sig_round(seed: int, rnd: int) -> list[dict]:
    """One round of sig-sweep: 122 sigma_q operations on fresh matrices."""
    rng = random.Random(seed * 1_000_003 + rnd)
    ops = []
    for (g, q), count in SIG_CELLS.items():
        kind = _matrix_kind(g)
        ops += [{"genus": g, "q": q, "kind": kind, "rows": seifert_rows(rng, g, kind)}
                for _ in range(count)]
    rng.shuffle(ops)
    return ops


# -- engine-sums ------------------------------------------------------------------

# Atoms of the seed ledger's crossing-change relations (slice atoms aside).
# One of them in a sum adds relation partners to the engine's universe and
# makes a small query 1.5-5x dearer, so a sum holds either exactly one
# ("relation") or none ("plain"); the other atoms of a sum are distinct.
RELATION_ATOMS = ("T(2,3)", "T(2,5)", "Wh(T(2,3))", "Wh(T(2,5))", "9_42")
SLICE_ATOMS = ("unknot", "9_46")
# q -> (summands, kind) -> operations in one round.  As for sig-sweep, the
# median lies in one block of like operations (40 plain 3-summand sums at
# q = 2) and the 90th percentile in another (8 plain 5-summand sums at
# q = 2).  A 3-summand query takes two engine passes (~10 ms) or three
# (~15 ms) depending on its atoms, so the median sits about 70% of the way
# up its block, inside the three-pass mode, rather than in the middle.
ENGINE_SPREAD = {
    2: {(1, "plain"): 4, (1, "relation"): 2, (2, "plain"): 4, (2, "relation"): 2,
        (3, "plain"): 40, (3, "relation"): 2, (4, "plain"): 6, (4, "relation"): 4,
        (5, "plain"): 8, (6, "plain"): 2, (7, "plain"): 1, (8, "plain"): 1},
    3: {(1, "plain"): 2, (1, "relation"): 2, (2, "plain"): 2, (2, "relation"): 2,
        (3, "plain"): 4, (3, "relation"): 2, (4, "plain"): 4, (4, "relation"): 2,
        (5, "plain"): 2, (6, "plain"): 2, (7, "plain"): 1, (8, "plain"): 1},
}
RULE_SEED_MAX_SUMMANDS = 2


def engine_round(seed: int, rnd: int, atoms: list[str]) -> list[dict]:
    """One round of engine-sums: 102 infer_theta operations.

    ``atoms`` is the seed ledger's atom list.  At q = 2 the first plain sum
    of every size is a sum of positive T(2,k) atoms, whose theta has the
    closed form sum (k-1)/2.
    """
    rng = random.Random(seed * 1_000_033 + rnd)
    pool = sorted(a for a in atoms if a not in RELATION_ATOMS and a not in SLICE_ATOMS)
    ops = []
    for q, spread in ENGINE_SPREAD.items():
        for (n, kind), count in spread.items():
            for slot in range(count):
                if kind == "plain" and q == 2 and slot == 0:
                    ops.append({"q": q, "n": n, "kind": "positive-t2",
                                "expr": " + ".join(rng.sample([a for a in pool if a.startswith("T(2,")], n))})
                    continue
                summands = rng.sample(pool, n if kind == "plain" else n - 1)
                if kind == "relation":
                    summands.insert(rng.randrange(n), rng.choice(RELATION_ATOMS))
                signed = [("-" if rng.random() < 0.5 else "") + a for a in summands]
                ops.append({"q": q, "n": n, "kind": kind, "expr": " + ".join(signed)})
    rng.shuffle(ops)
    return ops


# -- cli-cold ------------------------------------------------------------------

# Fixed script; the seed only fills the inline matrices and the order.  A
# round is 20 commands and a run at least five rounds, so the 90th percentile
# (the 11th slowest of 100) lies in the middle of the ten runs of
# `reproduce --section 5`, which the script holds twice, below the five runs
# of the full `reproduce`.
_CLI_FIXED = [
    ["sig", "--knot", "T(2,3)", "--q", "2", "--json"],
    ["sig", "--knot", "T(2,13)", "--q", "3", "--json"],
    ["sig", "--knot", "T(2,31)", "--q", "5", "--json"],
    ["theta", "--expr", "T(2,3) + T(2,7) + T(2,11)", "--q", "2"],
    ["theta", "--expr", "-9_42 + Wh(T(2,3))", "--q", "2"],
    ["theta", "--expr", "T(2,11) + -T(3,5)", "--q", "3", "--quiet"],
    ["theta-m", "--expr", "T(3,7)", "--m", "4", "--q", "2"],
    ["theta-m", "--expr", "T(2,11)", "--m", "2", "--q", "3"],
    ["infer", "--expr", "T(2,5) + -Wh(T(2,3))", "--q", "2"],
    ["infer", "--expr", "T(2,7) + -T(2,5)", "--q", "3"],
    ["genus-bound", "--expr", "T(3,7)", "--rank", "3", "--class", "2,0,0", "--compare"],
    ["genus-bound", "--expr", "T(2,7)", "--rank", "1", "--class", "3", "--q", "3"],
    ["branch-cover", "--q", "3", "--b2x", "0", "--sigmax", "0", "--genus", "1",
     "--sigq-out", "-8", "--sigq-in", "-8"],
    ["branch-cover", "--q", "5", "--b2x", "2", "--sigmax", "0", "--genus", "2",
     "--self-int", "5", "--sigq-out", "-16", "--sigq-in", "-8"],
    ["reproduce", "--section", "5"],
    ["reproduce", "--section", "5"],
    ["reproduce"],
]
# (genus, q) of the seeded inline matrices given to `sig --matrix`
_CLI_MATRICES = ((2, 2), (3, 5), (2, 7))


def cli_script(seed: int) -> list[list[str]]:
    """The cli-cold round: 20 commands.  Every round of a run repeats it."""
    rng = random.Random(seed * 1_000_037)
    script = [list(c) for c in _CLI_FIXED]
    for g, q in _CLI_MATRICES:
        rows = seifert_rows(rng, g, "std")
        text = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"
        script.append(["sig", "--matrix", text, "--q", str(q), "--json"])
    rng.shuffle(script)
    return script


def arg_value(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default
