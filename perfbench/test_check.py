"""The checker counts a corrupted output as a failed operation.

    python3 -m pytest -q perfbench/test_check.py

For each workload a few real outputs of the program are recorded the way
the measuring process records them, checked clean, then corrupted once: a
flipped sigma^(q), a theta interval moved by one lattice step, and one
changed line of CLI stdout.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import check
import corpus
import worker

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def record(workload: str, picks: list[tuple[int, int]], ledger=None) -> list[list]:
    """Outputs of the given (round, index) operations, as a run records them."""
    worker.import_program(workload)
    work = worker.Workload(workload, SEED, ledger, in_process_cli=True)
    rounds = {}
    ops = []
    for rnd, i in picks:
        if rnd not in rounds:
            rounds[rnd] = work.round(rnd)
        ops.append([rnd, i, work.op(rounds[rnd][i]), 0.0])
    return ops


@pytest.fixture(scope="module")
def ledger():
    worker.import_program("engine-sums")
    from knotconc.ledger import load_seed_ledger
    return load_seed_ledger()


def test_flipped_sigma_q_fails():
    cheap = [(0, i) for i, op in enumerate(corpus.sig_round(SEED, 0))
             if op["genus"] <= 3 and op["q"] <= 5]
    ops = record("sig-sweep", cheap)
    clean = check.check_sig(ops, SEED)
    assert (clean.attempted, clean.failed) == (len(ops), 0)
    k = next(n for n, op in enumerate(ops) if op[2] != 0)
    ops[k][2] = -ops[k][2]
    assert check.check_sig(ops, SEED).failed == 1


@pytest.mark.parametrize("step", [1, -1])
def test_interval_moved_by_one_lattice_step_fails(ledger, step):
    data = check.SeedData(ROOT)
    ops_1 = corpus.engine_round(SEED, 1, data.atoms)
    picks = [(1, i) for i, op in enumerate(ops_1)
             if op["n"] <= 2 or (op["kind"] == "positive-t2" and op["n"] <= 3)]
    ops = record("engine-sums", picks, ledger)
    reference = check.EngineReference(ROOT)
    clean = check.check_engine(ops, SEED, data, reference)
    assert (clean.attempted, clean.failed) == (len(ops), 0)
    k = next(n for n, (_, i, _, _) in enumerate(ops) if ops_1[i]["kind"] == "positive-t2")
    lattice = Fraction(1, ops_1[ops[k][1]]["q"] - 1)
    lower, upper = (Fraction(x) + step * lattice for x in ops[k][2])
    ops[k][2] = [str(lower), str(upper)]
    assert check.check_engine(ops, SEED, data, reference).failed == 1


# one invocation, checked against theta's closed form; and a second
# invocation, checked against the first
CLOSED_FORM_THETA = ["theta", "--expr", "T(2,3) + T(2,7) + T(2,11)", "--q", "2"]
SECTION_5 = ["reproduce", "--section", "5"]


@pytest.mark.parametrize("argv, rounds, old, new", [
    (CLOSED_FORM_THETA, 1, "theta = 9\n", "theta = 8\n"),
    (SECTION_5, 2, "= 6n-2 and", "= 6n-1 and"),
])
def test_changed_cli_stdout_line_fails(argv, rounds, old, new):
    i = corpus.cli_script(SEED).index(argv)
    ops = record("cli-cold", [(r, i) for r in range(rounds)])
    data = check.SeedData(ROOT)
    clean = check.check_cli(ops, SEED, data)
    assert (clean.attempted, clean.failed) == (rounds, 0)
    rc, stdout = ops[-1][2]
    assert old in stdout
    ops[-1][2] = [rc, stdout.replace(old, new, 1)]
    assert check.check_cli(ops, SEED, data).failed == 1
