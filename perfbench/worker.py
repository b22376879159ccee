"""The measuring process of one benchmark run.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE
    python3 perfbench/worker.py --workload W --setup-only

It imports the program from ``src/``, makes the workload ready, then runs
whole rounds of operations, one at a time from this one caller (a closed
loop), until the timed phase has lasted ``--seconds`` and holds at least
``MIN_OPS`` operations.  It records each operation's output and wall time in
``--out``; ``run.py`` checks the outputs in another process, so the numpy
oracle never counts towards this process's peak memory.

With ``--setup-only`` it makes the workload ready, prints ``ready`` and
exits; ``run.py`` times that from spawn to the ``ready`` line to get setup_s.

With ``--trace 1`` the set-up and every round run under ``tracer``.  Round 0
is also run untraced, once before the traced rounds to warm up and once
after them; the traced copy's wall time against the second is the tracing
overhead.  cli-cold runs its script in-process through ``cli.main`` here,
clearing the signature cache before each command as a fresh process would
start without it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

# the 90th percentile needs at least ten operations beyond it
MIN_OPS = 100
CLI_ENV = dict(os.environ, PYTHONPATH="src")


def import_program(workload: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    if workload == "sig-sweep":
        import knotconc.signatures  # noqa: F401
    else:
        import knotconc.cli  # noqa: F401  (imports every layer)


def prepare(workload: str):
    """Everything before the first timed operation, after the imports."""
    if workload == "sig-sweep":
        return None
    from knotconc.infer import infer_theta
    from knotconc.knots import parse_expression
    from knotconc.ledger import load_seed_ledger
    ledger = load_seed_ledger()
    if workload == "engine-sums":
        # fills the process-wide signature cache, as any long-lived caller's
        # first queries would
        for q in corpus.ENGINE_SPREAD:
            for name in ledger.atoms:
                infer_theta(ledger, parse_expression(name), q=q)
    return ledger


def _frac(x):
    return None if x is None else str(Fraction(x))


class Workload:
    def __init__(self, name: str, seed: int, ledger, in_process_cli: bool):
        # the operations look functions up on these modules at call time, so
        # the tracer's wrappers see them
        from knotconc import cli, infer, knots, ledger as ledger_mod, seifert, signatures
        self.cli, self.infer, self.knots, self.ledger_mod = cli, infer, knots, ledger_mod
        self.seifert, self.signatures = seifert, signatures
        self.name, self.seed, self.ledger = name, seed, ledger
        self.in_process_cli = in_process_cli
        if name == "cli-cold":
            self.script = corpus.cli_script(seed)

    def round(self, rnd: int) -> list:
        """The inputs of round ``rnd``, made before its clock starts."""
        if self.name == "sig-sweep":
            return [(self.seifert.SeifertMatrix.from_rows(op["rows"]), op["q"])
                    for op in corpus.sig_round(self.seed, rnd)]
        if self.name == "engine-sums":
            return [(op["expr"], op["q"])
                    for op in corpus.engine_round(self.seed, rnd, list(self.ledger.atoms))]
        return self.script

    def op(self, item):
        if self.name == "sig-sweep":
            return self.signatures.sigma_q(*item)
        if self.name == "engine-sums":
            iv = self.infer.infer_theta(self.ledger, self.knots.parse_expression(item[0]),
                                        q=item[1])
            return [_frac(iv.lower), _frac(iv.upper)]
        if self.in_process_cli:
            # a fresh process starts with an empty signature cache
            self.ledger_mod._sigma_q_of_matrix.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(item))
            return [rc, out.getvalue()]
        p = subprocess.run([sys.executable, "-m", "knotconc.cli", *item], cwd=ROOT,
                           env=CLI_ENV, capture_output=True, text=True, timeout=60)
        return [p.returncode, p.stdout]


def run_round(work: Workload, rnd: int, op=None) -> tuple[list, float]:
    op = op or work.op
    items = work.round(rnd)
    out = []
    start = perf_counter()
    for i, item in enumerate(items):
        t0 = perf_counter()
        try:
            result = op(item)
        except Exception as e:  # a failed operation is data, not a crash
            result = {"error": f"{type(e).__name__}: {e}"}
        out.append([rnd, i, result, (perf_counter() - t0) * 1e3])
    return out, perf_counter() - start


def timed_rounds(work, seconds, op=None, min_ops=MIN_OPS):
    ops, round_s, rnd = [], [], 0
    while sum(round_s) < seconds or len(ops) < min_ops:
        out, dt = run_round(work, rnd, op)
        ops += out
        round_s.append(dt)
        rnd += 1
    return ops, round_s


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("sig-sweep", "engine-sums", "cli-cold"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    w = args.workload

    if args.setup_only:
        import_program(w)
        prepare(w)
        print("ready", flush=True)
        return 0

    report = {"workload": w, "seed": args.seed}
    import_program(w)
    if not args.trace:
        work = Workload(w, args.seed, prepare(w), in_process_cli=False)
        ops, round_s = timed_rounds(work, args.seconds)
        who = resource.RUSAGE_CHILDREN if w == "cli-cold" else resource.RUSAGE_SELF
        report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    else:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        work = Workload(w, args.seed, prepare(w), in_process_cli=True)
        setup = tr.take()
        tr.uninstall()
        # round 0 three times: untimed warm-up, traced, and untraced as the
        # reference for the overhead, so neither timed copy runs cold
        warm_ops, _ = run_round(work, 0)
        tr.install()
        traced_op = tr.span_wrapper("bench.op", work.op)
        ops, round_s = timed_rounds(work, args.seconds, op=traced_op, min_ops=0)
        tr.uninstall()
        rounds = tr.take()
        plain_ops, plain_s = run_round(work, 0)
        metrics = tracing.per_layer_metrics(setup, rounds, len(round_s))
        metrics["trace.overhead_pct"] = ((round_s[0] / plain_s - 1) * 100, "%")
        checks = tracing.sign_calls_per_sigma_q(rounds[0], rounds[1])
        report["sign_check"] = [sum(a == b for a, b in checks), len(checks)]
        report["per_layer"] = metrics
        ops = warm_ops + ops + plain_ops
        trace_path = Path(args.out).with_name(f"trace-{w}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"setup": _dump(setup), "rounds": _dump(rounds)}, fh)
    report["ops"] = ops
    report["round_seconds"] = round_s
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


def _dump(recorded):
    spans, agg, updates = recorded
    return {"spans": spans, "bound_updates": updates,
            "aggregates": [[name, parent, *v] for (name, parent), v in agg.items()]}


if __name__ == "__main__":
    sys.exit(main())
