"""knotconc benchmark: one run of one workload.

    python3 perfbench/run.py --workload sig-sweep|engine-sums|cli-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Diagnostics go to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402

WORKLOADS = ("sig-sweep", "engine-sums", "cli-cold")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def spawn_to_ready_s(root: Path, workload: str) -> float:
    """Wall time from spawning a fresh interpreter to the workload being
    ready for its first timed operation."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                           "--setup-only"], cwd=root, stdout=subprocess.PIPE) as p:
        line = p.stdout.readline()
        elapsed = perf_counter() - t0
        p.wait(timeout=60)
    if line.strip() != b"ready":
        raise RuntimeError(f"set-up of {workload} did not finish (exit {p.returncode})")
    return elapsed


def spawn_to_exit_ms(root: Path, code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH="src"))
    return (perf_counter() - t0) * 1e3


def verdict_for(workload: str, seed: int, ops, root: Path) -> check.Verdict:
    data = check.SeedData(root)
    if workload == "sig-sweep":
        return check.check_sig(ops, seed)
    if workload == "engine-sums":
        return check.check_engine(ops, seed, data, check.EngineReference(root))
    return check.check_cli(ops, seed, data)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "knotconc" / "__init__.py").is_file():
        print(f"run.py: no knotconc sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json"

    def measure() -> None:
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", str(result_path)],
                       cwd=root, check=True, timeout=WORKER_TIMEOUT_S)

    if args.trace:
        probe_ms = {code: statistics.median(spawn_to_exit_ms(root, code)
                                            for _ in range(SETUP_SAMPLES))
                    for code in ("pass", "import knotconc.cli")}
        measure()
    else:
        # set-up samples before and after the timed phase, so that one slow
        # spell of the machine does not take all of them
        setup = [spawn_to_ready_s(root, args.workload) for _ in range(SETUP_SAMPLES // 2)]
        measure()
        setup += [spawn_to_ready_s(root, args.workload)
                  for _ in range(SETUP_SAMPLES - len(setup))]
    report = json.loads(result_path.read_text())
    ops = report["ops"]
    verdict = verdict_for(args.workload, args.seed, ops, root)
    for reason in verdict.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    if verdict.oracle_total:
        print(f"eigenvalue oracle certified {verdict.oracle_certified} of "
              f"{verdict.oracle_total} signatures", file=sys.stderr)

    if args.trace:
        out = {name: {"value": v, "unit": unit} for name, (v, unit) in report["per_layer"].items()}
        out["cli.interpreter_ms"] = {"value": probe_ms["pass"], "unit": "ms"}
        out["cli.import_ms"] = {"value": probe_ms["import knotconc.cli"] - probe_ms["pass"],
                                "unit": "ms"}
        exact, total = report["sign_check"]
        print(f"sign calls = n(q-1) on {exact} of {total} sigma_q calls", file=sys.stderr)
    else:
        ms = [op[3] for op in ops]
        busy_s = sum(report["round_seconds"])
        out = {
            "throughput_ops_s": {"value": (len(ops) - verdict.failed) / busy_s, "unit": "ops/s"},
            "latency_p50_ms": {"value": percentile(ms, 0.5), "unit": "ms"},
            "latency_p90_ms": {"value": percentile(ms, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
        print(f"{len(ops)} operations in {len(report['round_seconds'])} rounds, "
              f"{busy_s:.2f} s timed", file=sys.stderr)
    print(json.dumps({"correct": verdict.failed == 0, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
