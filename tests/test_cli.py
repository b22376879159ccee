import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from knotconc.cli import MAX_Q, REPRODUCE_FAILURE, main
from knotconc.ledger import seed_ledger_text

REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sig_knot(capsys):
    code, out, _ = run(capsys, "sig", "--knot", "T(2,3)", "--q", "3")
    assert code == 0
    assert "j = 1: -2" in out and "j = 2: -2" in out and "sigma^(3) = -4" in out


def test_sig_matrix_json(capsys):
    code, out, _ = run(capsys, "sig", "--matrix", "[[-1,1],[0,-1]]", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["sigma_q"] == -2 and obj["per_j"] == {"1": -2}


def test_sig_unknot_all_zero(capsys):
    code, out, _ = run(capsys, "sig", "--knot", "unknot", "--q", "5")
    assert code == 0
    assert out.count(": 0") == 4 and "sigma^(5) = 0" in out


def test_sig_requires_matrix_for_unmatrixed_atom(capsys):
    code, _, err = run(capsys, "sig", "--knot", "T(3,7)")
    assert code == 2 and "Seifert matrix" in err


def test_theta_command(capsys):
    code, out, _ = run(capsys, "theta", "--expr", "T(3,7)", "--quiet")
    assert code == 0 and "theta = 6" in out
    code, out, _ = run(capsys, "theta", "--expr", "unknot", "--quiet")
    assert code == 0 and "theta = 0" in out


def test_theta_json_trace(capsys):
    code, out, _ = run(capsys, "theta", "--expr", "-(9_42) + Wh(T(2,3))", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["exact"] is True
    assert obj["result"]["lower"] == {"numerator": 2, "denominator": 1}
    assert any("R5" in line for line in obj["result"]["justification"])
    assert obj["result"]["provenance"]


def test_theta_interval_output(capsys):
    code, out, _ = run(capsys, "theta", "--expr", "-T(2,5) + Wh(T(2,3))", "--quiet")
    assert code == 0 and "theta in [0, 1]" in out


def test_theta_m_command(capsys):
    code, out, _ = run(capsys, "theta-m", "--expr", "T(3,7)", "--m", "4", "--quiet")
    assert code == 0 and "theta = 4" in out


def test_genus_bound_command(capsys):
    code, out, _ = run(capsys, "genus-bound", "--expr", "T(3,7)",
                       "--rank", "3", "--class", "0,0,0")
    assert code == 0 and "g >= 6" in out


def test_genus_bound_compare(capsys):
    code, out, _ = run(capsys, "genus-bound", "--expr", "T(3,7)",
                       "--rank", "3", "--class", "2,0,0", "--compare")
    assert code == 0
    assert "g >= 5" in out
    assert "theta: 5   tau: 5   sig1: 3   sig2: -6" in out


def test_genus_bound_compare_needs_one_torus_knot(capsys):
    # the bound itself holds for the sum; only the comparison table is refused
    code, out, err = run(capsys, "genus-bound", "--expr", "T(3,7) + T(2,3)",
                         "--rank", "2", "--class", "2,2", "--compare")
    assert code == 1 and out == ""
    assert err == ("usage error: --compare needs a knot of the form T(3,6n+1), "
                   "got 'T(3,7) + T(2,3)'\n")


@pytest.mark.parametrize("text", ["(T(3,7))", "-(-T(3,7))", " T(3,7) "])
def test_genus_bound_compare_reads_the_parsed_knot(text, capsys):
    # any spelling of the one knot T(3,7) gets the comparison T(3,7) gets
    argv = ["--rank", "3", "--class", "2,0,0", "--compare"]
    want = run(capsys, "genus-bound", "--expr", "T(3,7)", *argv)
    assert want[0] == 0 and "theta: 5   tau: 5   sig1: 3   sig2: -6" in want[1]
    assert run(capsys, "genus-bound", "--expr", text, *argv) == want


@pytest.mark.parametrize("text", ["-T(3,7)", "T(3,5)", "T(3,7) + T(2,3)", "T(3,7) + -T(3,7)"])
def test_genus_bound_compare_refuses_other_knots(text, capsys):
    code, out, err = run(capsys, "genus-bound", "--expr", text,
                         "--rank", "3", "--class", "2,0,0", "--compare")
    assert (code, out) == (1, "")
    assert err == f"usage error: --compare needs a knot of the form T(3,6n+1), got {text!r}\n"


def test_genus_bound_q3(capsys):
    code, out, _ = run(capsys, "genus-bound", "--expr", "T(2,7)", "--q", "3",
                       "--rank", "1", "--class", "0")
    assert code == 0 and "g >= 3" in out


def test_genus_bound_hypothesis_error(capsys):
    code, _, err = run(capsys, "genus-bound", "--expr", "T(3,7)",
                       "--rank", "2", "--class", "1,0")
    assert code == 2 and "not divisible" in err


def test_infer_command(capsys):
    code, out, _ = run(capsys, "infer", "--expr", "9_42")
    assert code == 0
    assert "theta = 0" in out and "mirror: theta = 1" in out
    assert "ledger facts used:" in out


def test_branch_cover_command(capsys):
    code, out, _ = run(capsys, "branch-cover", "--q", "3", "--b2x", "0",
                       "--sigmax", "0", "--genus", "1", "--sigq-out", "-8",
                       "--sigq-in", "-8")
    assert code == 0 and "b2      = 4" in out and "b_plus  = 2" in out


def test_branch_cover_inconsistent(capsys):
    code, _, err = run(capsys, "branch-cover", "--q", "3", "--b2x", "0",
                       "--sigmax", "0", "--genus", "1", "--self-int", "1",
                       "--sigq-out", "0")
    assert code == 2 and "inconsistent" in err


def test_usage_errors_exit_1(capsys):
    for argv in (["theta", "--expr", "T(3,7"],
                 ["theta", "--expr", "T(3,7)", "--q", "6"],
                 ["sig", "--knot", "a", "--matrix", "[[0]]"],
                 ["genus-bound", "--expr", "T(3,7)", "--rank", "2", "--class", "0"],
                 ["no-such-command"]):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv


def test_unknown_atom_exit_2(capsys):
    code, _, err = run(capsys, "theta", "--expr", "mystery")
    assert code == 2 and "unknown knot atom" in err


README_RELATION_QUERY = ("T(2,3) + -T(2,5) + T(3,7) + -9_42 + Wh(T(2,3)) + -T(2,7) + "
                         "T(2,11) + -8_19 + T(3,5) + -T(2,13)")


@pytest.mark.parametrize("argv, code, line", [
    # the README "Limits" query: relation partners push the universe past
    # the limit while it is built, after the size check let it through
    (["infer", "--expr", README_RELATION_QUERY], 2,
     "error: inference universe grew past 4000 nodes"),
    (["theta", "--expr", "(T(2,3)"], 1, "usage error: expected ')' in '(T(2,3)'"),
    (["sig", "--knot", "NOPE"], 2, "error: unknown knot atom 'NOPE'"),
    # a mirror image is never an atom, however the option is spelled
    (["sig", "--knot", "-T(2,3)"], 2, "error: unknown knot atom '-T(2,3)'"),
    (["sig", "--knot=-T(2,3)"], 2, "error: unknown knot atom '-T(2,3)'"),
    (["genus-bound", "--expr", "T(3,7)", "--rank", "3", "--class", "3,0,0", "--q", "3",
      "--compare"], 1, "usage error: --compare needs an even class a = 2x"),
    # a command takes only the shared flags it reads
    (["reproduce", "--q", "3"], 1, "usage error: unrecognized arguments: --q 3"),
    (["branch-cover", "--ledger", "x", "--q", "3", "--b2x", "0", "--sigmax", "0", "--genus",
      "1", "--sigq-out", "-8", "--sigq-in", "-8"], 1,
     "usage error: unrecognized arguments: --ledger x"),
    # --q is checked before the command runs, whichever command it is
    (["branch-cover", "--q", "4", "--b2x", "0", "--sigmax", "0", "--genus", "1",
      "--sigq-out", "0"], 1, "usage error: --q must be prime, got 4"),
    (["reproduce", "--section", "9", "--list"], 1, "usage error: no checks in section 9"),
], ids=["universe-grew-past-limit", "unclosed-paren", "sig-unknown-atom",
        "sig-mirror-atom-spaced", "sig-mirror-atom-joined", "compare-odd-class",
        "reproduce-no-q", "branch-cover-no-ledger", "branch-cover-q-not-prime",
        "list-empty-section"])
def test_error_exits_with_one_line(argv, code, line, capsys):
    assert run(capsys, *argv) == (code, "", line + "\n")


def test_reproduce_list_and_sections(capsys):
    code, out, _ = run(capsys, "reproduce", "--list")
    assert code == 0 and "theta-torus-pipeline" in out
    assert len(out.splitlines()) == 31
    code, out, _ = run(capsys, "reproduce", "--section", "5", "--list")
    assert code == 0 and "theta-torus-pipeline" in out
    assert len(out.splitlines()) == 12
    assert all(line.startswith("[5] ") for line in out.splitlines())
    code, out, _ = run(capsys, "reproduce", "--section", "4")
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run(capsys, "reproduce", "--section", "6")
    assert code == 0


def test_reproduce_full_reports_known_failures(capsys):
    # the published T(2,5) + -Wh(T(2,3)) values contradict the theta axioms,
    # so the full run reports exactly those two failures and exits 3
    code, out, _ = run(capsys, "reproduce")
    assert code == 3
    assert out.count("FAIL") == 2
    failed = [line.split()[2].rstrip(":") for line in out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["theta-t25-whitehead", "theta-t25-whitehead-mirror"]
    assert "29/31 checks passed" in out


def test_reproduce_partial_ledger_names_missing_atoms(tmp_path, capsys):
    # a ledger of only the seed's T(2,k) atoms, their facts and the
    # relations between them: every check that needs another atom fails
    # and names it
    seed = json.loads(seed_ledger_text())
    keep = {a["name"] for a in seed["atoms"] if a["name"].startswith("T(2,")}
    path = tmp_path / "t2k.json"
    path.write_text(json.dumps({
        "atoms": [a for a in seed["atoms"] if a["name"] in keep],
        "facts": [f for f in seed["facts"] if f["knot"].lstrip("-") in keep],
        "relations": [r for r in seed["relations"] if {r["plus"], r["minus"]} <= keep],
    }))
    code, out, _ = run(capsys, "reproduce", "--ledger", str(path))
    lines = out.splitlines()
    assert code == 3 and lines[-1] == "17/31 checks passed"
    got = [lines[i + 1] for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert len(got) == 14
    for line in got:
        missing = re.fullmatch(r"\s+got:\s+error: unknown knot atom '(.+)'", line)
        assert missing and missing[1] not in keep, line


# "$ knotconc <argv>" lines, each followed by that command's full stdout
PINNED_STDOUT = [
    (shlex.split(block.partition("\n")[0]), block.partition("\n")[2])
    for block in re.split(r"^\$ knotconc ", (REPO / "tests" / "data" / "verbose_stdout.txt")
                          .read_text(encoding="utf-8"), flags=re.M)[1:]
]


@pytest.mark.parametrize("argv, expected", PINNED_STDOUT,
                         ids=[shlex.join(argv) for argv, _ in PINNED_STDOUT])
def test_verbose_stdout_pinned(argv, expected, capsys):
    # derivation and provenance lines, byte for byte: R1 and R4-R8
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_closed_form_cites_only_the_flag_it_read(tmp_path, capsys):
    # R4 and R8 read the quasi-alternating flag at q = 2 and the L-space
    # flag otherwise; the flag they did not read is not cited
    path = tmp_path / "flags.json"
    path.write_text(json.dumps(_ledger(facts=[
        _fact(kind="quasi_alternating", value=True, provenance="qa"),
        _fact(kind="l_space", q=2, value=True, provenance="lsp2"),
        _fact(kind="l_space", q=3, value=True, provenance="lsp3"),
    ])))
    code, out, _ = run(capsys, "theta", "--ledger", str(path), "--expr", "K", "--q", "3")
    assert code == 0 and "theta = 1" in out and "R4 L-space closed form" in out
    assert out.split("ledger facts used:\n")[1] == "  l_space(K, q=3): lsp3\n"
    code, out, _ = run(capsys, "theta", "--ledger", str(path), "--expr", "K", "--q", "2")
    assert code == 0 and "theta = 1" in out and "R4 quasi-alternating closed form" in out
    assert out.split("ledger facts used:\n")[1] == "  quasi_alternating(K): qa\n"


def test_dash_leading_values(capsys):
    # a value after --expr or --class may start with "-"
    code, out, _ = run(capsys, "infer", "--expr", "-9_42")
    assert code == 0 and out.splitlines()[1] == "theta = 1"
    code, out, _ = run(capsys, "genus-bound", "--expr", "T(3,7)",
                       "--rank", "3", "--class", "-2,0,0")
    assert code == 0 and "g >= 5" in out


def test_output_deterministic(capsys):
    _, out1, _ = run(capsys, "infer", "--expr", "-(9_42) + Wh(T(2,3))")
    _, out2, _ = run(capsys, "infer", "--expr", "-(9_42) + Wh(T(2,3))")
    assert out1 == out2


def test_custom_ledger_flag(tmp_path, capsys):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps({
        "atoms": [{"name": "K", "seifert": [[-1, 1], [0, -1]]}],
        "facts": [{"knot": "K", "kind": "g4", "value": 1, "provenance": "t"}],
        "relations": [],
    }))
    code, out, _ = run(capsys, "theta", "--expr", "K", "--ledger", str(path), "--quiet")
    assert code == 0 and "theta = 1" in out  # sigma from the matrix, g4 fact


def test_missing_ledger_file_exit_2(capsys):
    code, _, err = run(capsys, "theta", "--expr", "unknot",
                       "--ledger", "/nonexistent/ledger.json")
    assert code == 2 and "ledger.json" in err


def test_bad_ledger_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "atoms": [{"name": "K"}],
        "facts": [{"knot": "K", "kind": "sigma", "value": 3, "provenance": "t"}],
        "relations": [],
    }))
    code, _, err = run(capsys, "theta", "--expr", "K", "--ledger", str(path))
    assert code == 2 and "sigma must be even" in err


def test_delta_seq_stable_above_half_sigma_exit_2(tmp_path, capsys):
    # sigma(-K) = 2, so the mirror's delta sequence must stabilize at -1; one
    # that stops at 3 is refused at load, not by each theta query that reads it
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(_ledger(facts=[_fact(
        knot="-K", kind="delta_seq", q=2, value={"values": [], "stable": 3})])))
    for args in (("theta", "--expr", "K"), ("theta-m", "--expr", "K", "--m", "5")):
        code, out, err = run(capsys, *args, "--ledger", str(path))
        assert code == 2 and out == ""
        assert err == ("error: delta_seq(-K, q=2): stabilizes at 3 != "
                       "-sigma^(2)/2 = -1\n"), args


def test_readme_cli_examples_run(capsys):
    # every "knotconc ..." line of the README's CLI block, run as written
    readme = (REPO / "README.md").read_text("utf-8")
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(examples) == 10 and all(argv[0] == "knotconc" for argv in examples)
    for _, *argv in examples:
        code, _, err = run(capsys, *argv)
        want = REPRODUCE_FAILURE if argv == ["reproduce"] else 0
        assert (code, err) == (want, ""), argv


def test_python_m_entry_point():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "knotconc", "sig", "--knot", "T(2,3)", "--q", "3"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sigma^(3) = -4" in proc.stdout.splitlines()


# 131 KB of derivation, more than a pipe holds, so the reader closes the pipe
# while the command still writes
SEVEN_SUMMANDS = "T(3,5) + -T(3,7) + T(3,11) + -T(3,13) + T(3,17) + -T(3,19) + T(3,23)"


def test_closed_stdout_keeps_the_exit_code_silently():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def run(argv, first_line):
        proc = subprocess.Popen([sys.executable, "-m", "knotconc", *argv], cwd=REPO,
                                env=env, text=True, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        if first_line is not None:
            assert proc.stdout.readline().startswith(first_line)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err

    # the reader stops after one line of 131 KB
    for _ in range(10):
        assert run(["theta", "--expr", SEVEN_SUMMANDS], "theta^(2)(") == (0, "")
    # the reader is gone before the first write: a failing reproduction
    # still exits 3
    for argv in (["reproduce", "--json"], ["reproduce"]):
        assert run(argv, None) == (REPRODUCE_FAILURE, "")


def test_cli_imports_only_the_standard_library():
    # the commands import their layers when they run, so importing
    # knotconc.cli alone loads few of them: import every module of the
    # package.  Modules a site hook loads at interpreter start are not the
    # package's, so only those that these imports add are checked.
    code = ("import importlib, pkgutil, sys; before = set(sys.modules); import knotconc; "
            "[importlib.import_module('knotconc.' + m.name) "
            " for m in pkgutil.iter_modules(knotconc.__path__)]; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    package = {f"knotconc.{path.stem}" for path in (REPO / "src" / "knotconc").glob("*.py")
               if path.stem != "__init__"}
    assert len(package) > 10 and package <= set(loaded)
    tops = {m.partition(".")[0] for m in loaded}
    assert "knotconc" in tops
    assert [m for m in tops if m != "knotconc" and m not in sys.stdlib_module_names] == []


# A command runs in a fresh process through cli.main; the result is its exit
# code, its stdout and stderr, and the package modules it loaded.
_FRESH_MAIN = (
    "import contextlib, io, json, sys\n"
    "from knotconc.cli import main\n"
    "out, err = io.StringIO(), io.StringIO()\n"
    "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "    try:\n"
    "        code = main(json.loads(sys.argv[1]))\n"
    "    except SystemExit as e:\n"
    "        code = e.code\n"
    "print(json.dumps([code, out.getvalue(), err.getvalue(),\n"
    "                  sorted(m[9:] for m in sys.modules if m.startswith('knotconc.'))]))\n"
)


def run_fresh(*argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, json.dumps(argv)], cwd=REPO,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, err, loaded = json.loads(proc.stdout)
    return code, out, err, set(loaded)


# twelve summands exceed the inference engine's universe limit
TWELVE_SUMMANDS = ("T(2,7) + T(2,11) + T(2,13) + T(2,17) + T(2,19) + T(2,23) + "
                   "T(3,5) + T(3,7) + T(3,11) + T(3,13) + T(3,17) + 8_19")
_ENGINE_ONLY = {"definite", "reproduce", "branched"}
_BRANCH_COVER = ["branch-cover", "--q", "3", "--b2x", "0", "--sigmax", "0", "--genus", "1"]


@pytest.mark.parametrize("argv, code, not_loaded", [
    (["sig", "--matrix", "[[-1,1],[0,-1]]", "--q", "3"], 0,
     {"ledger", "infer", "definite", "reproduce", "branched"}),
    (["sig", "--knot", "T(3,7)"], 2, {"infer", "definite", "reproduce", "branched"}),
    ([*_BRANCH_COVER, "--sigq-out", "-8", "--sigq-in", "-8"], 0, {"ledger", "infer"}),
    ([*_BRANCH_COVER, "--self-int", "1", "--sigq-out", "0"], 2, {"ledger", "infer"}),
    (["theta", "--expr", "T(2,11) + -T(3,5)", "--q", "3"], 0, _ENGINE_ONLY),
    (["theta", "--expr", TWELVE_SUMMANDS], 2, _ENGINE_ONLY),
    (["theta-m", "--expr", "T(3,7)", "--m", "4"], 0, _ENGINE_ONLY),
    (["theta-m", "--expr", "T(3,7)", "--m", "1", "--ledger", "no-such-ledger.json"], 2,
     _ENGINE_ONLY),
    (["infer", "--expr", "T(2,5) + -Wh(T(2,3))"], 0, _ENGINE_ONLY),
    (["genus-bound", "--expr", "T(3,7)", "--rank", "2", "--class", "1,0"], 2,
     {"reproduce", "branched"}),
], ids=["sig", "sig-no-matrix", "branch-cover", "cover-inconsistent", "theta",
        "theta-too-large", "theta-m", "theta-m-missing-ledger", "infer",
        "genus-bound-hypothesis"])
def test_each_command_loads_only_its_layers(argv, code, not_loaded):
    # a fresh process, so an error class comes from a layer the command
    # imports as it runs; every data error is still one line with exit 2
    got, _, err, loaded = run_fresh(*argv)
    assert got == code
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
    assert "cli" in loaded and loaded & not_loaded == set()


def test_help_states_the_universe_limit_without_loading_the_engine():
    from knotconc import infer, knots
    assert infer.MAX_NODES is knots.MAX_NODES == 4000
    code, out, _, loaded = run_fresh("theta", "--help")
    assert code == 0 and "more than 4000 nodes" in " ".join(out.split())
    assert loaded == {"cli", "cyclotomic", "knots"}


def test_data_errors_are_exactly_the_exit_2_classes():
    import knotconc
    for m in pkgutil.iter_modules(knotconc.__path__):
        importlib.import_module(f"knotconc.{m.name}")
    found, todo = set(), [knotconc.DataError]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(f"{cls.__module__}.{cls.__qualname__}")
            todo.append(cls)
    assert found == {
        "knotconc.ledger.LedgerError", "knotconc.infer.LedgerInconsistentError",
        "knotconc.definite.HypothesisError", "knotconc.sequences.InconsistentDataError",
        "knotconc.branched.CoverDataError", "knotconc.seifert.SeifertMatrixError",
        "knotconc.infer.EngineError",
    }


def test_signatures_import_loads_only_its_layers():
    # the package root re-exports nothing, so a layer loads only what it uses
    code = ("import sys, knotconc.signatures; "
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'knotconc'))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["knotconc", "knotconc.cyclotomic", "knotconc.seifert",
                                   "knotconc.signatures"]


def test_engine_error_exit_2(capsys):
    code, out, err = run(capsys, "theta", "--expr", TWELVE_SUMMANDS)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deep_nesting_exits_1(capsys):
    for expr in ("(" * 3000 + "T(2,3)" + ")" * 3000, "-" * 3000 + "T(2,3)"):
        code, out, err = run(capsys, "theta", f"--expr={expr}")
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_long_cancelling_sum(capsys):
    expr = " + ".join(["T(2,3)", "-T(2,3)"] * 1500)
    code, out, err = run(capsys, "theta", "--expr", expr, "--quiet")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "theta = 0"


def test_repeated_summands(capsys):
    # 40 copies have 41 sub-multisets; theta of a sum of positive T(2,k) is
    # the sum of (k - 1)/2 (signature bound below, subadditivity above)
    code, out, _ = run(capsys, "theta", "--expr", " + ".join(["T(2,3)"] * 40), "--quiet")
    assert code == 0 and out.splitlines()[1] == "theta = 40"
    code, out, err = run(capsys, "theta", "--expr", " + ".join(["T(2,3)"] * 3000))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(SystemExit):
        main(["theta", "--help"])
    assert "4000 nodes" in " ".join(capsys.readouterr().out.split())


def test_q_limit(capsys):
    assert MAX_Q == 97
    # 2^89 - 1 is prime and beyond is_prime's exact range: the size check
    # comes first, so it is a usage error that names the limit
    for q in ("101", "10007", str(2 ** 89 - 1)):
        for argv in (["sig", "--matrix", "[[-1,1],[0,-1]]", "--q", q],
                     ["theta", "--expr", "T(3,7)", "--q", q]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err == f"usage error: --q must be at most 97, got {q}\n"
    # the trefoil's sigma_K(omega) is -2 exactly when arg(omega) lies in
    # (pi/3, 5pi/3): j = 17..80 at q = 97
    code, out, _ = run(capsys, "sig", "--matrix", "[[-1,1],[0,-1]]", "--q", "97")
    assert code == 0 and "sigma^(97) = -128" in out
    with pytest.raises(SystemExit):
        main(["sig", "--help"])
    assert "at most 97" in capsys.readouterr().out


@pytest.mark.parametrize("matrix", ["5", "[[-1,1],5]", "[" * 100_000, "[" + "9" * 5000 + "]",
                                    json.dumps([[0] * 32] * 32),
                                    json.dumps([[-1, 1], [0, -(2 ** 62) - 1]])],
                         ids=["int", "row-int", "nested-too-deep", "huge-integer", "32x32",
                              "entry-above-limit"])
def test_bad_matrix_exit_1(matrix, capsys):
    code, out, err = run(capsys, "sig", "--matrix", matrix)
    assert code == 1 and out == ""
    assert err.startswith("usage error: bad --matrix: ") and err.count("\n") == 1


def test_entry_above_the_limit_refused_at_once(capsys):
    # refused before any signature work, which for a 4,000-digit entry at
    # q = 97 takes seconds
    start = time.perf_counter()
    code, _, err = run(capsys, "sig", "--matrix", "[[" + "9" * 4000 + ", 1], [0, -1]]",
                       "--q", "97")
    assert time.perf_counter() - start < 1
    assert code == 1 and "entry of 13288 bits is above the limit" in err


TREFOIL = {"name": "K", "seifert": [[-1, 1], [0, -1]]}


def _ledger(facts=(), relations=(), atoms=(TREFOIL,)):
    return {"atoms": atoms, "facts": facts, "relations": relations}


def _fact(**fields):
    return {"knot": "K", "kind": "g4", "value": 1, "provenance": "t", **fields}


def _delta_seq(values):
    return _fact(kind="delta_seq", q=2, value={"values": values, "stable": 1})


# each case with the stderr line of the check it must reach ("{path}" is
# the ledger file's path)
MALFORMED_LEDGERS = {
    "atom-not-object": ({"atoms": [123]}, "atom must be a name or an object, got 123"),
    "facts-not-list": (_ledger(facts=5), "ledger field 'facts' must be a list, got 5"),
    "seifert-not-list": (_ledger(atoms=[{"name": "K", "seifert": 5}]),
                         "atom 'K': Seifert matrix must be a list of rows"),
    "delta-values-not-list": (
        _ledger(facts=[_delta_seq(3)]),
        "delta_seq(K) value must be {'values': [...], 'stable': n} with integer entries"),
    "q-string": (_ledger(facts=[_fact(kind="sigma_q", q="3", value=-4)]),
                 "fact sigma_q(K) needs a prime q <= 97, got '3'"),
    "j-string": (_ledger(facts=[_fact(kind="lt_signature", q=3, j="1", value=-2)]),
                 "lt_signature(K) needs 1 <= j <= q-1, got '1'"),
    "relation-plus-int": (
        _ledger(relations=[{"plus": 5, "minus": "K"}]),
        "bad crossing relation {'plus': 5, 'minus': 'K'}: 'plus' and 'minus' must be expressions"),
    "knot-list": (_ledger(facts=[_fact(knot=["K"])]),
                  "fact knot must be an atom name, got ['K']"),
    "delta-values-string": (
        _ledger(facts=[_delta_seq(["x"])]),
        "delta_seq(K) value must be {'values': [...], 'stable': n} with integer entries"),
    "delta-increasing": (_ledger(facts=[_delta_seq([1, 5])]),
                         "delta_seq(K): delta sequence must be non-increasing: (1, 5)"),
    "q-above-limit": (_ledger(facts=[_fact(kind="sigma_q", q=1009, value=-4)]),
                      "fact sigma_q(K) needs a prime q <= 97, got 1009"),
    "q-huge-prime": (_ledger(facts=[_fact(kind="sigma_q", q=2 ** 89 - 1, value=-4)]),
                     f"fact sigma_q(K) needs a prime q <= 97, got {2 ** 89 - 1}"),
    "seifert-32x32": (_ledger(atoms=[{"name": "K", "seifert": [[0] * 32] * 32}]),
                      "atom 'K': Seifert matrix size 32 is above the limit 30"),
    "seifert-entry-above-limit": (
        _ledger(atoms=[{"name": "K", "seifert": [[2 ** 62 + 1, 1], [0, -1]]}]),
        f"atom 'K': Seifert matrix entry of 63 bits is above the limit {2 ** 62}"),
    "mirror-sigma-disagrees": (
        _ledger(atoms=[{"name": "K"}], facts=[
            _fact(kind="sigma", value=-2), _fact(knot="-K", kind="sigma", value=-2)]),
        "sigma(K) = -2 and sigma(-K) = -2 disagree under mirroring"),
    "mirror-g4-disagrees": (
        _ledger(atoms=[{"name": "K"}], facts=[_fact(value=1), _fact(knot="-K", value=3)]),
        "g4(K) = 1 and g4(-K) = 3 disagree under mirroring"),
    "not-utf8": (b'{"atoms": ["\xff\xfe"]}',
                 "{path}: 'utf-8' codec can't decode byte 0xff in position 12: "
                 "invalid start byte"),
    "nested-too-deep": (b"[" * 100_000,
                        "{path}: maximum recursion depth exceeded while decoding a "
                        "JSON array from a unicode string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LEDGERS))
def test_malformed_ledger_exit_2(case, tmp_path, capsys):
    data, line = MALFORMED_LEDGERS[case]
    path = tmp_path / "ledger.json"
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    code, out, err = run(capsys, "theta", "--expr", "K", "--ledger", str(path))
    assert (code, out, err) == (2, "", f"error: {line.replace('{path}', str(path))}\n")
