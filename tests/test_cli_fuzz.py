"""Fuzz the command line in-process through ``cli.main``.

Every input, well formed or not, must end in a documented exit code (0-3)
and never in a traceback.  A usage or data error (exit 1 or 2) prints
exactly one line on stderr; a reproduction failure (exit 3) prints nothing
there, its report on stdout ends in the count of checks passed.
The runs are derandomized so the suite gives the same result every time.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from knotconc.cli import MAX_Q, main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

Q = st.sampled_from(["2", "3", "5"])


def check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    if code == 3:
        assert err == "" and re.search(r"\n\d+/\d+ checks passed\n\Z", out.getvalue()), argv
    elif code:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    return code


# -- theta --expr -------------------------------------------------------------

ATOM_NAMES = ["T(2,3)", "T(2,5)", "T(3,7)", "9_42", "8_19", "Wh(T(2,3))", "unknot"]
EXPR_TOKENS = st.sampled_from(ATOM_NAMES + [
    "K", " + ", "+", "-", "(", ")", " ", ",", "T(", "\n", "\x00",
])
SUMS = st.lists(st.tuples(st.sampled_from(["", "-", "-("]), st.sampled_from(ATOM_NAMES)),
                min_size=1, max_size=4).map(
    lambda terms: " + ".join(sign + name + ")" * sign.count("(") for sign, name in terms))
EXPRS = st.one_of(
    SUMS,
    st.lists(EXPR_TOKENS, max_size=8).map("".join),
    st.text(max_size=12),
)


@FUZZ
@given(expr=EXPRS, q=Q)
def test_fuzz_theta_expr(expr, q):
    for command in ("theta", "infer"):
        check([command, "--expr", expr, "--q", q])


# -- sig --matrix --------------------------------------------------------------


@st.composite
def seifert_rows(draw):
    """A valid Seifert matrix of genus 1 or 2: V - V^T is the standard
    symplectic form, the symmetric part is drawn."""
    n = 2 * draw(st.integers(1, 2))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            a = draw(st.integers(-3, 3))
            rows[i][j] = a
            rows[j][i] = a - 1 if (j == i + 1 and i % 2 == 0) else a
    return rows


SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "x", "1"]),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=16,
)
MATRICES = st.one_of(
    seifert_rows().map(json.dumps),
    st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4).map(json.dumps),
    SMALL_JSON.map(json.dumps),
    st.text(max_size=12),
)


@FUZZ
@given(matrix=MATRICES, q=Q)
def test_fuzz_sig_matrix(matrix, q):
    check(["sig", "--matrix", matrix, "--q", q])


# -- --ledger ----------------------------------------------------------------

TREFOIL = {"name": "K", "seifert": [[-1, 1], [0, -1]]}
ATOMS = st.sampled_from([
    TREFOIL, "K", "unknot", 123, None, ["K"], {"name": "K"}, {"name": 5},
    {"name": "K", "seifert": 5}, {"name": "K", "seifert": [[1, 0], [0, 1]]},
    {"name": "K", "seifert": [[-1, 1], 5]}, {"seifert": [[-1, 1], [0, -1]]},
])
FIELD_VALUES = st.one_of(
    st.sampled_from([
        "K", "-K", "unknot", "x", "g4", "sigma", "sigma_q", "lt_signature",
        "delta_seq", "slice", "l_space", "tau", "3", "1",
        {"values": [1, 5], "stable": 1}, {"values": 3, "stable": 1},
        {"values": ["x"], "stable": 1}, {"values": [3], "stable": -1},
        {"values": [], "stable": 1},
    ]),
    st.integers(-4, 13), st.booleans(), st.none(), st.lists(st.integers(0, 3), max_size=2),
)
KINDS = ["g4", "sigma", "sigma_q", "lt_signature", "delta_seq", "slice", "tau", "x"]
FACTS = st.one_of(
    st.fixed_dictionaries(
        {"knot": st.sampled_from(["K", "-K"]), "kind": st.sampled_from(KINDS),
         "value": FIELD_VALUES},
        optional={"q": st.sampled_from([2, 3, 5, "3"]), "j": st.sampled_from([1, 2, "1"]),
                  "provenance": st.just("t")},
    ),
    st.dictionaries(
        st.sampled_from(["knot", "kind", "value", "q", "j", "provenance"]),
        FIELD_VALUES, max_size=6,
    ),
)
RELATIONS = st.one_of(
    st.dictionaries(st.sampled_from(["plus", "minus"]), FIELD_VALUES, max_size=2),
    FIELD_VALUES,
)
# a single strategy, so that ``|`` does not flatten it into many branches
NOT_A_LIST = st.sampled_from([5, "K", None, True, {"values": []}])
DOCUMENTS = st.fixed_dictionaries({
    "atoms": st.just([TREFOIL, "unknot"]) | st.lists(ATOMS, max_size=3) | NOT_A_LIST,
}, optional={
    "facts": st.lists(FACTS, max_size=2) | NOT_A_LIST,
    "relations": st.just([{"plus": "K", "minus": "unknot"}])
    | st.lists(RELATIONS, max_size=2) | NOT_A_LIST,
}).map(lambda d: json.dumps(d).encode())
RAW = st.one_of(SMALL_JSON.map(lambda v: json.dumps(v).encode()), st.binary(max_size=24))
# three ledger documents for each raw file
LEDGERS = st.integers(0, 3).flatmap(lambda k: RAW if k == 0 else DOCUMENTS)


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ledger.json"


@settings(FUZZ, max_examples=150)
@given(data=LEDGERS, q=Q)
def test_fuzz_ledger_file(ledger_path, data, q):
    ledger_path.write_bytes(data)
    check(["theta", "--ledger", str(ledger_path), "--expr", "K", "--q", q])


@FUZZ
@given(data=DOCUMENTS)
def test_fuzz_reproduce_ledger(ledger_path, data):
    ledger_path.write_bytes(data)
    check(["reproduce", "--ledger", str(ledger_path)])


# -- ledger facts at primes far above MAX_Q ------------------------------------

LARGE_Q_FACTS = st.fixed_dictionaries(
    {"knot": st.sampled_from(["K", "-K"]),
     "kind": st.sampled_from(["sigma_q", "lt_signature", "delta_seq", "ell_q", "l_space",
                              "delta_q_jabuka"]),
     "value": st.sampled_from([-4, 0, 2, True, {"values": [], "stable": 1}]),
     "q": st.sampled_from([97, 101, 1009, 10007, 2 ** 61 - 1, 2 ** 89 - 1, 10 ** 40])},
    optional={"j": st.sampled_from([1, 2, 96])},
)


@FUZZ
@given(facts=st.lists(LARGE_Q_FACTS, min_size=1, max_size=2), q=Q)
def test_fuzz_ledger_large_q(ledger_path, facts, q):
    ledger_path.write_text(json.dumps({"atoms": [TREFOIL], "facts": facts}))
    code = check(["theta", "--ledger", str(ledger_path), "--expr", "K", "--q", q])
    if any(f["q"] > MAX_Q for f in facts):
        assert code == 2


# -- theta-m, genus-bound, branch-cover ------------------------------------------

SMALL_INTS = st.integers(-6, 12).map(str)
NUMBERS = st.one_of(
    SMALL_INTS, st.sampled_from(["", "x", "1.5", "-", str(2 ** 89 - 1), "9" * 5000]),
)


def argv(command, required, optional):
    """argv for one command: each option's value is drawn from its strategy,
    a None value stands for a bare flag, and the optional ones may be left
    out."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda opts: [command] + [x for k, v in opts.items()
                                  for x in ((k,) if v is None else (k, v))])


COMMON = {"--q": st.one_of(Q, NUMBERS), "--json": st.none()}
THETA_M = argv("theta-m", {"--expr": EXPRS, "--m": NUMBERS},
               {**COMMON, "--quiet": st.none()})


@st.composite
def rank_and_class(draw):
    """--rank and --class, mostly a class of that rank divisible by 2, 3 or 6,
    so that the theorem hypotheses often hold."""
    coords = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    scale = draw(st.sampled_from([1, 2, 3, 6]))
    rank = draw(st.one_of(st.just(str(len(coords))), st.integers(-1, 5).map(str), NUMBERS))
    cls = draw(st.one_of(st.just(",".join(str(scale * c) for c in coords)),
                         st.text(max_size=6)))
    return ["--rank", rank, "--class", cls]


GENUS_BOUND = st.tuples(
    argv("genus-bound",
         {"--expr": st.one_of(st.sampled_from(ATOM_NAMES + ["T(3,13)", "T(3,7) + T(2,3)"]),
                              SUMS)},
         {**COMMON, "--compare": st.none()}),
    rank_and_class(),
).map(lambda parts: parts[0] + parts[1])
BRANCH_COVER = argv(
    "branch-cover",
    {"--b2x": SMALL_INTS, "--sigmax": SMALL_INTS, "--genus": SMALL_INTS,
     "--sigq-out": NUMBERS},
    {**COMMON, "--self-int": NUMBERS, "--sigq-in": SMALL_INTS},
)


@FUZZ
@given(args=THETA_M)
def test_fuzz_theta_m(args):
    check(args)


@FUZZ
@given(args=GENUS_BOUND)
def test_fuzz_genus_bound(args):
    check(args)


@FUZZ
@given(args=BRANCH_COVER)
def test_fuzz_branch_cover(args):
    check(args)
