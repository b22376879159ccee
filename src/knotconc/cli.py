"""Command line surface.

Commands: sig, branch-cover, theta, theta-m, genus-bound, infer, reproduce.
Exit codes: 0 success, 1 usage error, 2 ledger, hypothesis or
inference-engine error, 3 reproduction failure.  A command whose reader
closes stdout before the output ends (``knotconc ... | head -1``) keeps
the exit code it decided and prints nothing to stderr.  Output is
deterministic for fixed inputs; --json switches to a machine-readable
report, which always holds the derivation (--quiet with it is a usage
error).  A command takes only the shared flags it reads: ``reproduce``
has no --q and ``branch-cover`` no --ledger.  ``main`` checks --q, a prime
<= MAX_Q, before the command runs.
Expressions nest at most knots.MAX_NESTING deep (deeper is a usage error),
and a query whose inference universe needs more than knots.MAX_NODES nodes
is refused with exit 2 before any rule fires (the limit is kept in ``knots``
so that ``--help`` does not load the engine; ``knotconc.infer.MAX_NODES``
is the same object).

Each command imports the layers it runs when it runs, so a short command
does not pay for compiling and loading the engine, the genus bounds or the
reproduction table.  Every error of bad data derives from
``knotconc.DataError`` and exits 2, as an unreadable file does.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DataError
from .cyclotomic import MAX_Q, is_prime
from .knots import (MAX_NESTING, MAX_NODES, ExpressionError, Key, expr_to_string,
                    mirror_atoms, parse_expression)

if TYPE_CHECKING:
    from .definite import HomologyClass
    from .infer import BoundInterval
    from .ledger import Ledger

USAGE_ERROR = 1
DATA_ERROR = 2
REPRODUCE_FAILURE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _frac_json(x):
    if x is None:
        return None
    f = Fraction(x)
    return {"numerator": f.numerator, "denominator": f.denominator}


def _interval_json(iv: BoundInterval) -> dict:
    return {
        "lower": _frac_json(iv.lower),
        "upper": _frac_json(iv.upper),
        "exact": iv.exact,
        "justification": list(iv.justification),
        "provenance": iv.provenance,
    }


def _load(args) -> Ledger:
    from .ledger import load_ledger, load_seed_ledger
    if args.ledger is None:
        return load_seed_ledger()
    return load_ledger(args.ledger)


def _check_q(q: int) -> None:
    # size first: the message names MAX_Q, and is_prime raises beyond its exact range
    if q > MAX_Q:
        raise _UsageError(f"--q must be at most {MAX_Q}, got {q}")
    if not is_prime(q):
        raise _UsageError(f"--q must be prime, got {q}")


def _emit(args, human_lines, json_obj) -> None:
    try:
        if args.json:
            print(json.dumps(json_obj, indent=1, sort_keys=True))
        else:
            for line in human_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped reading; the rest goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _interval_lines(iv: BoundInterval, verbose: bool) -> list[str]:
    lines = []
    if iv.exact:
        lines.append(f"theta = {iv.value}")
    elif iv.upper is None:
        lines.append(f"theta >= {iv.lower} (no upper bound derivable)")
    else:
        lines.append(f"theta in [{iv.lower}, {iv.upper}]")
    if verbose:
        lines.append("derivation:")
        lines += [f"  {line}" for line in iv.justification]
        if iv.provenance:
            lines.append("ledger facts used:")
            lines += [f"  {k}: {v}" for k, v in iv.provenance.items()]
    return lines


# -- commands -----------------------------------------------------------------


def _cmd_sig(args) -> int:
    from .seifert import SeifertMatrix
    from .signatures import lt_signatures
    q = args.q
    if (args.knot is None) == (args.matrix is None):
        raise _UsageError("give exactly one of --knot or --matrix")
    if args.matrix is not None:
        try:
            rows = json.loads(args.matrix)
            V = SeifertMatrix.from_rows(rows)
        except (TypeError, ValueError, RecursionError) as e:
            raise _UsageError(f"bad --matrix: {e}") from None
        label = "matrix"
    else:
        from .ledger import LedgerError
        ledger = _load(args)
        ledger.require_atoms(((args.knot, False),))
        V = ledger.atoms[args.knot]
        if V is None:
            raise LedgerError(
                f"atom {args.knot!r} has no Seifert matrix in the ledger"
            )
        label = args.knot
    per_j = dict(enumerate(lt_signatures(V, q), start=1))
    total = sum(per_j.values())
    lines = [f"Levine-Tristram signatures of {label} at the {q}-th roots of unity:"]
    lines += [f"  j = {j}: {v}" for j, v in per_j.items()]
    lines.append(f"sigma^({q}) = {total}")
    _emit(args, lines, {
        "command": "sig", "query": label, "q": q,
        "per_j": {str(j): v for j, v in per_j.items()}, "sigma_q": total,
    })
    return 0


def _cmd_branch_cover(args) -> int:
    from .branched import CoverInput, cover_topology
    q = args.q
    inp = CoverInput(q=q, b2X=args.b2x, sigmaX=args.sigmax, genus=args.genus,
                     self_int=args.self_int, sigq_out=args.sigq_out,
                     sigq_in=args.sigq_in)
    t = cover_topology(inp)
    lines = [
        f"degree-{q} branched cover:",
        f"  b2      = {t.b2}",
        f"  sigma   = {t.sigma}",
        f"  b_plus  = {t.b_plus}",
        f"  b_minus = {t.b_minus}",
    ]
    _emit(args, lines, {
        "command": "branch-cover", "q": q, "b2": t.b2, "sigma": t.sigma,
        "b_plus": t.b_plus, "b_minus": t.b_minus,
    })
    return 0


def _parse_expr_arg(text: str):
    try:
        return parse_expression(text)
    except ExpressionError as e:
        raise _UsageError(str(e)) from None


def _cmd_theta(args) -> int:
    """theta^(q)(K, m) for ``theta-m``; theta^(q)(K) for ``theta`` (m is None)."""
    from .infer import infer_theta, infer_theta_m
    q = args.q
    if args.quiet and args.json:
        raise _UsageError("--quiet has no effect with --json")
    if args.m is not None and args.m < 0:
        raise _UsageError(f"--m must be >= 0, got {args.m}")
    ledger = _load(args)
    expr = _parse_expr_arg(args.expr)
    query = expr_to_string(expr)
    if args.m is None:
        iv = infer_theta(ledger, expr, q=q)
        header, obj = f"theta^({q})({query}):", {"command": "theta"}
    else:
        iv = infer_theta_m(ledger, expr, q, args.m)
        header, obj = f"theta^({q})({query}, m={args.m}):", {"command": "theta-m", "m": args.m}
    _emit(args, [header, *_interval_lines(iv, verbose=not args.quiet)],
          {**obj, "query": query, "q": q, "result": _interval_json(iv)})
    return 0


def _parse_class(text: str, rank: int) -> HomologyClass:
    from .definite import HomologyClass
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError as e:
        raise _UsageError(f"bad --class: {e}") from None
    if len(coords) != rank:
        raise _UsageError(
            f"--class has {len(coords)} coordinates but --rank is {rank}"
        )
    return HomologyClass(coords)


def _torus_n_from_expr(expr: Key, text: str) -> int:
    # the comparison table is specific to T(3, 6n+1) with n >= 1: the
    # expression must be that one unmirrored atom, however it is written
    match = (len(expr) == 1 and not expr[0][1]
             and re.fullmatch(r"T\(3,(\d{1,9})\)", expr[0][0]))
    if match and int(match[1]) % 6 == 1 and int(match[1]) > 1:
        return int(match[1]) // 6
    raise _UsageError(
        f"--compare needs a knot of the form T(3,6n+1), got {text!r}"
    )


def _cmd_genus_bound(args) -> int:
    from .definite import compare_bounds, genus_bound_odd_q, genus_bound_q2
    q = args.q
    ledger = _load(args)
    expr = _parse_expr_arg(args.expr)
    a = _parse_class(args.cls, args.rank)
    if q == 2:
        bound = genus_bound_q2(ledger, expr, a)
    else:
        bound = genus_bound_odd_q(q, ledger, expr, a)
    lines = [
        f"genus bound for {expr_to_string(expr)} in class {list(a.coords)} "
        f"(rank {args.rank}, q = {q}):",
        f"  m = {bound.m}, a^2 = {bound.a_square}",
        f"  g >= {bound.value} "
        f"({'exact theta' if bound.theta_interval.exact else 'theta interval lower end'})",
    ]
    obj = {
        "command": "genus-bound", "query": expr_to_string(expr), "q": q,
        "rank": args.rank, "class": list(a.coords), "m": bound.m,
        "a_square": bound.a_square, "bound": _frac_json(bound.value),
        "exact_theta": bound.theta_interval.exact,
        "theta": _interval_json(bound.theta_interval),
    }
    if args.compare:
        n = _torus_n_from_expr(expr, args.expr)
        if not a.divisible_by(2):
            raise _UsageError("--compare needs an even class a = 2x")
        x = a.divide(2)
        c = compare_bounds(n, x.coords, args.rank)
        lines.append("four-bound comparison (theta, tau, sig1, sig2):")
        lines.append(
            f"  theta: {c.theta_bound}   tau: {c.tau_bound}   "
            f"sig1: {c.sig1_bound}   sig2: {c.sig2_bound}"
        )
        obj["comparison"] = {
            "theta": _frac_json(c.theta_bound), "tau": c.tau_bound,
            "sig1": c.sig1_bound, "sig2": c.sig2_bound,
        }
    _emit(args, lines, obj)
    return 0


def _cmd_infer(args) -> int:
    from .infer import infer_theta
    q = args.q
    ledger = _load(args)
    expr = _parse_expr_arg(args.expr)
    iv = infer_theta(ledger, expr, q=q)
    miv = infer_theta(ledger, mirror_atoms(expr), q=q)
    value, *derivation = _interval_lines(iv, verbose=True)
    lines = [f"inference for {expr_to_string(expr)} at q = {q}:", value,
             f"mirror: {_interval_lines(miv, verbose=False)[0]}", *derivation]
    _emit(args, lines, {
        "command": "infer", "query": expr_to_string(expr), "q": q,
        "result": _interval_json(iv), "mirror": _interval_json(miv),
    })
    return 0


def _cmd_reproduce(args) -> int:
    from . import reproduce as reproduce_mod
    if args.list and args.ledger is not None:
        raise _UsageError("--list reads no ledger")
    if args.list:
        results = [(c, None, None) for c in reproduce_mod.checks()
                   if args.section in (None, c.section)]
    else:
        results = reproduce_mod.run(_load(args), section=args.section)
    if not results:
        raise _UsageError(f"no checks in section {args.section}")
    if args.list:
        lines = [f"[{c.section}] {c.check_id}: {c.description}" for c, _, _ in results]
        obj = [{"id": c.check_id, "section": c.section, "description": c.description}
               for c, _, _ in results]
        _emit(args, lines, {"command": "reproduce", "checks": obj})
        return 0
    lines = []
    obj = []
    failures = 0
    for c, got, want in results:
        ok = got == want
        status = "pass" if ok else "FAIL"
        lines.append(f"{status}  [{c.section}] {c.check_id}: {c.description}")
        if not ok:
            failures += 1
            lines.append(f"      got:  {got}")
            lines.append(f"      want: {want}")
            if c.note:
                lines.append(f"      note: {c.note}")
        obj.append({
            "id": c.check_id, "section": c.section, "ok": ok,
            "got": got, "want": want, "note": c.note,
        })
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    _emit(args, lines, {"command": "reproduce", "results": obj,
                        "passed": len(results) - failures, "total": len(results)})
    return REPRODUCE_FAILURE if failures else 0


# -- entry point ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="knotconc",
                     description="knot concordance bounds from branched covers")
    # one parent per shared flag, so that each command takes only the ones it reads
    with_ledger, with_q, with_json = (argparse.ArgumentParser(add_help=False)
                                      for _ in range(3))
    with_ledger.add_argument("--ledger", default=None,
                             help="path to a ledger JSON file (default: bundled seed)")
    with_q.add_argument("--q", type=int, default=2,
                        help=f"prime order, at most {MAX_Q} (default 2)")
    with_json.add_argument("--json", action="store_true", help="machine-readable output")
    common = [with_ledger, with_q, with_json]
    expr_help = (f"knot expression; parentheses and mirror signs nest at most "
                 f"{MAX_NESTING} deep, and a query whose inference universe needs "
                 f"more than {MAX_NODES} nodes exits 2 (2 prod(c_i + 1) - 2 for "
                 f"summand counts c_i, so at most 10 distinct summands; the "
                 f"crossing-change partners of relation atoms count too, and a "
                 f"query they push past the limit exits 2 while its universe is "
                 f"built)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sig", parents=common,
                       help="exact Levine-Tristram signatures and sigma^(q)")
    p.add_argument("--knot", help="ledger atom with a Seifert matrix")
    p.add_argument("--matrix", help='inline Seifert matrix, e.g. "[[-1,1],[0,-1]]"')
    p.set_defaults(fn=_cmd_sig)

    p = sub.add_parser("branch-cover", parents=[with_q, with_json],
                       help="b2 / sigma / b+- of a cyclic branched cover")
    p.add_argument("--b2x", type=int, required=True)
    p.add_argument("--sigmax", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--self-int", type=int, default=0, dest="self_int")
    p.add_argument("--sigq-out", type=int, required=True, dest="sigq_out")
    p.add_argument("--sigq-in", type=int, default=None, dest="sigq_in")
    p.set_defaults(fn=_cmd_branch_cover)

    p = sub.add_parser("theta", parents=common, help="theta^(q) of an expression")
    p.add_argument("--expr", required=True, help=expr_help)
    p.add_argument("--quiet", action="store_true", help="value only, no derivation")
    p.set_defaults(fn=_cmd_theta, m=None)

    p = sub.add_parser("theta-m", parents=common, help="the m-shifted invariant")
    p.add_argument("--expr", required=True, help=expr_help)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--quiet", action="store_true", help="value only, no derivation")
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("genus-bound", parents=common,
                       help="genus lower bound in a negative definite 4-manifold")
    p.add_argument("--expr", required=True, help=expr_help)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--class", required=True, dest="cls",
                   help="comma-separated coordinates of the surface class")
    p.add_argument("--compare", action="store_true",
                   help="also print the four-bound comparison (T(3,6n+1) only)")
    p.set_defaults(fn=_cmd_genus_bound)

    p = sub.add_parser("infer", parents=common,
                       help="theta bounds with the full derivation trace")
    p.add_argument("--expr", required=True, help=expr_help)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("reproduce", parents=[with_ledger, with_json],
                       help="recompute the published example values")
    p.add_argument("--section", type=int, default=None)
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_reproduce)

    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """``--expr X`` as ``--expr=X``, and so for ``--knot`` and ``--class``:
    argparse would read a value starting with "-" (a mirror image, a
    negative coordinate) as an option."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in ("--expr", "--knot", "--class") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        if hasattr(args, "q"):
            _check_q(args.q)
        return args.fn(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
