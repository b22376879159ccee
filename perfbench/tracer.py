"""Spans around calls into knotconc's public functions, installed from outside.

Nothing in the package is edited: ``install`` replaces each public function
or method listed in ``_targets`` with a timing wrapper, at every binding a
knotconc module holds (``infer_theta`` is imported by name into ``cli`` and
``reproduce``, ``sigma_q`` into ``reproduce``, and a wrapper installed only
on the defining module would miss those calls), and ``uninstall`` puts the
originals back.

A span is ``[id, name, info, parent_id, start_ns, end_ns, child_ns]``, kept
in memory and written out at the end of the run.  Calls that run thousands
of times per operation (cyclotomic arithmetic, the engine's bound setters
and R2, the sequence / definite / branched entry points) keep a per-parent
aggregate ``[calls, total_ns, child_ns]`` instead, keyed by the name and the
id of the nearest enclosing span.  Self time is a span's duration minus the
time its wrapped children cover.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("cyclotomic", "signatures", "ledger", "knots", "infer",
          "sequences", "definite", "branched", "reproduce", "cli")
_SEQUENCES = ("xi_sequence", "j_value", "j_value_m", "theta", "theta_m",
              "theta_from_mirror_delta", "torus_delta_sequence", "sum_delta_upper",
              "crossing_change_j_bounds", "ell_lower_bound")
_DEFINITE = ("eta", "eta_from_lattice_minimum", "genus_bound_odd_q",
             "genus_bound_q2", "compare_bounds")
_BRANCHED = ("cover_topology", "cover_b_plus_for_genus_bound")
INFER_SIZES = (1, 2, 4, 6, 8)
SIGMA_CELLS = tuple(f"g{g}-q{q}" for g in (2, 6, 10) for q in (2, 5, 11))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.agg: dict[tuple, list[int]] = {}
        self.stack: list[list] = []
        self.bound_updates = 0
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, name, fn, info=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), name, info(args, kwargs) if info else None,
                    parent[0] if parent else -1, 0, 0, 0]
            spans.append(span)
            stack.append(span)
            span[4] = t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = t1 = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[6] += t1 - t0
            if after:
                span[2] = after(args)
            return result
        return wrapper

    def hot_wrapper(self, name, fn):
        agg, stack = self.agg, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [parent[0] if parent else -1, name, None, None, 0, 0, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if parent is not None:
                    parent[6] += dt
                key = (name, frame[0])
                a = agg.get(key)
                if a is None:
                    agg[key] = [1, dt, frame[6]]
                else:
                    a[0] += 1
                    a[1] += dt
                    a[2] += frame[6]
        return wrapper

    def _counting_updates(self, fn):
        """A bound setter that counts the calls that changed a bound (each
        such call appends one line to the engine's trace)."""
        def setter(engine, *args, **kwargs):
            before = len(engine.trace)
            try:
                return fn(engine, *args, **kwargs)
            finally:
                if len(engine.trace) != before:
                    self.bound_updates += 1
        return setter

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "knotconc" or k.startswith("knotconc."))]
        for name, owner, attr, mode, info, after in _targets():
            original = getattr(owner, attr)
            inner = self._counting_updates(original) if mode == "count" else original
            if mode == "span":
                wrapped = self.span_wrapper(name, inner, info, after)
            else:
                wrapped = self.hot_wrapper(name, inner)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, dict, int]:
        """Hand over what was recorded so far and start afresh."""
        assert not self.stack
        out = (list(self.spans), dict(self.agg), self.bound_updates)
        self.spans.clear()
        self.agg.clear()
        self.bound_updates = 0
        return out


def _targets():
    from knotconc import (branched, cli, cyclotomic, definite, infer, knots,
                          ledger, reproduce, sequences, signatures)

    def sigma_info(args, kwargs):
        q = args[1] if len(args) > 1 else kwargs["q"]
        return f"g{args[0].size // 2}-q{q}"

    def infer_info(args, kwargs):
        q = args[2] if len(args) > 2 else kwargs.get("q", 2)
        return f"n{len(knots.signed_atoms(args[1]))}-q{q}"

    def reproduce_info(args, kwargs):
        section = args[1] if len(args) > 1 else kwargs.get("section")
        return "all" if section is None else f"s{section}"

    def engine_size(args):
        return {"nodes": len(args[0].nodes), "relations": len(args[0].relations)}

    C, E = cyclotomic.Cyclotomic, infer.InferenceEngine
    out = [
        ("cyclotomic.mul", C, "__mul__", "hot", None, None),
        ("cyclotomic.inverse", C, "inverse", "hot", None, None),
        ("cyclotomic.sign", C, "sign", "hot", None, None),
        ("signatures.lt_signature", signatures, "lt_signature", "span", None, None),
        ("signatures.sigma_q", signatures, "sigma_q", "span", sigma_info, None),
        ("ledger.load_seed_ledger", ledger, "load_seed_ledger", "span", None, None),
        ("knots.parse_expression", knots, "parse_expression", "span", None, None),
        ("infer.infer_theta", infer, "infer_theta", "span", infer_info, None),
        ("infer.run", E, "run", "span", None, engine_size),
        ("infer.rule_r2", E, "rule_r2", "hot", None, None),
        ("infer.set_lower", E, "set_lower", "count", None, None),
        ("infer.set_upper", E, "set_upper", "count", None, None),
        ("reproduce.run", reproduce, "run", "span", reproduce_info, None),
        ("cli.main", cli, "main", "span", None, None),
    ]
    for mod, names in ((sequences, _SEQUENCES), (definite, _DEFINITE),
                       (branched, _BRANCHED)):
        layer = mod.__name__.rsplit(".", 1)[1]
        out += [(f"{layer}.{n}", mod, n, "hot", None, None) for n in names]
    return out


# -- summaries --------------------------------------------------------------------


def _self_times(spans, agg):
    calls, self_ns = Counter(), Counter()
    for s in spans:
        calls[s[1]] += 1
        self_ns[s[1]] += s[5] - s[4] - s[6]
    for (name, _), (n, total, child) in agg.items():
        calls[name] += n
        self_ns[name] += total - child
    return calls, self_ns


def layer_self_ms(spans, agg, per: float = 1.0) -> dict[str, float]:
    _, self_ns = _self_times(spans, agg)
    out = dict.fromkeys(LAYERS, 0.0)
    for name, ns in self_ns.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += ns / 1e6 / per
    return out


def _median_ms(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def sign_calls_per_sigma_q(spans, agg) -> list[tuple[int, int]]:
    """For every sigma_q span: (cyclotomic.sign calls below it, n (q-1))."""
    signs_under = Counter()
    for (name, parent), (n, _, _) in agg.items():
        if name == "cyclotomic.sign":
            signs_under[parent] += n
    lt_children = defaultdict(list)
    for s in spans:
        if s[1] == "signatures.lt_signature":
            lt_children[s[3]].append(s[0])
    out = []
    for s in spans:
        if s[1] == "signatures.sigma_q":
            g, q = (int(x[1:]) for x in s[2].split("-"))
            out.append((sum(signs_under[c] for c in lt_children[s[0]]), 2 * g * (q - 1)))
    return out


def per_layer_metrics(setup, rounds, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    ``setup`` and ``rounds`` are ``(spans, agg, bound_updates)`` of the traced
    set-up and of the traced rounds.  Counts and self times are per round of
    the timed phase; ``.ms`` metrics are medians per call.
    """
    spans, agg, updates = rounds
    calls, self_ns = _self_times(spans, agg)
    m: dict[str, tuple[float, str]] = {}

    def count(metric, name):
        m[metric] = (calls[name] / n_rounds, "count")

    def self_ms(metric, name):
        m[metric] = (self_ns[name] / 1e6 / n_rounds, "ms")

    for f in ("mul", "inverse", "sign"):
        count(f"cyclotomic.{f}.calls", f"cyclotomic.{f}")
        self_ms(f"cyclotomic.{f}.self_ms", f"cyclotomic.{f}")
    count("signatures.lt_signature.calls", "signatures.lt_signature")
    self_ms("signatures.lt_signature.self_ms", "signatures.lt_signature")
    count("signatures.sigma_q.calls", "signatures.sigma_q")
    ratios = [signs / want for signs, want in sign_calls_per_sigma_q(spans, agg)]
    m["signatures.sign_per_sigma_q"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    by_cell = defaultdict(list)
    by_size = defaultdict(list)
    reproduce_all, engine_nodes, engine_rels = [], [], []
    for s in spans:
        if s[1] == "signatures.sigma_q":
            by_cell[s[2]].append(s[5] - s[4])
        elif s[1] == "infer.infer_theta":
            by_size[int(s[2].split("-")[0][1:])].append(s[5] - s[4])
        elif s[1] == "reproduce.run" and s[2] == "all":
            reproduce_all.append(s[5] - s[4])
        elif s[1] == "infer.run" and s[2] is not None:
            engine_nodes.append(s[2]["nodes"])
            engine_rels.append(s[2]["relations"])
    for cell in SIGMA_CELLS:
        m[f"signatures.sigma_q.{cell}.ms"] = (_median_ms(by_cell[cell]), "ms")
    loads = [s[5] - s[4] for s in setup[0] + spans if s[1] == "ledger.load_seed_ledger"]
    m["ledger.load_seed_ledger.ms"] = (_median_ms(loads), "ms")
    count("knots.parse_expression.calls", "knots.parse_expression")
    self_ms("knots.parse_expression.self_ms", "knots.parse_expression")
    count("infer.infer_theta.calls", "infer.infer_theta")
    self_ms("infer.infer_theta.self_ms", "infer.infer_theta")
    for n in INFER_SIZES:
        m[f"infer.infer_theta.n{n}.ms"] = (_median_ms(by_size[n]), "ms")
    m["infer.nodes"] = (statistics.fmean(engine_nodes) if engine_nodes else 0.0, "count")
    m["infer.relations"] = (statistics.fmean(engine_rels) if engine_rels else 0.0, "count")
    count("infer.rule_r2.calls", "infer.rule_r2")
    self_ms("infer.rule_r2.self_ms", "infer.rule_r2")
    attempts = calls["infer.set_lower"] + calls["infer.set_upper"]
    m["infer.bound_attempts"] = (attempts / n_rounds, "count")
    m["infer.bound_updates"] = (updates / n_rounds, "count")
    m["infer.useful_update_ratio"] = (updates / attempts if attempts else 0.0, "ratio")
    m["reproduce.run.ms"] = (_median_ms(reproduce_all), "ms")
    self_ms("cli.main.self_ms", "cli.main")
    for layer, v in layer_self_ms(spans, agg, n_rounds).items():
        m[f"{layer}.self_ms"] = (v, "ms")
    for layer, v in layer_self_ms(setup[0], setup[1]).items():
        m[f"setup.{layer}.self_ms"] = (v, "ms")
    return m
