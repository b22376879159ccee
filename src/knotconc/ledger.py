"""Provenance-tagged invariant facts about named knots.

Ingested invariants fall well outside what this package can compute (tau, s,
Manolescu-Owens delta, equivariant d-invariant sequences, lowest HF^+
degrees, unknotting numbers, ...), so every value carries a free-text
provenance citation.  The ledger is read from JSON, fully validated up
front, and treated as immutable afterwards.

File format (UTF-8 JSON)::

    {"atoms": [{"name": "T(2,3)", "seifert": [[-1,1],[0,-1]]}, ...],
     "facts": [{"knot": "T(2,3)", "kind": "g4", "value": 1,
                "provenance": "..."}, ...],
     "relations": [{"plus": "T(2,3)", "minus": "unknot"}, ...]}

A fact's "knot" field is an atom name, optionally prefixed with "-" to
attach the fact to the mirror of the atom; that is how mirror-specific data
such as delta sequences and lowest HF^+ degrees of -K are recorded.  Kinds
parameterized by a prime carry a "q" field ("sigma_q", "delta_seq", "ell_q",
"delta_q_jabuka", "l_space") and "lt_signature" carries "q" and "j".  Delta
sequences are encoded as {"values": [...], "stable": n}.

Mirror symmetry is applied on lookup: signatures and the concordance
homomorphisms (tau, s, delta variants) change sign under mirroring, genus
and unknotting data are mirror-invariant, and delta sequences / ell values
are served only for the exact side they were ingested for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Optional, Union

from .cyclotomic import is_prime
from .knots import (
    KnotExpression,
    expr_to_string,
    parse_expression,
    signed_atoms,
)
from .seifert import SeifertMatrix
from .sequences import DeltaSequence, SequenceError
from . import signatures


class LedgerError(ValueError):
    pass


# kind -> (takes_q, value type)
_INT_KINDS = {
    "sigma": False,
    "sigma_q": True,
    "lt_signature": True,
    "tau": False,
    "s": False,
    "delta_MO": False,
    "delta_q_jabuka": True,
    "g4": False,
    "g4_upper": False,
    "g4_lower": False,
    "unknotting_upper": False,
    "ell_q": True,
}
_BOOL_KINDS = {"quasi_alternating": False, "slice": False, "l_space": True}
_SEQ_KINDS = {"delta_seq": True}
ALL_KINDS = set(_INT_KINDS) | set(_BOOL_KINDS) | set(_SEQ_KINDS)

# f(-K) = -f(K)
_ANTISYMMETRIC = {"sigma", "sigma_q", "lt_signature", "tau", "s", "delta_MO", "delta_q_jabuka"}
# f(-K) = f(K)
_MIRROR_INVARIANT = {
    "g4", "g4_upper", "g4_lower", "unknotting_upper",
    "quasi_alternating", "slice", "l_space",
}
_NONNEGATIVE = {"g4", "g4_upper", "g4_lower", "unknotting_upper"}

FactValue = Union[int, bool, DeltaSequence]


@dataclass(frozen=True)
class KnotAtom:
    name: str
    seifert: Optional[SeifertMatrix] = None


@dataclass(frozen=True)
class Fact:
    knot: str
    kind: str
    value: FactValue
    provenance: str
    mirror: bool = False
    q: Optional[int] = None
    j: Optional[int] = None

    def key(self) -> tuple:
        return (self.knot, self.mirror, self.kind, self.q, self.j)

    def describe(self) -> str:
        side = f"-{self.knot}" if self.mirror else self.knot
        qpart = f", q={self.q}" if self.q is not None else ""
        return f"{self.kind}({side}{qpart})"


@dataclass(frozen=True)
class CrossingRelation:
    """K- is obtained from K+ by changing a positive crossing to negative."""

    plus: KnotExpression
    minus: KnotExpression


@dataclass
class Ledger:
    atoms: dict[str, KnotAtom]
    facts: dict[tuple, Fact] = field(default_factory=dict)
    relations: tuple[CrossingRelation, ...] = ()

    # -- lookup -------------------------------------------------------------

    def fact(self, name: str, kind: str, mirror: bool = False,
             q: Optional[int] = None, j: Optional[int] = None) -> Optional[Fact]:
        return self.facts.get((name, mirror, kind, q, j))

    def atom_value(self, name: str, kind: str, mirror: bool = False,
                   q: Optional[int] = None) -> Optional[FactValue]:
        """Fact value for an atom or its mirror, using mirror symmetry of the
        kind when only the other side was ingested."""
        f = self.fact(name, kind, mirror=mirror, q=q)
        if f is not None:
            return f.value
        other = self.fact(name, kind, mirror=not mirror, q=q)
        if other is None:
            return None
        if kind in _ANTISYMMETRIC:
            return -other.value
        if kind in _MIRROR_INVARIANT:
            return other.value
        return None  # delta_seq / ell_q do not transform simply

    def facts_used(self, name: str, kind: str, mirror: bool = False,
                   q: Optional[int] = None) -> list[Fact]:
        out = []
        for m in (mirror, not mirror):
            f = self.fact(name, kind, mirror=m, q=q)
            if f is not None:
                out.append(f)
                break
        return out

    def sigma_q_atom(self, name: str, q: int, mirror: bool = False) -> Optional[int]:
        """sigma^(q) of an atom (or mirror): ingested fact for any side,
        else exact computation from a stored Seifert matrix."""
        v = self.atom_value(name, "sigma_q", mirror=mirror, q=q)
        if v is not None:
            return v
        if q == 2:
            v = self.atom_value(name, "sigma", mirror=mirror)
            if v is not None:
                return v
        atom = self.atoms.get(name)
        if atom is not None and atom.seifert is not None:
            base = _sigma_q_of_matrix(atom.seifert.rows, q)
            return -base if mirror else base
        return None

    def sigma_q_expr(self, expr: KnotExpression, q: int) -> Optional[int]:
        """sigma^(q) of a formal sum, by additivity over summands."""
        total = 0
        for name, mirrored in signed_atoms(expr):
            v = self.sigma_q_atom(name, q, mirror=mirrored)
            if v is None:
                return None
            total += v
        return total

    def additive_expr(self, expr: KnotExpression, kind: str,
                      q: Optional[int] = None) -> Optional[int]:
        """Sum of an antisymmetric additive invariant (tau, s, delta_MO,
        delta_q_jabuka) over the summands of a formal sum."""
        assert kind in _ANTISYMMETRIC
        total = 0
        for name, mirrored in signed_atoms(expr):
            v = self.atom_value(name, kind, mirror=mirrored, q=q)
            if v is None:
                return None
            total += v
        return total

    def genus_upper_expr(self, expr: KnotExpression) -> Optional[int]:
        """Upper bound for g4 of a formal sum: sum of per-atom g4 (exact) or
        g4_upper facts; subadditivity of the slice genus."""
        total = 0
        for name, mirrored in signed_atoms(expr):
            v = self.atom_value(name, "g4", mirror=mirrored)
            if v is None:
                v = self.atom_value(name, "g4_upper", mirror=mirrored)
            if v is None:
                return None
            total += v
        return total

    def unknotting_upper_expr(self, expr: KnotExpression) -> Optional[int]:
        total = 0
        for name, mirrored in signed_atoms(expr):
            v = self.atom_value(name, "unknotting_upper", mirror=mirrored)
            if v is None:
                return None
            total += v
        return total

    def is_slice_expr(self, expr: KnotExpression) -> bool:
        """True if every summand is slice (then the sum is slice)."""
        return all(
            self.atom_value(name, "slice", mirror=mirrored) is True
            for name, mirrored in signed_atoms(expr)
        )

    def require_atoms(self, expr: KnotExpression) -> None:
        for name, _ in signed_atoms(expr):
            if name not in self.atoms:
                raise LedgerError(f"unknown knot atom {name!r}")


# Shared by every ledger in the process; bounded so that memory does not
# grow with every distinct matrix queried (the seed ledger needs 27 atoms x
# the q values in use).
@lru_cache(maxsize=4096)
def _sigma_q_of_matrix(rows: tuple, q: int) -> int:
    return signatures.sigma_q(SeifertMatrix(rows), q)


# -- parsing and validation ---------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise LedgerError(f"ledger field {key!r} must be a list, got {value!r}")
    return value


def _fact_from_json(obj: dict, atoms: dict[str, KnotAtom]) -> Fact:
    if not isinstance(obj, dict):
        raise LedgerError(f"fact must be an object, got {obj!r}")
    try:
        knot_field = obj["knot"]
        kind = obj["kind"]
        value = obj["value"]
        provenance = obj.get("provenance", "")
    except KeyError as e:
        raise LedgerError(f"fact missing field {e} in {obj!r}") from None

    if not isinstance(knot_field, str):
        raise LedgerError(f"fact knot must be an atom name, got {knot_field!r}")
    mirror = False
    name = knot_field
    if name.startswith("-"):
        mirror = True
        name = name[1:]
    if name not in atoms:
        raise LedgerError(f"fact references unknown atom {name!r}")
    if not isinstance(kind, str) or kind not in ALL_KINDS:
        raise LedgerError(f"unknown fact kind {kind!r} for knot {name!r}")

    takes_q = _INT_KINDS.get(kind, _BOOL_KINDS.get(kind, _SEQ_KINDS.get(kind)))
    q = obj.get("q")
    j = obj.get("j")
    if takes_q:
        if not _is_int(q) or not is_prime(q):
            raise LedgerError(f"fact {kind}({name}) needs a prime q, got {q!r}")
    elif q is not None:
        raise LedgerError(f"fact {kind}({name}) does not take q")
    if kind == "lt_signature":
        if not _is_int(j) or not 1 <= j <= q - 1:
            raise LedgerError(f"lt_signature({name}) needs 1 <= j <= q-1, got {j!r}")
    elif j is not None:
        raise LedgerError(f"fact {kind}({name}) does not take j")

    if kind in _SEQ_KINDS:
        if (not isinstance(value, dict) or not isinstance(value.get("values"), list)
                or not all(_is_int(v) for v in value["values"])
                or not _is_int(value.get("stable"))):
            raise LedgerError(
                f"delta_seq({name}) value must be {{'values': [...], 'stable': n}} "
                f"with integer entries"
            )
        try:
            value = DeltaSequence(tuple(value["values"]), value["stable"])
        except SequenceError as e:
            raise LedgerError(f"delta_seq({name}): {e}") from None
    elif kind in _BOOL_KINDS:
        if not isinstance(value, bool):
            raise LedgerError(f"fact {kind}({name}) must be a boolean")
    else:
        if not _is_int(value):
            raise LedgerError(f"fact {kind}({name}) must be an integer")

    fact = Fact(knot=name, kind=kind, value=value, provenance=provenance,
                mirror=mirror, q=q, j=j)
    _validate_fact(fact)
    return fact


def _validate_fact(f: Fact) -> None:
    where = f.describe()
    if f.kind == "sigma" and f.value % 2 != 0:
        raise LedgerError(f"{where}: sigma must be even, got {f.value}")
    if f.kind in ("sigma_q", "lt_signature"):
        if f.value % 2 != 0:
            raise LedgerError(f"{where}: signature values must be even, got {f.value}")
        if f.kind == "sigma_q" and f.q % 2 == 1 and f.value % 4 != 0:
            raise LedgerError(
                f"{where}: sigma^(q) must be divisible by 4 for odd q, got {f.value}"
            )
    if f.kind in _NONNEGATIVE and f.value < 0:
        raise LedgerError(f"{where}: must be >= 0, got {f.value}")


def _check_signature_facts_against_matrices(ledger: Ledger) -> None:
    """Ingested signature values must agree with an atom's Seifert matrix
    when both are present (signatures are computable, so a clash is a data
    entry error, not a judgment call)."""
    for f in ledger.facts.values():
        if f.kind not in ("sigma", "sigma_q", "lt_signature"):
            continue
        atom = ledger.atoms.get(f.knot)
        if atom is None or atom.seifert is None:
            continue
        V = atom.seifert.mirror() if f.mirror else atom.seifert
        if f.kind == "sigma":
            computed = signatures.signature(V)
        elif f.kind == "sigma_q":
            computed = signatures.sigma_q(V, f.q)
        else:
            computed = signatures.lt_signature(V, f.q, f.j)
        if computed != f.value:
            raise LedgerError(
                f"{f.describe()}: ingested value {f.value} disagrees with the "
                f"Seifert matrix, which gives {computed}"
            )


def _check_cross_facts(ledger: Ledger) -> None:
    """Consistency between delta sequences and total signatures."""
    for f in ledger.facts.values():
        if f.kind != "delta_seq":
            continue
        sigq = ledger.sigma_q_atom(f.knot, f.q, mirror=f.mirror)
        if sigq is None:
            continue
        seq: DeltaSequence = f.value
        bound = Fraction(-sigq, 2)
        if seq.stable < bound:
            raise LedgerError(
                f"{f.describe()}: stabilizes at {seq.stable} < -sigma^({f.q})/2 = {bound}"
            )
        for jdx in range(seq.prefix_len() + 1):
            v = seq.value_at(jdx)
            if (Fraction(v, 4) + Fraction(sigq, 8)).denominator != 1:
                raise LedgerError(
                    f"{f.describe()}: delta_{jdx} = {v} is not congruent to "
                    f"-sigma^({f.q})/2 mod 4 (sigma^({f.q}) = {sigq})"
                )


def _check_relations(ledger: Ledger) -> None:
    """Where sigma is known on both sides, a positive-to-negative crossing
    change must have sigma(K+) - sigma(K-) in {0, -2}."""
    for rel in ledger.relations:
        sp = ledger.sigma_q_expr(rel.plus, 2)
        sm = ledger.sigma_q_expr(rel.minus, 2)
        if sp is None or sm is None:
            continue
        if sp - sm not in (0, -2):
            raise LedgerError(
                f"crossing relation {expr_to_string(rel.plus)} -> "
                f"{expr_to_string(rel.minus)}: sigma jump {sp - sm} not in {{0, -2}}"
            )


def ledger_from_json(data: dict) -> Ledger:
    if not isinstance(data, dict):
        raise LedgerError("ledger file must contain a JSON object")
    atoms: dict[str, KnotAtom] = {}
    for obj in _list_field(data, "atoms"):
        if isinstance(obj, str):
            obj = {"name": obj}
        if not isinstance(obj, dict):
            raise LedgerError(f"atom must be a name or an object, got {obj!r}")
        name = obj.get("name")
        if not name or not isinstance(name, str):
            raise LedgerError(f"atom missing name: {obj!r}")
        if name in atoms:
            raise LedgerError(f"duplicate atom name {name!r}")
        seifert = None
        if obj.get("seifert") is not None:
            try:
                seifert = SeifertMatrix.from_rows(obj["seifert"])
            except ValueError as e:
                raise LedgerError(f"atom {name!r}: {e}") from None
        atoms[name] = KnotAtom(name=name, seifert=seifert)

    facts: dict[tuple, Fact] = {}
    for obj in _list_field(data, "facts"):
        f = _fact_from_json(obj, atoms)
        if f.key() in facts:
            raise LedgerError(f"duplicate fact {f.describe()}")
        facts[f.key()] = f

    relations = []
    for obj in _list_field(data, "relations"):
        if not isinstance(obj, dict) or not all(
                isinstance(obj.get(side, ""), str) for side in ("plus", "minus")):
            raise LedgerError(
                f"bad crossing relation {obj!r}: 'plus' and 'minus' must be expressions"
            )
        try:
            plus = parse_expression(obj["plus"])
            minus = parse_expression(obj["minus"])
        except (KeyError, ValueError) as e:
            raise LedgerError(f"bad crossing relation {obj!r}: {e}") from None
        relations.append(CrossingRelation(plus=plus, minus=minus))

    ledger = Ledger(atoms=atoms, facts=facts, relations=tuple(relations))
    for rel in ledger.relations:
        ledger.require_atoms(rel.plus)
        ledger.require_atoms(rel.minus)
    _check_signature_facts_against_matrices(ledger)
    _check_cross_facts(ledger)
    _check_relations(ledger)
    return ledger


def load_ledger(path) -> Ledger:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise LedgerError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
        except (ValueError, RecursionError) as e:  # not UTF-8, huge integers, deep nesting
            raise LedgerError(f"{path}: {e}") from None
    return ledger_from_json(data)


def ledger_to_json(ledger: Ledger) -> dict:
    atoms = []
    for atom in ledger.atoms.values():
        obj: dict = {"name": atom.name}
        if atom.seifert is not None:
            obj["seifert"] = atom.seifert.to_lists()
        atoms.append(obj)
    facts = []
    for f in ledger.facts.values():
        obj = {
            "knot": ("-" + f.knot) if f.mirror else f.knot,
            "kind": f.kind,
        }
        if f.q is not None:
            obj["q"] = f.q
        if f.j is not None:
            obj["j"] = f.j
        if isinstance(f.value, DeltaSequence):
            obj["value"] = {"values": list(f.value.values), "stable": f.value.stable}
        else:
            obj["value"] = f.value
        obj["provenance"] = f.provenance
        facts.append(obj)
    relations = [
        {"plus": expr_to_string(r.plus), "minus": expr_to_string(r.minus)}
        for r in ledger.relations
    ]
    return {"atoms": atoms, "facts": facts, "relations": relations}


def write_ledger(ledger: Ledger, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger_to_json(ledger), fh, indent=1)
        fh.write("\n")


def seed_ledger_text() -> str:
    return resources.files("knotconc").joinpath("data/seed_ledger.json").read_text("utf-8")


def load_seed_ledger() -> Ledger:
    return ledger_from_json(json.loads(seed_ledger_text()))
