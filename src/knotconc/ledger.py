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
such as delta sequences and lowest HF^+ degrees of -K are recorded.  Delta
sequences are encoded as {"values": [...], "stable": n}.

One table, ``_KINDS``, says for each fact kind what type its value has,
whether it is parameterized by a prime (a "q" field, at most
``cyclotomic.MAX_Q``; "lt_signature" also carries "j") and how it behaves
under mirroring: signatures and the concordance homomorphisms (tau, s, delta
variants) change sign, genus, unknotting and family data are
mirror-invariant, and delta sequences / ell values are served only for the
exact side they were ingested for.  Exact values ingested for both sides
must agree under that rule; bounds (g4_upper, g4_lower, unknotting_upper)
may differ.

``Ledger.quantity`` is the one lookup of an atom's quantity: it applies the
mirror rule and the fallbacks (g4 to g4_upper; sigma_q to sigma at q = 2 and
then to the Seifert matrix) and returns the value with the one fact it was
read from.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Optional, Union

from .cyclotomic import MAX_Q, is_prime
from .knots import ExpressionError, Key, expr_to_string, parse_expression
from .seifert import SeifertMatrix
from .sequences import DeltaSequence, SequenceError
from . import DataError, Record, signatures


class LedgerError(ValueError, DataError):
    pass


# kind -> (value type, takes q, mirror rule).  The mirror rule says what a
# fact about one side gives for the other: -1 for f(-K) = -f(K), +1 for
# f(-K) = f(K), 0 for nothing (served only for the side it was ingested for).
_KINDS: dict[str, tuple[type, bool, int]] = {
    "sigma": (int, False, -1),
    "sigma_q": (int, True, -1),
    "lt_signature": (int, True, -1),
    "tau": (int, False, -1),
    "s": (int, False, -1),
    "delta_MO": (int, False, -1),
    "delta_q_jabuka": (int, True, -1),
    "g4": (int, False, 1),
    "g4_upper": (int, False, 1),
    "g4_lower": (int, False, 1),
    "unknotting_upper": (int, False, 1),
    "ell_q": (int, True, 0),
    "quasi_alternating": (bool, False, 1),
    "slice": (bool, False, 1),
    "l_space": (bool, True, 1),
    "delta_seq": (DeltaSequence, True, 0),
}
# kinds whose value bounds the invariant rather than giving it; the two sides
# of a knot may carry different bounds
_BOUNDS = {"g4_upper", "g4_lower", "unknotting_upper"}
_NONNEGATIVE = {"g4", *_BOUNDS}

FactValue = Union[int, bool, DeltaSequence]


class Fact(Record, frozen=True):
    __slots__ = ("knot", "kind", "value", "provenance", "mirror", "q", "j")

    def __init__(self, knot: str, kind: str, value: FactValue, provenance: str,
                 mirror: bool = False, q: Optional[int] = None, j: Optional[int] = None):
        self._assign(knot, kind, value, provenance, mirror, q, j)

    def key(self) -> tuple:
        return (self.knot, self.mirror, self.kind, self.q, self.j)

    def describe(self) -> str:
        side = f"-{self.knot}" if self.mirror else self.knot
        qpart = f", q={self.q}" if self.q is not None else ""
        return f"{self.kind}({side}{qpart})"

    def mirror_value(self) -> Optional[FactValue]:
        """What the fact gives for the other side of its knot under its
        kind's mirror rule; None for a kind served for one side only."""
        rule = _KINDS[self.kind][2]
        return None if rule == 0 else self.value if rule == 1 else -self.value


class Ledger(Record):
    """``atoms`` maps an atom name to its Seifert matrix, or None for an atom
    ingested without one; ``facts`` maps each fact's ``key()`` to it; each
    relation (K+, K-) says that changing a positive crossing of K+ to
    negative gives K-.  ``derived`` keeps what readers derive from the
    ledger alone, in a slot that is not a field."""

    __slots__ = ("atoms", "facts", "relations", "_derived")

    def __init__(self, atoms: dict[str, Optional[SeifertMatrix]],
                 facts: Optional[dict[tuple, Fact]] = None,
                 relations: tuple[tuple[Key, Key], ...] = ()):
        self.atoms = atoms
        self.facts = {} if facts is None else facts
        self.relations = relations
        self._derived: dict = {}

    def derived(self, key, make):
        """The object ``make()`` returned the first time ``key`` was asked.
        It lives and dies with this ledger, which no one changes after load,
        so it may hold whatever follows from the ledger alone.  Threads that
        race here may each call ``make``; all get the first one stored."""
        found = self._derived.get(key)
        if found is None:
            found = self._derived.setdefault(key, make())
        return found

    # -- lookup -------------------------------------------------------------

    def fact(self, name: str, kind: str, mirror: bool = False,
             q: Optional[int] = None, j: Optional[int] = None) -> Optional[Fact]:
        return self.facts.get((name, mirror, kind, q, j))

    def quantity(self, name: str, kind: str, mirror: bool = False,
                 q: Optional[int] = None) -> tuple[Optional[FactValue], list[Fact]]:
        """The value of ``kind`` for an atom or its mirror, and the one fact
        it was read from.

        The kinds are tried in turn: g4 then g4_upper; sigma_q, then sigma
        at q = 2, then the atom's Seifert matrix, which cites no fact.  For
        each kind this side's fact is read, or else the other side's under
        the kind's mirror rule.  q is dropped for kinds that do not take one.
        Without a value, nothing is cited.
        """
        kinds = [kind]
        if kind == "g4":
            kinds.append("g4_upper")
        elif kind == "sigma_q" and q == 2:
            kinds.append("sigma")
        for k in kinds:
            kq = q if _KINDS[k][1] else None
            f = self.fact(name, k, mirror=mirror, q=kq)
            if f is not None:
                return f.value, [f]
            f = self.fact(name, k, mirror=not mirror, q=kq)
            if f is not None and f.mirror_value() is not None:
                return f.mirror_value(), [f]
        matrix = self.atoms.get(name)
        if kind == "sigma_q" and matrix is not None:
            value = _sigma_q_of_matrix(matrix, q)
            return (-value if mirror else value), []
        return None, []

    def sigma_q_expr(self, key: Key, q: int) -> Optional[int]:
        """sigma^(q) of a formal sum, by additivity over summands."""
        total = 0
        for name, mirrored in key:
            v = self.quantity(name, "sigma_q", mirror=mirrored, q=q)[0]
            if v is None:
                return None
            total += v
        return total

    def require_atoms(self, key: Key) -> None:
        for name, _ in key:
            if name not in self.atoms:
                raise LedgerError(f"unknown knot atom {name!r}")


# Shared by every ledger in the process; bounded so that memory does not
# grow with every distinct matrix queried (the seed ledger needs 27 atoms x
# the q values in use).  Keyed by the frozen matrix, checked once at load.
@lru_cache(maxsize=4096)
def _sigma_q_of_matrix(matrix: SeifertMatrix, q: int) -> int:
    return signatures.sigma_q(matrix, q)


# -- parsing and validation ---------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise LedgerError(f"ledger field {key!r} must be a list, got {value!r}")
    return value


def _is_knot_name(name: str) -> bool:
    """Whether the expression grammar reads ``name`` as that one atom."""
    try:
        return parse_expression(name) == ((name, False),)
    except ExpressionError:
        return False


def _fact_from_json(obj: dict, atoms: dict[str, Optional[SeifertMatrix]]) -> Fact:
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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise LedgerError(f"unknown fact kind {kind!r} for knot {name!r}")

    value_type, takes_q, _ = _KINDS[kind]
    q = obj.get("q")
    j = obj.get("j")
    if takes_q:
        # size first: the message names MAX_Q, and is_prime raises beyond its exact range
        if not _is_int(q) or q > MAX_Q or not is_prime(q):
            raise LedgerError(f"fact {kind}({name}) needs a prime q <= {MAX_Q}, got {q!r}")
    elif q is not None:
        raise LedgerError(f"fact {kind}({name}) does not take q")
    if kind == "lt_signature":
        if not _is_int(j) or not 1 <= j <= q - 1:
            raise LedgerError(f"lt_signature({name}) needs 1 <= j <= q-1, got {j!r}")
    elif j is not None:
        raise LedgerError(f"fact {kind}({name}) does not take j")

    if value_type is DeltaSequence:
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
    elif value_type is bool:
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
        matrix = ledger.atoms.get(f.knot)
        if matrix is None:
            continue
        if f.kind == "sigma_q":
            computed = _sigma_q_of_matrix(matrix, f.q)
        else:  # sigma is sigma_K(-1), the one Levine-Tristram value at q = 2
            computed = signatures.lt_signature(matrix, f.q or 2, f.j or 1)
        # every Levine-Tristram signature changes sign under mirroring
        if f.mirror:
            computed = -computed
        if computed != f.value:
            raise LedgerError(
                f"{f.describe()}: ingested value {f.value} disagrees with the "
                f"Seifert matrix, which gives {computed}"
            )


def _check_cross_facts(ledger: Ledger) -> None:
    """Consistency between delta sequences and total signatures: each term
    is congruent to -sigma^(q)/2 mod 4 and the stable value is -sigma^(q)/2."""
    for f in ledger.facts.values():
        if f.kind != "delta_seq":
            continue
        sigq = ledger.quantity(f.knot, "sigma_q", mirror=f.mirror, q=f.q)[0]
        if sigq is None:
            continue
        seq: DeltaSequence = f.value
        for jdx, v in enumerate((*seq.values, seq.stable)):
            if (Fraction(v, 4) + Fraction(sigq, 8)).denominator != 1:
                raise LedgerError(
                    f"{f.describe()}: delta_{jdx} = {v} is not congruent to "
                    f"-sigma^({f.q})/2 mod 4 (sigma^({f.q}) = {sigq})"
                )
        # a stable value below -sigma/2 is impossible, and the theta scan
        # (j_value_m at m = 0) needs it at most -sigma/2
        bound = Fraction(-sigq, 2)
        if seq.stable != bound:
            raise LedgerError(
                f"{f.describe()}: stabilizes at {seq.stable} != -sigma^({f.q})/2 = {bound}"
            )


def _check_relations(ledger: Ledger) -> None:
    """Where sigma is known on both sides, a positive-to-negative crossing
    change must have sigma(K+) - sigma(K-) in {0, -2}."""
    for plus, minus in ledger.relations:
        sp = ledger.sigma_q_expr(plus, 2)
        sm = ledger.sigma_q_expr(minus, 2)
        if sp is None or sm is None:
            continue
        if sp - sm not in (0, -2):
            raise LedgerError(
                f"crossing relation {expr_to_string(plus)} -> "
                f"{expr_to_string(minus)}: sigma jump {sp - sm} not in {{0, -2}}"
            )


def ledger_from_json(data: dict) -> Ledger:
    if not isinstance(data, dict):
        raise LedgerError("ledger file must contain a JSON object")
    atoms: dict[str, Optional[SeifertMatrix]] = {}
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
        if not _is_knot_name(name):
            raise LedgerError(f"atom name {name!r} is not a single knot name")
        atoms[name] = None
        if obj.get("seifert") is not None:
            try:
                atoms[name] = SeifertMatrix.from_rows(obj["seifert"])
            except ValueError as e:
                raise LedgerError(f"atom {name!r}: {e}") from None

    facts: dict[tuple, Fact] = {}
    for obj in _list_field(data, "facts"):
        f = _fact_from_json(obj, atoms)
        if f.key() in facts:
            raise LedgerError(f"duplicate fact {f.describe()}")
        # exact values ingested for both sides must agree under the mirror rule
        other = facts.get((f.knot, not f.mirror, f.kind, f.q, f.j))
        if (other is not None and f.kind not in _BOUNDS and f.mirror_value() is not None
                and f.mirror_value() != other.value):
            raise LedgerError(f"{other.describe()} = {other.value} and {f.describe()} = "
                              f"{f.value} disagree under mirroring")
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
        relations.append((plus, minus))

    ledger = Ledger(atoms=atoms, facts=facts, relations=tuple(relations))
    for plus, minus in ledger.relations:
        ledger.require_atoms(plus + minus)
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


def seed_ledger_text() -> str:
    return resources.files("knotconc").joinpath("data/seed_ledger.json").read_text("utf-8")


def load_seed_ledger() -> Ledger:
    return ledger_from_json(json.loads(seed_ledger_text()))
