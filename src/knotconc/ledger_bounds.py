"""The theta^(q) bounds the ledger gives one connected sum directly.

The inference engine (``infer``) works over connected sums of signed atoms,
each kept as a sorted tuple, its key.  The rules here read only the ledger,
never a bound the engine derived, so the engine applies them once per key:

  R1  signature / genus:     max(0, -sigma^(q)/(2(q-1))) <= theta <= g4
  R4  closed form:           quasi-alternating (q = 2) or L-space branched
                             cover gives theta = max(0, -sigma^(q)/(2(q-1)))
  R5  delta jump:            delta^(q) < -sigma^(q)/2 and sigma^(q) <= 0
                             force theta >= 1/(q-1) - sigma^(q)/(2(q-1))
  R7  HF+ degree:            theta(K, m) >= ell^(q)(-K)/(q-1) - m/(2(q-1))
                                            - 3 sigma^(q)/(4(q-1))
  R8  exact sequence:        a full delta sequence for the mirror pins
                             theta(K, m) exactly through the j-scan

R4, R7 and R8 read single-atom keys.  R7 and R8 bound theta(K, m), and R1's
lower bound holds for it at every m: ``bounds`` reads them at m = 0, where
theta(K, 0) is theta(K), and ``theta_m`` (for ``infer.infer_theta_m``) at
its own m.

``bounds`` counts in lattice steps 1/(q-1), the engine's unit: theta lies on
(1/(q-1)) Z, so a lower bound is rounded up to a step and an upper bound
down.  With sigma^(q) even, R1 and R4 give -sigma^(q)/2 steps, R5
1 - sigma^(q)/2 and R7 ell^(q)(-K) - floor(3 sigma^(q)/4).

One table per (ledger, q), kept by ``Ledger.derived`` and so dying with
its ledger, holds an entry per signed atom, made when a query first needs
it: its row (sigma^(q), g4 or g4_upper, unknotting_upper, and delta_MO at
q = 2 or delta_q_jabuka, each None where the ledger lacks it), one-atom
bounds and what ``theta_m`` reads, each with the facts behind it.  A key's
additive quantities are the sums of its atoms' rows.  Slice flags and the
ledger's relations, reduced once, take no q and are kept once per ledger,
so that a reduction reads no other fact.  Threads that race for an entry
each make an equal one, and all keep the first stored: no lock.

A query cites the facts behind the entries it read: ``reduce`` those of
the slice atoms it drops, and the engine each one-atom node's whole entry,
every value of its row even where a sum it enters is None.  That is exact:
every signed atom of a universe is itself a node, and a node's bounds read
all of its atoms' rows.  ``theta_m``'s exact value reads no row, so it
cites only the delta sequence or family flag and the signatures it reads.
A ``LedgerBounds``, a view of the table made per query, reads the ledger
only through ``Ledger.quantity``, to make an entry.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional

from . import Record
from .knots import Key, SignedAtom, mirror_atoms
from .ledger import FactValue, Ledger
from .sequences import DeltaSequence, ell_lower_bound, theta_from_mirror_delta

# (lower, upper, why): a bound on theta in lattice steps, None where the
# rule gives none
Bound = tuple[Optional[int], Optional[int], str]
Cited = dict[str, str]


class AtomEntry(Record, frozen=True):
    """A signed atom's entry (see above); ``exact_cited`` is None where
    ``theta_m`` has no exact value."""

    __slots__ = ("row", "bounds", "seq", "ell", "cited", "exact_cited")

    def __init__(self, row, bounds, seq, ell, cited, exact_cited):
        self._assign(row, bounds, seq, ell, cited, exact_cited)


class LedgerBounds:
    def __init__(self, ledger: Ledger, q: int):
        self.ledger = ledger
        self.q = q
        self._atoms: dict[SignedAtom, AtomEntry] = ledger.derived(("atoms", q), dict)
        self._slice: dict[SignedAtom, Cited] = ledger.derived("slice", dict)

    def _read(self, cited: Cited, name: str, kind: str,
              mirror: bool = False) -> Optional[FactValue]:
        """A ledger quantity of one atom or its mirror at this q.  The fact
        behind it goes into ``cited`` when the value is used: any value but
        None, except that a flag is used only when it is True."""
        value, facts = self.ledger.quantity(name, kind, mirror=mirror, q=self.q)
        if value is not None and value is not False:
            for f in facts:
                cited[f.describe()] = f.provenance
        return value

    # -- the table ---------------------------------------------------------

    def atom(self, atom: SignedAtom) -> AtomEntry:
        """A signed atom's entry, made the first time it is asked."""
        entry = self._atoms.get(atom)
        if entry is None:
            entry = self._atoms.setdefault(atom, self._entry(atom))
        return entry

    def _slice_fact(self, atom: SignedAtom) -> Cited:
        """The fact that a signed atom is slice, empty where none says so."""
        cited = self._slice.get(atom)
        if cited is None:
            cited = {}
            self._read(cited, atom[0], "slice", atom[1])
            cited = self._slice.setdefault(atom, cited)
        return cited

    def _entry(self, atom: SignedAtom) -> AtomEntry:
        name, mirrored = atom
        q, step = self.q, self.q - 1
        # theta_m's exact value reads sigma^(q) and the mirror's exact delta
        # sequence, ingested or from a closed-form family flag
        exact: Cited = {}
        sig = self._read(exact, name, "sigma_q", mirrored)
        seq = self._read(exact, name, "delta_seq", not mirrored)
        if seq is None and sig is not None:
            sig_mirror = self._read(exact, name, "sigma_q", not mirrored)
            if self._closed_form(exact, name) is not None:
                seq = DeltaSequence.constant(-sig_mirror // 2)
        cited = dict(exact)
        g4, u, delta = [self._read(cited, name, kind, mirrored) for kind in
                        ("g4", "unknotting_upper", "delta_MO" if q == 2 else "delta_q_jabuka")]
        family = None if sig is None else self._closed_form(cited, name)
        rules = self._rules(sig, g4, delta, family)
        ell = None if sig is None else self._read(cited, name, "ell_q", not mirrored)
        if ell is not None:
            rules.append((ell - 3 * sig // 4, None,
                          f"R7 HF+ degree bound: ell^({q})(mirror) = {ell}"))
        if seq is not None and sig is not None:
            value = int(theta_from_mirror_delta(q, seq, sig) * step)
            rules.append((value, value, "R8 exact delta sequence of the mirror"))
        return AtomEntry(row=(sig, g4, u, delta), bounds=(tuple(rules), u),
                         seq=seq, ell=ell, cited=cited,
                         exact_cited=None if seq is None or sig is None else exact)

    def _closed_form(self, cited: Cited, name: str) -> Optional[str]:
        """The family whose closed form gives an atom's theta and delta
        sequence: quasi-alternating at q = 2, else an L-space branched
        cover; None for neither."""
        if self.q == 2 and self._read(cited, name, "quasi_alternating") is True:
            return "quasi-alternating"
        if self._read(cited, name, "l_space") is True:
            return "L-space"
        return None

    # -- concordance reduction ---------------------------------------------

    def reduce(self, key: Key, cited: Cited) -> Key:
        """Drop slice summands, citing them in ``cited``, and cancel
        K + (-K) pairs; theta only sees the concordance class."""
        counts: Counter = Counter()
        for atom in key:
            slice_fact = self._slice_fact(atom)
            if slice_fact:
                cited.update(slice_fact)
            else:
                counts[atom] += 1
        for name in {n for n, _ in counts}:
            k = min(counts[(name, False)], counts[(name, True)])
            if k:
                counts[(name, False)] -= k
                counts[(name, True)] -= k
        return tuple(sorted(counts.elements()))

    def relations(self) -> tuple[list[tuple[Key, Key]], Cited]:
        """The ledger's crossing-change relations, reduced, and their
        mirrors: if K+ -> K- is one, so is -K- -> -K+.  A relation whose
        reduced ends are equal is left out, with its mirror: R3 on a node
        paired with itself never tightens a bound.  With them come the slice
        facts their reduction cites, kept once per ledger."""
        return self.ledger.derived("relations", self._reduce_relations)

    def _reduce_relations(self) -> tuple[list[tuple[Key, Key]], Cited]:
        out, cited = [], {}
        for plus, minus in self.ledger.relations:
            plus = self.reduce(plus, cited)
            minus = self.reduce(minus, cited)
            if plus != minus:
                out.append((plus, minus))
                out.append((mirror_atoms(minus), mirror_atoms(plus)))
        return out, cited

    # -- rules ----------------------------------------------------------------

    def _sums(self, key: Key) -> list[Optional[int]]:
        """sigma^(q), g4, unknotting_upper and delta^(q) of a connected sum:
        each the sum over its atoms' rows, or None if a row lacks it."""
        rows = [self.atom(atom).row for atom in key]
        return [None if None in col else sum(col) for col in zip(*rows, (0, 0, 0, 0))]

    def _rules(self, sig: Optional[int], g4: Optional[int], delta: Optional[int],
               family: Optional[str] = None) -> list[Bound]:
        """R1, R4 for a one-atom key of a closed-form ``family``, and R5."""
        q, step = self.q, self.q - 1
        out: list[Bound] = []
        if sig is not None:
            out.append((-sig // 2, None, f"R1 signature lower bound, sigma^({q}) = {sig}"))
        if g4 is not None:
            out.append((None, g4 * step, f"R1 slice genus upper bound, g4 <= {g4}"))
        if family is not None:
            value = max(0, -sig // 2)
            out.append((value, value, f"R4 {family} closed form"))
        if sig is not None and delta is not None and sig <= 0 and 2 * delta < -sig:
            out.append((1 - sig // 2, None,
                        f"R5 delta jump: delta^({q}) = {delta} < -sigma/2 = "
                        f"{Fraction(-sig, 2)} with sigma <= 0"))
        return out

    def bounds(self, key: Key) -> tuple[list[Bound], Optional[int]]:
        """What R1, R4, R5, R7 and R8 give at key, in lattice steps, with R7
        and R8 at m = 0, and the unknotting sum that R6 reads."""
        if len(key) == 1:
            rules, u = self.atom(key[0]).bounds
            return list(rules), u
        sig, g4, u, delta = self._sums(key)
        return self._rules(sig, g4, delta), u

    def theta_m(self, key: Key, m: int, cited: Cited) -> tuple[Optional[Fraction], ...]:
        """(exact, r1, r7) for theta(K, m): R8's exact value, or else None
        and the lower bounds of R1 and R7, unrounded, each None where the
        rule gives none.  Only an exact value cites, in ``cited``: the facts
        R8 reads."""
        if len(key) == 1:
            entry = self.atom(key[0])
            if entry.exact_cited is not None:
                cited.update(entry.exact_cited)
                return theta_from_mirror_delta(self.q, entry.seq, entry.row[0], m), None, None
        sig = self._sums(key)[0]
        if sig is None:
            return None, None, None
        ell = None if len(key) != 1 else entry.ell
        return (None, Fraction(-sig, 2 * (self.q - 1)),
                None if ell is None else ell_lower_bound(self.q, ell, sig, m))
