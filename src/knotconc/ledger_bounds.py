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

Each signed atom has one row, read once per query: its sigma^(q), g4 (or
g4_upper), unknotting_upper and delta^(q) (delta_MO at q = 2,
delta_q_jabuka otherwise), None where the ledger lacks one.  A key's
additive quantities are the sums of its atoms' rows.  A row cites the fact
behind each value it holds when it is read, even where a sum it enters is
None.  That is exact: every signed atom of a universe is itself a node, and
a node's bounds read all four values of its row anyway.  ``theta_m``'s
exact value reads no row, so it cites only the delta sequence or family
flag and the signatures it reads.

The same object reduces a query to its concordance class, and ``bounds``
also returns the unknotting sum that R6 reads.  It reads the ledger only
through ``Ledger.quantity``, records in ``provenance`` the fact behind each
value it uses, and lives for one query.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional

from .knots import Key, SignedAtom, mirror_atoms
from .ledger import FactValue, Ledger
from .sequences import DeltaSequence, ell_lower_bound, theta_from_mirror_delta

# (lower, upper, why): a bound on theta in lattice steps, None where the
# rule gives none
Bound = tuple[Optional[int], Optional[int], str]


class LedgerBounds:
    def __init__(self, ledger: Ledger, q: int):
        self.ledger = ledger
        self.q = q
        self.provenance: dict[str, str] = {}
        self._kinds = ("sigma_q", "g4", "unknotting_upper",
                       "delta_MO" if q == 2 else "delta_q_jabuka")
        self._rows: dict[SignedAtom, tuple[Optional[int], ...]] = {}

    def _quantity(self, name: str, kind: str, mirror: bool = False) -> Optional[FactValue]:
        """A ledger quantity of one atom or its mirror at this q.  The fact
        behind it is noted when the value is used: any value but None,
        except that a flag is used only when it is True."""
        value, facts = self.ledger.quantity(name, kind, mirror=mirror, q=self.q)
        if value is not None and value is not False:
            for f in facts:
                self.provenance[f.describe()] = f.provenance
        return value

    # -- concordance reduction ---------------------------------------------

    def reduce(self, key: Key) -> Key:
        """Drop slice summands and cancel K + (-K) pairs; theta only sees
        the concordance class."""
        counts: Counter = Counter()
        for name, mirrored in key:
            if self._quantity(name, "slice", mirrored) is True:
                continue
            counts[(name, mirrored)] += 1
        for name in {n for n, _ in counts}:
            k = min(counts[(name, False)], counts[(name, True)])
            if k:
                counts[(name, False)] -= k
                counts[(name, True)] -= k
        return tuple(sorted(counts.elements()))

    def relations(self) -> list[tuple[Key, Key]]:
        """The ledger's crossing-change relations, reduced, and their
        mirrors: if K+ -> K- is one, so is -K- -> -K+.  A relation whose
        reduced ends are equal is left out, with its mirror: R3 on a node
        paired with itself never tightens a bound."""
        out = []
        for plus, minus in self.ledger.relations:
            plus = self.reduce(plus)
            minus = self.reduce(minus)
            if plus != minus:
                out.append((plus, minus))
                out.append((mirror_atoms(minus), mirror_atoms(plus)))
        return out

    # -- rows ------------------------------------------------------------------

    def _sums(self, key: Key) -> list[Optional[int]]:
        """sigma^(q), g4, unknotting_upper and delta^(q) of a connected sum:
        each the sum over its atoms' rows, or None if a row lacks it."""
        rows = []
        for atom in key:
            row = self._rows.get(atom)
            if row is None:
                row = self._rows[atom] = tuple(
                    [self._quantity(atom[0], kind, atom[1]) for kind in self._kinds])
            rows.append(row)
        return [None if None in col else sum(col) for col in zip(*rows, (0, 0, 0, 0))]

    def _closed_form(self, name: str) -> Optional[str]:
        """The family whose closed form gives an atom's theta and delta
        sequence: quasi-alternating at q = 2, else an L-space branched
        cover; None for neither."""
        if self.q == 2 and self._quantity(name, "quasi_alternating") is True:
            return "quasi-alternating"
        if self._quantity(name, "l_space") is True:
            return "L-space"
        return None

    def _mirror_sequence(self, atom: SignedAtom) -> Optional[DeltaSequence]:
        """Exact delta sequence of the mirror of an atom, from an ingested
        fact or from a closed-form family flag."""
        name, mirrored = atom
        seq = self._quantity(name, "delta_seq", not mirrored)
        if seq is not None:
            return seq
        sig_mirror = self._quantity(name, "sigma_q", not mirrored)
        if sig_mirror is None or self._closed_form(name) is None:
            return None
        return DeltaSequence.constant(-sig_mirror // 2)

    # -- rules ----------------------------------------------------------------

    def bounds(self, key: Key) -> tuple[list[Bound], Optional[int]]:
        """What R1, R4, R5, R7 and R8 give at key, in lattice steps, with R7
        and R8 at m = 0, and the unknotting sum that R6 reads."""
        q, step = self.q, self.q - 1
        sig, g4, u, delta = self._sums(key)
        out: list[Bound] = []
        if sig is not None:
            out.append((-sig // 2, None, f"R1 signature lower bound, sigma^({q}) = {sig}"))
        if g4 is not None:
            out.append((None, g4 * step, f"R1 slice genus upper bound, g4 <= {g4}"))
        family = None if len(key) != 1 or sig is None else self._closed_form(key[0][0])
        if family is not None:
            value = max(0, -sig // 2)
            out.append((value, value, f"R4 {family} closed form"))
        if sig is not None and delta is not None and sig <= 0 and 2 * delta < -sig:
            out.append((1 - sig // 2, None,
                        f"R5 delta jump: delta^({q}) = {delta} < -sigma/2 = "
                        f"{Fraction(-sig, 2)} with sigma <= 0"))
        if len(key) != 1:
            return out, u
        name, mirrored = key[0]
        ell = None if sig is None else self._quantity(name, "ell_q", not mirrored)
        if ell is not None:
            out.append((ell - 3 * sig // 4, None,
                        f"R7 HF+ degree bound: ell^({q})(mirror) = {ell}"))
        seq = self._mirror_sequence(key[0])
        if seq is not None and sig is not None:
            value = int(theta_from_mirror_delta(q, seq, sig) * step)
            out.append((value, value, "R8 exact delta sequence of the mirror"))
        return out, u

    def theta_m(self, key: Key, m: int) -> tuple[Optional[Fraction], ...]:
        """(exact, r1, r7) for theta(K, m): R8's exact value, or else None
        and the lower bounds of R1 and R7, unrounded, each None where the
        rule gives none.  With an exact value nothing else is read, so it
        cites only the facts R8 reads."""
        if len(key) == 1:
            name, mirrored = key[0]
            seq = self._mirror_sequence(key[0])
            sig = None if seq is None else self._quantity(name, "sigma_q", mirrored)
            if sig is not None:
                return theta_from_mirror_delta(self.q, seq, sig, m), None, None
        sig = self._sums(key)[0]
        if sig is None:
            return None, None, None
        ell = None if len(key) != 1 else self._quantity(name, "ell_q", not mirrored)
        return (None, Fraction(-sig, 2 * (self.q - 1)),
                None if ell is None else ell_lower_bound(self.q, ell, sig, m))
