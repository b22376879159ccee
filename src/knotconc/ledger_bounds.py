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

R7 and R8 bound the m-shifted invariant theta(K, m), and R1's lower bound
holds for it at every m: the engine reads them at m = 0, where theta(K, 0)
is theta(K), and ``infer.infer_theta_m`` at its own m.

The same object reduces a query to its concordance class and serves the
ledger quantities the engine's other rules need.  It reads the ledger only
through ``Ledger.quantity`` and records in ``provenance`` the fact behind
each value it uses.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional

from .knots import Key, SignedAtom, mirror_atoms
from .ledger import FactValue, Ledger
from .sequences import DeltaSequence, ell_lower_bound, theta_from_mirror_delta

# (lower, upper, why): a bound on theta, None where the rule gives none
Bound = tuple[Optional[Fraction], Optional[Fraction], str]


class LedgerBounds:
    def __init__(self, ledger: Ledger, q: int):
        self.ledger = ledger
        self.q = q
        self.provenance: dict[str, str] = {}
        self._atom_quantities: dict[tuple[str, SignedAtom], Optional[int]] = {}

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

    # -- additive quantities ------------------------------------------------

    def _additive(self, key: Key, kind: str) -> Optional[int]:
        """An additive ledger quantity of a connected sum: the sum over its
        summands, or None if one of them lacks it.  Each summand is looked
        up once.  Its facts are noted when it has a value, which notes what
        summing key by key would, since the engine asks about every summand
        of a key on its own too."""
        total = 0
        for atom in key:
            if (kind, atom) not in self._atom_quantities:
                self._atom_quantities[(kind, atom)] = self._quantity(atom[0], kind, atom[1])
            v = self._atom_quantities[(kind, atom)]
            if v is None:
                return None
            total += v
        return total

    def sigma_q(self, key: Key) -> Optional[int]:
        return self._additive(key, "sigma_q")

    def delta_hom(self, key: Key) -> Optional[int]:
        """Additive delta invariant: Manolescu-Owens for q = 2, the branched
        q-cover d-invariant for odd q."""
        return self._additive(key, "delta_MO" if self.q == 2 else "delta_q_jabuka")

    def u_upper(self, key: Key) -> Optional[int]:
        return self._additive(key, "unknotting_upper")

    def mirror_delta_seq(self, key: Key) -> Optional[DeltaSequence]:
        """Exact delta sequence of the mirror of a single-atom key, from an
        ingested fact or from a closed-form family flag."""
        if len(key) != 1:
            return None
        name, mirrored = key[0]
        seq = self._quantity(name, "delta_seq", not mirrored)
        if seq is not None:
            return seq
        sig_mirror = self.sigma_q(mirror_atoms(key))
        if sig_mirror is None or self._closed_form(name) is None:
            return None
        return DeltaSequence.constant(-sig_mirror // 2)

    def ell_mirror(self, key: Key) -> Optional[int]:
        """ell^(q) of the mirror of a single-atom key."""
        if len(key) != 1:
            return None
        name, mirrored = key[0]
        return self._quantity(name, "ell_q", not mirrored)

    def _closed_form(self, name: str) -> Optional[str]:
        """The family whose closed form gives an atom's theta and delta
        sequence: quasi-alternating at q = 2, else an L-space branched
        cover; None for neither."""
        if self.q == 2 and self._quantity(name, "quasi_alternating") is True:
            return "quasi-alternating"
        if self._quantity(name, "l_space") is True:
            return "L-space"
        return None

    # -- rules ----------------------------------------------------------------

    def bounds(self, key: Key) -> list[Bound]:
        """What R1, R4, R5, R7 and R8 give at key, with R7 and R8 at m = 0."""
        return (self.r1_signature(key) + self._r1_genus(key) + self._r4(key)
                + self._r5(key) + self.r7(key, 0) + self.r8(key, 0))

    def r1_signature(self, key: Key) -> list[Bound]:
        """R1's lower bound; it holds for theta(K, m) at every m."""
        sigq = self.sigma_q(key)
        if sigq is None:
            return []
        return [(Fraction(-sigq, 2 * (self.q - 1)), None,
                 f"R1 signature lower bound, sigma^({self.q}) = {sigq}")]

    def _r1_genus(self, key: Key) -> list[Bound]:
        g4 = self._additive(key, "g4")
        if g4 is None:
            return []
        return [(None, Fraction(g4), f"R1 slice genus upper bound, g4 <= {g4}")]

    def _r4(self, key: Key) -> list[Bound]:
        if len(key) != 1:
            return []
        sigq = self.sigma_q(key)
        family = None if sigq is None else self._closed_form(key[0][0])
        if family is None:
            return []
        value = max(Fraction(0), Fraction(-sigq, 2 * (self.q - 1)))
        return [(value, value, f"R4 {family} closed form")]

    def _r5(self, key: Key) -> list[Bound]:
        sigq = self.sigma_q(key)
        delta = self.delta_hom(key)
        if sigq is None or delta is None:
            return []
        if sigq <= 0 and Fraction(delta) < Fraction(-sigq, 2):
            return [(Fraction(1, self.q - 1) + Fraction(-sigq, 2 * (self.q - 1)), None,
                     f"R5 delta jump: delta^({self.q}) = {delta} < -sigma/2 = "
                     f"{Fraction(-sigq, 2)} with sigma <= 0")]
        return []

    def r7(self, key: Key, m: int) -> list[Bound]:
        """R7's lower bound on theta(K, m)."""
        sigq = self.sigma_q(key)
        ell = None if sigq is None else self.ell_mirror(key)
        if ell is None:
            return []
        return [(ell_lower_bound(self.q, ell, sigq, m), None,
                 f"R7 HF+ degree bound: ell^({self.q})(mirror) = {ell}")]

    def r8(self, key: Key, m: int) -> list[Bound]:
        """R8's exact value of theta(K, m)."""
        seq = self.mirror_delta_seq(key)
        if seq is None:
            return []
        sigq = self.sigma_q(key)
        if sigq is None:
            return []
        value = theta_from_mirror_delta(self.q, seq, sigq, m)
        return [(value, value, "R8 exact delta sequence of the mirror")]
