"""Fixed-point inference of theta^(q) bounds over a fact ledger.

Each queried knot expression gets an interval [lower, upper] of possible
theta^(q) values, tightened by a monotone rule set until nothing changes:

  R1  signature / genus:     max(0, -sigma^(q)/(2(q-1))) <= theta <= g4
  R2  subadditivity:         theta(A + B) <= theta(A) + theta(B), plus the
                             concordance rearrangements it implies
                             (theta(A + B) >= theta(A) - theta(-B), ...)
  R3  crossing change:       0 <= theta(K+) - theta(K-) <= 1 along ledger
                             relations, their mirrors, and their connected
                             sums with a common summand
  R4  closed form:           quasi-alternating (q = 2) or L-space branched
                             cover gives theta = max(0, -sigma^(q)/(2(q-1)))
  R5  delta jump:            delta^(q) < -sigma^(q)/2 and sigma^(q) <= 0
                             force theta >= 1/(q-1) - sigma^(q)/(2(q-1))
  R6  unknotting:            theta(K) + theta(-K) <= u(K)
  R7  HF+ degree:            theta >= ell^(q)(-K)/(q-1) - 3 sigma^(q)/(4(q-1))
  R8  exact sequence:        a full delta sequence for the mirror pins theta
                             exactly through the j-scan

plus the concordance facts that slice summands and K + (-K) pairs do not
change theta.  R1, R4, R5, R7 and R8 read only the ledger and live in
``ledger_bounds``, which gives them in lattice steps from one table per
(ledger, q), shared by every query on that ledger and dying with it: an
entry per signed atom, with the facts behind it.  R2, R3 and R6 read other
bounds and live here.

The engine works in three steps.  It builds a finite universe of nodes: the
reduced query and, for every node, its mirror, the two parts of each of its
binary splits, and its partners under the ledger's crossing-change
relations.  R2 ranges over every binary split, not only those with a
one-atom part: R3 may bound two multi-atom halves whose larger partners are
never created, and only R2 over that split adds them
(``tests/test_infer.py::test_r2_needs_every_binary_split``).  It applies
the ledger's rules once per node.  Then it drains a semi-naive worklist:
each R2 split instance, R3 relation instance and R6 node is queued again
only when a bound it reads changes, and never twice at once.

The universe is one list of keys, ``nodes``, with the reduced query at
node 0; ``run`` returns node 0's interval.  A ledger relation whose
reduced ends are equal (one between two slice atoms, say) is dropped
before the closure: R3 on a node paired with itself never tightens a bound.

A query Q is relation-free when no ledger relation, unreduced, holds a
signed atom of Q or of its mirror: reduction only drops atoms, so this is
decided before any relation is reduced, and a relation whose shared atoms
cancel in its reduction only sends Q down the closure path, which builds
the same universe.  Its universe is then exactly the nonempty
sub-multisets of Q and of -Q, 2 (prod(c_i + 1) - 1) nodes for atom counts
c_i, so the up-front ``MAX_NODES`` check is exact for it, and its layout
depends on the count vector alone.  A reduced key holds each name with one
sign, and mirroring keeps the names' order, so renaming the i-th distinct
atom of Q to a placeholder i keeps the order of every key, and with it the
closure's numbering of nodes and instances.  The shape cache therefore
closes each count vector's universe once, with the same closure run on
placeholder atoms, and keeps that closed universe with its keys coded (a
module-level LRU, ``_shapes``, of at most ``MAX_NODES`` nodes in all).  A
query of that shape only relabels the keys and shares the arrays, which
nothing writes after the closure, with every other engine and thread.
The unknot and every query that a relation reaches are closed on their own
keys over the relations the table reduced.  A query cites the facts behind
the entries it read: the slice facts its reduction dropped, the entry of
each of its universe's signed atoms (each is a node), and the slice facts
behind the reduced relations only when a relation instance enters the
closed universe.

Bounds are integers counting lattice steps 1/(q-1), at least 0; the
ledger's rules arrive already rounded inward to steps, and a ``Fraction``
appears only where an interval is returned or a line formatted.  Every rule
is monotone (tighter inputs never give looser outputs), lower bounds only
rise and upper bounds only fall, and a derived bound never passes the
largest lower or the sum of the upper bounds the ledger gave: each bound
takes finitely many values, so the worklist stops, and it stops at the
least fixed point above the ledger's bounds whatever order the rules fire
in.  So the interval does not depend on the order (``rule_seed`` shuffles
it to test this); the derivation lists the updates in the order they
happened.  The engine keeps it as one record per update and formats a
record as a line only when the interval's ``justification`` is read, so a
caller that prints no derivation pays for no text.

Everything here consumes the ledger; nothing mutates it, and its tables
are filled idempotently, so any number of queries may run concurrently.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from array import array
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from typing import Optional

from . import DataError, Record
from .cyclotomic import check_prime
from .knots import MAX_NODES, Key, expr_to_string, mirror_atoms
from .ledger import Ledger
from .ledger_bounds import LedgerBounds

# The worklist may fire each rule instance this many times on average.
_MAX_PASSES = 1000


class LedgerInconsistentError(ValueError, DataError):
    """Rules forced an empty interval; the ledger contradicts itself."""


class EngineError(RuntimeError, DataError):
    pass


class BoundInterval(Record):
    """Rational bounds on theta^(q), denominators dividing q-1.

    ``upper`` is None when no finite upper bound is known.  ``justification``
    is a read-only sequence of lines, one per rule application that moved a
    bound, in the order they happened; the engine keeps them as records and
    formats a line only when it is read (``cli --json`` writes them as a
    list).  ``provenance`` maps each ledger fact consulted to its citation.
    Equality compares the bounds and the provenance, not the derivation.
    """

    __slots__ = ("lower", "upper", "justification", "provenance")

    def __init__(self, lower: Fraction, upper: Optional[Fraction],
                 justification: Sequence[str] = (),
                 provenance: Optional[dict[str, str]] = None):
        self.lower = lower
        self.upper = upper
        self.justification = justification
        self.provenance = {} if provenance is None else provenance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.lower, self.upper, self.provenance)
                == (other.lower, other.upper, other.provenance))

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    @property
    def value(self) -> Fraction:
        if not self.exact:
            raise ValueError(f"interval [{self.lower}, {self.upper}] is not a point")
        return self.lower

    def __repr__(self) -> str:
        if self.exact:
            return f"{self.lower}"
        hi = "inf" if self.upper is None else str(self.upper)
        return f"[{self.lower}, {hi}]"


def _key_str(key: Key) -> str:
    return expr_to_string(key) or "unknot"


def _rule_text(keys: list[Key], why: str, parts: tuple[int, ...]) -> str:
    # the names in a list, not a generator: see _binary_splits
    return why.format(*[_key_str(keys[p]) for p in parts]) if parts else why


class _Derivation(Sequence):
    """An engine's bound updates, each formatted as a line only when read."""

    def __init__(self, records: list, nodes: list[Key], step: int):
        self._records, self._nodes, self._step = records, nodes, step

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        n, relation, steps, why, parts = self._records[i]
        return (f"theta({_key_str(self._nodes[n])}) {relation} "
                f"{Fraction(steps, self._step)}  [{_rule_text(self._nodes, why, parts)}]")


class InferenceEngine:
    """One query's universe, rule instances and bounds.

    ``nodes`` is the list of keys, the reduced query at node 0.  Node ``n``
    has key ``nodes[n]``, mirror ``_mirror[n]`` and bounds ``_lo[n]``,
    ``_hi[n]`` in lattice steps (``_hi[n]`` is None while no upper bound is
    known).  R2 instance ``i`` is the split
    ``_r2[3i] = _r2[3i+1] + _r2[3i+2]``; node n's splits are the instances
    from ``_split_start[n]`` to ``_split_start[n+1]``, and ``_part_of[n]``
    is an ``array("i")`` of the instances with n as a part, in instance
    order (twice where both parts are n).  R3 instance ``r`` is the relation
    ``_r3[2r] -> _r3[2r+1]``; ``_r3_of[n]`` lists those at n.  Worklist
    items number the R2 instances, then the R3 instances, then the nodes
    (R6).  ``run`` sets all of these and returns the query's interval.

    ``relations``, ``_mirror``, ``_r2``, ``_split_start`` and ``_part_of``
    are the closed universe's own and never written.  For a relation-free
    query (see the module docstring) they come from the shape cache: the
    closure of its atom counts on placeholder atoms, whose numbering the
    relabelled keys keep, since relabelling keeps every key's order.  Every
    engine that runs a query of that shape shares them; ``nodes`` is its
    own.  Such a universe has exactly 2 (prod(c_i + 1) - 1) nodes, so the
    up-front ``MAX_NODES`` check decides it.
    """

    def __init__(self, ledger: Ledger, q: int, rule_seed: Optional[int] = None):
        check_prime(q)
        self.ledger = ledger
        self.q = q
        self.rule_seed = rule_seed
        self.ledger_bounds = LedgerBounds(ledger, q)
        self.trace: list[tuple[int, str, int, str, tuple[int, ...]]] = []

    # -- bounds ----------------------------------------------------------------

    def set_lower(self, n: int, steps: int, why: str, *parts: int) -> None:
        """Raise node n's lower bound to ``steps`` lattice steps if that is
        tighter.  Only then is the update recorded in ``trace``, with the
        nodes ``parts`` that name ``why``'s fields, and every instance reading
        the bound queued."""
        if steps <= self._lo[n]:
            return
        self._lo[n] = steps
        self.trace.append((n, ">=", steps, why, parts))
        self._requeue(n, False)
        if self._hi[n] is not None and steps > self._hi[n]:
            raise self._inconsistent(n)

    def set_upper(self, n: int, steps: int, why: str, *parts: int) -> None:
        """Lower node n's upper bound to ``steps`` lattice steps (at least
        0) if that is tighter; otherwise as ``set_lower``."""
        steps = max(0, steps)
        if self._hi[n] is not None and steps >= self._hi[n]:
            return
        self._hi[n] = steps
        self.trace.append((n, "<=", steps, why, parts))
        self._requeue(n, True)
        if self._lo[n] > steps:
            raise self._inconsistent(n)

    def _inconsistent(self, n: int) -> LedgerInconsistentError:
        # a clash needs both bounds set, each by the last record of its side
        lo, hi = (next(_rule_text(self.nodes, *r[3:]) for r in reversed(self.trace)
                       if r[:2] == (n, side)) for side in (">=", "<="))
        step = self.q - 1
        return LedgerInconsistentError(
            f"ledger inconsistent at {_key_str(self.nodes[n])}: "
            f"lower bound {Fraction(self._lo[n], step)} ({lo}) exceeds "
            f"upper bound {Fraction(self._hi[n], step)} ({hi})"
        )

    def _requeue(self, n: int, upper: bool) -> None:
        """Queue the instances that read the bound of node n that changed."""
        queued, work = self._queued, self._work
        m = self._mirror[n]
        # n's own splits too: R2 there reads n's bounds (dropped, only derivations changed)
        readers = [range(self._split_start[n], self._split_start[n + 1]),
                   self._part_of[n], self._r3_of.get(n, ())]
        # R2 reads its parts' mirrors' upper bounds (dropped, other nodes stop short of closure)
        if upper:
            readers.append(self._part_of[m])
        elif self._u[m] is not None:
            readers.append((self._n23 + m,))  # R6 at the mirror
        for items in readers:
            for i in items:
                if not queued[i]:
                    queued[i] = 1
                    work.append(i)

    # -- rules that read other bounds ----------------------------------------------

    def rule_r2(self, i: int) -> None:
        """R2 on split instance i: node e is the connected sum a + b."""
        r2, lo, hi, mirror = self._r2, self._lo, self._hi, self._mirror
        e, a, b = r2[3 * i], r2[3 * i + 1], r2[3 * i + 2]
        ma, mb = mirror[a], mirror[b]
        # each guard repeats its setter's tightness test to skip the call: it saves time only
        if hi[a] is not None and hi[b] is not None and (
                hi[e] is None or hi[a] + hi[b] < hi[e]):
            self.set_upper(e, hi[a] + hi[b], "R2 subadditivity over {} | {}", a, b)
        if hi[mb] is not None and lo[a] - hi[mb] > lo[e]:
            self.set_lower(e, lo[a] - hi[mb], "R2 rearranged over {} | {}", a, b)
        if hi[ma] is not None and lo[b] - hi[ma] > lo[e]:
            self.set_lower(e, lo[b] - hi[ma], "R2 rearranged over {} | {}", a, b)
        if hi[e] is not None and hi[mb] is not None and (
                hi[a] is None or hi[e] + hi[mb] < hi[a]):
            self.set_upper(a, hi[e] + hi[mb], "R2 rearranged for {}", a)
        if hi[e] is not None and hi[ma] is not None and (
                hi[b] is None or hi[e] + hi[ma] < hi[b]):
            self.set_upper(b, hi[e] + hi[ma], "R2 rearranged for {}", b)
        if hi[b] is not None and lo[e] - hi[b] > lo[a]:
            self.set_lower(a, lo[e] - hi[b], "R2 rearranged for {}", a)
        if hi[a] is not None and lo[e] - hi[a] > lo[b]:
            self.set_lower(b, lo[e] - hi[a], "R2 rearranged for {}", b)

    def rule_r3(self, r: int) -> None:
        """R3 on relation instance r: a crossing change turns plus into minus."""
        lo, hi, step = self._lo, self._hi, self.q - 1
        plus, minus = self._r3[2 * r], self._r3[2 * r + 1]
        why = "R3 crossing change {} -> {}"
        # the guards save setter calls, as in rule_r2
        if hi[plus] is not None and (hi[minus] is None or hi[plus] < hi[minus]):
            self.set_upper(minus, hi[plus], why, plus, minus)
        if lo[plus] - step > lo[minus]:
            self.set_lower(minus, lo[plus] - step, why, plus, minus)
        if hi[minus] is not None and (hi[plus] is None or hi[minus] + step < hi[plus]):
            self.set_upper(plus, hi[minus] + step, why, plus, minus)
        if lo[minus] > lo[plus]:
            self.set_lower(plus, lo[minus], why, plus, minus)

    def rule_r6(self, n: int) -> None:
        u = self._u[n]
        if u is not None:
            self.set_upper(n, u * (self.q - 1) - self._lo[self._mirror[n]],
                           f"R6 unknotting bound: theta + theta(mirror) <= u <= {u}")

    # -- the universe ---------------------------------------------------------------

    def _build(self, query: Key, cited: dict[str, str]) -> None:
        """Close the universe over the query, or relabel its shape's, then
        number the instances and open every bound.  The slice facts that
        reducing the relations reads go into ``cited`` only if a relation
        instance enters the universe."""
        if _relation_free(query, self.ledger.relations):
            u = _shape(tuple(Counter(query).values()))
            table = [a for name, sign in dict.fromkeys(query)
                     for a in ((name, sign), (name, not sign))]
            self.nodes = [tuple([table[c] for c in code]) for code in u.keys]
        else:
            relations, relation_cited = self.ledger_bounds.relations()
            u = _Universe(query, relations)
            if u.relations:
                cited.update(relation_cited)
            self.nodes = u.keys
        self.relations, self._mirror, self._r2, self._split_start, self._part_of = (
            u.relations, u.mirror, u.r2, u.split_start, u.part_of)
        n_nodes, n2 = len(self.nodes), len(self._r2) // 3
        self._r3, self._r3_of = array("i"), {}
        for r, (plus, minus) in enumerate(sorted(self.relations), start=n2):
            self._r3.extend((plus, minus))
            self._r3_of.setdefault(plus, []).append(r)
            self._r3_of.setdefault(minus, []).append(r)
        self._n23 = n2 + len(self.relations)
        self._lo = [0] * n_nodes
        self._hi = [None] * n_nodes
        self._queued = bytearray(self._n23 + n_nodes)
        self._work = array("i")

    # -- driver -------------------------------------------------------------

    def run(self, expr: Key) -> BoundInterval:
        """The tightest interval of ``expr``, whose reduced form is node 0."""
        self.ledger.require_atoms(expr)
        rules, cited = self.ledger_bounds, {}
        query = rules.reduce(expr, cited)
        _check_universe_size(query)
        self._build(query, cited)
        # every node's sums first: a setter below queues R6 by _u at a mirror
        found = [rules.bounds(key) for key in self.nodes]
        self._u = [u for _, u in found]
        # each signed atom of the universe is a node: its entry cites what
        # every node's bounds read of it
        for key in self.nodes:
            if len(key) == 1:
                cited.update(rules.atom(key[0]).cited)
        rng = random.Random(self.rule_seed) if self.rule_seed is not None else None
        order = list(range(len(self.nodes)))
        if rng is not None:
            rng.shuffle(order)
        step = self.q - 1
        for n in order:
            rules = found[n][0]
            if rng is not None:
                rng.shuffle(rules)
            for lower, upper, why in rules:
                if lower is not None:
                    self.set_lower(n, lower, why)
                if upper is not None:
                    self.set_upper(n, upper, why)
            self.rule_r6(n)
        self._drain(rng)
        hi = self._hi[0]
        return BoundInterval(lower=Fraction(self._lo[0], step),
                             upper=None if hi is None else Fraction(hi, step),
                             justification=_Derivation(self.trace, self.nodes, step),
                             provenance=dict(sorted(cited.items())))

    def _drain(self, rng: Optional[random.Random]) -> None:
        """Fire queued instances, round by round, until none is queued."""
        queued = self._queued
        n2, n23 = len(self._r2) // 3, self._n23
        budget = _MAX_PASSES * len(queued)
        while self._work:
            batch, self._work = self._work, array("i")
            if rng is not None:
                rng.shuffle(batch)
            budget -= len(batch)
            if budget < 0:
                raise EngineError("inference did not reach a fixed point")
            # last queued first: the first round then starts at the nodes
            # created last, the smaller sums, whose upper bounds flow into
            # the larger ones (about a fifth fewer firings than in order)
            for i in reversed(batch):
                queued[i] = 0
                if i < n2:
                    self.rule_r2(i)
                elif i < n23:
                    self.rule_r3(i - n2)
                else:
                    self.rule_r6(i - n23)


class _Universe:
    """The closure of a query under the reduced ledger ``relations``, laid
    out as ``InferenceEngine`` describes: the nodes are expanded in creation
    order, each adding its mirror, the two parts of each of its binary
    splits and its relation partners."""

    def __init__(self, query: Key, relations: list[tuple[Key, Key]]):
        ends: dict[Key, list] = {}
        moves: dict[object, list] = {}
        for plus, minus in relations:
            ends.setdefault(plus, []).append((minus, True))
            ends.setdefault(minus, []).append((plus, False))
            for old, new, forward in ((plus, minus, True), (minus, plus, False)):
                if len(new) <= len(old):
                    moves.setdefault(old[0] if old else None, []).append(
                        (old, new, Counter(old), forward))
        self.keys: list[Key] = []
        self.mirror = array("i")
        self.r2 = array("i")
        self.split_start = array("i")
        self.part_of: list[array] = []
        self.relations: set[tuple[int, int]] = set()
        self._index: dict[Key, int] = {}
        self.node(query)
        n = 0
        while n < len(self.keys):
            self._expand(n, ends, moves)
            n += 1
        self.split_start.append(len(self.r2) // 3)
        del self._index  # nothing looks a key up once the universe is closed

    def node(self, key: Key) -> int:
        n = self._index.get(key)
        if n is None:
            if len(self.keys) >= MAX_NODES:
                raise EngineError(f"inference universe grew past {MAX_NODES} nodes")
            n = len(self.keys)
            self._index[key] = n
            self.keys.append(key)
            self.mirror.append(-1)
            self.part_of.append(array("i"))
        return n

    def _expand(self, n: int, ends: dict, moves: dict) -> None:
        """Add node n's mirror, its splits and its relation partners.

        A ledger relation holds inside connected sums: if K- is obtained
        from K+ by a crossing change, so is K- + A from K+ + A.  ``ends``
        maps each end of a ledger relation to its other end; ``moves`` lists
        the relations under an atom of the end that a partner replaces
        (None for the unknot), but only those whose partners are no larger.
        Larger partners are not created, which keeps the universe finite;
        one that is in the universe anyway is related all the same, since
        its own expansion finds this node as a partner no larger than itself.
        """
        key = self.keys[n]
        m = self.node(mirror_atoms(key))
        self.mirror[n], self.mirror[m] = m, n
        self.split_start.append(len(self.r2) // 3)
        for part_a, part_b in _binary_splits(key):
            a, b = self.node(part_a), self.node(part_b)
            i = len(self.r2) // 3
            self.r2.extend((n, a, b))
            self.part_of[a].append(i)
            self.part_of[b].append(i)
        for other, forward in ends.get(key, ()):
            m = self.node(other)
            self.relations.add((n, m) if forward else (m, n))
        found = [moves[atom] for atom in [*dict.fromkeys(key), None] if atom in moves]
        if found:
            ck = Counter(key)
            for entries in found:
                for old, new, need, forward in entries:
                    if all(ck[a] >= c for a, c in need.items()):
                        m = self.node(_replace(key, old, new))
                        self.relations.add((n, m) if forward else (m, n))


def _relation_free(query: Key, relations: Sequence[tuple[Key, Key]]) -> bool:
    """Whether no ledger relation reaches the universe of the reduced
    query: the query is not the unknot, and no unreduced relation end holds
    an atom of the query or of its mirror."""
    atoms = {*query, *mirror_atoms(query)}
    return bool(query) and all(atoms.isdisjoint(plus + minus) for plus, minus in relations)


# Closed universes of relation-free queries by their atom counts, the least
# recently used first.  They hold at most MAX_NODES nodes in all, as many as
# one largest universe (about 4 MiB); the shapes of one to eight distinct
# atoms take 1,004.
_shapes: dict[tuple[int, ...], _Universe] = {}
_shapes_lock = threading.Lock()


def _shape(counts: tuple[int, ...]) -> _Universe:
    """The universe of a relation-free query whose distinct atoms occur
    ``counts`` times, closed once on placeholder atoms, each atom of a key
    coded as 2i for the query's i-th distinct atom and 2i + 1 for its
    mirror."""
    with _shapes_lock:
        u = _shapes.pop(counts, None)
        if u is None:
            u = _Universe(tuple([(i, False) for i, c in enumerate(counts) for _ in range(c)]),
                          [])
            u.keys = [tuple([2 * i + m for i, m in key]) for key in u.keys]
            while _shapes and len(u.keys) + sum(
                    len(s.keys) for s in _shapes.values()) > MAX_NODES:
                del _shapes[next(iter(_shapes))]
        _shapes[counts] = u
    return u


def _check_universe_size(query: Key) -> None:
    """Refuse a reduced query whose universe must exceed ``MAX_NODES``."""
    subsets = 1
    for c in Counter(query).values():
        subsets *= c + 1
        if 2 * subsets - 2 > MAX_NODES:
            raise EngineError(
                f"query has {len(query)} summands; its inference universe needs "
                f"more than {MAX_NODES} nodes (the limit)"
            )


def _replace(key: Key, old: Key, new: Key) -> Key:
    """The multiset key with its sub-multiset old swapped for new."""
    atoms = list(key)
    for atom in old:
        atoms.remove(atom)
    return tuple(sorted(atoms + list(new)))


def _binary_splits(key: Key):
    """Each unordered split of a sorted multiset of signed atoms into two
    non-empty parts, once.  Parts are enumerated by their atom counts
    c_1, ..., c_k: the N = prod(c_i + 1) count vectors v come in
    lexicographic order and their complements c - v in the reverse order, so
    pairs 1 .. (N - 1)/2 cover every split (pair 0 has an empty part)."""
    # Every tuple here is built at its final size (from lists, by
    # concatenation): one built from an iterator is allocated for a guessed
    # size and shrunk, so CPython's tuple free lists keep every such tuple
    # discarded, which made the memory of a long run grow with each query.
    counts = Counter(key)  # in the order of the sorted key
    runs = [[(atom,) * p for p in range(c + 1)] for atom, c in counts.items()]
    pairs = zip(itertools.product(*runs), itertools.product(*[r[::-1] for r in runs]))
    n_vectors = math.prod(c + 1 for c in counts.values())
    for part, rest in itertools.islice(pairs, 1, (n_vectors + 1) // 2):
        yield sum(part, ()), sum(rest, ())


def infer_theta(ledger: Ledger, expr: Key, q: int = 2,
                rule_seed: Optional[int] = None) -> BoundInterval:
    """Tightest theta^(q) interval derivable for ``expr`` from the ledger.

    Raises LedgerInconsistentError when the rules collide (the ledger then
    contains data that cannot all be true of actual knots).
    """
    return InferenceEngine(ledger, q, rule_seed=rule_seed).run(expr)


def infer_theta_m(ledger: Ledger, expr: Key, q: int, m: int) -> BoundInterval:
    """Bounds on the m-shifted invariant theta^(q)(K, m).

    The engine runs on ``expr`` first, so an inconsistent ledger raises.
    Then ``LedgerBounds.theta_m`` reads the reduced query at m from the
    table the engine filled.  The value is exact when a full delta sequence
    of the mirror is available (ingested or closed-form, R8); it cites only
    the facts R8 and the reduction read, not the engine's.  Otherwise the
    interval runs from the larger of 0 and the unrounded lower bounds of the
    signature (R1, valid for every m) and the m-shifted HF+ degree bound
    (R7), rounded up to a lattice step, to theta(K)'s upper end, by
    monotonicity theta(K, m) <= theta(K); at m = 0 it is theta(K)'s interval.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    base = InferenceEngine(ledger, q).run(expr)  # raises if the ledger is inconsistent here
    rules, cited = LedgerBounds(ledger, q), {}
    exact, r1, r7 = rules.theta_m(rules.reduce(expr, cited), m, cited)
    if exact is not None:
        return BoundInterval(lower=exact, upper=exact,
                             justification=[f"exact delta sequence of the mirror with m = {m}"],
                             provenance=dict(sorted(cited.items())))
    if m == 0:
        # theta(K, 0) is theta(K): the whole rule set applies
        return base
    lower = Fraction(0)
    just = [f"theta(K, {m}) >= 0"]
    for cand, why in ((r1, "signature lower bound holds for every m"),
                      (r7, f"HF+ degree bound with m = {m}")):
        if cand is not None and cand > lower:
            lower = cand
            just.append(f"{why}: >= {cand}")
    lower = Fraction(math.ceil(lower * (q - 1)), q - 1)
    upper = base.upper
    if upper is not None:
        just.append(f"monotone in m: theta(K, {m}) <= theta(K) <= {upper}")
    return BoundInterval(lower=lower, upper=upper,
                         justification=[*just, *base.justification],
                         provenance=base.provenance)
