"""Integer Seifert matrices presenting knots.

A Seifert matrix here is any square integer matrix V of even size 2g with
det(V - V^T) = +/-1; that condition singles out matrices presenting a knot
rather than a multi-component link.  Its genus is ``size // 2``, and the
empty 0x0 matrix, ``SeifertMatrix(())``, presents the unknot.  Mirroring
replaces V by -V^T and connected sum is block sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import DataError


# Largest size of a Seifert matrix (genus 15, that of T(2,31)); exact
# signature work grows quickly with it, so it is checked before any entry.
MAX_SEIFERT_SIZE = 30
# Largest absolute value of an entry: the primes a signature lifts over grow with it.
MAX_SEIFERT_ENTRY = 1 << 62


class SeifertMatrixError(ValueError, DataError):
    pass


def _det_int(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss elimination: each entry
    after step k is a (k+1)-minor, so every division is exact."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - a * row_k[j]) // prev
        prev = pk
    return sign * m[-1][-1] if n else 1


@dataclass(frozen=True)
class SeifertMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.rows
        n = len(rows)
        size = max([n, *map(len, rows)])
        if size > MAX_SEIFERT_SIZE:
            raise SeifertMatrixError(
                f"Seifert matrix size {size} is above the limit {MAX_SEIFERT_SIZE}"
            )
        for row in rows:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise SeifertMatrixError(
                        f"Seifert matrix entries must be integers, got {x!r}")
                if abs(x) > MAX_SEIFERT_ENTRY:
                    raise SeifertMatrixError(f"Seifert matrix entry of {x.bit_length()} "
                                             f"bits is above the limit {MAX_SEIFERT_ENTRY}")
        if any(len(row) != n for row in rows):
            raise SeifertMatrixError("Seifert matrix must be square")
        if n % 2 != 0:
            raise SeifertMatrixError(f"Seifert matrix must have even size, got {n}")
        d = _det_int([[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)])
        if d not in (1, -1):
            raise SeifertMatrixError(
                f"det(V - V^T) = {d}, expected +/-1 (matrix does not present a knot)"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "SeifertMatrix":
        """The matrix with the given list (or tuple) of rows."""
        if not isinstance(rows, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in rows):
            raise SeifertMatrixError("Seifert matrix must be a list of rows")
        return SeifertMatrix(tuple(map(tuple, rows)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def block_sum(self, other: "SeifertMatrix") -> "SeifertMatrix":
        """Block sum, presenting the connected sum of the two knots."""
        n, m = self.size, other.size
        rows = []
        for i in range(n):
            rows.append(tuple(self.rows[i]) + (0,) * m)
        for i in range(m):
            rows.append((0,) * n + tuple(other.rows[i]))
        return SeifertMatrix(tuple(rows))


def two_strand_torus_matrix(k: int) -> SeifertMatrix:
    """Standard genus-(k-1)/2 Seifert matrix of the positive torus knot T(2,k).

    Band presentation: -1 on the diagonal, +1 on the superdiagonal.  For
    k = 3 this is [[-1, 1], [0, -1]], the positive trefoil with signature -2.
    """
    if k < 3 or k % 2 == 0:
        raise SeifertMatrixError(f"T(2,{k}) is not a knot with genus >= 1")
    n = k - 1
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = -1
        if i + 1 < n:
            row[i + 1] = 1
        rows.append(tuple(row))
    return SeifertMatrix(tuple(rows))
