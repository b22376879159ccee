import random

import pytest

from knotconc.seifert import (
    MAX_SEIFERT_ENTRY,
    MAX_SEIFERT_SIZE,
    SeifertMatrix,
    SeifertMatrixError,
    _det_int,
    two_strand_torus_matrix,
)
from conftest import block_sum


def cofactor_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** c * m[0][c] * cofactor_det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)) if m[0][c])


def test_unknot_matrix():
    assert SeifertMatrix(()).size == 0
    assert SeifertMatrix.from_rows([]) == SeifertMatrix(())


def test_trefoil_is_valid():
    V = SeifertMatrix.from_rows([[-1, 1], [0, -1]])
    assert V.size == 2


def test_rejects_odd_size():
    with pytest.raises(SeifertMatrixError):
        SeifertMatrix.from_rows([[1]])


def test_rejects_non_square():
    with pytest.raises(SeifertMatrixError):
        SeifertMatrix.from_rows([[1, 0], [0, 1], [1, 1]])


def test_rejects_link_matrix():
    # V - V^T = 0 here, so this presents a link, not a knot
    with pytest.raises(SeifertMatrixError):
        SeifertMatrix.from_rows([[1, 0], [0, 1]])


def test_rejects_non_integer():
    with pytest.raises(SeifertMatrixError):
        SeifertMatrix.from_rows([[1.0, 1], [0, 1]])


def test_entries_above_the_limit_refused():
    assert MAX_SEIFERT_ENTRY == 2 ** 62
    assert SeifertMatrix.from_rows([[2 ** 62, 1], [0, -(2 ** 62)]]).size == 2
    for entry in (2 ** 62 + 1, -(2 ** 62) - 1, 10 ** 4000):
        with pytest.raises(SeifertMatrixError, match="above the limit 4611686018427387904"):
            SeifertMatrix.from_rows([[entry, 1], [0, -1]])


def test_block_sum_sizes():
    # the tests' block sum, the oracle of signature additivity
    a = two_strand_torus_matrix(3)
    b = two_strand_torus_matrix(5)
    s = block_sum(a, b)
    assert s.size == a.size + b.size
    assert s.rows[0][:2] == a.rows[0]
    assert s.rows[2][2:] == b.rows[0]


def _block_rows(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


def test_block_sum_above_the_limit_refused():
    V = two_strand_torus_matrix(17).rows
    rows = _block_rows(V, two_strand_torus_matrix(15).rows)
    assert SeifertMatrix.from_rows(rows).size == MAX_SEIFERT_SIZE
    with pytest.raises(SeifertMatrixError, match="size 32 is above the limit 30"):
        SeifertMatrix.from_rows(_block_rows(V, V))


def test_constructor_checks_what_from_rows_checks():
    # SeifertMatrix itself validates; from_rows only adapts lists of rows
    with pytest.raises(SeifertMatrixError, match="integers, got True"):
        SeifertMatrix(((True, 1), (0, 1)))
    with pytest.raises(SeifertMatrixError, match="above the limit"):
        SeifertMatrix(((None,) * 32,) * 32)  # the size is checked before entries
    with pytest.raises(SeifertMatrixError, match="above the limit"):
        SeifertMatrix(((0, 1), (0,) * 31))   # and a long row counts too
    with pytest.raises(SeifertMatrixError, match="square"):
        SeifertMatrix(((-1, 1), (0,)))
    assert SeifertMatrix.from_rows([[-1, 1], [0, -1]]) == two_strand_torus_matrix(3)


def test_two_strand_family():
    for k in (3, 5, 7, 11):
        V = two_strand_torus_matrix(k)
        assert V.size == k - 1
    with pytest.raises(SeifertMatrixError):
        two_strand_torus_matrix(4)
    with pytest.raises(SeifertMatrixError):
        two_strand_torus_matrix(1)


def test_rejects_non_list_rows():
    for rows in (5, "ab", [[-1, 1], 5], [None]):
        with pytest.raises(SeifertMatrixError, match="list of rows"):
            SeifertMatrix.from_rows(rows)


def test_det_int_matches_cofactor_expansion():
    rng = random.Random(17)
    swaps = singular = 0
    for _ in range(600):
        n = rng.randint(0, 6)
        density = rng.choice([0.3, 0.6, 1.0])
        m = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.3:
            m = [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)]  # skew
        if n >= 2 and rng.random() < 0.2:
            m[-1] = [a + b for a, b in zip(m[0], m[1])]  # dependent rows
        want = cofactor_det(m)
        assert _det_int(m) == want, m
        singular += n > 0 and want == 0
        swaps += n > 0 and m[0][0] == 0 and want != 0
    # the draws exercise both the row-swap and the singular branches
    assert swaps > 20 and singular > 20
    # a leading zero that needs a swap, and a zero column that ends early
    assert _det_int([[0, 1], [1, 0]]) == -1
    assert _det_int([[0, 2, 1], [0, 3, 4], [5, 6, 7]]) == cofactor_det(
        [[0, 2, 1], [0, 3, 4], [5, 6, 7]])
    assert _det_int([[1, 2, 3], [2, 4, 6], [0, 0, 0]]) == 0
    assert _det_int([]) == 1


def test_records_keep_dataclass_semantics():
    # the package's records are plain classes on knotconc.Record
    from fractions import Fraction

    from knotconc.infer import BoundInterval
    from knotconc.sequences import DeltaSequence, DeltaUpperBound
    V = two_strand_torus_matrix(3)
    assert V == SeifertMatrix(((-1, 1), (0, -1))) and len({V, two_strand_torus_matrix(3)}) == 1
    assert repr(SeifertMatrix(())) == "SeifertMatrix(rows=())"
    with pytest.raises(AttributeError):
        V.rows = ()
    with pytest.raises(AttributeError):
        del V.rows
    d = DeltaSequence((0, -4), -4)
    assert repr(d) == "DeltaSequence(values=(0, -4), stable=-4)"
    assert d != DeltaUpperBound((0, -4), -4) and hash(d) == hash(DeltaSequence((0, -4), -4))
    with pytest.raises(AttributeError):
        d.stable = 0
    iv = BoundInterval(Fraction(1), None, ["a"], {"f": "p"})
    assert iv == BoundInterval(Fraction(1), None, ["b"], {"f": "p"})
    assert iv != BoundInterval(Fraction(1), None, ["a"])
    with pytest.raises(TypeError):
        hash(iv)
