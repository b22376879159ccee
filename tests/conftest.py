import cmath
import random
from pathlib import Path

import numpy as np
import pytest

from knotconc.seifert import SeifertMatrix


def random_seifert(rng: random.Random, genus: int, span: int = 3,
                   zero_diagonal: bool = False) -> SeifertMatrix:
    """Random integer Seifert matrix with entries in [-span, span].

    V - V^T is pinned to the standard symplectic form, so det(V - V^T) = 1
    by construction and every draw is valid.  With ``zero_diagonal`` every
    diagonal entry of the Hermitian form vanishes, so the pivot plan of
    ``signatures`` must open with a 2x2 block.
    """
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    if not zero_diagonal:
        for i in range(n):
            rows[i][i] = rng.randint(-span, span)
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.randint(-span, span)
            if j == i + 1 and i % 2 == 0:
                b = a - 1
                if b < -span:
                    a, b = -span + 1, -span
            else:
                b = a
            rows[i][j] = a
            rows[j][i] = b
    return SeifertMatrix.from_rows(rows)


def float_lt_signature(V: SeifertMatrix, q: int, j: int, margin: float = 1e-6):
    """Floating-point eigenvalue count n+ - n-, or None when any eigenvalue
    is too close to zero to certify (caller discards those samples)."""
    w = cmath.exp(2 * cmath.pi * 1j * j / q)
    A = np.array(V.rows, dtype=complex)
    H = (1 - w) * A + (1 - w.conjugate()) * A.T
    eigs = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(eigs).min()) < margin * scale:
        return None
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


@pytest.fixture(scope="session")
def seifert_corpus():
    rng = random.Random(20240517)
    return [random_seifert(rng, rng.randint(1, 5)) for _ in range(200)]


@pytest.fixture
def corpus(monkeypatch):
    """The benchmark's seeded inputs, ``perfbench/corpus.py``, read where
    they lie (the module imports nothing from the package)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import corpus

    return corpus
