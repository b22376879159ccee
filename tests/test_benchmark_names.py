"""The package names that the benchmark in ``perfbench/`` looks up.

``perfbench/tracer.py`` wraps each name listed in its ``_targets`` and reads
it with ``getattr`` and no default, so a deleted or renamed one makes a
traced run (``python3 perfbench/run.py ... --trace 1``) exit 1.
``perfbench/worker.py`` clears the signature cache by name as well.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    targets = tracer._targets()
    assert targets
    assert [name for name, owner, attr, *_ in targets if not hasattr(owner, attr)] == []


def test_signature_cache_can_be_cleared():
    from knotconc import ledger

    assert callable(ledger._sigma_q_of_matrix.cache_clear)
