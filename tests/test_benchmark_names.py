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


def test_traced_cli_command_summarises(monkeypatch, capsys):
    # what the traced cli-cold worker does for one command: a fresh
    # signature cache, the command through cli.main under the tracer, and
    # the per-layer summary of what it recorded
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    from knotconc import cli, ledger

    t = tracer.Tracer()
    t.install()
    try:
        ledger.load_seed_ledger()
        setup = t.take()
        ledger._sigma_q_of_matrix.cache_clear()
        assert cli.main(["theta", "--expr", "T(2,3) + -9_42", "--q", "3"]) == 0
        rounds = t.take()
    finally:
        t.uninstall()
    capsys.readouterr()
    names = [span[1] for span in rounds[0]]
    sigma_spans = names.count("signatures.sigma_q")
    assert names.count("infer.infer_theta") == 1 and sigma_spans >= 1
    metrics = tracer.per_layer_metrics(setup, rounds, 1)
    assert metrics["infer.infer_theta.calls"] == (1.0, "count")
    assert metrics["signatures.sigma_q.calls"] == (sigma_spans, "count")
