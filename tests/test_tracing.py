"""The benchmark's tracer patches package names by attribute, from outside
the package.  Installing and uninstalling it here makes a renamed or
deleted name fail the unit tests, not only a traced benchmark run."""

from pathlib import Path

import markov_auction.cli  # the tracer patches the CLI module too

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_name(monkeypatch, page):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(markov_auction)
    patched = list(tracer._restore)
    try:
        assert len(patched) == 15
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        markov_auction.optimizer.solve(page)
        assert [span[2] for span in tracer.spans] == ["optimizer.dp", "model.assignment"]
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
