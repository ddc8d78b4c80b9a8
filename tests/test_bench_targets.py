"""The benchmark's trace targets still name functions of the package.

``bench/run.py`` traces the package by rebinding its functions by name,
and skips a target that no longer resolves with only a warning. A
refactor that renames, moves or inlines a traced function would so
silently zero that layer's count; this test names it instead.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_resolves_but_the_known_stale_one(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    for module in ("harness", "reports", "session"):
        importlib.import_module(f"pragmatune.{module}")
    session = importlib.import_module("pragmatune.session")
    measure = session.SearchSession.measure
    tracer = run.make_tracer()
    tracer.install()
    try:
        assert session.SearchSession.measure is not measure
    finally:
        tracer.uninstall()
    assert session.SearchSession.measure is measure
    # SearchSession.log is gone from the package; the next bench change drops it.
    assert tracer.missing == ["session.SearchSession.log"]
