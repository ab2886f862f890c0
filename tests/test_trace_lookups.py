"""The traced benchmark's lookup contract, checked against the current package.

`perfbench/tracer.py` wraps rdafem's layer entry points and counts a traced
sample as failed when a caller named in its LOOKUPS table no longer looks the
wrapped function up (a refactor that inlines or renames one, say).  This test
runs that check without a benchmark run; it reads `perfbench/` and edits
nothing there.
"""

import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_callers_look_up_their_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no .pyc files there
    import tracer
    import worker

    worker.import_stack()
    trace = tracer.Tracer()
    trace.install()
    try:
        assert trace.check_lookups() == []
    finally:
        trace.uninstall()
