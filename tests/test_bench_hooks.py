"""The benchmark's tracer must leave the program as it found it.

``bench/tracing.py`` replaces library names (module globals and methods)
with timing wrappers for one traced round.  If a module renames or stops
importing a name the tracer patches, ``install`` fails or the restore in
``uninstall`` misses it; either breaks later, untraced runs in the same
process.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_restores_every_patched_name(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
