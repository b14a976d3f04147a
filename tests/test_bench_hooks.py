"""The benchmark's hooks into the library must keep working.

``bench/tracing.py`` replaces library names (module globals and methods)
with timing wrappers for one traced round.  If a module renames or stops
importing a name the tracer patches, ``install`` fails or the restore in
``uninstall`` misses it; either breaks later, untraced runs in the same
process.  ``bench/controls.py`` builds the representation's negative
control from the public ``repcheck`` names.  One round of each workload
must run and pass its gates.
"""

import json
import subprocess
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


@pytest.fixture
def controls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import controls

    yield controls
    sys.modules.pop("controls", None)


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


def test_representation_control(controls):
    # K_2 E_1 = q^-1 E_1 K_2 at N = 3; a wrong q-power or sign must fail
    assert controls.relation_score(3, 2, 1, 0, 1.0, 3, 0) <= 1e-8
    assert controls.relation_score(3, 2, 1, 1, 1.0, 3, 0) > 1e-5
    assert controls.relation_score(3, 2, 1, 0, -1.0, 3, 0) > 1e-5


@pytest.mark.parametrize(
    "workload", ["contour-identities", "gb-batch", "symbolic-identities", "gl-representation"])
def test_workload_round_passes(workload):
    # One round, from the root of the checkout as bench/run.py expects.
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.01"]
    out = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True,
                         timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
