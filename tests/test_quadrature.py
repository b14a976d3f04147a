import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdlab.quadrature import (
    _GK21_NODES,
    _GK21_WEIGHTS,
    DecayValidationError,
    NonConvergenceError,
    QuadratureConfig,
    QuadratureError,
    integrate_line,
)

CFG = QuadratureConfig()


def test_gaussian_on_real_line():
    val = integrate_line(lambda t: np.exp(-(t**2)), 0.0, CFG)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gauss_kronrod_table():
    # K21 is exact for polynomials of degree <= 31, its embedded G10 rule for
    # degree <= 19; the Gauss nodes are those of the 10-point Legendre rule.
    kronrod, gauss = _GK21_WEIGHTS.T
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(_GK21_NODES**k @ kronrod - exact) <= 1e-14, k
        if k <= 19:
            assert abs(_GK21_NODES**k @ gauss - exact) <= 1e-14, k
    g10 = np.sort(_GK21_NODES[gauss != 0])
    assert np.max(np.abs(g10 - np.polynomial.legendre.leggauss(10)[0])) <= 1e-15
    assert kronrod.sum() == pytest.approx(2.0, abs=1e-15)
    assert gauss.sum() == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("a, refinements", [(1.0, 0), (1000.0, 8)])
def test_one_integrand_call_per_panel_round(a, refinements):
    # One call per truncation probe (both ends, 3 points each), one on the
    # 21 Gauss-Kronrod nodes of all 16 initial panels, and one on both halves
    # of each bisected panel: probes + 1 + refinements calls in all.
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.exp(-a * t**2)

    val = integrate_line(f, 0.0, CFG)
    assert val == pytest.approx(math.sqrt(math.pi / a), rel=1e-12)
    assert sizes == [6] + [16 * 21] + [2 * 21] * refinements


def test_gaussian_contour_shift_invariance():
    # exp(-t^2) is entire with uniform decay: the integral cannot depend on
    # the elevation of the line.
    vals = [integrate_line(lambda t: np.exp(-(t**2)), off, CFG) for off in (0.0, 0.3, 1.0)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-11)


def test_sech_integral():
    # int dt / cosh(t) = pi, with genuine exponential decay; also on an
    # elevated line strictly below the pole at i*pi/2.
    val = integrate_line(lambda t: 1.0 / np.cosh(t), 0.0, CFG)
    assert val == pytest.approx(math.pi, rel=1e-11)
    val = integrate_line(lambda t: 1.0 / np.cosh(t), 0.5, CFG)
    assert val == pytest.approx(math.pi, rel=1e-11)


def test_oscillatory_integrand():
    # int exp(-t^2) cos(8 t) dt = sqrt(pi) exp(-16)
    val = integrate_line(lambda t: np.exp(-(t**2)) * np.cos(8.0 * t), 0.0, CFG)
    assert val == pytest.approx(math.sqrt(math.pi) * math.exp(-16.0), rel=1e-6)


def test_decay_validation_rejects_growth():
    with pytest.raises(DecayValidationError):
        integrate_line(lambda t: np.exp(np.abs(t.real) * 0.1), 0.0, CFG)


def test_decay_validation_rejects_heavy_tail():
    # int exp(-0.01 |t|) dt = 200, but over |t| <= max_T = 512 it is 198.80:
    # the tail dropped at max_T is far above the tolerance.
    with pytest.raises(DecayValidationError, match="tail"):
        integrate_line(lambda t: np.exp(-0.01 * np.abs(t.real)), 0.0, CFG)


@pytest.mark.parametrize("initial_T", [0.0, -1.0, math.inf, math.nan])
def test_initial_T_must_be_positive_and_finite(initial_T):
    # initial_T = 0 used to double forever; a negative one flipped the sign.
    with pytest.raises(ValueError, match="initial_T"):
        integrate_line(lambda t: np.exp(-(t**2)), 0.0, CFG, initial_T=initial_T)


def test_nonfinite_integrand_rejected():
    def f(t):
        out = np.exp(-(t**2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return out / (t.real - 0.123456789)  # pole on the contour

    with pytest.raises(QuadratureError):
        integrate_line(f, 0.0, CFG)


def test_refinement_budget():
    tight = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_refinements=1)
    with pytest.raises(NonConvergenceError):
        integrate_line(lambda t: np.exp(-np.abs(t.real) ** 1.1) * np.cos(40 * t), 0.0, tight)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=0.2, max_value=3.0),
        c=st.floats(min_value=-2.0, max_value=2.0),
        offset=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_gaussian_family_property(a, c, offset):
        # int exp(-a (t - c)^2) dt = sqrt(pi / a) for any contour elevation
        val = integrate_line(lambda t: np.exp(-a * (t - c) ** 2), offset, CFG)
        assert val == pytest.approx(math.sqrt(math.pi / a), rel=1e-10)

except ImportError:  # pragma: no cover - hypothesis is an optional extra
    pass


def test_config_validation():
    for kwargs in (
        {"abs_tol": 0.0},
        {"rel_tol": math.nan},
        {"max_refinements": 0},
        {"max_T": 0.0},
        {"max_T": -8.0},
        {"max_T": math.inf},
        {"max_T": math.nan},
    ):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


def test_integrals_suite_does_not_load_scipy():
    # The Gauss-Kronrod table is stored as literals: scipy is no dependency,
    # and importing it costs set-up time and memory.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, mdlab; mdlab.integrals_suite(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
