import cmath
import math
import re
import warnings

import numpy as np
import pytest

from mdlab.params import BParam
from mdlab import qdilog, suites
from mdlab.qdilog import (
    STRIP_MARGIN,
    PoleError,
    PoleZeroClass,
    _nearest_lattice_point,
    check_asymptotics,
    classify,
    gb,
    gb_q_exponential,
    log_gb_strip,
    residue_coeff,
    residue_limit,
    shift_product,
)
from mdlab.suites import qdilog_suite

P = BParam(0.83)


@pytest.mark.parametrize("zc", [
    0.9 + 0.2j, 0.85 - 1.5j, 1.2 + 3.0j, 1.1 - 5.0j, 0.8 + 5.5j, 1.0 + 8.0j,
], ids=str)
def test_strip_value_against_independent_quadrature(zc):
    # Independent oracle: evaluate the defining integral with mpmath's
    # adaptive quadrature on a contour of another elevation, split where
    # e^{zt} oscillates and where the integrand peaks near t = 0.
    import mpmath as mp

    mp.mp.dps = 30
    z = mp.mpc(zc)
    b = mp.mpf(P.b)
    eps = mp.mpf(0.25)

    def integrand(u):
        t = u + 1j * eps
        return mp.e ** (z * t) / ((1 - mp.e ** (b * t)) * (1 - mp.e ** (t / b)) * t)

    integral = mp.quad(integrand, [-60, -20, -8, -3, -1, 0, 1, 3, 8, 20, 60])
    zeta = mp.e ** (1j * mp.pi / 4 + 1j * mp.pi * (b**2 + b**-2) / 12)
    expected = complex(mp.conj(zeta) * mp.e ** (-integral))
    assert abs(gb(zc, P) - expected) <= 1e-12 * abs(expected)


def test_functional_equation_single_shifts():
    for z in (0.4 + 0.3j, 1.1 - 0.5j, 0.9):
        z = complex(z)
        for s in (P.b, 1.0 / P.b):
            lhs = gb(z + s, P)
            rhs = (1.0 - cmath.exp(2j * math.pi * s * z)) * gb(z, P)
            assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_far_shift_reduction():
    z = 5.3 + 0.2j
    lhs = gb(z, P)
    # walk down by hand with the shift equation from inside the strip
    w = z
    mult = 1.0 + 0.0j
    while w.real > P.Q - 0.2:
        w -= P.b
        mult *= 1.0 - cmath.exp(2j * math.pi * P.b * w)
    rhs = mult * gb(w, P)
    assert abs(lhs - rhs) / abs(rhs) < 1e-11


def test_reflection():
    for z in (0.3 + 0.1j, 0.8 - 0.4j, 1.2 + 0.7j):
        z = complex(z)
        lhs = gb(z, P) * gb(P.Q - z, P)
        rhs = cmath.exp(1j * math.pi * z * (z - P.Q))
        assert abs(lhs - rhs) < 1e-12


def test_special_values():
    assert abs(gb(P.b, P) - (-1j * P.b)) < 1e-13
    assert abs(gb(1.0 / P.b, P) - (-1j / P.b)) < 1e-13
    assert gb(complex(P.Q), P) == 0.0


def test_classification():
    assert classify(complex(0.0), P).kind == "pole"
    c = classify(-2 * P.b - 1 / P.b, P)
    assert (c.kind, c.n1, c.n2) == ("pole", 2, 1)
    c = classify(P.Q + P.b, P)
    assert (c.kind, c.n1, c.n2) == ("zero", 1, 0)
    assert classify(0.5 + 0.0j, P).kind == "regular"
    assert classify(complex(0.0, 1.0), P).kind == "regular"


@pytest.mark.parametrize("b", [0.7, 0.83, 1.2])
def test_classification_covers_lattice(b):
    p = BParam(b)
    for n1 in range(7):
        for n2 in range(7):
            s = n1 * p.b + n2 / p.b
            assert classify(-s, p) == PoleZeroClass("pole", n1, n2), (n1, n2)
            assert classify(p.Q + s, p) == PoleZeroClass("zero", n1, n2), (n1, n2)


@pytest.mark.parametrize("b", [0.7, 0.83, 1.2])
def test_gb_at_every_lattice_point(b):
    p = BParam(b)
    for n1 in range(7):
        for n2 in range(7):
            s = n1 * p.b + n2 / p.b
            with pytest.raises(PoleError):
                gb(-s, p)
            assert gb(p.Q + s, p) == 0.0, (n1, n2)


def test_pole_raises():
    with pytest.raises(PoleError):
        gb(complex(0.0), P)
    with pytest.raises(PoleError):
        gb(-P.b, P)


def test_zero_lattice_exact():
    zs = np.array([P.Q, P.Q + P.b, P.Q + P.b + 1 / P.b], dtype=complex)
    vals = gb(zs, P)
    assert np.all(vals == 0.0)


def test_batch_matches_scalar():
    # The batch spans the bands of 1 + |Im z| in [1, 2), [2, 4), [4, 8) and
    # [16, 32), each on its own grid.  The |Im z| = 20 points lie above the
    # axis: far below it the kernel's cancellation error exceeds 1e-13.
    zs = np.array([0.4 + 0.3j, 1.0 - 0.2j, 2.5 + 1.0j, -0.3 + 0.4j,
                   0.7 + 6.0j, 1.3 - 5.8j, 0.9 + 20.0j, 1.6 + 19.5j])
    batch = gb(zs, P)
    for zi, vi in zip(zs, batch):
        assert abs(gb(complex(zi), P) - vi) < 1e-13 * abs(vi)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4)])
def test_batch_layout_independent(shape):
    rng = np.random.default_rng(5)
    z = rng.uniform(-P.Q, 2 * P.Q, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    assert np.array_equal(gb(z.T, P), gb(z, P).T)


def test_strip_kernel_peak_memory():
    # The kernel works on one block of rows at a time, in place, so its peak
    # is one block of max(1, _BLOCK_VALUES // len(t)) rows of len(t)
    # complex values whatever the batch size.
    import tracemalloc

    from mdlab.qdilog import _BLOCK_VALUES, _t_grid

    for n in (1000, 4000):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.1 * P.Q, 0.9 * P.Q, n) + 1j * rng.uniform(-2.0, 2.0, n)
        t, _ = _t_grid(P, float(z.real.min()), float(P.Q - z.real.max()),
                       float(np.abs(z.imag).max()))
        block_bytes = max(1, _BLOCK_VALUES // t.size) * t.size * 16
        tracemalloc.start()
        try:
            log_gb_strip(z, P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block_bytes, (n, peak, block_bytes)


def test_strip_kernel_peak_memory_wide_grid():
    # |Im z| = 20 next to the strip margin needs a grid of 18,960 nodes at
    # b = 0.83: a block of 128 such rows takes 38.8 MB, and the whole
    # 256-point batch unblocked 77.7 MB.
    import tracemalloc

    x = np.linspace(STRIP_MARGIN, P.Q - STRIP_MARGIN, 256)
    tracemalloc.start()
    try:
        log_gb_strip(x + 20j, P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_strip_guard():
    with pytest.raises(ValueError):
        log_gb_strip(complex(-0.5, 0.0), P)


@pytest.mark.parametrize("z", [
    complex(1.0, math.nan), complex(math.nan, 0.0), complex(1.0, math.inf),
    complex(-math.inf, 0.0),
])
def test_non_finite_z_raises(z):
    for f in (gb, log_gb_strip):
        for arg in (z, np.array([1.0 + 0.5j, z])):
            with pytest.raises(ValueError, match="not finite"):
                f(arg, P)


def test_grid_node_cap():
    # Far from t = 0 every panel is 2 * _OSC_HALF_WIDTH / |Im z| wide, so at
    # z = x + iy the two tails, cut at _TAIL_LOG / x and _TAIL_LOG / (Q - x),
    # fill 2**20 nodes at y_cap.  From there on the grid raises at once
    # instead of building gigabytes (or never finishing).
    from mdlab.qdilog import _MAX_NODES, _OSC_HALF_WIDTH, _PANEL_NODES, _TAIL_LOG

    x = 1.0
    tails = _TAIL_LOG / x + _TAIL_LOG / (P.Q - x)
    y_cap = _MAX_NODES / _PANEL_NODES * 2 * _OSC_HALF_WIDTH / tails
    for y in (300.0, y_cap / 2):
        assert np.isfinite(gb(complex(x, y), P))
    for y in (y_cap, 1e300):
        with pytest.raises(ValueError, match="nodes"):
            gb(complex(x, y), P)
        with pytest.raises(ValueError, match="nodes"):
            log_gb_strip(complex(x, y), P)


def test_strip_edges():
    # Both edges of the domain STRIP_MARGIN <= Re z <= Q - STRIP_MARGIN.
    for x in (0.04, P.Q - 0.04):
        with pytest.raises(ValueError):
            log_gb_strip(complex(x, 0.0), P)
    for x in (0.06, P.Q - 0.06):
        assert np.isfinite(log_gb_strip(complex(x, 0.0), P))


def test_residues_match_closed_form():
    for n1 in range(3):
        for n2 in range(3):
            closed = residue_coeff(n1, n2, P)
            numeric = residue_limit(n1, n2, P)
            assert abs(numeric - closed) / abs(closed) < 1e-9


def test_residue_near_degenerate_spacing():
    # b = 0.7: the poles at -3b and -b-1/b are only ~0.03 apart; the
    # sampling radius must shrink accordingly.
    p = BParam(0.7)
    closed = residue_coeff(2, 0, p)
    numeric = residue_limit(2, 0, p)
    assert abs(numeric - closed) / abs(closed) < 1e-9


def test_nearest_other_pole_searches_whole_lattice():
    # b = 0.3: the pole nearest to -1/b = -3.333 is -11b = -3.3, which a
    # search over small n1 alone misses; the residue radius comes from it.
    p = BParam(0.3)
    d, n1, n2 = _nearest_lattice_point(1.0 / p.b, p, skip=(0, 1))
    assert (n1, n2) == (11, 0)
    assert d == pytest.approx(1.0 / 30.0, rel=1e-12)
    assert _nearest_lattice_point(0.0, p, skip=(0, 0))[1:] == (1, 0)


@pytest.mark.parametrize("b", [0.13, 0.3, 0.45, 2.5, 5.3, 7.7])
def test_qdilog_suite_passes_away_from_083(b):
    # Residue radii and asymptotic heights follow b, so the suite holds far
    # from b = 0.83, and the residue oracle agrees with the closed form.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # b = 2.5: q^8 = 1
        reports = qdilog_suite(b)
    assert [r.identity_id for r in reports if not r.passed] == []
    residues = next(r for r in reports if r.identity_id == "residues")
    assert residues.rel_error < 1e-11


@pytest.mark.parametrize("b, n1, n2", [(0.03, 0, 3), (33.7, 3, 0)])
def test_gb_where_the_step_product_leaves_double_range(b, n1, n2):
    # G_b(z0 + n1*b + n2/b) is about 1e182, but the steps back to the strip
    # multiply to 7.5e272 (b = 0.03) or 7.5e275 (b = 33.7).  Summed as logs,
    # the steps give the value the shift product predicts.
    p = BParam(b)
    z0 = complex(0.2 * p.Q, -1.0)
    z = z0 + n1 * p.b + n2 / p.b
    expected = shift_product(z0, n1, n2, p) * gb(z0, p)
    assert abs(gb(z, p) - expected) / abs(expected) < 1e-9


def test_gb_out_of_double_range_raises():
    # log|G_b(z)| = 718 here, past log(DBL_MAX) = 709.8: the value, not a
    # partial product, leaves double precision, and gb names z.
    p = BParam(29.3)
    z = complex(111.36730375426622, -1.0)
    with pytest.raises(OverflowError, match=re.escape(f"z = {z}")):
        gb(z, p)
    with pytest.raises(OverflowError, match="out of double range"):
        gb(np.array([1.0 + 0j, z]), p)


def test_qdilog_suite_passes_near_top_of_double_range():
    # b = 28.3: the functional equation's shifts by 3b reach |log G_b| of
    # 690, just inside double precision (709.8).
    reports = qdilog_suite(28.3)
    assert [r.identity_id for r in reports if not r.passed] == []


def test_qdilog_suite_outside_double_range_raises():
    # At b = 33.7 the functional equation's shifts by 3b reach |log G_b| of
    # 850; the suite raises instead of comparing non-finite values.
    with pytest.raises(OverflowError, match="out of double range"):
        qdilog_suite(33.7)


def test_functional_equation_nan_fails(monkeypatch):
    # One NaN among the 1,500 shifted values fails the check.
    calls = []

    def gb_nan_once(z, p):
        out = gb(z, p)
        calls.append(z)
        if len(calls) == 3:  # the batch shifted by 2/b
            out[7] = math.nan
        return out

    monkeypatch.setattr(suites, "gb", gb_nan_once)
    rep = suites.check_functional_equation(0.83)
    assert len(calls) == 16
    assert math.isnan(rep.rel_error) and not rep.passed


def test_residues_nan_fails(monkeypatch):
    limit = suites.residue_limit
    monkeypatch.setattr(suites, "residue_limit", lambda n1, n2, p: (
        complex(math.nan) if (n1, n2) == (1, 1) else limit(n1, n2, p)))
    rep = suites.check_residues(0.83)
    assert math.isnan(rep.rel_error) and not rep.passed


def test_special_values_nan_fails(monkeypatch):
    # NaN at G_b(1/b), the second of the two errors.
    monkeypatch.setattr(suites, "gb", lambda z, p: (
        complex(math.nan) if z == 1.0 / p.b else gb(z, p)))
    rep = suites.check_special_values(0.83)
    assert math.isnan(rep.rel_error) and not rep.passed


def test_asymptotics_lower_branch_nan_fails(monkeypatch):
    # gb evaluates arrays; only the lower branch calls log_gb_strip on a
    # scalar, so only its deviation turns NaN.
    strip = qdilog.log_gb_strip
    monkeypatch.setattr(qdilog, "log_gb_strip", lambda z, p: (
        strip(z, p) if np.ndim(z) else complex(math.nan)))
    rep = check_asymptotics(P.Q / 2, 8.0, P)
    up, down = _branch_devs(rep)
    assert up < 1e-9 and math.isnan(down)
    assert math.isnan(rep.rel_error) and not rep.passed


def test_shift_product_vs_direct():
    z = 0.37 + 0.21j
    for n1, n2 in ((1, 0), (0, 2), (2, 3)):
        lhs = gb(z + n1 * P.b + n2 / P.b, P)
        rhs = shift_product(z, n1, n2, P) * gb(z, P)
        assert abs(lhs - rhs) / abs(lhs) < 1e-11


def test_asymptotics():
    for T in (8.0, 12.0):
        rep = check_asymptotics(P.Q / 2, T, P)
        assert rep.passed and rep.rel_error < 1e-9


ASYMPTOTIC_B = [0.1001, 0.3, 0.83, 0.97, 2.5, 9.7]


def _branch_devs(report) -> tuple[float, float]:
    m = re.fullmatch(r"upper-branch dev (\S+), lower-branch dev (\S+)", report.detail)
    return float(m[1]), float(m[2])


@pytest.mark.parametrize("b", ASYMPTOTIC_B)
def test_asymptotics_with_leading_correction(b, monkeypatch):
    # At T = 16/(2 pi min(b, 1/b)) the correction is about 1e-7: the
    # corrected branches meet 1e-9, and the bare limits miss it on both
    # branches by more than 50x.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # b = 2.5: q^8 = 1
        p = BParam(b)
    T = 16.0 / (2.0 * math.pi * min(p.b, 1.0 / p.b))
    for x in (p.Q / 2, 0.3 * p.Q):
        assert check_asymptotics(x, T, p, tolerance=1e-9).passed
    monkeypatch.setattr(qdilog, "_leading_correction", lambda w, p: 0j)
    for x in (p.Q / 2, 0.3 * p.Q):
        bare = check_asymptotics(x, T, p, tolerance=1e-9)
        assert not bare.passed and min(_branch_devs(bare)) > 50e-9


def test_asymptotics_singular_correction_fails():
    with pytest.warns(RuntimeWarning, match="nearly degenerate"):
        p = BParam(1.0)  # q^2 = qtilde^2 = 1
    rep = check_asymptotics(p.Q / 2, 8.0, p)
    assert not rep.passed and rep.rel_error == math.inf
    assert rep.detail.startswith("q^2 = 1 within 1e-9")


def test_asymptotics_report_is_json():
    # At b = 0.3 and x = Q/2 the upper-branch deviation dominates and comes
    # back as a numpy float; the verdict must still be a plain bool.
    import json

    p = BParam(0.3)
    for x in (P.Q / 2, p.Q / 2):
        rep = check_asymptotics(x, 8.0, p)
        assert type(rep.passed) is bool
        json.dumps(rep.to_dict())


def test_q_exponential_functional_equation():
    # g_b(q^{-1} x) = (1 + x) g_b(q x)
    for x in (0.4, 0.9 + 0.3j, 2.0 - 1.0j):
        x = complex(x)
        lhs = gb_q_exponential(x / P.q, P)
        rhs = (1.0 + x) * gb_q_exponential(x * P.q, P)
        assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_q_exponential_branch_cut():
    with pytest.raises(ValueError):
        gb_q_exponential(-1.0, P)
