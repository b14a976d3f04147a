"""Canonical check suites over all toolkit capabilities.

Each suite function returns a list of CheckReports with stable identity
ids and parameters, so the command-line runner and the test suite execute
exactly the same checks.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .params import BParam, OmegaParams
from .qdilog import (
    check_asymptotics,
    classify,
    gb,
    residue_coeff,
    residue_limit,
    shift_product,
)
from .quadrature import QuadratureConfig
from .report import CheckReport
from .identities import verify_45, verify_69, verify_tau_binomial
from .qalgebra import (
    V,
    V_TILDE,
    verify_commuting_cases,
    verify_coproduct_hom,
    verify_kac,
    verify_mixed_commutators,
    verify_qbinomial,
    verify_serre_sum,
)
from . import repcheck

DEFAULT_B_VALUES = (0.7, 0.83, 1.2)


def _strip_grid(p: BParam, n_points: int) -> np.ndarray:
    """Deterministic grid of ``n_points`` points inside the strip."""
    nx = max(2, int(round(math.sqrt(n_points))))
    ny = max(2, n_points // nx)
    re = np.linspace(0.2 * p.Q, 0.8 * p.Q, nx)
    im = np.linspace(-1.0, 1.0, ny)
    return (re[:, None] + 1j * im[None, :]).ravel()


def _max_rel_err(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs) / scale))


def check_functional_equation(
    b: float,
    n_points: int = 100,
    max_shift: int = 3,
    tolerance: float = 1e-9,
    cfg: QuadratureConfig | None = None,
) -> CheckReport:
    """G_b(z + n1*b + n2/b) = (finite shift product) * G_b(z) over a grid."""
    start = time.perf_counter()
    p = BParam(b)
    cfg = cfg or QuadratureConfig()
    z = _strip_grid(p, n_points)
    base = gb(z, p, cfg)
    worst = 0.0
    for n1 in range(max_shift + 1):
        for n2 in range(max_shift + 1):
            if n1 == n2 == 0:
                continue
            shifted = gb(z + n1 * p.b + n2 / p.b, p, cfg)
            prods = np.array([shift_product(zi, n1, n2, p) for zi in z])
            worst = max(worst, _max_rel_err(shifted, prods * base))
    return CheckReport(
        identity_id="functional_equation",
        params={"b": b, "n_points": len(z), "max_shift": max_shift},
        rel_error=worst,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )


def check_reflection(
    b: float,
    n_points: int = 100,
    tolerance: float = 1e-9,
    cfg: QuadratureConfig | None = None,
) -> CheckReport:
    """G_b(z) G_b(Q - z) = e^{pi i z (z - Q)} over a grid."""
    start = time.perf_counter()
    p = BParam(b)
    cfg = cfg or QuadratureConfig()
    z = _strip_grid(p, n_points)
    lhs = gb(z, p, cfg) * gb(p.Q - z, p, cfg)
    rhs = np.exp(1j * math.pi * z * (z - p.Q))
    worst = _max_rel_err(lhs, rhs)
    return CheckReport(
        identity_id="reflection",
        params={"b": b, "n_points": len(z)},
        rel_error=worst,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )


def check_special_values(
    b: float, tolerance: float = 1e-8, cfg: QuadratureConfig | None = None
) -> CheckReport:
    """G_b(b) = -i*b, G_b(1/b) = -i/b, and G_b(Q) = 0 by classification."""
    start = time.perf_counter()
    p = BParam(b)
    cfg = cfg or QuadratureConfig()
    errs = [
        abs(gb(p.b, p, cfg) - (-1j * p.b)) / p.b,
        abs(gb(1.0 / p.b, p, cfg) - (-1j / p.b)) * p.b,
    ]
    zero_ok = (
        classify(p.Q, p).kind == "zero" and gb(complex(p.Q), p, cfg) == 0.0
    )
    worst = max(errs) if zero_ok else math.inf
    return CheckReport(
        identity_id="special_values",
        params={"b": b},
        rel_error=worst,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
        detail=f"zero at Q classified exactly: {zero_ok}",
    )


def check_residues(
    b: float, max_n: int = 2, tolerance: float = 1e-4,
    cfg: QuadratureConfig | None = None,
) -> CheckReport:
    """Extrapolated pole limits against the closed-form residue products."""
    start = time.perf_counter()
    p = BParam(b)
    cfg = cfg or QuadratureConfig()
    worst = 0.0
    for n1 in range(max_n + 1):
        for n2 in range(max_n + 1):
            closed = residue_coeff(n1, n2, p)
            numeric = residue_limit(n1, n2, p, cfg)
            worst = max(worst, abs(numeric - closed) / abs(closed))
    return CheckReport(
        identity_id="residues",
        params={"b": b, "max_n": max_n},
        rel_error=worst,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )


def qdilog_suite(
    b_values: tuple[float, ...] = DEFAULT_B_VALUES,
    asymptotic_T: tuple[float, ...] = (8.0, 10.0, 14.0),
    cfg: QuadratureConfig | None = None,
    tolerance: float | None = None,
) -> list[CheckReport]:
    """Functional equations, reflection, special values, residues and
    asymptotics for each requested b.  A tolerance override applies to the
    functional-equation/reflection family only."""
    reports = []
    tol = tolerance if tolerance is not None else 1e-9
    for b in b_values:
        reports.append(check_functional_equation(b, tolerance=tol, cfg=cfg))
        reports.append(check_reflection(b, tolerance=tol, cfg=cfg))
        reports.append(check_special_values(b, cfg=cfg))
        reports.append(check_residues(b, cfg=cfg))
    p = BParam(b_values[0] if len(b_values) == 1 else 0.83)
    for T in asymptotic_T:
        reports.append(check_asymptotics(p.Q / 2.0, T, p, cfg))
    return reports


#: Parameter sets for the contour-integral identities, as fractions of Q
#: so they stay admissible for every b.
_TAU_BINOMIAL_SETS = (
    (0.30, 0.30),
    (0.20, 0.45),
    (0.42, 0.18),
)
_FOUR_FIVE_SETS = (
    (0.25, 0.25, 0.25),
    (0.15, 0.35, 0.20),
    (0.30, 0.20, 0.28),
)
_SIX_NINE_SETS = (
    (0.20, 0.20, 0.20, 0.20),
    (0.15, 0.25, 0.20, 0.22),
    (0.28, 0.18, 0.16, 0.21),
)


def integrals_suite(
    b: float = 0.83,
    tolerance: float = 1e-6,
    cfg: QuadratureConfig | None = None,
    tau_binomial_b_values: tuple[float, ...] = (0.7, 1.2),
) -> list[CheckReport]:
    """All three contour-integral identities over several parameter sets."""
    cfg = cfg or QuadratureConfig()
    reports = []
    for bb in tuple(dict.fromkeys((b,) + tau_binomial_b_values)):
        p = BParam(bb)
        for fa, fb in _TAU_BINOMIAL_SETS:
            reports.append(
                verify_tau_binomial(fa * p.Q, fb * p.Q, p, cfg, tolerance)
            )
    p = BParam(b)
    for fa, fb, fc in _FOUR_FIVE_SETS:
        reports.append(verify_45(fa * p.Q, fb * p.Q, fc * p.Q, p, cfg, tolerance))
    for fa, fb, fc, fd in _SIX_NINE_SETS:
        reports.append(
            verify_69(fa * p.Q, fb * p.Q, fc * p.Q, fd * p.Q, p, cfg, tolerance)
        )
    return reports


def symbolic_suite(
    max_N: int = 4,
    max_M: int = 4,
    serre_bound: int = 5,
    qbinomial_bound: int = 6,
    mixed_bound: int = 4,
    dual_variable: bool = True,
) -> list[CheckReport]:
    """Every exact symbolic identity, plus dual-variable re-runs."""
    reports = []
    variables = (V, V_TILDE) if dual_variable else (V,)
    for v in variables:
        for N in range(max_N + 1):
            for M in range(max_M + 1):
                reports.append(verify_kac(N, M, v))
        for m in range(1, mixed_bound + 1):
            reports.append(verify_mixed_commutators(m, v))
        for N in range(serre_bound + 1):
            for M in range(serre_bound + 1 - N):
                reports.append(verify_serre_sum(N, M, v))
        reports.append(verify_commuting_cases(v))
        for N in range(qbinomial_bound + 1):
            reports.append(verify_qbinomial(N, v))
        reports.append(verify_coproduct_hom(v))
    return reports


def representation_suite(
    omega1: float = 0.83,
    omega2: float = 1.0 / 0.83,
    gl_rank: int = 3,
    trials: int = 20,
    seed: int = 42,
    tolerance: float = 1e-8,
) -> list[CheckReport]:
    """Full relation catalogue of the difference-operator representation
    for N = 2 up to gl_rank."""
    if gl_rank not in (2, 3):
        raise ValueError("gl_rank must be 2 or 3")
    p = OmegaParams(omega1, omega2)
    reports = []
    for N in range(2, gl_rank + 1):
        reports.extend(repcheck.verify_all(N, p, trials, seed, tolerance))
    return reports
