"""Canonical check suites over all toolkit capabilities.

Each suite function returns a list of CheckReports with stable identity
ids and parameters, so the command-line runner and the test suite execute
exactly the same checks.  The qdilog suite runs at one b and derives from
it the radii of its residue circles and the heights of its asymptotic
checks; nothing in it is tuned to a particular b.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .params import BParam, OmegaParams
from .qdilog import (
    STRIP_MARGIN,
    _reduction_shifts,
    check_asymptotics,
    classify,
    gb,
    log_gb_strip,
    residue_coeff,
    residue_limit,
    shift_product,
)
from .report import CheckReport, relative_error
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

# Bounds of the symbolic suite beyond the Kac identity: Serre sums with
# N + M <= 5, q-binomial expansions up to N = 6, mixed commutators up to m = 4.
_SERRE_BOUND = 5
_QBINOMIAL_BOUND = 6
_MIXED_BOUND = 4

# The qdilog checks' grid is _GRID_SIDE x _GRID_SIDE points in the strip;
# the functional equations shift by n1*b + n2/b with n1, n2 <= _MAX_SHIFT,
# and the residues are checked at the poles -n1*b - n2/b, n1, n2 <= _MAX_N.
_GRID_SIDE = 10
_MAX_SHIFT = 3
_MAX_N = 2


def _strip_grid(p: BParam) -> np.ndarray:
    """Deterministic grid of _GRID_SIDE**2 points inside the strip."""
    re = np.linspace(0.2 * p.Q, 0.8 * p.Q, _GRID_SIDE)
    im = np.linspace(-1.0, 1.0, _GRID_SIDE)
    return (re[:, None] + 1j * im[None, :]).ravel()


def _landing(z: np.ndarray, p: BParam) -> np.ndarray:
    """Re z' of the strip point z' onto which gb reduces each point of z."""
    return z.real + _reduction_shifts(z.real, p) @ (p.b, 1.0 / p.b)


def check_functional_equation(b: float, tolerance: float = 1e-9) -> CheckReport:
    """G_b(z + s) = (finite shift product) * G_b(z), s = n1*b + n2/b, one
    relative error over every scored pair.

    Two sets of pairs.  The strip grid shifted by every s with n1, n2 <=
    _MAX_SHIFT goes through gb; where gb reduces z + s onto the same strip
    point as z, the pair compares the step factors with themselves, so it is
    not scored.  As many pairs again have z and z + s both in the strip,
    shared among the shifts that fit, and go through the strip kernel, so no
    reduction can make them circular.
    """
    start = time.perf_counter()
    p = BParam(b)
    z = _strip_grid(p)
    shifts = [s for s in itertools.product(range(_MAX_SHIFT + 1), repeat=2) if s != (0, 0)]
    base, landing = gb(z, p), _landing(z, p)
    got, want = [], []
    for n1, n2 in shifts:
        shifted = z + n1 * p.b + n2 / p.b
        value = gb(shifted, p)
        # Landing points of one pair differ by a lattice vector: 0, or far
        # more than rounding.
        scored = np.abs(_landing(shifted, p) - landing) > 1e-9
        got.append(value[scored])
        want.append(np.array([shift_product(zi, n1, n2, p) for zi in z[scored]]) * base[scored])
    n_shifted = sum(map(len, got))

    low = 2 * STRIP_MARGIN
    fits = [(n1, n2) for n1, n2 in shifts if n1 * p.b + n2 / p.b < p.Q - 2 * low]
    rows = -(-len(z) * len(shifts) // (len(fits) * _GRID_SIDE))
    for n1, n2 in fits:
        s = n1 * p.b + n2 / p.b
        re = np.linspace(low, p.Q - low - s, rows)
        w = (re[:, None] + 1j * np.linspace(-1.0, 1.0, _GRID_SIDE)).ravel()
        got.append(np.exp(log_gb_strip(w + s, p)))
        want.append(np.array([shift_product(wi, n1, n2, p) for wi in w])
                    * np.exp(log_gb_strip(w, p)))
    n_strip = sum(map(len, got)) - n_shifted
    return CheckReport(
        identity_id="functional_equation",
        params={"b": b, "n_points": len(z), "max_shift": _MAX_SHIFT},
        rel_error=relative_error(np.concatenate(got), np.concatenate(want)),
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
        detail=(f"{n_shifted + n_strip} pairs scored: {n_shifted} of the "
                f"{len(z) * len(shifts)} shifted grid pairs (the others land on "
                f"z's strip point) and {n_strip} in-strip pairs over {len(fits)} shifts"),
    )


def check_reflection(b: float, tolerance: float = 1e-9) -> CheckReport:
    """G_b(z) G_b(Q - z) = e^{pi i z (z - Q)} over a grid."""
    start = time.perf_counter()
    p = BParam(b)
    z = _strip_grid(p)
    lhs = gb(z, p) * gb(p.Q - z, p)
    rhs = np.exp(1j * math.pi * z * (z - p.Q))
    worst = relative_error(lhs, rhs)
    return CheckReport(
        identity_id="reflection",
        params={"b": b, "n_points": len(z)},
        rel_error=worst,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )


def check_special_values(b: float, tolerance: float = 1e-8) -> CheckReport:
    """G_b(b) = -i*b, G_b(1/b) = -i/b, and G_b(Q) = 0 by classification."""
    start = time.perf_counter()
    p = BParam(b)
    errs = [
        abs(gb(p.b, p) - (-1j * p.b)) / p.b,
        abs(gb(1.0 / p.b, p) - (-1j / p.b)) * p.b,
    ]
    zero_ok = (
        classify(p.Q, p).kind == "zero" and gb(complex(p.Q), p) == 0.0
    )
    return CheckReport(
        identity_id="special_values",
        params={"b": b},
        rel_error=float(np.max(errs)) if zero_ok else math.inf,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
        detail=f"zero at Q classified exactly: {zero_ok}",
    )


def check_residues(b: float, tolerance: float = 1e-9) -> CheckReport:
    """Circle-integral pole limits against the closed-form residue products.
    A singular closed form (q^2k or qtilde^2k = 1) fails the check, with
    the singular factor as its detail."""
    start = time.perf_counter()
    p = BParam(b)
    errs, detail = [], ""
    for n1, n2 in itertools.product(range(_MAX_N + 1), repeat=2):
        try:
            closed = residue_coeff(n1, n2, p)
        except ZeroDivisionError as exc:
            errs.append(math.inf)
            detail = f"at (n1, n2) = ({n1}, {n2}): {exc}"
            break
        errs.append(abs(residue_limit(n1, n2, p) - closed) / abs(closed))
    return CheckReport(
        identity_id="residues",
        params={"b": b, "max_n": _MAX_N},
        rel_error=float(np.max(errs)),
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
        detail=detail,
    )


def qdilog_suite(b: float = 0.83, tolerance: float = 1e-9) -> list[CheckReport]:
    """Functional equations, reflection, special values, residues and
    asymptotics at one b.  ``tolerance`` applies to the functional-equation
    and reflection checks.

    The asymptotic checks sit at the heights T = k/(2 pi min(b, 1/b)),
    where the leading correction e^{-2 pi min(b, 1/b) T} is e^-k.  At
    k = 16 it is about 1e-7, so the check at 1e-9 fails unless the
    correction is right; k in (40, 50, 70) keep 1e-6, and e^-40 is the G_b
    kernel's tail target.
    """
    p = BParam(b)
    reports = [
        check_functional_equation(b, tolerance=tolerance),
        check_reflection(b, tolerance=tolerance),
        check_special_values(b),
        check_residues(b),
    ]
    for k, tol in ((16.0, 1e-9), (40.0, 1e-6), (50.0, 1e-6), (70.0, 1e-6)):
        T = k / (2.0 * math.pi * min(p.b, 1.0 / p.b))
        reports.append(check_asymptotics(p.Q / 2.0, T, p, tolerance=tol))
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
    tau_binomial_b_values: tuple[float, ...] = (0.7, 1.2),
) -> list[CheckReport]:
    """All three contour-integral identities over several parameter sets."""
    reports = []
    for bb in tuple(dict.fromkeys((b,) + tau_binomial_b_values)):
        p = BParam(bb)
        for fa, fb in _TAU_BINOMIAL_SETS:
            reports.append(
                verify_tau_binomial(fa * p.Q, fb * p.Q, p, tolerance)
            )
    p = BParam(b)
    for fa, fb, fc in _FOUR_FIVE_SETS:
        reports.append(verify_45(fa * p.Q, fb * p.Q, fc * p.Q, p, tolerance))
    for fa, fb, fc, fd in _SIX_NINE_SETS:
        reports.append(
            verify_69(fa * p.Q, fb * p.Q, fc * p.Q, fd * p.Q, p, tolerance)
        )
    return reports


def symbolic_suite(max_N: int = 4, max_M: int = 4) -> list[CheckReport]:
    """Every exact symbolic identity, plus dual-variable re-runs."""
    reports = []
    for v in (V, V_TILDE):
        for N in range(max_N + 1):
            for M in range(max_M + 1):
                reports.append(verify_kac(N, M, v))
        for m in range(1, _MIXED_BOUND + 1):
            reports.append(verify_mixed_commutators(m, v))
        for N in range(_SERRE_BOUND + 1):
            for M in range(_SERRE_BOUND + 1 - N):
                reports.append(verify_serre_sum(N, M, v))
        reports.append(verify_commuting_cases(v))
        for N in range(_QBINOMIAL_BOUND + 1):
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
    for N = 2 up to gl_rank; gl_rank below 2 raises RepresentationError."""
    repcheck.require_rank(gl_rank)
    p = OmegaParams(omega1, omega2)
    reports = []
    for N in range(2, gl_rank + 1):
        reports.extend(repcheck.verify_all(N, p, trials, seed, tolerance))
    return reports
