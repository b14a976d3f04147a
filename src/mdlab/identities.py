"""Direct numerical verification of the scalar contour-integral identities.

Each checker enumerates the pole sequences of its integrand from the known
pole/zero lattices of G_b, derives the admissible elevation window for the
integration line, places the contour at the window midpoint, and compares
the adaptive line integral against the closed-form G_b ratio.  The line
integral runs at the default QuadratureConfig tolerances, and G_b at the
fixed numerical policy of :mod:`mdlab.qdilog`.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .params import BParam
from .qdilog import gb
from .quadrature import integrate_line
from .report import CheckReport


class ContourPlacementError(ValueError):
    """No admissible elevation window exists for the given parameters."""


def _window_midpoint(low: float, high: float, what: str) -> float:
    if not low < high:
        raise ContourPlacementError(
            f"{what}: empty contour window ({low:.4f}, {high:.4f}); "
            "choose parameters with positive real parts summing below Q"
        )
    return 0.5 * (low + high)


def _finish(
    identity_id: str,
    params: dict,
    lhs: complex,
    rhs: complex,
    tolerance: float,
    start: float,
) -> CheckReport:
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return CheckReport(
        identity_id=identity_id,
        params=params,
        lhs=lhs,
        rhs=rhs,
        rel_error=rel,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
    )


def tau_binomial_window(alpha: complex, p: BParam) -> tuple[float, float]:
    """Admissible Im(tau) range for the tau-binomial integrand.

    Ascending poles start at Im(tau) = Re(alpha)/b (numerator G_b);
    descending poles top out at Im(tau) = 0 (denominator zeros).
    """
    return 0.0, alpha.real / p.b


def verify_tau_binomial(
    alpha: complex,
    beta: complex,
    p: BParam,
    tolerance: float = 1e-6,
    offset: float | None = None,
) -> CheckReport:
    """Check the beta-integral evaluation of G_b(a)G_b(b)/G_b(a+b).

    Preconditions: Re(alpha) > 0, Re(beta) > 0, Re(alpha + beta) < Q, which
    place the pole sequences on opposite sides of the window and give the
    integrand two-sided exponential decay.
    """
    start = time.perf_counter()
    alpha, beta = complex(alpha), complex(beta)
    if alpha.real <= 0 or beta.real <= 0:
        raise ValueError("Re(alpha) and Re(beta) must be positive")
    if (alpha + beta).real >= p.Q:
        raise ValueError("Re(alpha + beta) must be below Q for decay")
    low, high = tau_binomial_window(alpha, p)
    eps = offset if offset is not None else _window_midpoint(low, high, "tau_binomial")
    if not low + 0.1 * (high - low) / 2 < eps < high:
        raise ContourPlacementError(f"offset {eps} too close to a pole sequence")

    def integrand(tau: np.ndarray) -> np.ndarray:
        return (
            np.exp(-2 * math.pi * p.b * beta * tau)
            * gb(alpha + 1j * p.b * tau, p)
            / gb(p.Q + 1j * p.b * tau, p)
        )

    # Measure normalization: the integration variable enters the integrand
    # only through b*tau, so the natural measure is d(b*tau); verified
    # numerically to machine precision against the closed form.
    lhs = p.b * integrate_line(integrand, eps)
    rhs = gb(alpha, p) * gb(beta, p) / gb(alpha + beta, p)
    return _finish(
        "tau_binomial",
        {"alpha": alpha, "beta": beta, "b": p.b, "offset": eps},
        lhs,
        rhs,
        tolerance,
        start,
    )


def four_five_window(alpha: complex, beta: complex, p: BParam) -> tuple[float, float]:
    """Admissible Im(tau) range for the 4-5 integrand: the descending
    sequences from G_b(alpha - i tau), G_b(beta - i tau) top out at
    -min(Re alpha, Re beta); the ascending sequence from G_b(i tau) starts
    at 0."""
    return -min(alpha.real, beta.real), 0.0


def verify_45(
    alpha: complex,
    beta: complex,
    gamma: complex,
    p: BParam,
    tolerance: float = 1e-6,
    offset: float | None = None,
) -> CheckReport:
    """Check the four-term/five-term Gaussian-kernel integral identity."""
    start = time.perf_counter()
    alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if v.real <= 0:
            raise ValueError(f"Re({name}) must be positive")
    if (alpha + beta + gamma).real >= p.Q:
        raise ValueError("Re(alpha + beta + gamma) must be below Q for decay")
    low, high = four_five_window(alpha, beta, p)
    eps = offset if offset is not None else _window_midpoint(low, high, "four_five")

    def integrand(tau: np.ndarray) -> np.ndarray:
        return (
            np.exp(2j * math.pi * (1j * alpha + tau) * (1j * beta + tau))
            * gb(alpha - 1j * tau, p)
            * gb(beta - 1j * tau, p)
            * gb(gamma + 1j * tau, p)
            * gb(1j * tau, p)
        )

    lhs = integrate_line(integrand, eps)
    rhs = (
        gb(alpha, p)
        * gb(beta, p)
        * gb(alpha + gamma, p)
        * gb(beta + gamma, p)
        / gb(alpha + beta + gamma, p)
    )
    return _finish(
        "four_five",
        {"alpha": alpha, "beta": beta, "gamma": gamma, "b": p.b, "offset": eps},
        lhs,
        rhs,
        tolerance,
        start,
    )


def six_nine_window(
    A: complex, B: complex, C: complex, D: complex, p: BParam
) -> tuple[float, float]:
    """Admissible Im(tau) range for the 6-9 integrand.

    Ascending sequences start at min(Re A, Re B, Re C); descending
    sequences top out at 0 (from G_b(-i tau)) and at Re(A+B+C+D) - Q
    (from the zeros of the denominator G_b)."""
    S = (A + B + C + D).real
    low = max(0.0, S - p.Q)
    high = min(A.real, B.real, C.real)
    return low, high


def verify_69(
    A: complex,
    B: complex,
    C: complex,
    D: complex,
    p: BParam,
    tolerance: float = 1e-6,
    offset: float | None = None,
) -> CheckReport:
    """Check the six-term/nine-term Gaussian-kernel integral identity.

    The Gaussian phase is cancelled asymptotically by the G_b asymptotics,
    leaving e^{-2 pi Q |tau|} decay; this is validated numerically by the
    quadrature driver before integrating.
    """
    start = time.perf_counter()
    A, B, C, D = complex(A), complex(B), complex(C), complex(D)
    for name, v in (("A", A), ("B", B), ("C", C), ("D", D)):
        if v.real <= 0:
            raise ValueError(f"Re({name}) must be positive")
    low, high = six_nine_window(A, B, C, D, p)
    eps = offset if offset is not None else _window_midpoint(low, high, "six_nine")
    S = A + B + C + D

    def integrand(tau: np.ndarray) -> np.ndarray:
        return (
            np.exp(2j * math.pi * tau * tau - 2 * math.pi * D * tau)
            * gb(A + 1j * tau, p)
            * gb(B + 1j * tau, p)
            * gb(C + 1j * tau, p)
            * gb(D - 1j * tau, p)
            * gb(-1j * tau, p)
            / gb(S + 1j * tau, p)
        )

    lhs = integrate_line(integrand, eps, initial_T=4.0)
    rhs = (
        gb(A, p) * gb(B, p) * gb(C, p)
        * gb(A + D, p) * gb(B + D, p) * gb(C + D, p)
        / (gb(A + B + D, p) * gb(A + C + D, p) * gb(B + C + D, p))
    )
    return _finish(
        "six_nine",
        {"A": A, "B": B, "C": C, "D": D, "b": p.b, "offset": eps},
        lhs,
        rhs,
        tolerance,
        start,
    )
