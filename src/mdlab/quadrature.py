"""Adaptive quadrature along horizontal lines in the complex plane.

All contour integrals in this package run over lines Im(tau) = offset with
integrands that decay exponentially at both ends.  The driver below picks a
truncation window by sampling the integrand envelope, then refines panels
adaptively with the embedded Gauss-Kronrod pair G10/K21.  Integrand callbacks
must be vectorized over numpy arrays of complex points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class QuadratureError(Exception):
    """Base class for line-integral failures."""


class DecayValidationError(QuadratureError):
    """The integrand does not decay at one or both ends of the line."""


class NonConvergenceError(QuadratureError):
    """Refinement budget exhausted before the error target was met."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of :func:`integrate_line`.

    abs_tol / rel_tol bound the quadrature error of the final estimate;
    max_T caps the truncation half-width (a tail still above 0.1 * abs_tol
    there raises DecayValidationError); max_refinements caps the number of
    panel bisections.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_T: float = 512.0
    max_refinements: int = 4000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (0 < self.max_T < math.inf):
            raise ValueError("max_T must be positive and finite")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


# Equal panels on [-T, T] before adaptive bisection starts.
_INITIAL_PANELS = 16


# The G10/K21 Gauss-Kronrod pair on [-1, 1], as tabulated in QUADPACK's qk21
# (Kronrod 1965; Piessens et al. 1983): the 11 non-negative K21 abscissae,
# largest first, whose odd positions hold the 10-point Gauss-Legendre nodes;
# the K21 weights at those abscissae; and the G10 weights at the Gauss nodes.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# The 21 nodes, mirrored through 0, and a (21, 2) matrix whose columns are
# the K21 weights and the G10 weights (zero at the Kronrod-only nodes).
_GK21_NODES = np.concatenate([_XGK, np.negative(_XGK[-2::-1])])
_GK21_WEIGHTS = np.zeros((21, 2))
_GK21_WEIGHTS[:, 0] = _WGK + _WGK[-2::-1]
_GK21_WEIGHTS[1::2, 1] = _WG + _WG[::-1]


def _panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    offset: float,
) -> list[tuple[float, float, complex, float]]:
    """(a, b, K21, |K21 - G10|) of each panel [a_i, b_i] + offset*i, with the
    21 Gauss-Kronrod nodes of all panels evaluated in one call of f."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    tau = mid[:, None] + half[:, None] * _GK21_NODES + 1j * offset
    y = np.asarray(f(tau.ravel()), dtype=complex).reshape(tau.shape)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise QuadratureError(
            f"integrand returned non-finite values on [{a[i]}, {b[i]}] + {offset}i "
            "(pole on or near the contour?)"
        )
    kronrod, gauss = (half[:, None] * (y @ _GK21_WEIGHTS)).T
    return [(float(ai), float(bi), complex(k), float(abs(k - g)))
            for ai, bi, k, g in zip(a, b, kronrod, gauss)]


def _choose_truncation(
    f: Callable[[np.ndarray], np.ndarray],
    offset: float,
    cfg: QuadratureConfig,
    initial_T: float,
) -> float:
    """Double T until the sampled envelope implies a negligible tail; each
    probe samples both ends in one call of f.  Raises DecayValidationError if
    the tail at T = max_T is still not negligible."""
    T = min(initial_T, cfg.max_T)
    while True:
        pts = np.array([T - 1.0, T - 0.5, T, 1.0 - T, 0.5 - T, -T]) + 1j * offset
        probes = np.abs(np.asarray(f(pts), dtype=complex)).reshape(2, 3)
        if not np.all(np.isfinite(probes)):
            raise QuadratureError("non-finite integrand while probing decay")
        tail = 0.0  # largest tail estimate of the two ends
        for sign, vals in zip((+1.0, -1.0), probes):
            v_in, v_out = vals[0], vals[-1]
            if v_out < 1e-300:
                continue
            if v_out >= v_in:
                if T >= cfg.max_T:
                    raise DecayValidationError(
                        f"integrand does not decay towards tau = {sign:+.0f}inf "
                        f"(|f| = {v_in:.3e} -> {v_out:.3e} at T = {T})"
                    )
                tail = math.inf
                continue
            rate = np.log(v_in / v_out)  # decay per unit length
            tail = max(tail, float(v_out / max(rate, 1e-3)))
        if tail <= 0.1 * cfg.abs_tol:
            return T
        if T >= cfg.max_T:
            raise DecayValidationError(
                f"integrand tail beyond max_T = {T} is about {tail:.3e}, "
                f"above 0.1 * abs_tol = {0.1 * cfg.abs_tol:.1e}"
            )
        T = min(2.0 * T, cfg.max_T)


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    offset: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    initial_T: float = 8.0,
) -> complex:
    """Integrate ``f`` over the line Im(tau) = offset.

    The caller guarantees two-sided exponential decay; this is validated by
    envelope sampling before any panel is refined; ``initial_T`` is the first
    truncation half-width tried, and must be positive and finite.  Each panel
    is valued by the 21-point Kronrod rule K21, with |K21 - G10| against the
    embedded 10-point Gauss rule as its error estimate.  Panels are bisected
    greedily, worst error first.  Each round calls ``f`` once: on the nodes
    of all initial panels, then on those of both halves of each bisected
    panel.
    """
    if not (0 < initial_T < math.inf):
        raise ValueError(f"initial_T must be positive and finite, got {initial_T}")
    T = _choose_truncation(f, offset, cfg, initial_T)
    edges = np.linspace(-T, T, _INITIAL_PANELS + 1)
    panels = _panels(f, edges[:-1], edges[1:], offset)

    for _ in range(cfg.max_refinements):
        total = sum(p[2] for p in panels)
        err = sum(p[3] for p in panels)
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err <= target:
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a, b, _, _ = panels.pop(worst)
        m = 0.5 * (a + b)
        panels += _panels(f, np.array([a, m]), np.array([m, b]), offset)

    raise NonConvergenceError(
        f"line integral did not converge after {cfg.max_refinements} refinements "
        f"(estimated error {err:.3e}, target {target:.3e})"
    )
