"""Adaptive quadrature along horizontal lines in the complex plane.

All contour integrals in this package run over lines Im(tau) = offset with
integrands that decay exponentially at both ends.  The driver below picks a
truncation window by sampling the integrand envelope, then refines panels
adaptively with nested Gauss-Legendre rules.  Integrand callbacks must be
vectorized over numpy arrays of complex points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    max_T caps the truncation half-width; max_refinements caps the number
    of panel bisections.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_T: float = 512.0
    max_refinements: int = 4000

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


# Equal panels on [-T, T] before adaptive bisection starts.
_INITIAL_PANELS = 16


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    offset: float,
) -> list[tuple[float, float, complex, float]]:
    """(a, b, fine, |fine - coarse|) of each panel [a_i, b_i] + offset*i, with
    the 20- and 30-point Gauss-Legendre rules on all panels from one call of f."""
    x20, w20 = _leggauss(20)
    x30, w30 = _leggauss(30)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    tau = mid[:, None] + half[:, None] * np.concatenate([x20, x30]) + 1j * offset
    y = np.asarray(f(tau.ravel()), dtype=complex).reshape(tau.shape)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise QuadratureError(
            f"integrand returned non-finite values on [{a[i]}, {b[i]}] + {offset}i "
            "(pole on or near the contour?)"
        )
    coarse = half * (y[:, :20] @ w20)
    fine = half * (y[:, 20:] @ w30)
    return [(float(ai), float(bi), complex(fi), float(abs(fi - ci)))
            for ai, bi, fi, ci in zip(a, b, fine, coarse)]


def _choose_truncation(
    f: Callable[[np.ndarray], np.ndarray],
    offset: float,
    cfg: QuadratureConfig,
    initial_T: float,
) -> float:
    """Double T until the sampled envelope implies a negligible tail; each
    probe samples both ends in one call of f."""
    T = initial_T
    while True:
        ok = True
        pts = np.array([T - 1.0, T - 0.5, T, 1.0 - T, 0.5 - T, -T]) + 1j * offset
        probes = np.abs(np.asarray(f(pts), dtype=complex)).reshape(2, 3)
        if not np.all(np.isfinite(probes)):
            raise QuadratureError("non-finite integrand while probing decay")
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
                ok = False
                continue
            rate = np.log(v_in / v_out)  # decay per unit length
            tail = v_out / max(rate, 1e-3)
            if tail > 0.1 * cfg.abs_tol:
                ok = False
        if ok or T >= cfg.max_T:
            return min(T, cfg.max_T)
        T = min(2.0 * T, cfg.max_T)


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    offset: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    initial_T: float = 8.0,
) -> complex:
    """Integrate ``f`` over the line Im(tau) = offset.

    The caller guarantees two-sided exponential decay; this is validated by
    envelope sampling before any panel is refined.  Panels are bisected
    greedily, worst error first, using a 20/30-point Gauss-Legendre pair as
    the error estimator.  Each round calls ``f`` once: on the nodes of all
    initial panels, then on those of both halves of each bisected panel.
    """
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
