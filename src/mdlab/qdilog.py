"""Numerical evaluation of the non-compact quantum dilogarithm G_b.

Inside the strip 0 < Re z < Q the function is computed from its defining
integral representation

    log G_b(z) = log(conj(zeta_b)) - I(z),
    I(z) = integral over R + i*eps of  e^{z t} / (t (1-e^{b t})(1-e^{t/b})) dt,

with the contour elevated above the third-order singularity at t = 0 and
below the first poles on the imaginary axis at 2*pi*i*min(b, 1/b).

The numerical policy is fixed, not configurable: the strip is evaluated
only at distance STRIP_MARGIN = 0.05 or more from its edges, the contour
sits at Im t = eps = pi*min(b, 1/b)/4, an eighth of the height of the first
poles, each tail is cut where the integrand's decay bound falls to e^{-40},
and the cut never lies beyond |t| = 512.

Each panel of the grid carries the n = 24 point Gauss-Legendre rule and is
as wide as a stated bound allows.  All singularities lie on the imaginary
axis, the nearest being t = 0.  For any Bernstein ellipse E_rho, rho =
e^lam, with foci at the panel's ends that avoids t = 0, the rule's error is
about pi (2n)^2 rho^(-2n) e^{|Im z| h sinh lam} on a panel of half-width h:
rho^(-2n) is the rate of E_rho (Trefethen, Approximation Theory and
Approximation Practice, 2013, ch. 19), pi (2n)^2 what the third-order pole
adds when E_rho reaches it, and e^{|Im z| h sinh lam} the growth of e^{zt}
on E_rho.  Each panel is the widest for which some E_rho keeps this below
e^{-40}, the tail target.  So panels grow geometrically away from t = 0
and are never wider than 26.0/|Im z|.  Against a 30-digit mpmath integral
the kernel agrees to about 2e-14 for |Im z| <= 3 and to 1e-12 up to
|Im z| = 8.  Below the real axis it loses digits as |Im z| grows: the
rounding error of the panels next to t = 0 (9e-15 at b = 0.4, z = Q/2)
is scaled by e^{eps |Im z|}.

A batch is split into bands, the octaves [2^k, 2^(k+1)) of 1 + |Im z|, and
each band is evaluated on its own grid, sized for the band's decay rates
and largest |Im z|.  The kernel evaluates a band in blocks of at most 2**17
values, so its memory is bounded whatever the batch size and however long
the grid.  A band whose grid would exceed 2**20 nodes raises ValueError, as
does a non-finite z.  That happens past |Im z| of about 1,100 when the band
reaches both strip margins and of about 14,000 near the middle of the
strip, where gb's reduction puts its points.

Outside the strip the argument is reduced back into it with the shift
equation G_b(z + b^{±1}) = (1 - e^{2 pi i b^{±1} z}) G_b(z), accumulating
the finite product of factors exactly.

Also provided: pole/zero classification on the lattices -n1*b - n2/b and
Q + n1*b + n2/b, each searched in full so that no lattice point is missed;
residue coefficients at the poles, in closed form and as a circle integral
of G_b whose radius comes from the same lattice search; the q-exponential
analog g_b; and an asymptotic-behavior checker.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .params import BParam
from .quadrature import _leggauss
from .report import CheckReport

TWO_PI_I = 2j * math.pi

#: Minimum distance kept from the edges of the strip 0 < Re z < Q.
STRIP_MARGIN = 0.05

# Target accuracy, as e^-_TAIL_LOG, of the defining integral's tail
# truncation and of each grid panel; well below the 1e-9 identity
# tolerances so shift products dominate the error budget.
_TAIL_LOG = 40.0

# Largest truncation half-width of the defining integral.
_MAX_T = 512.0

# Largest G_b quadrature grid (16 MB of complex128 nodes).  A resource
# bound, not an accuracy domain: the widest grid any suite or benchmark
# workload builds has 1,728 nodes, and |Im z| = 20 at both strip margins
# takes 18,960.
_MAX_NODES = 2**20

# Gauss-Legendre nodes per panel of the G_b grid.
_PANEL_NODES = 24

# Values per strip-kernel block (2 MB of complex128): the kernel takes as
# many rows of z as fit against its grid, so its memory grows neither with
# the batch nor with the grid, which widens with |Im z| and near the margin.
_BLOCK_VALUES = 2**17


class PoleError(ValueError):
    """G_b was requested exactly at (or too near) a pole."""


@dataclass(frozen=True)
class PoleZeroClass:
    """Lattice classification of a point: regular, pole or zero."""

    kind: Literal["regular", "pole", "zero"]
    n1: int = 0
    n2: int = 0


def _nearest_lattice_point(
    s: float, p: BParam, skip: tuple[int, int] | None = None
) -> tuple[float, int, int]:
    """(distance, n1, n2) of the point n1*b + n2/b, n1, n2 >= 0, other than
    ``skip``, nearest to the real ``s``: every n1 up to floor(s/b) + 1, each
    with its nearest n2, or its next nearest where that is ``skip``."""
    best = (math.inf, 0, 0)
    for n1 in range(max(0, math.floor(s / p.b)) + 2):
        x = (s - n1 * p.b) * p.b
        n2 = max(0, round(x))
        if (n1, n2) == skip:
            n2 += 1 if x > n2 or n2 == 0 else -1
        d = abs(s - n1 * p.b - n2 / p.b)
        if d < best[0]:
            best = (d, n1, n2)
    return best


def classify(z: complex, p: BParam, tol: float = 1e-9) -> PoleZeroClass:
    """Classify ``z`` against the pole lattice -n1*b - n2/b and the zero
    lattice Q + n1*b + n2/b, within Euclidean distance ``tol``.

    A point within ``tol`` of the real axis is checked against both
    lattices in full, at a cost that grows with |Re z|/b.  The nearest
    lattice point wins; on a tie, the pole.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = complex(z)
    best, found = math.inf, PoleZeroClass("regular")
    if abs(z.imag) <= tol:
        for kind, s in (("pole", -z.real), ("zero", z.real - p.Q)):
            d, n1, n2 = _nearest_lattice_point(s, p)
            d = math.hypot(d, z.imag)
            if d <= tol and d < best:
                best, found = d, PoleZeroClass(kind, n1, n2)
    return found


def _contour_elevation(p: BParam) -> float:
    return 0.25 * min(math.pi * p.b, math.pi / p.b)


def _bisect(turns, lo: float, hi: float) -> float:
    """Upper end of a 40-halving bracket of the point in [lo, hi] where the
    monotone predicate ``turns`` becomes true; turns(hi) must be true."""
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if turns(mid) else (mid, hi)
    return hi


# The panel-width bound of _panel_edges, in lam = log(rho) of the Bernstein
# ellipse E_rho: the rule's error factor pi (2n)^2 rho^(-2n) reaches
# e^-_TAIL_LOG at _LAM_MIN, and the oscillation-limited half-width
# 2n (lam - _LAM_MIN)/(|Im z| sinh lam) peaks at _LAM_OSC, where
# lam - tanh(lam) = _LAM_MIN (below _LAM_MIN + 1, as tanh < 1), with the
# value _OSC_HALF_WIDTH/|Im z|.
_LAM_MIN = (_TAIL_LOG + math.log(math.pi * (2 * _PANEL_NODES) ** 2)) / (2 * _PANEL_NODES)
_LAM_OSC = _bisect(lambda lam: lam - math.tanh(lam) >= _LAM_MIN, _LAM_MIN, _LAM_MIN + 1.0)
_OSC_HALF_WIDTH = 2 * _PANEL_NODES * (_LAM_OSC - _LAM_MIN) / math.sinh(_LAM_OSC)


def _panel_edges(eps: float, ymax: float, T: float, budget: int) -> np.ndarray:
    """Edges 0 = e_0 < e_1 < ... < e_m = T of the panels along one side of
    the contour Im t = eps; ValueError if m would exceed ``budget``.

    A panel [a, a + 2h] is the widest whose Bernstein ellipse E_rho, rho =
    e^lam, avoids t = 0 and bounds the rule's error pi (2n)^2 rho^(-2n)
    e^{|Im z| h sinh lam} by e^-_TAIL_LOG for some lam.  The ellipse has
    semi-axes h cosh lam and h sinh lam, so it avoids t = 0 while h <= (a +
    d cosh lam)/sinh^2 lam, d = |a + i eps|.  Near t = 0 that singularity
    binds and the panels grow geometrically; once the oscillation binds,
    every further panel has half-width _OSC_HALF_WIDTH/|Im z|.
    """
    h_osc = _OSC_HALF_WIDTH / ymax if ymax > 0 else math.inf
    edges = [0.0]
    while edges[-1] < T:
        a = edges[-1]
        d = math.hypot(a, eps)

        def clears_zero(lam: float) -> bool:
            # The oscillation bound at lam allows a panel no narrower than
            # the widest whose ellipse E_{e^lam} avoids t = 0.
            return (math.sinh(lam) * 2 * _PANEL_NODES * (lam - _LAM_MIN)
                    >= ymax * (a + d * math.cosh(lam)))

        if not clears_zero(_LAM_OSC):
            break
        lam = _bisect(clears_zero, _LAM_MIN, _LAM_OSC)
        edges.append(a + 2.0 * (a + d * math.cosh(lam)) / math.sinh(lam) ** 2)
    a, left = edges[-1], budget - (len(edges) - 1)
    if left < 0 or T - a > 2.0 * h_osc * left:
        raise ValueError(
            f"|Im z| = {ymax} needs a G_b grid of more than {_MAX_NODES} nodes"
        )
    if a < T:
        width = 2.0 * h_osc
        edges.extend(a + width * np.arange(1, math.ceil((T - a) / width) + 1))
    edges[-1] = T
    return np.array(edges)


def _t_grid(
    p: BParam, delta_neg: float, delta_pos: float, ymax: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre composite grid on the elevated line.

    The panels are those of _panel_edges on each side of t = 0; the
    truncation on each side comes from the analytic decay rates of the
    integrand.  Raises ValueError once the grid would exceed _MAX_NODES nodes.
    """
    eps = _contour_elevation(p)
    nodes, weights = _leggauss(_PANEL_NODES)
    budget = _MAX_NODES // _PANEL_NODES
    ts, ws = [], []
    for sign, delta in ((1.0, delta_pos), (-1.0, delta_neg)):
        e = _panel_edges(eps, ymax, min(_TAIL_LOG / delta, _MAX_T), budget)
        budget -= len(e) - 1
        mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
        ts.append(sign * (mid[:, None] + half[:, None] * nodes).ravel())
        ws.append((half[:, None] * weights).ravel())
    t = np.concatenate(ts)
    w = np.concatenate(ws)
    return t + 1j * eps, w


def _finite_array(z: complex | np.ndarray) -> np.ndarray:
    """``z`` as a complex array of at least one dimension; ValueError if any
    entry is not finite."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    finite = np.isfinite(zs)
    if not finite.all():
        raise ValueError(f"z = {zs[~finite][0]} is not finite")
    return zs


def _strip_integral(zs: np.ndarray, p: BParam) -> np.ndarray:
    """I(z) of the module docstring for the 1-d array ``zs``, on one grid
    sized for its worst decay rates and its largest |Im z|."""
    delta_neg = float(np.min(zs.real))          # decay rate towards t -> -inf
    delta_pos = float(p.Q - np.max(zs.real))    # decay rate towards t -> +inf
    ymax = float(np.max(np.abs(zs.imag)))
    t, w = _t_grid(p, delta_neg, delta_pos, ymax)

    # For t -> +inf rewrite with the denominators pulled out so everything
    # stays bounded: e^{z t}/((1-e^{bt})(1-e^{t/b})) = e^{(z-Q)t}/((e^{-bt}-1)(e^{-t/b}-1)).
    # One block of rows at a time is shifted, exponentiated and divided in
    # place; a block holds at most _BLOCK_VALUES values, or one row when a
    # single row is longer.
    pos = t.real >= 0
    shift = np.where(pos, p.Q * t, 0.0)
    den = np.empty_like(t)
    den[pos] = np.expm1(-p.b * t[pos]) * np.expm1(-t[pos] / p.b) * t[pos]
    den[~pos] = -np.expm1(p.b * t[~pos]) * -np.expm1(t[~pos] / p.b) * t[~pos]

    step = max(1, _BLOCK_VALUES // len(t))
    integral = np.empty_like(zs)
    block = np.empty((min(len(zs), step), len(t)), dtype=complex)
    for lo in range(0, len(zs), step):
        rows = zs[lo:lo + step]
        vals = block[:len(rows)]
        np.multiply.outer(rows, t, out=vals)
        vals -= shift
        np.exp(vals, out=vals)
        vals /= den
        integral[lo:lo + len(rows)] = vals @ w
    return integral


def log_gb_strip(z: complex | np.ndarray, p: BParam) -> complex | np.ndarray:
    """log G_b(z) for z in the strip STRIP_MARGIN <= Re z <= Q - STRIP_MARGIN.

    Accepts a scalar or an array.  The points of an array are grouped into
    bands, octaves [2^k, 2^(k+1)) of 1 + |Im z|, and each band is evaluated
    on its own grid, so a large |Im z| widens the grid of its own band only.
    """
    zs = _finite_array(z)
    x = zs.real
    low, high = STRIP_MARGIN, p.Q - STRIP_MARGIN
    if np.any(x < low) or np.any(x > high):
        bad = zs[(x < low) | (x > high)][0]
        raise ValueError(
            f"z = {bad} is not inside the strip ({low}, {high}); "
            "reduce with the shift equation first"
        )
    flat = zs.ravel()
    band = np.frexp(1.0 + np.abs(flat.imag))[1]
    integral = np.empty_like(flat)
    for k in sorted(set(band.tolist())):
        sel = band == k
        integral[sel] = _strip_integral(flat[sel], p)
    out = np.log(np.conj(p.zeta_b)) - integral.reshape(zs.shape)
    return out if np.ndim(z) else complex(out[0])


def _reduction_shift(x: float, p: BParam) -> tuple[int, int]:
    """Integers (n1, n2) bringing Re z + n1*b + n2/b close to Q/2.

    A small penalty on |n1| + |n2| keeps the accumulated factor count low.
    """
    delta = p.Q / 2.0 - x
    penalty = 0.02 * min(p.b, 1.0 / p.b)
    k1 = int(math.ceil(abs(delta) / p.b)) + 1
    best = (abs(delta), 0, 0)
    for n1 in range(-k1, k1 + 1):
        n2 = round((delta - n1 * p.b) * p.b)
        score = abs(delta - n1 * p.b - n2 / p.b) + penalty * (abs(n1) + abs(n2))
        if score < best[0]:
            best = (score, n1, n2)
    return best[1], best[2]


def _apply_steps(z: complex, n: int, s: float) -> tuple[complex, complex]:
    """Walk z -> z + n*s one step at a time; return (z', multiplier) with
    G_b(z) = multiplier * G_b(z')."""
    x, mult = z, 1.0 + 0.0j
    for _ in range(abs(n)):
        if n > 0:
            factor = 1.0 - cmath.exp(TWO_PI_I * s * x)
            if abs(factor) < 1e-280:
                raise PoleError(f"shift factor vanished at z = {x}")
            mult /= factor
            x += s
        else:
            x -= s
            mult *= 1.0 - cmath.exp(TWO_PI_I * s * x)
    if not (1e-250 < abs(mult) < 1e250):
        raise OverflowError(
            f"accumulated shift factor {abs(mult):.3e} out of range; argument "
            "too far from the strip for double precision"
        )
    return x, mult


def gb(z: complex | np.ndarray, p: BParam) -> complex | np.ndarray:
    """G_b(z) anywhere away from the pole lattice.

    Zero-lattice points return exactly 0; all other points are reduced into
    the strip and evaluated from the integral representation.
    """
    zs = _finite_array(z)
    out = np.zeros(zs.size, dtype=complex)
    reduced: list[complex] = []
    mults: list[complex] = []
    idx: list[int] = []
    for i, zi in enumerate(zs.ravel()):
        c = classify(zi, p, tol=1e-12)
        if c.kind == "pole":
            raise PoleError(f"G_b has a pole at z = {zi} (n1={c.n1}, n2={c.n2})")
        if c.kind == "zero":
            continue
        n1, n2 = _reduction_shift(zi.real, p)
        x1, m1 = _apply_steps(zi, n1, p.b)
        x2, m2 = _apply_steps(x1, n2, 1.0 / p.b)
        reduced.append(x2)
        mults.append(m1 * m2)
        idx.append(i)
    if reduced:
        logs = log_gb_strip(np.array(reduced), p)
        out[idx] = np.asarray(mults) * np.exp(logs)
    return out.reshape(zs.shape) if np.ndim(z) else complex(out[0])


def shift_product(z: complex, n1: int, n2: int, p: BParam) -> complex:
    """The finite product equal to G_b(z + n1*b + n2/b) / G_b(z), n1, n2 >= 0."""
    if n1 < 0 or n2 < 0:
        raise ValueError("shift_product needs nonnegative shift counts")
    eb = cmath.exp(TWO_PI_I * p.b * z)
    et = cmath.exp(TWO_PI_I * z / p.b)
    prod = 1.0 + 0.0j
    for k in range(n1):
        prod *= 1.0 - p.q ** (2 * k) * eb
    for k in range(n2):
        prod *= 1.0 - p.qtilde ** (2 * k) * et
    return prod


def gb_q_exponential(x: complex, p: BParam) -> complex:
    """The q-exponential analog g_b(x) = conj(zeta_b) / G_b(Q/2 + log(x)/(2 pi i b)).

    Uses the principal logarithm, so the negative real axis is excluded.
    """
    x = complex(x)
    if x.real <= 0 and abs(x.imag) < 1e-300:
        raise ValueError("g_b is evaluated with the principal log; x must "
                         "avoid the branch cut on the negative real axis")
    arg = p.Q / 2.0 + cmath.log(x) / (TWO_PI_I * p.b)
    return np.conj(p.zeta_b) / gb(arg, p)


def residue_coeff(n1: int, n2: int, p: BParam) -> complex:
    """lim_{x->0} x * G_b(x - n1*b - n2/b), as a closed-form product."""
    if n1 < 0 or n2 < 0:
        raise ValueError("lattice indices must be nonnegative")
    coeff = 1.0 / (2.0 * math.pi) + 0.0j
    for k in range(1, n1 + 1):
        den = 1.0 - p.q ** (-2 * k)
        if abs(den) < 1e-9:
            raise ZeroDivisionError(
                f"q^{2 * k} = 1 within 1e-9: b^2 is (nearly) rational with a "
                "small denominator; residue coefficient is singular"
            )
        coeff /= den
    for k in range(1, n2 + 1):
        den = 1.0 - p.qtilde ** (-2 * k)
        if abs(den) < 1e-9:
            raise ZeroDivisionError(
                f"qtilde^{2 * k} = 1 within 1e-9; residue coefficient is singular"
            )
        coeff /= den
    return coeff


def residue_limit(n1: int, n2: int, p: BParam) -> complex:
    """lim_{x->0} x * G_b(x - n1*b - n2/b) as the circle integral
    (1/2 pi i) * contour integral of G_b around the pole.

    Independent numerical oracle for :func:`residue_coeff`: one gb call on
    64 equispaced points w of the circle |w| = d/2, d the distance to the
    nearest other pole, returning the mean of w * G_b(pole + w).  The
    trapezoidal rule on a circle converges geometrically, here as (1/2)^64
    (Trefethen & Weideman, SIAM Review 56, 2014), so the oracle is as
    accurate as gb on the circle for every b.
    """
    s = n1 * p.b + n2 / p.b
    d = _nearest_lattice_point(s, p, skip=(n1, n2))[0]
    w = 0.5 * d * np.exp(TWO_PI_I * np.arange(64) / 64)
    return complex(np.mean(w * gb(w - s, p)))


def check_asymptotics(
    x: float, T: float, p: BParam, tolerance: float = 1e-6
) -> CheckReport:
    """Deviation of G_b(x ± iT) from its two asymptotic branches.

    The upper branch tends to conj(zeta_b); the lower branch carries the
    Gaussian factor and is compared in log magnitude to avoid overflow.
    """
    if not 0 < x < p.Q:
        raise ValueError("x must lie inside the strip (0, Q)")
    start = time.perf_counter()
    upper = gb(complex(x, T), p)
    dev_up = abs(upper - np.conj(p.zeta_b))

    z = complex(x, -T)
    log_pred = cmath.log(p.zeta_b) + 1j * math.pi * z * (z - p.Q)
    dev_down = abs(cmath.exp(log_gb_strip(z, p) - log_pred) - 1.0)

    dev = max(dev_up, dev_down)
    return CheckReport(
        identity_id="asymptotic_behavior",
        params={"x": x, "T": T, "b": p.b},
        lhs=upper,
        rhs=complex(np.conj(p.zeta_b)),
        rel_error=dev,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
        detail=f"upper-branch dev {dev_up:.3e}, lower-branch dev {dev_down:.3e}",
    )
