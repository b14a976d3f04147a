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
and are never wider than 26.0/|Im z|; past the few panels near t = 0 a run
of equal panels reaches the cut.

The kernel sums the integrand as e^{u t} w(t), u = z - Q on the positive
side and u = z on the negative one, with the rule's weight and the
denominators folded into w.  On the run, a node t = a + i eps + o, o the
node's offset from its panel's inner edge a, factors e^{u t} as
e^{u (a + i eps)} e^{u o}: for each z one exp per run panel and one per
offset, and a matrix product, in place of one exp per node.  Anchored at
the inner edge, a and o both point away from t = 0, so Re(u a) <= 0 and
Re(u o) <= 0: neither factor grows past the e^{-eps Im z} that every node
carries, even at b = 0.035, where e^{Q h} would overflow.

Against a 30-digit mpmath integral the kernel agrees to about 2e-14 for
|Im z| <= 3 and to 1e-12 up to |Im z| = 8.  Below the real axis it loses
digits as |Im z| grows: the rounding error of the panels next to t = 0
(9e-15 at b = 0.4, z = Q/2) is scaled by e^{eps |Im z|}.

A batch is split into bands, the octaves [2^k, 2^(k+1)) of 1 + |Im z|, and
each band is evaluated on its own grid, sized for the band's decay rates
and largest |Im z|.  The kernel evaluates a band in blocks of at most 2**17
values, so its memory is bounded whatever the batch size and however long
the grid.  A band whose grid would exceed 2**20 nodes raises ValueError, as
does a non-finite z.  That happens past |Im z| of about 1,100 when the band
reaches both strip margins and of about 14,000 near the middle of the
strip, where gb's reduction puts its points.

Outside the strip the argument is reduced back into it with the shift
equation G_b(z + b^{±1}) = (1 - e^{2 pi i b^{±1} z}) G_b(z), summing the
logs of the step factors, so that G_b(z) = exp(log sum + log G_b(z')) with
z' in the strip.  The shifts depend on Re z alone and are chosen once per
distinct real part of a batch; the whole batch then walks its steps as
arrays.  No partial product can leave double precision; gb raises
OverflowError only where G_b(z) itself does (not finite, or 0 off the zero
lattice).  The factored kernel and the array walk change no accuracy
stated here: values agree with the node-by-node sum and the scalar walk to
rounding.

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

# Gauss-Legendre nodes per panel of the G_b grid, and the rule on [-1, 1].
_PANEL_NODES = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_NODES)

# Values per strip-kernel block (2 MB of complex128), all of its buffers
# together: the kernel takes as many rows of z as fit against the longer
# side's exponent factors (one per node near t = 0, one per run panel and
# one per offset) and the run product's 24 values, so its memory grows
# neither with the batch nor with the grid, which widens with |Im z| and
# near the margin.
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


def _panel_edges(
    eps: float, ymax: float, T: float, budget: int
) -> tuple[np.ndarray, int, float]:
    """Panels along one side of the contour Im t = eps, from t = 0 to T:
    (edges, count, width), the edges 0 = e_0 < ... < e_g of the panels near
    t = 0, then a run of ``count`` equal panels of ``width`` from e_g to T.
    ValueError if g + count would exceed ``budget``.

    A panel [a, a + 2h] is the widest whose Bernstein ellipse E_rho, rho =
    e^lam, avoids t = 0 and bounds the rule's error pi (2n)^2 rho^(-2n)
    e^{|Im z| h sinh lam} by e^-_TAIL_LOG for some lam.  The ellipse has
    semi-axes h cosh lam and h sinh lam, so it avoids t = 0 while h <= (a +
    d cosh lam)/sinh^2 lam, d = |a + i eps|.  Near t = 0 that singularity
    binds and the panels grow geometrically; once the oscillation binds,
    the run fills the rest with the fewest panels of half-width at most
    _OSC_HALF_WIDTH/|Im z|.
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
    if a >= T:
        edges[-1] = T
        return np.array(edges), 0, 0.0
    count = math.ceil((T - a) / (2.0 * h_osc))
    return np.array(edges), count, (T - a) / count


@dataclass(frozen=True)
class _Side:
    """One side of the contour, laid out for the strip kernel.

    The integrand is e^{u t} w(t) with u = z - ``shift``: shift = Q on the
    positive side, 0 on the negative one, and the weight w(t) carries the
    rule's weight and 1/(t (e^{-bt} - 1)(e^{-t/b} - 1)) or 1/(t (1 - e^{bt})
    (1 - e^{t/b})), so that every factor stays bounded.  ``x`` lists the
    factors of u in the exponents: the nodes t_j of the panels near t = 0
    (weights ``w``), then the run's inner panel edges a_k + i eps, then the
    offsets o_m of a run panel's nodes from its inner edge (weights W[k, m]).
    The side's integral is sum_j w_j e^{u t_j} + sum_k e^{u (a_k + i eps)}
    sum_m W[k, m] e^{u o_m}.
    """

    shift: float
    x: np.ndarray
    w: np.ndarray
    W: np.ndarray


def _t_grid(p: BParam, delta_neg: float, delta_pos: float, ymax: float) -> list[_Side]:
    """Gauss-Legendre composite grid on the elevated line, as its positive
    and its negative side.

    The panels are those of _panel_edges on each side of t = 0; the
    truncation on each side comes from the analytic decay rates of the
    integrand.  Raises ValueError once the grid would exceed _MAX_NODES nodes.
    """
    eps = _contour_elevation(p)
    budget = _MAX_NODES // _PANEL_NODES
    sides = []
    for sign, delta, shift in ((1.0, delta_pos, p.Q), (-1.0, delta_neg, 0.0)):
        e, count, width = _panel_edges(eps, ymax, min(_TAIL_LOG / delta, _MAX_T), budget)
        budget -= len(e) - 1 + count

        def weights(t: np.ndarray, half: np.ndarray) -> np.ndarray:
            den = np.expm1(-sign * p.b * t) * np.expm1(-sign * t / p.b) * t
            return half * _GL_WEIGHTS / den

        mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
        t = sign * (mid[:, None] + half[:, None] * _GL_NODES) + 1j * eps
        anchors = sign * (e[-1] + width * np.arange(count)) + 1j * eps
        if count:
            offsets = sign * 0.5 * width * (1.0 + _GL_NODES)
            W = weights(anchors[:, None] + offsets, 0.5 * width)
        else:
            offsets, W = np.empty(0), np.empty((0, 0))
        sides.append(_Side(
            shift=shift,
            x=np.concatenate([t.ravel(), anchors, offsets]),
            w=weights(t, half[:, None]).ravel(),
            W=W,
        ))
    return sides


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
    sized for its worst decay rates and its largest |Im z|.

    One block of rows at a time takes e^{u x} for each side's factors x in
    place and sums it against the side's weights: a matrix-vector product
    for the panels near t = 0, and for the run one (rows x count) @ (count x
    24) product dotted row by row with the offsets' exponentials.
    """
    delta_neg = float(np.min(zs.real))          # decay rate towards t -> -inf
    delta_pos = float(p.Q - np.max(zs.real))    # decay rate towards t -> +inf
    ymax = float(np.max(np.abs(zs.imag)))
    sides = _t_grid(p, delta_neg, delta_pos, ymax)

    # Per row, the block takes the longer side's factors and the run
    # product's _PANEL_NODES values.
    width = max(side.x.size for side in sides)
    step = max(1, _BLOCK_VALUES // (width + _PANEL_NODES))
    integral = np.zeros_like(zs)
    block = np.empty((min(len(zs), step), width), dtype=complex)
    for lo in range(0, len(zs), step):
        rows = zs[lo:lo + step]
        acc = integral[lo:lo + len(rows)]
        for side in sides:
            near, run = side.w.size, side.w.size + len(side.W)
            vals = block[:len(rows), :side.x.size]
            np.multiply.outer(rows - side.shift, side.x, out=vals)
            np.exp(vals, out=vals)
            acc += vals[:, :near] @ side.w
            acc += np.einsum("ij,ij->i", vals[:, near:run] @ side.W, vals[:, run:])
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


def _reduction_shifts(x: np.ndarray, p: BParam) -> np.ndarray:
    """_reduction_shift of each real part in ``x``, as rows (n1, n2), run
    once per distinct value."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([_reduction_shift(v, p) for v in values])[inverse]


def _walk(z: np.ndarray, n: np.ndarray, s: float, origin: np.ndarray) -> np.ndarray:
    """Walk each z[k] to z[k] + n[k]*s in place, one step of s at a time, and
    return L with G_b(z[k]) = e^{L[k]} G_b(z[k] + n[k]*s), the sum of the
    step factors' logs.

    A step up takes its factor 1 - e^{2 pi i s x} at x and then moves; a step
    down moves and then takes it.  The points walk in order of decreasing
    |n|, so the ones still walking at each step are a prefix.  PoleError
    names the point of ``origin`` whose walk meets a vanishing factor.
    """
    order = np.argsort(-np.abs(n), kind="stable")
    steps, sign = np.abs(n[order]), np.sign(n[order])
    up, down = s * (sign > 0), s * (sign < 0)
    x = z[order]
    log_mult = np.zeros_like(x)
    for k in range(steps[0]):
        m = np.searchsorted(-steps, -k)  # points with more than k steps
        xk = x[:m]
        xk -= down[:m]
        factor = 1.0 - np.exp(TWO_PI_I * s * xk)
        vanished = (sign[:m] > 0) & (np.abs(factor) < 1e-280)
        if vanished.any():
            i = np.flatnonzero(vanished)[0]
            raise PoleError(f"shift factor vanished at {xk[i]} on the walk from "
                            f"z = {origin[order][i]}")
        log_mult[:m] -= sign[:m] * np.log(factor)
        xk += up[:m]
    z[order] = x
    out = np.empty_like(log_mult)
    out[order] = log_mult
    return out


def gb(z: complex | np.ndarray, p: BParam) -> complex | np.ndarray:
    """G_b(z) anywhere away from the pole lattice.

    Points within 1e-12 of the real axis are classified against both
    lattices: a pole raises PoleError naming z, and a zero returns exactly
    0.  Every other point is reduced into the strip by the shifts
    _reduction_shift chooses, once per distinct Re z, and evaluated as
    exp(log sum of the shift factors + log G_b(z')).  OverflowError names
    the first z whose G_b is not finite, or is 0 off the zero lattice, in
    double precision.
    """
    zs = _finite_array(z)
    flat = zs.ravel()
    regular = np.ones(flat.size, dtype=bool)
    for i in np.flatnonzero(np.abs(flat.imag) <= 1e-12):
        c = classify(flat[i], p, tol=1e-12)
        if c.kind == "pole":
            raise PoleError(f"G_b has a pole at z = {flat[i]} (n1={c.n1}, n2={c.n2})")
        regular[i] = c.kind == "regular"
    out = np.zeros(flat.size, dtype=complex)
    origin = flat[regular]
    if origin.size:
        n1, n2 = _reduction_shifts(origin.real, p).T
        reduced = origin.copy()
        log_shift = _walk(reduced, n1, p.b, origin) + _walk(reduced, n2, 1.0 / p.b, origin)
        with np.errstate(over="ignore"):
            values = np.exp(log_shift + log_gb_strip(reduced, p))
        bad = ~np.isfinite(values) | (values == 0)
        if bad.any():
            raise OverflowError(f"G_b(z) at z = {origin[bad][0]} is out of double range")
        out[regular] = values
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
    for name, base, n in (("q", p.q, n1), ("qtilde", p.qtilde, n2)):
        for k in range(1, n + 1):
            den = 1.0 - base ** (-2 * k)
            if abs(den) < 1e-9:
                raise ZeroDivisionError(
                    f"{name}^{2 * k} = 1 within 1e-9: b^2 is (nearly) rational with "
                    "a small denominator; residue coefficient is singular"
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


def _leading_correction(w: complex, p: BParam) -> complex:
    """c(w) = e^{2 pi i b w} / (1 - q^2) + e^{2 pi i w / b} / (1 - qtilde^2),
    the leading correction to G_b(w) -> conj(zeta_b) as Im w -> +inf."""
    out = 0j
    for name, base, rate in (("q", p.q, p.b), ("qtilde", p.qtilde, 1.0 / p.b)):
        den = 1.0 - base**2
        if abs(den) < 1e-9:
            raise ZeroDivisionError(
                f"{name}^2 = 1 within 1e-9; the leading asymptotic correction is singular"
            )
        out += cmath.exp(TWO_PI_I * rate * w) / den
    return out


def check_asymptotics(
    x: float, T: float, p: BParam, tolerance: float = 1e-6
) -> CheckReport:
    """Deviation of G_b(x ± iT) from its two asymptotic branches, each taken
    with its leading correction c (see ``_leading_correction``):

        upper:  G_b(z) ~ conj(zeta_b) (1 + c(z))
        lower:  G_b(z) ~ zeta_b e^{pi i z (z - Q)} (1 - c(Q - z)),

    the lower one by reflection.  c is of order e^{-2 pi min(b, 1/b) T}, so
    the next correction is of its square.  The lower branch carries the
    Gaussian factor and is compared in log magnitude to avoid overflow.  A
    singular correction (q^2 or qtilde^2 = 1) fails the check, with the
    singular factor as its detail.
    """
    if not 0 < x < p.Q:
        raise ValueError("x must lie inside the strip (0, Q)")
    start = time.perf_counter()
    upper = gb(complex(x, T), p)
    z = complex(x, -T)
    try:
        pred = np.conj(p.zeta_b) * (1.0 + _leading_correction(complex(x, T), p))
        log_pred = (cmath.log(p.zeta_b) + 1j * math.pi * z * (z - p.Q)
                    + cmath.log(1.0 - _leading_correction(p.Q - z, p)))
    except ZeroDivisionError as exc:
        pred, dev, detail = np.conj(p.zeta_b), math.inf, str(exc)
    else:
        dev_up = abs(upper - pred)
        dev_down = abs(cmath.exp(log_gb_strip(z, p) - log_pred) - 1.0)
        dev = float(np.max([dev_up, dev_down]))
        detail = f"upper-branch dev {dev_up:.3e}, lower-branch dev {dev_down:.3e}"
    return CheckReport(
        identity_id="asymptotic_behavior",
        params={"x": x, "T": T, "b": p.b},
        lhs=upper,
        rhs=complex(pred),
        rel_error=dev,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
        detail=detail,
    )
