"""Difference-operator representation of the modular double of gl(N).

The generators act on functions of the triangular array of variables
gamma_{nj}, 1 <= j <= n <= N (rows 1..N-1 dynamical, row N fixed
parameters), as finite sums of meromorphic coefficients times imaginary
shifts gamma_{nj} -> gamma_{nj} - i(a*omega1 + b*omega2).  Both families
of quantum-group relations and all cross-relations between them are
verified pointwise on random entire test functions at random generic
points.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .params import OmegaParams
from .report import CheckReport

GZIndex = tuple[int, int]  # (row n, column j), 1 <= j <= n <= N
Gamma = dict[GZIndex, complex]

#: Minimal within-row separation of sample points; keeps every sinh
#: denominator bounded away from zero even at shifted arguments, since
#: |sinh(x + iy)| >= sinh(|x|).
ROW_SEPARATION = 0.1

# Draws sample_point makes before it gives up on a separated point.
_MAX_REJECTIONS = 100

MAX_TERMS = 20_000


class RepresentationError(ValueError):
    pass


def require_rank(N: int) -> None:
    """Reject N < 2, where no relation of the catalogue has index pairs."""
    if N < 2:
        raise RepresentationError(f"need N >= 2, got N = {N}")


def gz_indices(N: int) -> list[GZIndex]:
    return [(n, j) for n in range(1, N + 1) for j in range(1, n + 1)]


@dataclass(frozen=True)
class ShiftTerm:
    """One summand: meromorphic coefficient times an imaginary shift.

    The shift maps (n, j) to an integer pair (a, b) standing for the
    displacement gamma_{nj} -> gamma_{nj} - i(a*omega1 + b*omega2).
    """

    coeff: Callable[[Gamma], complex]
    shift: Mapping[GZIndex, tuple[int, int]] = field(default_factory=dict)

    def displace(self, gamma: Gamma, p: OmegaParams) -> Gamma:
        out = dict(gamma)
        for idx, (a, b) in self.shift.items():
            out[idx] = out[idx] - 1j * (a * p.omega1 + b * p.omega2)
        return out


@dataclass(frozen=True)
class ShiftOperator:
    """Finite sum of ShiftTerms; closed under addition and composition."""

    terms: tuple[ShiftTerm, ...]

    @classmethod
    def identity(cls) -> "ShiftOperator":
        return cls((ShiftTerm(lambda g: 1.0),))

    def __add__(self, other: "ShiftOperator") -> "ShiftOperator":
        return ShiftOperator(self.terms + other.terms)

    def __sub__(self, other: "ShiftOperator") -> "ShiftOperator":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "ShiftOperator":
        return ShiftOperator(
            tuple(
                ShiftTerm(lambda g, t=t, c=c: c * t.coeff(g), t.shift)
                for t in self.terms
            )
        )


def compose(A: ShiftOperator, B: ShiftOperator, p: OmegaParams) -> ShiftOperator:
    """Operator product: (c1 S1)(c2 S2) = c1 * (c2 after S1) * (S1 + S2)."""
    out: list[ShiftTerm] = []
    for t1 in A.terms:
        for t2 in B.terms:
            shift = dict(t1.shift)
            for idx, (a, b) in t2.shift.items():
                a0, b0 = shift.get(idx, (0, 0))
                shift[idx] = (a0 + a, b0 + b)

            def coeff(g: Gamma, t1=t1, t2=t2) -> complex:
                return t1.coeff(g) * t2.coeff(t1.displace(g, p))

            out.append(ShiftTerm(coeff, shift))
    if len(out) > MAX_TERMS:
        raise RepresentationError(f"term budget exceeded: {len(out)} > {MAX_TERMS}")
    return ShiftOperator(tuple(out))


def compose_all(ops: list[ShiftOperator], p: OmegaParams) -> ShiftOperator:
    """The product ops[0] ops[1] ... ops[-1] of a non-empty list."""
    acc = ops[0]
    for op in ops[1:]:
        acc = compose(acc, op, p)
    return acc


def term_values(
    A: ShiftOperator, f: Callable[[Gamma], complex], gamma: Gamma, p: OmegaParams
) -> list[complex]:
    """Each term's coefficient times f at its displaced point, in term order."""
    return [t.coeff(gamma) * f(t.displace(gamma, p)) for t in A.terms]


def apply_operator(
    A: ShiftOperator, f: Callable[[Gamma], complex], gamma: Gamma, p: OmegaParams
) -> complex:
    return sum(term_values(A, f, gamma, p))


def term_magnitudes(
    A: ShiftOperator, f: Callable[[Gamma], complex], gamma: Gamma, p: OmegaParams
) -> list[float]:
    return [abs(v) for v in term_values(A, f, gamma, p)]


# -------------------------------------------------------------- generators
def _sinh_ratio(
    g: Gamma,
    n: int,
    j: int,
    omega: float,
    numerator_row: int,
    numerator_shift: complex,
) -> complex:
    """Common coefficient shape of the raising/lowering generators:
    product over the adjacent row in the numerator, over the own row
    (s != j) in the denominator, all through sinh(pi * (.) / omega)."""
    s = math.pi / omega
    num = 1.0 + 0.0j
    for r in range(1, numerator_row + 1):
        num *= cmath.sinh(s * (g[(n, j)] - g[(numerator_row, r)] + numerator_shift))
    den = 1.0 + 0.0j
    for t in range(1, n + 1):
        if t != j:
            den *= cmath.sinh(s * (g[(n, j)] - g[(n, t)]))
    return num / den


def build_generator(
    kind: str, n: int, N: int, p: OmegaParams
) -> ShiftOperator:
    """One generator of either quantum-group family as a ShiftOperator.

    kind is one of E_raise, E_lower, K, K_inv and the tilde twins
    tE_raise, tE_lower, tK, tK_inv; tilde swaps omega1 <-> omega2 in the
    coefficients and shifts by -i*omega2 instead of -i*omega1.
    """
    tilde = kind.startswith("t")
    base = kind[1:] if tilde else kind
    # omega appearing inside coefficients / the shift quantum
    w_coeff = p.omega1 if tilde else p.omega2
    shift_pair = (0, 1) if tilde else (1, 0)
    qq = (p.qtilde - 1 / p.qtilde) if tilde else (p.q - 1 / p.q)
    half_sum = 0.5j * (p.omega1 + p.omega2)

    if base in ("K", "K_inv"):
        if not 1 <= n <= N:
            raise RepresentationError(f"{kind}: need 1 <= n <= N, got n={n}")
        sign = -1.0 if base == "K_inv" else 1.0

        def kcoeff(g: Gamma, n=n, w=w_coeff, sign=sign) -> complex:
            expo = sum(g[(n, j)] for j in range(1, n + 1))
            expo -= sum(g[(n - 1, j)] for j in range(1, n))
            return cmath.exp(sign * math.pi * expo / w)

        return ShiftOperator((ShiftTerm(kcoeff),))

    if base not in ("E_raise", "E_lower"):
        raise RepresentationError(f"unknown generator kind {kind!r}")
    if not 1 <= n <= N - 1:
        raise RepresentationError(f"{kind}: need 1 <= n <= N-1, got n={n}")

    if base == "E_raise":
        prefactor = 2 * cmath.exp(1j * math.pi * (p.omega1 + p.omega2) * (n - 1) / (2 * w_coeff)) / qq
        num_row, num_shift, direction = n + 1, -half_sum, 1
    else:
        prefactor = 2 * cmath.exp(-1j * math.pi * (p.omega1 + p.omega2) * (n - 1) / (2 * w_coeff)) / qq
        num_row, num_shift, direction = n - 1, +half_sum, -1

    terms = []
    for j in range(1, n + 1):

        def coeff(g: Gamma, j=j, pf=prefactor, nr=num_row, ns=num_shift, w=w_coeff) -> complex:
            return pf * _sinh_ratio(g, n, j, w, nr, ns)

        sh = {(n, j): (direction * shift_pair[0], direction * shift_pair[1])}
        terms.append(ShiftTerm(coeff, sh))
    return ShiftOperator(tuple(terms))


# ------------------------------------------------------------ test functions
@dataclass(frozen=True)
class TestFunction:
    """Entire function exp(sum c_{nj} gamma_{nj} + sum d_{nj} gamma_{nj}^2)
    with complex linear and small real quadratic coefficients."""

    __test__ = False  # not a pytest test class despite the name

    linear: dict[GZIndex, complex]
    quadratic: dict[GZIndex, float]

    def __call__(self, g: Gamma) -> complex:
        z = sum(c * g[idx] for idx, c in self.linear.items())
        z += sum(d * g[idx] ** 2 for idx, d in self.quadratic.items())
        return cmath.exp(z)

    @classmethod
    def random(cls, N: int, rng: np.random.Generator) -> "TestFunction":
        lin, quad = {}, {}
        for idx in gz_indices(N):
            lin[idx] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            quad[idx] = float(rng.uniform(-0.05, 0.05))
        return cls(lin, quad)


def sample_point(N: int, rng: np.random.Generator) -> Gamma:
    """Random real configuration with within-row separation >= 0.1."""
    for _ in range(_MAX_REJECTIONS):
        g = {idx: complex(rng.uniform(-2.0, 2.0)) for idx in gz_indices(N)}
        ok = all(
            abs(g[(n, i)].real - g[(n, j)].real) >= ROW_SEPARATION
            for n in range(1, N + 1)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )
        if ok:
            return g
    raise RepresentationError("could not sample a generic point")


# ------------------------------------------------------------ relation list
def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


def _relation_operator(
    rel_id: str, n: int, m: int, N: int, p: OmegaParams
) -> ShiftOperator:
    """Both sides of the named relation combined into a single operator
    that must vanish identically."""
    t = rel_id.startswith("tilde_")
    base = rel_id[6:] if t else rel_id
    pre = "t" if t else ""
    qq = p.qtilde if t else p.q

    def g(kind: str, idx: int) -> ShiftOperator:
        return build_generator(kind, idx, N, p)

    def prod(*ops: ShiftOperator) -> ShiftOperator:
        return compose_all(list(ops), p)

    if base == "ef_commutator":
        E, F = g(pre + "E_raise", n), g(pre + "E_lower", m)
        lhs = prod(E, F) - prod(F, E)
        if n != m:
            return lhs
        Kn, Kn1 = g(pre + "K", n), g(pre + "K", n + 1)
        Kni, Kn1i = g(pre + "K_inv", n), g(pre + "K_inv", n + 1)
        rhs = (prod(Kn, Kn1i) - prod(Kni, Kn1)).scale(1.0 / (qq - 1.0 / qq))
        return lhs - rhs
    if base == "k_raise":
        K, E = g(pre + "K", n), g(pre + "E_raise", m)
        return prod(K, E) - prod(E, K).scale(qq ** (_delta(n, m) - _delta(n, m + 1)))
    if base == "k_lower":
        K, E = g(pre + "K", n), g(pre + "E_lower", m)
        return prod(K, E) - prod(E, K).scale(qq ** (_delta(n, m + 1) - _delta(n, m)))
    if base in ("raise_commute_distant", "lower_commute_distant"):
        kind = pre + ("E_raise" if "raise" in base else "E_lower")
        X, Y = g(kind, n), g(kind, m)
        return prod(X, Y) - prod(Y, X)
    if base in ("serre_raise", "serre_lower"):
        kind = pre + ("E_raise" if base == "serre_raise" else "E_lower")
        X, Y = g(kind, n), g(kind, m)
        return (
            prod(X, X, Y)
            - prod(X, Y, X).scale(qq + 1.0 / qq)
            + prod(Y, X, X)
        )

    # cross-relations: X * Y = sign * Y * X
    cross = {
        "cross_raise_tk": ("E_raise", "tK", (-1.0) ** (_delta(n, m) + _delta(n, m - 1))),
        "cross_lower_tk": ("E_lower", "tK", (-1.0) ** (_delta(n, m) + _delta(n, m - 1))),
        "cross_raise_traise": (
            "E_raise",
            "tE_raise",
            (-1.0) ** (_delta(n, m + 1) + _delta(n + 1, m)),
        ),
        "cross_raise_tlower": ("E_raise", "tE_lower", 1.0),
        "cross_lower_tlower": (
            "E_lower",
            "tE_lower",
            (-1.0) ** (_delta(n, m - 1) + _delta(n - 1, m)),
        ),
        "cross_traise_k": ("tE_raise", "K", (-1.0) ** (_delta(n, m) + _delta(n, m - 1))),
        "cross_tlower_k": ("tE_lower", "K", (-1.0) ** (_delta(n, m) + _delta(n, m - 1))),
        "cross_traise_lower": ("tE_raise", "E_lower", 1.0),
    }
    if base in cross:
        xk, yk, sign = cross[base]
        X, Y = g(xk, n), g(yk, m)
        return prod(X, Y) - prod(Y, X).scale(sign)
    raise RepresentationError(f"unknown relation id {rel_id!r}")


def relation_index_pairs(rel_id: str, N: int) -> list[tuple[int, int]]:
    """All applicable (n, m) index pairs of a relation for given N."""
    base = rel_id[6:] if rel_id.startswith("tilde_") else rel_id
    e = range(1, N)  # E-type indices
    k = range(1, N + 1)  # K-type indices
    if base == "ef_commutator":
        return [(n, m) for n in e for m in e]
    if base in ("k_raise", "k_lower"):
        return [(n, m) for n in k for m in e]
    if base in ("raise_commute_distant", "lower_commute_distant"):
        return [(n, m) for n in e for m in e if m != n + 1 and m != n - 1]
    if base in ("serre_raise", "serre_lower"):
        return [(n, n + 1) for n in range(1, N - 1)] + [
            (n + 1, n) for n in range(1, N - 1)
        ]
    if base in ("cross_raise_tk", "cross_lower_tk", "cross_traise_k", "cross_tlower_k"):
        return [(n, m) for n in e for m in k]
    if base.startswith("cross_"):
        return [(n, m) for n in e for m in e]
    raise RepresentationError(f"unknown relation id {rel_id!r}")


PLAIN_RELATIONS = (
    "ef_commutator",
    "k_raise",
    "k_lower",
    "raise_commute_distant",
    "serre_raise",
    "serre_lower",
    "lower_commute_distant",
)

CROSS_RELATIONS = (
    "cross_raise_tk",
    "cross_lower_tk",
    "cross_raise_traise",
    "cross_raise_tlower",
    "cross_lower_tlower",
    "cross_traise_k",
    "cross_tlower_k",
    "cross_traise_lower",
)

ALL_RELATIONS = (
    PLAIN_RELATIONS
    + tuple("tilde_" + r for r in PLAIN_RELATIONS)
    + CROSS_RELATIONS
)


def verify_relation(
    rel_id: str,
    N: int,
    p: OmegaParams,
    trials: int = 20,
    seed: int = 42,
    tolerance: float = 1e-8,
) -> CheckReport:
    """Pointwise verification of one relation over all its index pairs.

    The error of a trial is |D f (x)| divided by the largest magnitude of
    any single constituent term, so relations whose two sides cancel to
    zero identically are still scored relative to the size of what
    cancelled."""
    start = time.perf_counter()
    require_rank(N)
    pairs = relation_index_pairs(rel_id, N)
    worst = 0.0
    worst_at = None
    for n, m in pairs:
        D = _relation_operator(rel_id, n, m, N, p)
        for trial in range(trials):
            rng = np.random.default_rng([seed, N, n, m, trial])
            f = TestFunction.random(N, rng)
            x = sample_point(N, rng)
            values = term_values(D, f, x, p)
            scale = max(map(abs, values), default=0.0)
            err = 0.0 if scale == 0.0 else abs(sum(values)) / scale
            if err > worst:
                worst, worst_at = err, (n, m, trial)
    if worst_at is not None:
        detail = f"worst at (n, m, trial) = {worst_at}"
    elif pairs:
        detail = f"every trial scored exactly 0 (index pairs: {len(pairs)})"
    else:
        detail = "no index pairs"
    return CheckReport(
        identity_id=f"rep_{rel_id}",
        params={
            "N": N,
            "omega1": p.omega1,
            "omega2": p.omega2,
            "trials": trials,
            "seed": seed,
            "index_pairs": len(pairs),
        },
        rel_error=worst,
        tolerance=tolerance,
        wall_time=time.perf_counter() - start,
        detail=detail,
    )


def verify_all(
    N: int,
    p: OmegaParams,
    trials: int = 20,
    seed: int = 42,
    tolerance: float = 1e-8,
) -> list[CheckReport]:
    """Run every relation of the catalogue that has index pairs at this N."""
    require_rank(N)
    reports = []
    for rel_id in ALL_RELATIONS:
        if relation_index_pairs(rel_id, N):
            reports.append(verify_relation(rel_id, N, p, trials, seed, tolerance))
    return reports
