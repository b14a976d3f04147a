"""Difference-operator representation of the modular double of gl(N).

The generators act on functions of the triangular array of variables
gamma_{nj}, 1 <= j <= n <= N (rows 1..N-1 dynamical, row N fixed
parameters), as finite sums of meromorphic coefficients times imaginary
shifts gamma_{nj} -> gamma_{nj} - i(a*omega1 + b*omega2).  Both families
of quantum-group relations and all cross-relations between them are
verified pointwise on random entire test functions at random generic
points.

The relation catalogue is one table from relation id to index-pair rule
and operator builder; the tilde family is generated from the plain one.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field, replace
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
        idx = gz_indices(N)
        rows = rng.uniform([-0.5, -0.5, -0.05], [0.5, 0.5, 0.05], (len(idx), 3)).tolist()
        lin = {i: complex(a, b) for i, (a, b, _) in zip(idx, rows)}
        quad = {i: d for i, (_, _, d) in zip(idx, rows)}
        return cls(lin, quad)


def sample_point(N: int, rng: np.random.Generator) -> Gamma:
    """Random real configuration with within-row separation >= 0.1."""
    idx = gz_indices(N)
    for _ in range(_MAX_REJECTIONS):
        g = dict(zip(idx, map(complex, rng.uniform(-2.0, 2.0, len(idx)).tolist())))
        ok = all(
            abs(g[(n, i)].real - g[(n, j)].real) >= ROW_SEPARATION
            for n in range(1, N + 1)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )
        if ok:
            return g
    raise RepresentationError("could not sample a generic point")


# ---------------------------------------------------------- relation table
def _grid(dn: int, dm: int, keep: Callable[[int], bool] = lambda d: True):
    """The index pairs 1 <= n < N + dn, 1 <= m < N + dm whose n - m passes
    ``keep`` (E-type indices stop at N - 1, K-type indices at N)."""
    return lambda N: [
        (n, m) for n in range(1, N + dn) for m in range(1, N + dm) if keep(n - m)
    ]


def _adjacent(N: int) -> list[tuple[int, int]]:
    return [(n, n + 1) for n in range(1, N - 1)] + [(n + 1, n) for n in range(1, N - 1)]


def _sign(*offsets: int) -> Callable[[int, int, complex], float]:
    """The factor (-1)^k, where k counts the ``offsets`` equal to n - m."""
    return lambda n, m, q: (-1.0) ** sum(n - m == d for d in offsets)


_Builder = Callable[..., ShiftOperator]


def _q_commutator(x: str, y: str, c: Callable | None = None) -> _Builder:
    """X_n Y_m - c(n, m, q) Y_m X_n; without c, Y_m X_n is not scaled."""

    def build(gen, prod, q, n, m):
        X, Y = gen(x, n), gen(y, m)
        XY, YX = prod(X, Y), prod(Y, X)
        return XY - (YX if c is None else YX.scale(c(n, m, q)))

    return build


def _ef_commutator(gen, prod, q, n, m) -> ShiftOperator:
    """[E_n, F_m] - delta_nm (K_n K_{n+1}^{-1} - K_n^{-1} K_{n+1}) / (q - q^{-1})."""
    E, F = gen("E_raise", n), gen("E_lower", m)
    lhs = prod(E, F) - prod(F, E)
    if n != m:
        return lhs
    Kn, Kn1 = gen("K", n), gen("K", n + 1)
    Kni, Kn1i = gen("K_inv", n), gen("K_inv", n + 1)
    return lhs - (prod(Kn, Kn1i) - prod(Kni, Kn1)).scale(1.0 / (q - 1.0 / q))


def _serre(kind: str) -> _Builder:
    """X_n X_n X_m - (q + q^{-1}) X_n X_m X_n + X_m X_n X_n."""

    def build(gen, prod, q, n, m):
        X, Y = gen(kind, n), gen(kind, m)
        return prod(X, X, Y) - prod(X, Y, X).scale(q + 1.0 / q) + prod(Y, X, X)

    return build


@dataclass(frozen=True)
class _Relation:
    """Index-pair rule and operator builder of one relation.  build(gen,
    prod, q, n, m) takes its family's generators gen(kind, index), the
    operator product and the family's q, and returns both sides of the
    relation at (n, m) as one operator that must vanish.  A dual relation
    builds with the tilde generators and qtilde."""

    pairs: Callable[[int], list[tuple[int, int]]]
    build: _Builder
    dual: bool = False


_E_E, _K_E, _E_K = _grid(0, 0), _grid(1, 0), _grid(0, 1)
_DISTANT = _grid(0, 0, lambda d: abs(d) != 1)

_PLAIN = {
    "ef_commutator": _Relation(_E_E, _ef_commutator),
    "k_raise": _Relation(_K_E, _q_commutator(
        "K", "E_raise", lambda n, m, q: q ** ((n == m) - (n == m + 1)))),
    "k_lower": _Relation(_K_E, _q_commutator(
        "K", "E_lower", lambda n, m, q: q ** ((n == m + 1) - (n == m)))),
    "raise_commute_distant": _Relation(_DISTANT, _q_commutator("E_raise", "E_raise")),
    "serre_raise": _Relation(_adjacent, _serre("E_raise")),
    "serre_lower": _Relation(_adjacent, _serre("E_lower")),
    "lower_commute_distant": _Relation(_DISTANT, _q_commutator("E_lower", "E_lower")),
}

_RELATIONS = {
    **_PLAIN,
    **{"tilde_" + r: replace(rel, dual=True) for r, rel in _PLAIN.items()},
    # cross-relations X_n Y_m = sign * Y_m X_n between the two families
    "cross_raise_tk": _Relation(_E_K, _q_commutator("E_raise", "tK", _sign(0, -1))),
    "cross_lower_tk": _Relation(_E_K, _q_commutator("E_lower", "tK", _sign(0, -1))),
    "cross_raise_traise": _Relation(_E_E, _q_commutator("E_raise", "tE_raise", _sign(1, -1))),
    "cross_raise_tlower": _Relation(_E_E, _q_commutator("E_raise", "tE_lower", _sign())),
    "cross_lower_tlower": _Relation(_E_E, _q_commutator("E_lower", "tE_lower", _sign(-1, 1))),
    "cross_traise_k": _Relation(_E_K, _q_commutator("tE_raise", "K", _sign(0, -1))),
    "cross_tlower_k": _Relation(_E_K, _q_commutator("tE_lower", "K", _sign(0, -1))),
    "cross_traise_lower": _Relation(_E_E, _q_commutator("tE_raise", "E_lower", _sign())),
}

#: Every relation id: the plain family, its tilde twins, then the cross-relations.
ALL_RELATIONS = tuple(_RELATIONS)


def _relation(rel_id: str) -> _Relation:
    if rel_id not in _RELATIONS:
        raise RepresentationError(f"unknown relation id {rel_id!r}")
    return _RELATIONS[rel_id]


def _relation_operator(
    rel_id: str, n: int, m: int, N: int, p: OmegaParams
) -> ShiftOperator:
    """Both sides of the named relation combined into a single operator
    that must vanish identically."""
    rel = _relation(rel_id)
    prefix, q = ("t", p.qtilde) if rel.dual else ("", p.q)

    def gen(kind: str, idx: int) -> ShiftOperator:
        return build_generator(prefix + kind, idx, N, p)

    def prod(*ops: ShiftOperator) -> ShiftOperator:
        return compose_all(list(ops), p)

    return rel.build(gen, prod, q, n, m)


def relation_index_pairs(rel_id: str, N: int) -> list[tuple[int, int]]:
    """All applicable (n, m) index pairs of a relation for given N."""
    return _relation(rel_id).pairs(N)


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
    cancelled.  Fewer than one trial raises RepresentationError."""
    start = time.perf_counter()
    require_rank(N)
    if trials < 1:
        raise RepresentationError(f"need trials >= 1, got trials = {trials}")
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
