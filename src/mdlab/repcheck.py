"""Difference-operator representation of the modular double of gl(N).

The generators act on functions of the triangular array of variables
gamma_{nj}, 1 <= j <= n <= N (rows 1..N-1 dynamical, row N fixed
parameters), as finite sums of coefficients times imaginary shifts
gamma_{nj} -> gamma_{nj} - i(a*omega1 + b*omega2); a coefficient is data,
a constant times sinh and exp factors.  Relations are scored per shift
class on arrays of random generic points; TestFunction and apply_operator
are the pointwise application that the demo and the benchmark's negative
control use.

Rank domain: 2 <= N <= 28.  From N = 29 on a Serre product has
(N - 1)^2 (N - 2) terms, more than compose's MAX_TERMS; sample_point alone
reaches N = 40, where row N's values ROW_SEPARATION apart still fit in
[-2, 2].

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
    """One summand: ``const`` times the product of ``factors``, times a shift.

    A factor (fn, ((index, s), ...), offset, omega, power), with fn np.sinh
    or np.exp and s, power = +-1, stands for
    fn(pi * (sum s * gamma_index + offset) / omega) ** power.  The shift maps
    (n, j) to an integer pair (a, b) standing for the displacement
    gamma_{nj} -> gamma_{nj} - i(a*omega1 + b*omega2).
    """

    const: complex = 1.0
    shift: Mapping[GZIndex, tuple[int, int]] = field(default_factory=dict)
    factors: tuple = ()

    def displacement(self, p: OmegaParams) -> dict[GZIndex, complex]:
        return {idx: 1j * (a * p.omega1 + b * p.omega2) for idx, (a, b) in self.shift.items()}

    def displace(self, gamma: Gamma, p: OmegaParams) -> Gamma:
        d = self.displacement(p)
        return {idx: g - d.get(idx, 0) for idx, g in gamma.items()}


@dataclass(frozen=True)
class ShiftOperator:
    """Finite sum of ShiftTerms; closed under addition and composition."""

    terms: tuple[ShiftTerm, ...]

    def __add__(self, other: "ShiftOperator") -> "ShiftOperator":
        return ShiftOperator(self.terms + other.terms)

    def __sub__(self, other: "ShiftOperator") -> "ShiftOperator":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "ShiftOperator":
        return ShiftOperator(tuple(replace(t, const=c * t.const) for t in self.terms))


def compose(A: ShiftOperator, B: ShiftOperator, p: OmegaParams) -> ShiftOperator:
    """Operator product: (c1 S1)(c2 S2) = c1 * (c2 after S1) * (S1 + S2);
    c2 after S1 has each factor's offset moved by S1's displacement."""
    out: list[ShiftTerm] = []
    for t1 in A.terms:
        d = t1.displacement(p)
        for t2 in B.terms:
            shift = dict(t1.shift)
            for idx, (a, b) in t2.shift.items():
                a0, b0 = shift.get(idx, (0, 0))
                shift[idx] = (a0 + a, b0 + b)
            moved = tuple(
                (fn, form, offset - sum(s * d[k] for k, s in form if k in d), omega, power)
                for fn, form, offset, omega, power in t2.factors
            )
            out.append(ShiftTerm(t1.const * t2.const, shift, t1.factors + moved))
    if len(out) > MAX_TERMS:
        raise RepresentationError(f"term budget exceeded: {len(out)} > {MAX_TERMS}")
    return ShiftOperator(tuple(out))


def compose_all(ops: list[ShiftOperator], p: OmegaParams) -> ShiftOperator:
    """The product ops[0] ops[1] ... ops[-1] of a non-empty list."""
    acc = ops[0]
    for op in ops[1:]:
        acc = compose(acc, op, p)
    return acc


def coefficients(A: ShiftOperator, gamma: dict[GZIndex, np.ndarray]) -> np.ndarray:
    """Every term's coefficient, one row per term, at the points of gamma (a
    1-d array per index); each distinct factor is evaluated once."""
    out = np.empty((len(A.terms), len(next(iter(gamma.values())))), dtype=complex)
    values: dict[tuple, np.ndarray] = {}
    for i, t in enumerate(A.terms):
        c = t.const
        for f in t.factors:
            if f not in values:
                fn, form, offset, omega, power = f
                x = sum(s * gamma[k] for k, s in form) + offset
                values[f] = fn(math.pi / omega * x) ** power
            c = c * values[f]
        out[i] = c
    return out


def term_values(
    A: ShiftOperator, f: Callable[[Gamma], complex], gamma: Gamma, p: OmegaParams
) -> list[complex]:
    """Each term's coefficient times f at its displaced point, in term order."""
    c = coefficients(A, {idx: np.array([g]) for idx, g in gamma.items()})[:, 0]
    return [complex(ct) * f(t.displace(gamma, p)) for ct, t in zip(c, A.terms)]


def apply_operator(
    A: ShiftOperator, f: Callable[[Gamma], complex], gamma: Gamma, p: OmegaParams
) -> complex:
    return sum(term_values(A, f, gamma, p))


def term_magnitudes(
    A: ShiftOperator, f: Callable[[Gamma], complex], gamma: Gamma, p: OmegaParams
) -> list[float]:
    return [abs(v) for v in term_values(A, f, gamma, p)]


def class_scores(A: ShiftOperator, gamma: dict[GZIndex, np.ndarray]) -> np.ndarray:
    """The worst |sum c| / max |c| over the classes of terms sharing a
    non-zero integer shift, at the points of gamma.  Shifts are linearly
    independent over meromorphic functions, so A vanishes exactly when every
    class sums to 0.  At a generic point no coefficient is 0 or infinite;
    where one is, a factor over- or underflowed, and the score is NaN."""
    with np.errstate(all="ignore"):
        c = coefficients(A, gamma)
        classes: dict[frozenset, list[np.ndarray]] = {}
        for t, ct in zip(A.terms, c):
            classes.setdefault(frozenset(s for s in t.shift.items() if s[1] != (0, 0)), []).append(ct)
        worst = np.where((np.isfinite(c) & (c != 0)).all(axis=0), 0.0, np.nan)
        for cs in classes.values():
            total, scale = np.abs(sum(cs)), np.max(np.abs(cs), axis=0)
            worst = np.maximum(worst, total / scale)
    return worst


# -------------------------------------------------------------- generators
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

    if base in ("K", "K_inv"):
        if not 1 <= n <= N:
            raise RepresentationError(f"{kind}: need 1 <= n <= N, got n={n}")
        form = tuple(((n, j), 1) for j in range(1, n + 1))
        form += tuple(((n - 1, j), -1) for j in range(1, n))
        power = -1 if base == "K_inv" else 1
        return ShiftOperator((ShiftTerm(factors=((np.exp, form, 0j, w_coeff, power),)),))

    if base not in ("E_raise", "E_lower"):
        raise RepresentationError(f"unknown generator kind {kind!r}")
    if not 1 <= n <= N - 1:
        raise RepresentationError(f"{kind}: need 1 <= n <= N-1, got n={n}")

    direction = 1 if base == "E_raise" else -1
    prefactor = 2 * cmath.exp(direction * 1j * math.pi * (p.omega1 + p.omega2) * (n - 1) / (2 * w_coeff)) / qq
    row, offset = n + direction, -direction * 0.5j * (p.omega1 + p.omega2)
    terms = []
    for j in range(1, n + 1):
        num = tuple((np.sinh, (((n, j), 1), ((row, r), -1)), offset, w_coeff, 1)
                    for r in range(1, row + 1))
        den = tuple((np.sinh, (((n, j), 1), ((n, t), -1)), 0j, w_coeff, -1)
                    for t in range(1, n + 1) if t != j)
        sh = {(n, j): (direction * shift_pair[0], direction * shift_pair[1])}
        terms.append(ShiftTerm(prefactor, sh, num + den))
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
    """Uniform random real point in [-2, 2] whose rows keep a separation
    >= ROW_SEPARATION, built without rejection: row n takes n uniforms on
    [-2, 2 - (n - 1) * ROW_SEPARATION] and raises the k-th smallest by
    k * ROW_SEPARATION in its draw's place, so the draws' order is the
    row's random order (spacings of order statistics; Devroye, 1986).
    Raises RepresentationError for N >= 41, where row N cannot fit."""
    if (N - 1) * ROW_SEPARATION >= 4.0:
        raise RepresentationError(
            f"sample_point needs (N - 1) * ROW_SEPARATION < 4, i.e. N <= 40; got N = {N}")
    u = rng.uniform(0.0, 1.0, N * (N + 1) // 2).tolist()
    g: Gamma = {}
    for n in range(1, N + 1):
        width, row, u = 4.0 - (n - 1) * ROW_SEPARATION, u[:n], u[n:]
        for k, (x, j) in enumerate(sorted(zip(row, range(1, n + 1)))):
            g[(n, j)] = complex(width * x - 2.0 + k * ROW_SEPARATION)
    return g


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
    """Verify one relation at every index pair: class_scores of the trial
    points that sample_point draws from the seeds [seed, N, n, m, trial],
    all trials of a pair at once.  The first non-finite score ends the sweep
    and becomes rel_error, so the check fails.  Fewer than one trial raises
    RepresentationError."""
    start = time.perf_counter()
    require_rank(N)
    if trials < 1:
        raise RepresentationError(f"need trials >= 1, got trials = {trials}")
    pairs = relation_index_pairs(rel_id, N)
    worst, worst_at = 0.0, None
    for n, m in pairs:
        D = _relation_operator(rel_id, n, m, N, p)
        points = [sample_point(N, np.random.default_rng([seed, N, n, m, trial]))
                  for trial in range(trials)]
        x = {idx: np.array([g[idx] for g in points]) for idx in points[0]}
        scores = class_scores(D, x)
        trial = int(np.argmax(scores))  # the first NaN, if there is one
        if not scores[trial] <= worst:
            worst, worst_at = float(scores[trial]), (n, m, trial)
            if not math.isfinite(worst):
                break
    if not math.isfinite(worst):
        detail = f"non-finite score at (n, m, trial) = {worst_at}"
    elif worst_at is not None:
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
    return [verify_relation(rel_id, N, p, trials, seed, tolerance)
            for rel_id in ALL_RELATIONS if relation_index_pairs(rel_id, N)]
