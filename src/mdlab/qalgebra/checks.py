"""Exact verification of the integer-power quantum-group identities.

Every check builds both sides as noncommutative polynomials, normal-orders
the difference and reports pass iff the normal form has no terms.  All
equalities are exact in the coefficient field Q(i)(v), whose elements are
reduced by construction; the reported rel_error is 0.0 or 1.0 and the
tolerance is 0.0.  A failing check's detail lists the surviving terms with
each coefficient printed as a sympy expression.

Each verifier takes the field generator as a parameter, so the
dual-parameter twin of a check (coefficients read as powers of the modular
dual deformation parameter) is literally a re-execution over the field of
a different variable.  A preset's defining relations, vanishing
commutators included, are read off its Cartan matrix.

Field coefficients multiply polynomials from the right.  On the left,
sympy's FracElement.__mul__ formats the polynomial for the message of a
failed coercion before Python falls back to NCPoly.__rmul__.
"""

from __future__ import annotations

import time

import sympy as sp

from ..report import CheckReport
from .coeffs import V, Coeff, canon, gauss_binomial, one_minus_qneg_product, qpow
from .ncpoly import (
    NCPoly,
    NCTensor,
    _letters,
    commuting_pair_preset,
    coproduct,
    coproduct_on_leg,
    divided_power,
    qweyl_pair_preset,
    sl2_preset,
    sl3_preset,
)


def _exact_report(
    identity_id: str,
    params: dict,
    diffs: list,
    start: float,
) -> CheckReport:
    """Pass iff every difference normal-orders to zero (NCPoly or NCTensor)."""
    offenders = []
    for label, diff in diffs:
        nf = diff.normal_order()
        if not nf.is_zero():
            offenders.append(f"{label}: {nf!r}")
    exact = not offenders
    return CheckReport(
        identity_id=identity_id,
        params=params,
        rel_error=0.0 if exact else 1.0,
        tolerance=0.0,
        wall_time=time.perf_counter() - start,
        detail="exact" if exact else "; ".join(offenders),
    )


def _sl2_gens(v: Coeff):
    P = sl2_preset(v)
    return (
        P,
        NCPoly.gen(P, "E1"),
        NCPoly.gen(P, "F1"),
        NCPoly.gen(P, "K1"),
        NCPoly.gen(P, "K1i"),
    )


def verify_kac(N: int, M: int, v: Coeff = V) -> CheckReport:
    """Divided-power product identity
    E^(N) F^(M) = sum_n F^(M-n) prod_k (q^{-N-M+n+k} K - q^{N+M-n-k} K^-1)
                  / (q^k - q^-k) E^(N-n)."""
    start = time.perf_counter()
    if not (0 <= N and 0 <= M):
        raise ValueError("N and M must be non-negative")
    P, E, F, K, Ki = _sl2_gens(v)
    lhs = divided_power(P, "E1", N) * divided_power(P, "F1", M)
    rhs = NCPoly.zero(P)
    for n in range(min(N, M) + 1):
        middle = NCPoly.one(P)
        for k in range(1, n + 1):
            middle = middle * (
                (K * qpow(-N - M + n + k, v) - Ki * qpow(N + M - n - k, v))
                * (1 / (qpow(k, v) - qpow(-k, v)))
            )
        rhs = rhs + divided_power(P, "F1", M - n) * middle * divided_power(P, "E1", N - n)
    return _exact_report(
        "kac_identity",
        {"N": N, "M": M, "variable": str(v.as_expr())},
        [("kac", lhs - rhs)],
        start,
    )


def verify_mixed_commutators(m: int, v: Coeff = V) -> CheckReport:
    """Commutators of an integer power of one rescaled generator
    (calE = -i(q - q^-1) E, calF likewise) with the opposite one:

        [calE^m, calF] = -(q^m - q^-m)(q^{1-m} K - q^{m-1} K^-1) calE^{m-1}
        [calE, calF^m] = -(q^m - q^-m) calF^{m-1} (q^{1-m} K - q^{m-1} K^-1)
    """
    start = time.perf_counter()
    if m < 1:
        raise ValueError("m must be >= 1")
    P, E, F, K, Ki = _sl2_gens(v)
    scale = canon(-sp.I, v) * (qpow(1, v) - qpow(-1, v))
    calE, calF = E * scale, F * scale
    bracket = -(qpow(m, v) - qpow(-m, v))
    cartan = K * qpow(1 - m, v) - Ki * qpow(m - 1, v)
    lhs1 = calE**m * calF - calF * calE**m
    rhs1 = (cartan * bracket) * calE ** (m - 1)
    lhs2 = calE * calF**m - calF**m * calE
    rhs2 = (calF ** (m - 1) * cartan) * bracket
    return _exact_report(
        "mixed_commutators",
        {"m": m, "variable": str(v.as_expr())},
        [("[calE^m, calF]", lhs1 - rhs1), ("[calE, calF^m]", lhs2 - rhs2)],
        start,
    )


def verify_serre_sum(N: int, M: int, v: Coeff = V) -> CheckReport:
    """Straightening of calE_1^N calE_2^M through the non-simple root:

        calE_i^N calE_j^M = q^{NM} sum_n (-1)^n q^{-n^2/2 + n}
            * [N]!_{q^-2} [M]!_{q^-2} / ([N-n]! [M-n]! [n]!)_{q^-2}
            * calE_j^{M-n} calE_{ij}^n calE_i^{N-n}

    with (i, j) = (1, 2), where [n]!_{q^-2} = prod_{k<=n}(1 - q^{-2k}),
    and the mirror identity for the F family.  The rescaled generators
    calX = -i(q - q^-1) X are used on both sides; the non-simple-root
    letter scales the same way, so calE_{12} = -i(q - q^-1) E12.
    """
    start = time.perf_counter()
    if N < 0 or M < 0:
        raise ValueError("N and M must be non-negative")
    P = sl3_preset(v)
    scale = canon(-sp.I, v) * (qpow(1, v) - qpow(-1, v))
    fact = [one_minus_qneg_product(k, v) for k in range(max(N, M) + 1)]
    coeffs = [
        (-1) ** n * v ** (-n * n + 2 * n) * qpow(N * M, v)
        * (fact[N] * fact[M] / (fact[N - n] * fact[M - n] * fact[n]))
        for n in range(min(N, M) + 1)
    ]
    diffs = []
    for fam in ("E", "F"):
        g1 = NCPoly.gen(P, f"{fam}1") * scale
        g2 = NCPoly.gen(P, f"{fam}2") * scale
        g12 = NCPoly.gen(P, f"{fam}12") * scale
        lhs = g1**N * g2**M
        rhs = NCPoly.zero(P)
        for n, coeff in enumerate(coeffs):
            rhs = rhs + (g2 ** (M - n) * g12**n * g1 ** (N - n)) * coeff
        diffs.append((f"{fam}-family", lhs - rhs))
    return _exact_report(
        "serre_sum", {"N": N, "M": M, "variable": str(v.as_expr())}, diffs, start
    )


def verify_commuting_cases(v: Coeff = V) -> CheckReport:
    """Vanishing commutators of both two-node presets: [E_i, F_j] for
    i != j, and [E_i, E_j], [F_i, F_j] where the Cartan pairing is zero."""
    start = time.perf_counter()
    diffs = [
        (f"{P.name} {label}", rel)
        for P in (commuting_pair_preset(v), sl3_preset(v))
        for label, rel in _vanishing_commutators(P)
    ]
    return _exact_report("commuting_cases", {"variable": str(v.as_expr())}, diffs, start)


def verify_qbinomial(N: int, v: Coeff = V) -> CheckReport:
    """q-binomial theorem for a q-Weyl pair uv = q^2 vu:
    (u + v)^N = sum_n C_q(N, n) u^{N-n} v^n with the Gauss coefficient in
    the (1 - q^{-2k}) factorial normalization."""
    start = time.perf_counter()
    if N < 0:
        raise ValueError("N must be non-negative")
    W = qweyl_pair_preset(v)
    u, w = NCPoly.gen(W, "u"), NCPoly.gen(W, "v")
    lhs = (u + w) ** N
    rhs = NCPoly.zero(W)
    for n in range(N + 1):
        rhs = rhs + (u ** (N - n) * w**n) * gauss_binomial(N, n, v)
    return _exact_report(
        "qbinomial", {"N": N, "variable": str(v.as_expr())}, [("binomial", lhs - rhs)], start
    )


def _vanishing_commutators(preset) -> list:
    """[E_i, F_j] for nodes i != j, and [E_i, E_j], [F_i, F_j] for i < j
    with a_ij = 0, as (label, NCPoly) pairs."""
    rels = []
    for i in preset.nodes:
        for j in preset.nodes:
            (Ei, Fi, _, _), (Ej, Fj, _, _) = _letters(i), _letters(j)
            pairs = [(Ei, Fj)] if i != j else []
            if i < j and preset.cartan[i - 1][j - 1] == 0:
                pairs += [(Ei, Ej), (Fi, Fj)]
            for x, y in pairs:
                X, Y = NCPoly.gen(preset, x), NCPoly.gen(preset, y)
                rels.append((f"[{x},{y}]", X * Y - Y * X))
    return rels


def _defining_relations(preset) -> list:
    """Defining relations R = 0 of a preset's simple generators, as (label,
    NCPoly) pairs: the vanishing commutators, K_i K_i^{-1} = 1, [E_i, F_i] =
    (K_i - K_i^{-1}) / (q - q^{-1}), and for each ordered pair of nodes
    K_i E_j = q^{a_ij} E_j K_i, K_i F_j = q^{-a_ij} F_j K_i and, where
    a_ij = -1, the q-Serre relations of E and F."""
    v = preset.v
    q, qi = qpow(1, v), qpow(-1, v)
    gens = lambda i: [NCPoly.gen(preset, g) for g in _letters(i)]
    rels = _vanishing_commutators(preset)
    for i in preset.nodes:
        Ei, Fi, K, Ki = gens(i)
        rels.append((f"K{i}K{i}i", K * Ki - NCPoly.one(preset)))
        rels.append((f"[E{i},F{i}]", Ei * Fi - Fi * Ei - (K - Ki) * (1 / (q - qi))))
        for j in preset.nodes:
            a = preset.cartan[i - 1][j - 1]
            Ej, Fj, _, _ = gens(j)
            rels.append((f"K{i}E{j}", K * Ej - (Ej * K) * qpow(a, v)))
            rels.append((f"K{i}F{j}", K * Fj - (Fj * K) * qpow(-a, v)))
            if a == -1:
                for x, X, Y in (("E", Ei, Ej), ("F", Fi, Fj)):
                    serre = X**2 * Y - (X * Y * X) * (q + qi) + Y * X**2
                    rels.append((f"serre {x}{i}^2{x}{j}", serre))
    return rels


def verify_coproduct_hom(v: Coeff = V) -> CheckReport:
    """The coproduct is an algebra homomorphism and is coassociative:
    every defining relation maps to zero in the tensor square, and
    applying the coproduct to either leg of a coproduct agrees on all
    generators."""
    start = time.perf_counter()
    diffs = []
    for preset in (sl2_preset(v), sl3_preset(v)):
        for label, rel in _defining_relations(preset):
            diffs.append((f"{preset.name} Delta({label})", coproduct(rel)))
        for g in (g for i in preset.nodes for g in _letters(i)):
            d = coproduct(NCPoly.gen(preset, g))
            diffs.append(
                (
                    f"{preset.name} coassoc {g}",
                    coproduct_on_leg(d, 0) - coproduct_on_leg(d, 1),
                )
            )
    return _exact_report("coproduct_hom", {"variable": str(v.as_expr())}, diffs, start)
