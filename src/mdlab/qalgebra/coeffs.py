"""Exact scalar coefficients for the symbolic engine.

Coefficients are elements of a field of rational functions in one formal
variable v standing for q^{1/2}; q itself is v**2.  Half-integer powers of
q and the factor q^{-n^2/2} appearing in the straightening identities are
then plain Laurent monomials in v.  Elements are fractions of polynomials,
reduced by a gcd after every field operation, so two equal coefficients are
equal under ``==`` and a zero coefficient is falsy: there is no separate
canonicalisation step.

The field is ZZ(v), fractions of polynomials over the integers, and ZZ(w)
for the dual re-runs; the two raise on contact, so they never mix.  The
paper's generators carry a unit -i, but every check divides it out of
each side (see ``checks``), so no coefficient needs i.

The variable is injectable so the dual-parameter twin of every check is a
re-execution over a second field, not new code.
"""

from __future__ import annotations

import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement, field
from sympy.polys.polyerrors import CoercionFailed

#: A coefficient: an element of ZZ(v) for one formal variable v.
Coeff = FracElement

#: Default formal variable, v = q^{1/2}, as the generator of ZZ(v).
V: Coeff = field("v", ZZ)[1]

#: Formal variable for the dual-parameter re-runs, standing for qtilde^{1/2}.
V_TILDE: Coeff = field("w", ZZ)[1]


def _field_name(K) -> str:
    """A field of rational functions as its domain and symbols: ZZ(v)."""
    return f"{K.domain}({', '.join(map(str, K.symbols))})"


def canon(x: Coeff | sp.Expr | int, v: Coeff = V) -> Coeff:
    """``x`` as an element of the field generated by ``v``.

    Accepts an int, an exact sympy number such as ``sp.Rational(1, 2)``, or
    an element of that field.  An element of any other field, an inexact
    number and a number outside the field, such as the imaginary unit,
    raise ValueError.
    """
    K = v.field
    if isinstance(x, FracElement):
        if x.field == K:
            return x
        raise ValueError(
            f"coefficient {x.as_expr()} lies in the field {_field_name(x.field)}, "
            f"not in {_field_name(K)}"
        )
    if isinstance(x, (float, complex)) or isinstance(x, sp.Basic) and x.has(sp.Float):
        raise ValueError(f"inexact coefficient {x}: the engine takes exact numbers only")
    # K(1) would reduce 1/1 again; the unit is already in the field.
    if x == 1:
        return K.one
    try:
        return K(x)
    except (ValueError, CoercionFailed) as exc:
        raise ValueError(f"coefficient {x} does not lie in {_field_name(K)}") from exc


def is_zero(c: Coeff) -> bool:
    return not c


def qpow(k: int, v: Coeff = V) -> Coeff:
    """q^k as a Laurent monomial in v."""
    return v ** (2 * k)


def one_minus_qneg_product(n: int, v: Coeff = V) -> Coeff:
    """The product of (1 - q^{-2k}) for k = 1..n."""
    out = v.field.one
    for k in range(1, n + 1):
        out *= 1 - v ** (-4 * k)
    return out


def gauss_binomial(N: int, n: int, v: Coeff = V) -> Coeff:
    """Gauss q-binomial coefficient in the (1 - q^{-2k}) normalization."""
    if not 0 <= n <= N:
        raise ValueError("need 0 <= n <= N")
    return one_minus_qneg_product(N, v) / (
        one_minus_qneg_product(n, v) * one_minus_qneg_product(N - n, v)
    )
