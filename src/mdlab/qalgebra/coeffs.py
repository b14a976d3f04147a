"""Exact scalar coefficients for the symbolic engine.

Coefficients are elements of the field Q(i)(v) of rational functions over
the Gaussian rationals in one formal variable v standing for q^{1/2}; q
itself is v**2.  Half-integer powers of q and the factor q^{-n^2/2}
appearing in the straightening identities are then plain Laurent monomials
in v.  Elements are fractions of polynomials over the Gaussian integers
ZZ_I, reduced by a gcd over ZZ_I after every field operation, so two equal
coefficients are equal under ``==`` and a zero coefficient is falsy: there
is no separate canonicalisation step.

The variable is injectable so the dual-parameter twin of every check is a
re-execution over a second field, not new code.  Coefficients of the two
fields never mix: arithmetic between them raises.
"""

from __future__ import annotations

import sympy as sp
from sympy.polys.domains import ZZ_I
from sympy.polys.fields import FracElement, field

#: A coefficient: an element of Q(i)(v) for one formal variable v.
Coeff = FracElement

#: Default formal variable, v = q^{1/2}, as the generator of Q(i)(v).
V: Coeff = field("v", ZZ_I)[1]

#: Formal variable for the dual-parameter re-runs, standing for qtilde^{1/2}.
V_TILDE: Coeff = field("w", ZZ_I)[1]


def _field_name(K) -> str:
    """A field of rational functions as its fraction domain and symbols: QQ_I(v)."""
    return f"{K.domain.get_field()}({', '.join(map(str, K.symbols))})"


def canon(x: Coeff | sp.Expr | int, v: Coeff = V) -> Coeff:
    """``x`` as an element of the field generated by ``v``.

    Accepts an int, a sympy number such as ``sp.I``, or an element of that
    field; an element of another field raises ValueError.
    """
    K = v.field
    if isinstance(x, FracElement):
        if x.field != K:
            raise ValueError(
                f"coefficient {x.as_expr()} lies in the field {_field_name(x.field)}, "
                f"not in {_field_name(K)}"
            )
        return x
    # K(1) would reduce 1/1 again; the unit is already in the field.
    return K.one if x == 1 else K(x)


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
