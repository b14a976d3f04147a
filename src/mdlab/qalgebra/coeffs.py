"""Exact scalar coefficients for the symbolic engine.

Coefficients are elements of a field of rational functions in one formal
variable v standing for q^{1/2}; q itself is v**2.  Half-integer powers of
q and the factor q^{-n^2/2} appearing in the straightening identities are
then plain Laurent monomials in v.  Elements are fractions of polynomials,
reduced by a gcd after every field operation, so two equal coefficients are
equal under ``==`` and a zero coefficient is falsy: there is no separate
canonicalisation step.

One rule chooses the field: ZZ(v), fractions of polynomials over the
integers, unless a check needs i; then ZZ_I(v), fractions over the
Gaussian integers, generated by ``adjoin_i(v)``.  Only sl3's
non-simple-root rules and the rescaling by -i(q - q^{-1}) need i.  The Kac
identity, the q-binomial theorem, sl2 and the commuting pair stay in ZZ(v),
where a gcd is much cheaper: ``mdlab --suite symbolic`` takes about 1.1 s
where it took 2.1 s with every coefficient in ZZ_I(v) (2-vCPU host, whole
process).  ``canon`` embeds ZZ(v) into ZZ_I(v) for the same symbol, which
is exact: a fraction reduced over ZZ is reduced over ZZ_I.  Any other two
fields raise on contact, so coefficients over v and over the dual variable
w never mix.

The variable is injectable so the dual-parameter twin of every check is a
re-execution over a second field, not new code.
"""

from __future__ import annotations

import sympy as sp
from sympy.polys.domains import ZZ, ZZ_I
from sympy.polys.fields import FracElement, field
from sympy.polys.polyerrors import CoercionFailed

#: A coefficient: an element of ZZ(v) or ZZ_I(v) for one formal variable v.
Coeff = FracElement

#: Default formal variable, v = q^{1/2}, as the generator of ZZ(v).
V: Coeff = field("v", ZZ)[1]

#: Formal variable for the dual-parameter re-runs, standing for qtilde^{1/2}.
V_TILDE: Coeff = field("w", ZZ)[1]


def adjoin_i(v: Coeff) -> Coeff:
    """The generator of ZZ_I(v) with the symbol of ``v``: the field of a
    check that needs i.  Built on demand; it costs microseconds."""
    return field(v.field.symbols, ZZ_I)[1]


def _field_name(K) -> str:
    """A field of rational functions as its domain and symbols: ZZ_I(v)."""
    return f"{K.domain}({', '.join(map(str, K.symbols))})"


def canon(x: Coeff | sp.Expr | int, v: Coeff = V) -> Coeff:
    """``x`` as an element of the field generated by ``v``.

    Accepts an int, an exact sympy number such as ``sp.Rational(1, 2)`` or
    ``sp.I`` (over ZZ_I(v) only), or an element of that field.  An element of
    ZZ(v) is embedded into ZZ_I(v) with the same symbol.  An element of any
    other field, an inexact number and a number outside the field raise
    ValueError.
    """
    K = v.field
    if isinstance(x, FracElement):
        if x.field == K:
            return x
        if x.field.domain == ZZ and K.domain == ZZ_I and x.field.symbols == K.symbols:
            # Coprime over ZZ stays coprime over ZZ_I, and a positive leading
            # coefficient of the denominator is ZZ_I's canonical unit, so the
            # moved fraction needs no second reduction.
            return K.raw_new(x.numer.set_ring(K.ring), x.denom.set_ring(K.ring))
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
