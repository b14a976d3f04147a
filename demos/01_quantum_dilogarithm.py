"""Tour of the non-compact quantum dilogarithm G_b.

Evaluates G_b across and outside its defining strip, then demonstrates the
shift equation, the reflection formula, special values, pole residues and
the asymptotic behavior along vertical lines.
"""

import cmath
import math

import numpy as np

from mdlab import BParam, gb, residue_coeff, residue_limit, shift_product

p = BParam(0.83)
print(f"b = {p.b},  Q = b + 1/b = {p.Q:.6f}")

print("\n-- values in and out of the strip 0 < Re z < Q --")
for z in (0.5 + 0.0j, 1.2 + 0.4j, 4.1 - 0.8j, -1.3 + 0.2j):
    print(f"  G_b({z}) = {gb(z, p):.12g}")

print("\n-- shift equation G_b(z + n1 b + n2/b) = product * G_b(z) --")
z = 0.47 + 0.31j
for n1, n2 in ((1, 0), (0, 1), (2, 3)):
    lhs = gb(z + n1 * p.b + n2 / p.b, p)
    rhs = shift_product(z, n1, n2, p) * gb(z, p)
    print(f"  (n1, n2) = ({n1}, {n2}): rel err {abs(lhs - rhs) / abs(lhs):.2e}")

print("\n-- reflection G_b(z) G_b(Q - z) = e^{pi i z (z - Q)} --")
for z in (0.3 + 0.1j, 1.0 - 0.5j):
    lhs = gb(z, p) * gb(p.Q - z, p)
    rhs = cmath.exp(1j * math.pi * z * (z - p.Q))
    print(f"  z = {z}: rel err {abs(lhs - rhs) / abs(rhs):.2e}")

print("\n-- special values --")
print(f"  G_b(b)   = {gb(p.b, p):.12g}   (expected {-1j * p.b:.12g})")
print(f"  G_b(1/b) = {gb(1 / p.b, p):.12g}   (expected {-1j / p.b:.12g})")
print(f"  G_b(Q)   = {gb(complex(p.Q), p)}   (zero of the function)")

print("\n-- residues at the pole lattice: closed form vs circle integral --")
for n1, n2 in ((0, 0), (1, 0), (2, 1)):
    closed = residue_coeff(n1, n2, p)
    numeric = residue_limit(n1, n2, p)
    print(
        f"  pole (-{n1}b - {n2}/b): closed {closed:.8g}, "
        f"rel err {abs(numeric - closed) / abs(closed):.2e}"
    )

print("\n-- asymptotics: G_b(Q/2 + iT) approaches a unit-modulus constant --")
for T in (4.0, 8.0, 12.0):
    dev = abs(gb(complex(p.Q / 2, T), p) - np.conj(p.zeta_b))
    print(f"  T = {T:4.1f}: |G_b - limit| = {dev:.2e}")
