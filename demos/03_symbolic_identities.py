"""Exact symbolic quantum-group identities.

The engine works with noncommutative polynomials over exact rational
functions in v = q^{1/2} and decides equality by normal ordering, so every
check here is an exact identity, not a numerical approximation.
"""

from mdlab.qalgebra import (
    NCPoly,
    V_TILDE,
    coproduct,
    divided_power,
    qpow,
    sl2_preset,
    sl3_preset,
    verify_kac,
    verify_qbinomial,
    verify_serre_sum,
)

sl2 = sl2_preset()
E, F = NCPoly.gen(sl2, "E1"), NCPoly.gen(sl2, "F1")

print("-- normal ordering decides equality in the quotient algebra --")
print("  EF  ->", (E * F).normal_order())
print("  E^(2) =", divided_power(sl2, "E1", 2))

print("\n-- Kac identity for divided powers, exact for all N, M <= 4 --")
for N, M in ((1, 1), (2, 2), (4, 4)):
    rep = verify_kac(N, M)
    print(f"  N = {N}, M = {M}: {'exact' if rep.passed else 'MISMATCH'}  ({rep.wall_time:.2f}s)")

print("\n-- rank-2 straightening through the non-simple root --")
sl3 = sl3_preset()
E1, E2 = NCPoly.gen(sl3, "E1"), NCPoly.gen(sl3, "E2")
q, qi = qpow(1), qpow(-1)
serre = E1**2 * E2 - (q + qi) * (E1 * E2 * E1) + E2 * E1**2
print("  q-Serre relation normal-orders to:", serre.normal_order())
for N, M in ((1, 1), (3, 2)):
    rep = verify_serre_sum(N, M)
    print(f"  Serre sum N = {N}, M = {M}: {'exact' if rep.passed else 'MISMATCH'}")

print("\n-- q-binomial theorem on a q-Weyl pair --")
for N in (2, 4, 6):
    rep = verify_qbinomial(N)
    print(f"  (u + v)^{N}: {'exact' if rep.passed else 'MISMATCH'}")

print("\n-- coproduct --")
print("  Delta(E) =", coproduct(E))
print("  Delta(K) =", coproduct(NCPoly.gen(sl2, "K1")))

print("\n-- dual-parameter twin: same checks over the second formal variable --")
rep = verify_kac(2, 2, V_TILDE)
print(f"  Kac N = M = 2 over {rep.params['variable']}: {'exact' if rep.passed else 'MISMATCH'}")
