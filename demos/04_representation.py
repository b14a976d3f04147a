"""Difference-operator representation of the modular double of gl(N).

Generators act on functions of the triangular variable array gamma_{nj} by
meromorphic coefficients and imaginary shifts.  The demo scores a
q-commutation relation the way the checks do: class_scores sums the
coefficients of each class of terms sharing a shift, at arrays of random
points from sample_point, and reports the worst |sum| / max |term|.
verify_relation and verify_all score both quantum-group families
(deformation parameters q and its modular dual) and all sign
cross-relations this way.
"""

import numpy as np

from mdlab.params import OmegaParams
from mdlab.repcheck import (
    build_generator,
    class_scores,
    compose,
    sample_point,
    verify_all,
    verify_relation,
)

p = OmegaParams(0.83, 1 / 0.83)
print(f"omega1 = {p.omega1}, omega2 = {p.omega2:.6f}")
print(f"q = {p.q:.6f}, dual q = {p.qtilde:.6f}")

print("\n-- generators are sums of coefficient x shift terms --")
for kind in ("E_raise", "E_lower", "K", "tK"):
    op = build_generator(kind, 2, 3, p)
    shifts = [dict(t.shift) for t in op.terms]
    print(f"  {kind:8s} (n = 2, N = 3): {len(op.terms)} terms, shifts {shifts}")

print("\n-- a q-commutation relation, scored per shift class at 5 random points --")
rng = np.random.default_rng(0)
points = [sample_point(2, rng) for _ in range(5)]
x = {idx: np.array([g[idx] for g in points]) for idx in points[0]}
K1 = build_generator("K", 1, 2, p)
E = build_generator("E_raise", 1, 2, p)
for label, c in (("q", p.q), ("q^2", p.q**2)):
    D = compose(K1, E, p) - compose(E, K1, p).scale(c)
    print(f"  K_1 E_12 - {label:3s} E_12 K_1: worst class score {class_scores(D, x).max():.2e}")
print("  (the relation holds with q; with q^2 no class cancels)")

print("\n-- one full relation over all its index pairs --")
rep = verify_relation("ef_commutator", 3, p, trials=10)
print(f"  {rep.identity_id}: max rel err {rep.rel_error:.2e} over "
      f"{rep.params['index_pairs']} index pairs x 10 trials")

print("\n-- entire catalogue at N = 2 and N = 3 --")
for N in (2, 3):
    reports = verify_all(N, p, trials=10, seed=42)
    worst = max(r.rel_error for r in reports)
    print(f"  N = {N}: {len(reports)} relations verified, worst rel err {worst:.2e}")
