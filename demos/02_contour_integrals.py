"""Scalar contour-integral identities for G_b.

Each identity equates an adaptive line integral over a carefully placed
horizontal contour with a closed-form ratio of G_b values.  The admissible
elevation window is derived from the pole lattices of the integrand; the
result is independent of where in the window the line is placed.
"""

from mdlab import BParam, verify_45, verify_69, verify_tau_binomial
from mdlab.identities import tau_binomial_window

p = BParam(0.83)

print("-- tau-binomial: integral representation of G_b(a)G_b(b)/G_b(a+b) --")
alpha, beta = 0.3 * p.Q, 0.25 * p.Q
low, high = tau_binomial_window(complex(alpha), p)
print(f"  admissible contour window: Im tau in ({low:.3f}, {high:.3f})")
for frac in (0.35, 0.5, 0.65):
    rep = verify_tau_binomial(alpha, beta, p, offset=low + frac * (high - low))
    print(f"  offset {rep.params['offset']:.3f}: rel err {rep.rel_error:.2e}  ({rep.wall_time:.2f}s)")

print("\n-- four-term / five-term identity with a Gaussian kernel --")
for params in ((0.25, 0.25, 0.25), (0.15, 0.35, 0.2)):
    a, b, c = (f * p.Q for f in params)
    rep = verify_45(a, b, c, p)
    print(f"  alpha,beta,gamma = {params} * Q: rel err {rep.rel_error:.2e}  ({rep.wall_time:.2f}s)")

print("\n-- six-term / nine-term identity --")
for params in ((0.2, 0.2, 0.2, 0.2), (0.15, 0.25, 0.2, 0.22)):
    A, B, C, D = (f * p.Q for f in params)
    rep = verify_69(A, B, C, D, p)
    print(f"  A,B,C,D = {params} * Q: rel err {rep.rel_error:.2e}  ({rep.wall_time:.2f}s)")

print("\n-- the same identities at other values of b --")
for bb in (0.7, 1.2):
    q = BParam(bb)
    rep = verify_tau_binomial(0.3 * q.Q, 0.3 * q.Q, q)
    print(f"  b = {bb}: tau-binomial rel err {rep.rel_error:.2e}")
