"""Independent checks and negative controls for the correctness gates.

- The Kac identity for divided powers is checked numerically in a
  finite-dimensional irreducible U_q(sl2) module with numeric q, with numpy
  matrices only, so it does not depend on the symbolic rewriting engine.
- A Kac right-hand side with one coefficient multiplied by q must
  normal-order to a non-zero element, and must fail the numeric check too.
- A representation relation built from the public generator and
  composition functions must vanish at the correct q-power and sign, and
  score far above tolerance with a wrong q-power or a wrong sign.
"""

from __future__ import annotations

import numpy as np


# ------------------------------------------------------- numeric U_q(sl2)
def uq_sl2_module(dim: int, q: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E, F, K of the irreducible module of dimension ``dim``.

    Basis v_0..v_n (n = dim - 1) with K v_j = q^{n-2j} v_j,
    F v_j = [j+1] v_{j+1}, E v_j = [n-j+1] v_{j-1}, [m] = (q^m - q^-m)/(q - q^-1).
    """
    n = dim - 1

    def qint(m: int) -> complex:
        return (q**m - q**-m) / (q - 1 / q)

    E = np.zeros((dim, dim), dtype=complex)
    F = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        F[j + 1, j] = qint(j + 1)
        E[j, j + 1] = qint(n - j)
    K = np.diag([q ** (n - 2 * j) for j in range(dim)])
    return E, F, K


def _divided(X: np.ndarray, k: int, q: complex) -> np.ndarray:
    out = np.linalg.matrix_power(X, k)
    for m in range(1, k + 1):
        out = out * (q - 1 / q) / (q**m - q**-m)
    return out


def _extra_power(n: int, k: int, perturb: bool) -> int:
    """Extra power of q on the k-th factor of the n-th summand; the negative
    control multiplies the first factor of the n = 1 summand by q."""
    return 1 if perturb and n == 1 and k == 1 else 0


def kac_matrix_error(N: int, M: int, dim: int, q: complex, perturb: bool = False) -> float:
    """Relative Frobenius deviation between both sides of the Kac identity

        E^(N) F^(M) = sum_n F^(M-n) prod_{k=1..n} (q^{-N-M+n+k} K - q^{N+M-n-k} K^-1)
                      / (q^k - q^-k) E^(N-n)

    in the module of dimension ``dim``."""
    E, F, K = uq_sl2_module(dim, q)
    Ki = np.linalg.inv(K)
    lhs = _divided(E, N, q) @ _divided(F, M, q)
    rhs = np.zeros_like(lhs)
    for n in range(min(N, M) + 1):
        middle = np.eye(dim, dtype=complex)
        for k in range(1, n + 1):
            extra = q ** _extra_power(n, k, perturb)
            factor = (q ** (-N - M + n + k) * K - q ** (N + M - n - k) * Ki) / (q**k - q**-k)
            middle = middle @ (extra * factor)
        rhs = rhs + _divided(F, M - n, q) @ middle @ _divided(E, N - n, q)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


# ------------------------------------------------------ symbolic control
def kac_difference(N: int, M: int, perturb: bool):
    """Both sides of the Kac identity as an NCPoly over the sl2 preset,
    built from the public qalgebra API (same formula as above)."""
    from mdlab.qalgebra import NCPoly, divided_power, qpow, sl2_preset

    P = sl2_preset()
    K, Ki = NCPoly.gen(P, "K1"), NCPoly.gen(P, "K1i")
    lhs = divided_power(P, "E1", N) * divided_power(P, "F1", M)
    rhs = NCPoly.zero(P)
    for n in range(min(N, M) + 1):
        middle = NCPoly.one(P)
        for k in range(1, n + 1):
            extra = qpow(_extra_power(n, k, perturb))
            factor = qpow(-N - M + n + k) * K - qpow(N + M - n - k) * Ki
            middle = middle * (factor * (extra / (qpow(k) - qpow(-k))))
        rhs = rhs + divided_power(P, "F1", M - n) * middle * divided_power(P, "E1", N - n)
    return lhs - rhs


# ------------------------------------------------ representation control
def relation_score(
    N: int, n: int, m: int, power_offset: int, sign: float, trials: int, seed: int
) -> float:
    """Worst score of K_n E_m - sign * q^(p + power_offset) E_m K_n over
    seeded trials, scored like ``repcheck.verify_relation``: |D f(x)| over
    the largest single term.  p = delta(n, m) - delta(n, m + 1) is the
    correct q-power."""
    from mdlab import OmegaParams
    from mdlab import repcheck as rc

    p = OmegaParams.from_b(0.83)
    K = rc.build_generator("K", n, N, p)
    E = rc.build_generator("E_raise", m, N, p)
    power = int(n == m) - int(n == m + 1) + power_offset
    D = rc.compose_all([K, E], p) - rc.compose_all([E, K], p).scale(sign * p.q**power)
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, N, n, m, trial])
        f = rc.TestFunction.random(N, rng)
        x = rc.sample_point(N, rng)
        val = abs(rc.apply_operator(D, f, x, p))
        scale = max(rc.term_magnitudes(D, f, x, p), default=0.0)
        worst = max(worst, 0.0 if scale == 0.0 else val / scale)
    return worst
