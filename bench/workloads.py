"""The benchmark's workloads, each putting most of its work on one layer.

A workload turns the seed into inputs, warms the layers it uses during
set-up, lists the fixed operations of one round, counts the failed ones,
and checks the program's outputs after the timed rounds.  Every layer is
driven through its public functions, looked up on the module at call time so
that the traced run's wrappers see the calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import sympy

from mdlab import BParam, OmegaParams, identities, qdilog, quadrature, repcheck, suites
from mdlab.qalgebra import verify_kac

import controls
from reference import gb_reference, self_check

REFERENCE_TOL = 1e-9      # program G_b against the 30-digit reference
PROPERTY_TOL = 1e-9       # reflection and shift equation
CONTOUR_TOL = 1e-8        # the same identity on two contours in its window
REP_TOL = 1e-8            # representation relations, as in the CLI
KAC_MATRIX_TOL = 1e-9     # Kac identity in a finite-dimensional module
CONTROL_FACTOR = 1e3      # how far a negative control lies outside its gate


@dataclass(frozen=True)
class Op:
    """One timed call of a round and the number of operations it counts."""

    label: str
    call: Callable[[], Any]
    count: int


def max_rel_err(got: Any, want: Any) -> float:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-300)
    return float(np.max(np.abs(got - want) / scale))


class Gates:
    """Correctness gates of one run; every numeric gate also shows that it
    rejects the program's values perturbed by CONTROL_FACTOR times its
    tolerance."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.ok = True

    def _record(self, passed: bool, text: str) -> None:
        self.ok &= passed
        self.lines.append(f"[{'PASS' if passed else 'FAIL'}] {text}")

    def within(self, name: str, err: float, tol: float) -> None:
        self._record(err <= tol, f"{name}: error {err:.3e} (tol {tol:.0e})")

    def matches(self, name: str, got: Any, want: Any, tol: float) -> None:
        self.within(name, max_rel_err(got, want), tol)
        bad = np.asarray(got, dtype=complex) * (1 + CONTROL_FACTOR * tol)
        self._control(f"{name}, values perturbed by {CONTROL_FACTOR * tol:.0e}",
                      max_rel_err(bad, want), tol)

    def rejects(self, name: str, err: float, tol: float) -> None:
        """Negative control: the gate must fail by CONTROL_FACTOR or more."""
        self._control(name, err, CONTROL_FACTOR * tol)

    def _control(self, name: str, err: float, threshold: float) -> None:
        passed = err > threshold
        self._record(passed, f"negative control {name}: error {err:.3e} "
                             f"{'fails the gate as expected' if passed else 'PASSES the gate'}")

    def equal(self, name: str, got: Any, want: Any) -> None:
        self._record(got == want, f"{name}: {got!r} (expected {want!r})")


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def warm_up(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def before_round(self) -> None:
        pass

    def failures(self, op: Op, result: Any) -> int:
        return sum(not r.passed for r in result)

    def check(self, results: dict[str, Any], gates: Gates) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------- contour
def _contour_arguments(report, rng: np.random.Generator) -> list[complex]:
    """The G_b arguments of one contour check: its closed-form side and its
    integrand at a seeded point tau of the integration line."""
    P = report.params
    p = BParam(P["b"])
    tau = complex(rng.uniform(-2.0, 2.0), P["offset"])
    if report.identity_id == "tau_binomial":
        a, b = P["alpha"], P["beta"]
        return [a, b, a + b, a + 1j * p.b * tau, p.Q + 1j * p.b * tau]
    if report.identity_id == "four_five":
        a, b, c = P["alpha"], P["beta"], P["gamma"]
        return [a, b, a + c, b + c, a + b + c,
                a - 1j * tau, b - 1j * tau, c + 1j * tau, 1j * tau]
    A, B, C, D = P["A"], P["B"], P["C"], P["D"]
    S = A + B + C + D
    return [A, B, C, A + D, B + D, C + D, A + B + D, A + C + D, B + C + D,
            A + 1j * tau, B + 1j * tau, C + 1j * tau, D - 1j * tau, -1j * tau, S + 1j * tau]


def _rerun_on_contour(report, fraction: float):
    """Re-run one contour check with its line at ``fraction`` of its window."""
    P = report.params
    p = BParam(P["b"])
    if report.identity_id == "tau_binomial":
        low, high = identities.tau_binomial_window(P["alpha"], p)
        eps = low + fraction * (high - low)
        return identities.verify_tau_binomial(P["alpha"], P["beta"], p, offset=eps)
    if report.identity_id == "four_five":
        low, high = identities.four_five_window(P["alpha"], P["beta"], p)
        eps = low + fraction * (high - low)
        return identities.verify_45(P["alpha"], P["beta"], P["gamma"], p, offset=eps)
    args = (P["A"], P["B"], P["C"], P["D"])
    low, high = identities.six_nine_window(*args, p)
    eps = low + fraction * (high - low)
    return identities.verify_69(*args, p, offset=eps)


class ContourIdentities(Workload):
    """integrals_suite at its defaults: quadrature plus small G_b batches."""

    name = "contour-identities"
    CHECKS = 15  # 3 b values x 3 tau-binomial sets, 3 four-five, 3 six-nine
    REFERENCE_POINTS = 4
    SHIFTED_CONTOURS = 2

    def warm_up(self) -> None:
        p = BParam(0.83)
        qdilog.gb(np.array([0.5 + 0.1j, 1.1 - 0.3j]), p)
        cfg = quadrature.QuadratureConfig()
        quadrature.integrate_line(lambda t: np.exp(-t * t), 0.1, cfg)

    def operations(self) -> list[Op]:
        return [Op("integrals_suite", lambda: suites.integrals_suite(), self.CHECKS)]

    def check(self, results: dict[str, Any], gates: Gates) -> None:
        reports = results.get("integrals_suite")
        if reports is None:
            return
        gates.equal("contour checks reported", len(reports), self.CHECKS)
        pool = [(arg, r.params["b"]) for r in reports for arg in _contour_arguments(r, self.rng)]
        picks = self.rng.choice(len(pool), self.REFERENCE_POINTS, replace=False)
        got = [qdilog.gb(complex(pool[i][0]), BParam(pool[i][1])) for i in picks]
        want = [gb_reference(complex(pool[i][0]), pool[i][1]) for i in picks]
        gates.matches(f"G_b at {len(picks)} seeded contour arguments vs mpmath", got, want,
                      REFERENCE_TOL)
        for i in self.rng.choice(len(reports), self.SHIFTED_CONTOURS, replace=False):
            r = reports[i]
            fraction = float(self.rng.uniform(0.3, 0.7))
            moved = _rerun_on_contour(r, fraction)
            gates.matches(f"{r.identity_id} {r.params['b']} with the line at "
                          f"{fraction:.3f} of its window", moved.lhs, r.lhs, CONTOUR_TOL)


# --------------------------------------------------------------- gb batch
def lattice_distance(z: np.ndarray, p: BParam, reach: float) -> np.ndarray:
    """Distance from each z to the pole lattice -n1*b - n2/b and the zero
    lattice Q + n1*b + n2/b, over lattice points within ``reach``."""
    n = np.arange(int(reach / min(p.b, 1 / p.b)) + 2)
    steps = (n[:, None] * p.b + n[None, :] / p.b).ravel()
    steps = steps[steps <= reach]
    lattice = np.concatenate([-steps, p.Q + steps])
    return np.min(np.abs(z[:, None] - lattice[None, :]), axis=1)


class GbBatch(Workload):
    """Seeded G_b batches spread over several strip widths, and their
    reflections Q - z, fed to gb in large batches."""

    name = "gb-batch"
    B = 0.83
    BATCHES = 4
    BATCH_SIZE = 1000
    STRIP_WIDTHS = 2.0   # Re z spans this many strip widths on each side
    MAX_IMAG = 1.5
    LATTICE_CLEARANCE = 0.1
    SHIFT_SAMPLE = 200
    REFERENCE_POINTS = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.p = BParam(self.B)
        Q = self.p.Q
        need = self.BATCHES * self.BATCH_SIZE
        z = np.empty(0, dtype=complex)
        while len(z) < need:
            cand = (self.rng.uniform(-self.STRIP_WIDTHS * Q, (1 + self.STRIP_WIDTHS) * Q, need)
                    + 1j * self.rng.uniform(-self.MAX_IMAG, self.MAX_IMAG, need))
            keep = lattice_distance(cand, self.p, (1 + self.STRIP_WIDTHS) * Q + 1)
            z = np.concatenate([z, cand[keep >= self.LATTICE_CLEARANCE]])
        self.batches = z[:need].reshape(self.BATCHES, self.BATCH_SIZE)

    def warm_up(self) -> None:
        qdilog.gb(self.batches[0, :8], self.p)

    def operations(self) -> list[Op]:
        ops = []
        for k, z in enumerate(self.batches):
            ops.append(Op(f"gb z[{k}]", lambda z=z: qdilog.gb(z, self.p), len(z)))
            ops.append(Op(f"gb Q-z[{k}]", lambda z=z: qdilog.gb(self.p.Q - z, self.p), len(z)))
        return ops

    def failures(self, op: Op, result: Any) -> int:
        return int(np.sum(~np.isfinite(result)))

    def check(self, results: dict[str, Any], gates: Gates) -> None:
        p, Q = self.p, self.p.Q
        pairs = [(z, results.get(f"gb z[{k}]"), results.get(f"gb Q-z[{k}]"))
                 for k, z in enumerate(self.batches)]
        pairs = [(z, g, h) for z, g, h in pairs if g is not None and h is not None]
        if not pairs:
            return
        z = np.concatenate([z for z, _, _ in pairs])
        g = np.concatenate([g for _, g, _ in pairs])
        h = np.concatenate([h for _, _, h in pairs])
        gates.matches(f"reflection G(z)G(Q-z) = e^(pi i z(z-Q)) on all {len(z)} points",
                      g * h, np.exp(1j * math.pi * z * (z - Q)), PROPERTY_TOL)
        sub = self.rng.choice(len(z), self.SHIFT_SAMPLE, replace=False)
        for s, label in ((p.b, "b"), (1 / p.b, "1/b")):
            shifted = qdilog.gb(z[sub] + s, p)
            gates.matches(f"shift equation by {label} on {len(sub)} seeded points", shifted,
                          (1 - np.exp(2j * math.pi * s * z[sub])) * g[sub], PROPERTY_TOL)
        gates.within("mpmath reference self-check G_b(b) = -ib", self_check(p.b), 1e-25)
        picks = self.rng.choice(len(z), self.REFERENCE_POINTS, replace=False)
        gates.matches(f"G_b at {len(picks)} seeded points vs mpmath", g[picks],
                      [gb_reference(complex(z[i]), p.b) for i in picks], REFERENCE_TOL)


# --------------------------------------------------------------- symbolic
class SymbolicIdentities(Workload):
    """symbolic_suite at its defaults, as `mdlab --suite symbolic` runs it."""

    name = "symbolic-identities"
    # Per variable: Kac 5x5, mixed commutators 4, Serre sums 21, commuting
    # cases 1, q-binomial 7, coproduct 1; both v and w.
    CHECKS = 2 * (25 + 4 + 21 + 1 + 7 + 1)

    def warm_up(self) -> None:
        verify_kac(1, 1)

    def before_round(self) -> None:
        # Every round starts from sympy's empty cache, as a fresh process does.
        sympy.core.cache.clear_cache()

    def operations(self) -> list[Op]:
        return [Op("symbolic_suite", lambda: suites.symbolic_suite(), self.CHECKS)]

    def check(self, results: dict[str, Any], gates: Gates) -> None:
        reports = results.get("symbolic_suite")
        if reports is not None:
            gates.equal("symbolic checks reported", len(reports), self.CHECKS)
        dim = int(self.rng.integers(5, 10))
        beta = float(self.rng.uniform(0.03, 0.1))
        q = cmath.exp(1j * math.pi * beta)
        worst = max(controls.kac_matrix_error(N, M, dim, q) for N in range(5) for M in range(5))
        gates.within(f"Kac identity N, M <= 4 in the {dim}-dimensional U_q(sl2) module, "
                     f"q = exp(i pi {beta:.4f})", worst, KAC_MATRIX_TOL)
        N, M = (int(x) for x in self.rng.integers(1, 5, 2))
        gates.rejects(f"Kac ({N},{M}) with one coefficient times q, in the module",
                      controls.kac_matrix_error(N, M, dim, q, perturb=True), KAC_MATRIX_TOL)
        N, M = (int(x) for x in self.rng.integers(1, 4, 2))
        exact = controls.kac_difference(N, M, perturb=False).normal_order().is_zero()
        gates.equal(f"Kac ({N},{M}) rebuilt from the public API normal-orders to zero",
                    exact, True)
        perturbed = controls.kac_difference(N, M, perturb=True).normal_order().is_zero()
        gates.rejects(f"Kac ({N},{M}) with one coefficient times q, normal-ordered",
                      0.0 if perturbed else 1.0, 0.0)


# ---------------------------------------------------------- gl(N) representation
class GlRepresentation(Workload):
    """repcheck.verify_all for N = 2, 3, 4 at omega1 = 0.83, omega2 = 1/0.83."""

    name = "gl-representation"
    RANKS = (2, 3, 4)
    TRIALS = 60
    CONTROL_TRIALS = 5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.p = OmegaParams(0.83, 1.0 / 0.83)
        self.trial_seed = int(self.rng.integers(2**31))
        self.counts = {N: sum(1 for r in repcheck.ALL_RELATIONS
                              if repcheck.relation_index_pairs(r, N)) for N in self.RANKS}

    def warm_up(self) -> None:
        repcheck.verify_relation("k_raise", 2, self.p, trials=1, seed=0)

    def operations(self) -> list[Op]:
        return [Op(f"verify_all N={N}",
                   lambda N=N: repcheck.verify_all(N, self.p, self.TRIALS, self.trial_seed, REP_TOL),
                   self.counts[N]) for N in self.RANKS]

    def check(self, results: dict[str, Any], gates: Gates) -> None:
        for N in self.RANKS:
            reports = results.get(f"verify_all N={N}")
            if reports is not None:
                gates.equal(f"relations reported at N={N}", len(reports), self.counts[N])
        N = int(self.rng.integers(2, 5))
        n, m = int(self.rng.integers(1, N + 1)), int(self.rng.integers(1, N))
        seed = int(self.rng.integers(2**31))
        args = (N, n, m)
        gates.within(f"K_{n} E_{m} = q^p E_{m} K_{n} at N={N}, built from the public API",
                     controls.relation_score(*args, 0, 1.0, self.CONTROL_TRIALS, seed), REP_TOL)
        gates.rejects(f"K_{n} E_{m} with the q-power off by one at N={N}",
                      controls.relation_score(*args, 1, 1.0, self.CONTROL_TRIALS, seed), REP_TOL)
        gates.rejects(f"K_{n} E_{m} with the sign flipped at N={N}",
                      controls.relation_score(*args, 0, -1.0, self.CONTROL_TRIALS, seed), REP_TOL)


WORKLOADS = {w.name: w for w in (ContourIdentities, GbBatch, SymbolicIdentities, GlRepresentation)}
