"""Acceptance gate: every primary criterion at its pinned tolerance.

Each test prints exactly one [PASS]/[FAIL] line for its criterion (run
pytest with -s to see them live) and asserts the same condition, so the
suite is green iff every criterion holds.
"""

import json
import time

import pytest

from mdlab.params import BParam, OmegaParams
from mdlab.qalgebra import (
    NCPoly,
    qpow,
    sl3_preset,
    verify_commuting_cases,
    verify_coproduct_hom,
    verify_kac,
    verify_mixed_commutators,
    verify_qbinomial,
    verify_serre_sum,
)
from mdlab.qdilog import check_asymptotics
from mdlab.repcheck import verify_all
from mdlab.suites import (
    check_functional_equation,
    check_reflection,
    check_residues,
    check_special_values,
    integrals_suite,
)

B_VALUES = (0.7, 0.83, 1.2)


def _emit(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_functional_equations():
    start = time.perf_counter()
    reports = [check_functional_equation(b, tolerance=1e-9) for b in B_VALUES]
    wall = time.perf_counter() - start
    worst = max(r.rel_error for r in reports)
    ok = (
        all(r.passed for r in reports)
        and all(r.params["n_points"] == 100 and r.params["max_shift"] == 3 for r in reports)
        and wall <= 60.0
    )
    _emit(
        "criterion 1 functional equations",
        ok,
        f"b in {B_VALUES}, 100 points, shifts <= 3: max rel err {worst:.2e} "
        f"(tol 1e-9), {wall:.1f}s (budget 60s)",
    )


def test_criterion_02_reflection():
    reports = [check_reflection(b, tolerance=1e-9) for b in B_VALUES]
    worst = max(r.rel_error for r in reports)
    _emit(
        "criterion 2 reflection formula",
        all(r.passed and r.params["n_points"] == 100 for r in reports),
        f"b in {B_VALUES}, 100 points: max rel err {worst:.2e} (tol 1e-9)",
    )


def test_criterion_03_special_values():
    reports = [check_special_values(b, tolerance=1e-8) for b in B_VALUES]
    worst = max(r.rel_error for r in reports)
    _emit(
        "criterion 3 special values",
        all(r.passed for r in reports),
        f"G_b(b) = -ib, G_b(1/b) = -i/b, zero at Q exact: max err {worst:.2e} "
        "(tol 1e-8)",
    )


def test_criterion_04_residues():
    reports = [check_residues(b, tolerance=1e-4) for b in B_VALUES]
    worst = max(r.rel_error for r in reports)
    _emit(
        "criterion 4 residues",
        all(r.passed and r.params["max_n"] == 2 for r in reports),
        f"lattice indices <= 2, circle integral: max rel err {worst:.2e} (tol 1e-4)",
    )


def test_criterion_05_asymptotics():
    p = BParam(0.83)
    reports = [check_asymptotics(p.Q / 2, T, p, tolerance=1e-6) for T in (8.0, 10.0, 14.0)]
    worst = max(r.rel_error for r in reports)
    _emit(
        "criterion 5 asymptotics",
        all(r.passed for r in reports),
        f"b = 0.83, T >= 8: max deviation {worst:.2e} (tol 1e-6)",
    )


def test_criterion_06_tau_binomial():
    reports = [
        r
        for r in integrals_suite(b=0.7, tau_binomial_b_values=(1.2,), tolerance=1e-6)
        if r.identity_id == "tau_binomial"
    ]
    worst = max(r.rel_error for r in reports)
    slowest = max(r.wall_time for r in reports)
    ok = (
        len(reports) >= 6
        and all(r.passed for r in reports)
        and slowest <= 10.0
    )
    _emit(
        "criterion 6 tau-binomial integral",
        ok,
        f"{len(reports)} runs (3 sets x 2 b): max rel err {worst:.2e} "
        f"(tol 1e-6), slowest {slowest:.1f}s (budget 10s)",
    )


def test_criterion_07_four_five_and_six_nine():
    reports = [
        r
        for r in integrals_suite(b=0.83, tolerance=1e-6)
        if r.identity_id in ("four_five", "six_nine")
    ]
    by_id = {i: [r for r in reports if r.identity_id == i] for i in ("four_five", "six_nine")}
    worst = max(r.rel_error for r in reports)
    slowest = max(r.wall_time for r in reports)
    ok = (
        all(len(v) >= 3 for v in by_id.values())
        and all(r.passed for r in reports)
        and slowest <= 30.0
    )
    _emit(
        "criterion 7 four-five and six-nine integrals",
        ok,
        f"3 sets each: max rel err {worst:.2e} (tol 1e-6), slowest "
        f"{slowest:.1f}s (budget 30s)",
    )


def test_criterion_08_kac_identity():
    start = time.perf_counter()
    reports = [verify_kac(N, M) for N in range(5) for M in range(5)]
    wall = time.perf_counter() - start
    ok = all(r.passed for r in reports) and wall <= 10.0
    _emit(
        "criterion 8 Kac identity",
        ok,
        f"exact for all 0 <= N, M <= 4 ({len(reports)} cases), {wall:.1f}s "
        "(budget 10s)",
    )


def test_criterion_09_mixed_commutators():
    reports = [verify_mixed_commutators(m) for m in range(1, 5)]
    _emit(
        "criterion 9 mixed commutators",
        all(r.passed for r in reports),
        "exact for m <= 4, both orientations",
    )


def test_criterion_10_serre_sums():
    reports = [
        verify_serre_sum(N, M) for N in range(6) for M in range(6 - N)
    ]
    preset = sl3_preset()
    E1, E2 = NCPoly.gen(preset, "E1"), NCPoly.gen(preset, "E2")
    q, qi = qpow(1), qpow(-1)
    serre = (E1**2 * E2 - (q + qi) * (E1 * E2 * E1) + E2 * E1**2).normal_order()
    ok = all(r.passed for r in reports) and serre.is_zero()
    _emit(
        "criterion 10 Serre-sum identities",
        ok,
        f"exact for all N + M <= 5 ({len(reports)} cases, E and F families); "
        "q-Serre normal-orders to zero",
    )


def test_criterion_11_qbinomial():
    reports = [verify_qbinomial(N) for N in range(7)]
    _emit(
        "criterion 11 q-binomial theorem",
        all(r.passed for r in reports),
        "exact for N <= 6 on the q-Weyl pair",
    )


def test_criterion_12_coproduct():
    rep = verify_coproduct_hom()
    commuting = verify_commuting_cases()
    _emit(
        "criterion 12 coproduct homomorphism + coassociativity",
        rep.passed and commuting.passed,
        "all defining relations map to zero in the tensor square; "
        "coassociativity exact on generators (rank 1 and rank 2)",
    )


def test_criterion_13_representation_suite():
    start = time.perf_counter()
    p = OmegaParams(0.83, 1.0 / 0.83)
    reports = []
    for N in (2, 3):
        reports.extend(verify_all(N, p, trials=20, seed=42, tolerance=1e-8))
    wall = time.perf_counter() - start
    worst = max(r.rel_error for r in reports)
    ok = all(r.passed for r in reports) and wall <= 300.0
    _emit(
        "criterion 13 representation relations",
        ok,
        f"{len(reports)} relation checks at N = 2, 3, 20 samples each: max "
        f"rel err {worst:.2e} (tol 1e-8), {wall:.1f}s (budget 300s)",
    )


def test_criterion_14_determinism(tmp_path):
    import io

    from mdlab.cli import EXIT_OK, RunConfig, run

    payloads = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        cfg = RunConfig(
            suites=["qdilog", "representation"], gl_rank=2, trials=5, seed=42,
            report_path=str(path),
        )
        assert run(cfg, out=io.StringIO()) == EXIT_OK
        payloads.append(json.loads(path.read_text()))
    numeric = [
        [(c["identity_id"], c["rel_error"], c["passed"]) for c in p["checks"]]
        for p in payloads
    ]
    _emit(
        "criterion 14 determinism",
        numeric[0] == numeric[1],
        "two runs with identical config and seed produce identical numeric reports",
    )
