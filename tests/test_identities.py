import math

import pytest

from mdlab.identities import (
    ContourPlacementError,
    four_five_window,
    six_nine_window,
    tau_binomial_window,
    verify_45,
    verify_69,
    verify_tau_binomial,
)
from mdlab.params import BParam
from mdlab.report import CheckReport
from mdlab.suites import integrals_suite

P = BParam(0.83)


def test_tau_binomial_passes():
    rep = verify_tau_binomial(0.3 * P.Q, 0.3 * P.Q, P)
    assert rep.passed and rep.rel_error < 1e-10


def test_tau_binomial_contour_shift_invariance():
    low, high = tau_binomial_window(complex(0.3 * P.Q), P)
    mid = 0.5 * (low + high)
    vals = []
    for frac in (0.35, 0.5, 0.65):
        off = low + frac * (high - low)
        rep = verify_tau_binomial(0.3 * P.Q, 0.3 * P.Q, P, offset=off)
        vals.append(rep.lhs)
        assert rep.passed
    for v in vals[1:]:
        assert abs(v - vals[0]) / abs(vals[0]) < 1e-8


def test_tau_binomial_complex_parameters():
    rep = verify_tau_binomial(0.3 * P.Q + 0.05j, 0.25 * P.Q - 0.04j, P)
    assert rep.passed


def test_tau_binomial_preconditions():
    with pytest.raises(ValueError):
        verify_tau_binomial(-0.1, 0.3, P)
    with pytest.raises(ValueError):
        verify_tau_binomial(0.6 * P.Q, 0.6 * P.Q, P)


def test_four_five_passes():
    rep = verify_45(0.25 * P.Q, 0.25 * P.Q, 0.25 * P.Q, P)
    assert rep.passed and rep.rel_error < 1e-10


def test_four_five_offset_invariance():
    low, high = four_five_window(complex(0.25 * P.Q), complex(0.25 * P.Q), P)
    reps = [
        verify_45(0.25 * P.Q, 0.25 * P.Q, 0.25 * P.Q, P,
                  offset=low + f * (high - low))
        for f in (0.4, 0.6)
    ]
    assert all(r.passed for r in reps)
    assert abs(reps[0].lhs - reps[1].lhs) / abs(reps[0].lhs) < 1e-8


def test_four_five_preconditions():
    with pytest.raises(ValueError):
        verify_45(0.4 * P.Q, 0.4 * P.Q, 0.4 * P.Q, P)


def test_six_nine_passes():
    rep = verify_69(0.2 * P.Q, 0.2 * P.Q, 0.2 * P.Q, 0.2 * P.Q, P)
    assert rep.passed and rep.rel_error < 1e-10


def test_six_nine_window_closes():
    # Re(A+B+C+D) > Q + min(A,B,C) leaves no admissible line.
    A = B = C = 0.12 * P.Q
    D = P.Q
    low, high = six_nine_window(complex(A), complex(B), complex(C), complex(D), P)
    assert low >= high
    with pytest.raises(ContourPlacementError):
        verify_69(A, B, C, D, P)


# Each identity with the parameters of its *_passes test and its window.
PLACEMENT_CASES = {
    "tau_binomial": (
        lambda **kw: verify_tau_binomial(0.3 * P.Q, 0.3 * P.Q, P, **kw),
        lambda: tau_binomial_window(complex(0.3 * P.Q), P),
    ),
    "four_five": (
        lambda **kw: verify_45(0.25 * P.Q, 0.25 * P.Q, 0.25 * P.Q, P, **kw),
        lambda: four_five_window(complex(0.25 * P.Q), complex(0.25 * P.Q), P),
    ),
    "six_nine": (
        lambda **kw: verify_69(0.2 * P.Q, 0.2 * P.Q, 0.2 * P.Q, 0.2 * P.Q, P, **kw),
        lambda: six_nine_window(*(complex(0.2 * P.Q),) * 4, P),
    ),
}


@pytest.mark.parametrize("identity", sorted(PLACEMENT_CASES))
@pytest.mark.parametrize("fraction", [-0.25, 1.25, 0.03, 0.97])
def test_offset_outside_placement_margin_raises(identity, fraction):
    # Outside the window, or inside it within 5% of its width of an end.
    verify, window = PLACEMENT_CASES[identity]
    low, high = window()
    with pytest.raises(ContourPlacementError):
        verify(offset=low + fraction * (high - low))


@pytest.mark.parametrize("identity", sorted(PLACEMENT_CASES))
def test_offset_inside_placement_margin_passes(identity):
    verify, window = PLACEMENT_CASES[identity]
    low, high = window()
    for fraction in (0.3, 0.7):
        rep = verify(offset=low + fraction * (high - low))
        assert rep.passed and rep.params["offset"] == low + fraction * (high - low)
    rep = verify()
    assert rep.passed and rep.params["offset"] == 0.5 * (low + high)


def test_other_b_values():
    for b in (0.7, 1.2):
        p = BParam(b)
        assert verify_tau_binomial(0.3 * p.Q, 0.3 * p.Q, p).passed
        assert verify_45(0.2 * p.Q, 0.3 * p.Q, 0.2 * p.Q, p).passed
        assert verify_69(0.2 * p.Q, 0.22 * p.Q, 0.18 * p.Q, 0.2 * p.Q, p).passed


def test_report_fields():
    rep = verify_tau_binomial(0.3 * P.Q, 0.3 * P.Q, P)
    d = rep.to_dict()
    assert d["identity_id"] == "tau_binomial"
    assert {"alpha", "beta", "b", "offset"} <= set(d["params"])
    assert d["passed"] is True
    for rel, tol, passed in ((1e-8, 1e-8, True), (math.nextafter(1e-8, 1.0), 1e-8, False),
                             (math.nan, 1e-8, False), (math.inf, 1e-8, False),
                             (0.0, 0.0, True), (1.0, 0.0, False)):
        rep = CheckReport("x", rel_error=rel, tolerance=tol)
        assert rep.passed is passed and rep.to_dict()["passed"] is passed
    assert (rep.lhs, rep.rhs) == (0.0, 0.0)
    with pytest.raises(TypeError):
        CheckReport("x", passed=True)


def test_integrals_suite_accuracy():
    # Every contour identity of the default suite agrees with its closed form
    # far inside the 1e-6 verdict tolerance (worst case about 6e-14).
    reports = integrals_suite()
    assert len(reports) == 15
    assert max(r.rel_error for r in reports) <= 1e-12
