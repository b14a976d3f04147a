import cmath
import math
import re
import warnings

import pytest

from mdlab.params import BParam, OmegaParams


def test_derived_constants():
    p = BParam(0.83)
    assert p.Q == pytest.approx(0.83 + 1 / 0.83)
    assert p.q == pytest.approx(cmath.exp(1j * math.pi * 0.83**2))
    assert p.qtilde == pytest.approx(cmath.exp(1j * math.pi / 0.83**2))
    assert abs(p.q) == pytest.approx(1.0)
    assert abs(p.zeta_b) == pytest.approx(1.0)
    assert (p.omega1, p.omega2) == (0.83, 1 / 0.83)


def test_invalid_b():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            BParam(bad)


def test_b_whose_square_leaves_double_range():
    # b^2 or b^-2 overflows or underflows: rejected by name, not with a
    # "math domain error" or ZeroDivisionError from q or zeta_b.
    for b in (1e200, 1e-200, 1e154, 1e-154, 5e-324):
        with pytest.raises(ValueError, match=re.escape(f"b = {b!r}: b^2 or b^-2 overflows")):
            BParam(b)
    for b in (1e153, 1e-153):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert abs(BParam(b).zeta_b) == pytest.approx(1.0)


def test_degenerate_b_warns():
    with pytest.warns(RuntimeWarning):
        BParam(1.0)  # b^2 = 1: q^2 = 1 exactly
    # b and 1/b swap q and qtilde, so both of each pair warn: q^2 = 1 at
    # b = 5 and 4, qtilde^2 = 1 at b = 0.2 and 0.25.
    for b in (0.2, 5.0, 0.25, 4.0):
        with pytest.warns(RuntimeWarning, match="nearly degenerate"):
            BParam(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        BParam(0.83)  # fine


def test_omega_params():
    p = OmegaParams(0.83, 1 / 0.83)
    b = BParam(0.83)
    assert p.q == pytest.approx(b.q)
    assert p.qtilde == pytest.approx(b.qtilde)
    assert OmegaParams.from_b(0.83) == p


def test_omega_near_rational_warns():
    with pytest.warns(RuntimeWarning):
        OmegaParams(1.0, 2.0)
    for bad in ((-1.0, 1.0), (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="positive finite"):
            OmegaParams(*bad)
