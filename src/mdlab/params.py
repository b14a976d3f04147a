"""Deformation parameters shared by every module.

The single positive real ``b`` determines the whole constellation of
constants used throughout: the strip width Q = b + 1/b, the unit-modulus
deformation parameters q and q-tilde, and the phase constant zeta_b that
normalizes the quantum dilogarithm.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field


def check_b(b: float) -> None:
    """ValueError unless b is positive and finite and pi*b^2 and pi/b^2 are
    finite doubles, so that q, qtilde and zeta_b can be formed (about
    1e-154 < b < 1e154)."""
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"b must be a positive finite real, got {b}")
    b2 = b * b
    if not (b2 > 0 and math.isfinite(math.pi * b2) and math.isfinite(math.pi / b2)):
        raise ValueError(f"b = {b}: b^2 or b^-2 overflows or underflows double precision")


@dataclass(frozen=True)
class BParam:
    """Deformation datum ``b`` with its derived constants.

    Attributes
    ----------
    b : positive real deformation parameter.
    Q : b + 1/b.
    q : exp(pi*i*b^2), unit modulus.
    qtilde : exp(pi*i*b^-2), unit modulus.
    zeta_b : exp(pi*i/4 + pi*i*(b^2 + b^-2)/12), unit modulus.
    omega1, omega2 : the (b, 1/b) period pair.
    """

    b: float
    Q: float = field(init=False)
    q: complex = field(init=False)
    qtilde: complex = field(init=False)
    zeta_b: complex = field(init=False)
    omega1: float = field(init=False)
    omega2: float = field(init=False)

    def __post_init__(self) -> None:
        check_b(self.b)
        b = self.b
        object.__setattr__(self, "Q", b + 1.0 / b)
        object.__setattr__(self, "q", cmath.exp(1j * math.pi * b * b))
        object.__setattr__(self, "qtilde", cmath.exp(1j * math.pi / (b * b)))
        object.__setattr__(
            self,
            "zeta_b",
            cmath.exp(1j * math.pi / 4 + 1j * math.pi * (b * b + b ** -2) / 12.0),
        )
        object.__setattr__(self, "omega1", b)
        object.__setattr__(self, "omega2", 1.0 / b)
        self._warn_if_near_degenerate()

    def _warn_if_near_degenerate(self) -> None:
        # Denominators like 1 - q^{2k} and 1 - qtilde^{2k} blow up when b^2 or
        # b^-2 is close to a rational with a small denominator; numerics
        # degrade quantitatively there.
        for k in range(1, 9):
            for name, x in (("q", self.q), ("qtilde", self.qtilde)):
                if abs(x ** (2 * k) - 1.0) < 1e-6:
                    warnings.warn(
                        f"b={self.b} is nearly degenerate: |{name}^{2 * k} - 1| "
                        "< 1e-6; identity denominators may blow up",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    return


@dataclass(frozen=True)
class OmegaParams:
    """Two-period parametrization used by the representation checks.

    ``q = exp(pi*i*omega1/omega2)`` and ``qtilde = exp(pi*i*omega2/omega1)``;
    setting omega1 = b, omega2 = 1/b recovers :class:`BParam`'s pair.
    """

    omega1: float
    omega2: float
    q: complex = field(init=False)
    qtilde: complex = field(init=False)

    def __post_init__(self) -> None:
        if not (0 < self.omega1 < math.inf and 0 < self.omega2 < math.inf):
            raise ValueError(
                f"omega1 and omega2 must be positive finite reals, got "
                f"{self.omega1} and {self.omega2}"
            )
        ratio = self.omega1 / self.omega2
        for den in range(1, 7):
            if abs(ratio * den - round(ratio * den)) < 1e-3 * den:
                warnings.warn(
                    f"omega1/omega2={ratio} is within 1e-3 of a rational with "
                    f"denominator {den}; relations may be ill-conditioned",
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
        object.__setattr__(self, "q", cmath.exp(1j * math.pi * ratio))
        object.__setattr__(self, "qtilde", cmath.exp(1j * math.pi / ratio))

    @classmethod
    def from_b(cls, b: float) -> "OmegaParams":
        return cls(omega1=b, omega2=1.0 / b)
