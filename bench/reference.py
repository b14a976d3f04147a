"""Independent high-precision reference for the quantum dilogarithm G_b.

Inside the strip 0 < Re z < Q the defining integral

    G_b(z) = conj(zeta_b) * exp(-I(z)),
    I(z) = integral over R + i*eps of e^{z t} / (t (1 - e^{b t})(1 - e^{t/b})) dt,

is evaluated with mpmath's tanh-sinh quadrature at 30 significant digits, on
a contour at eps = pi*min(b, 1/b), halfway between the singularity at t = 0
and the first pole above it.  Points outside the strip are walked into the
middle half of the strip with steps of min(b, 1/b) using the shift equation
G_b(z + s) = (1 - e^{2 pi i s z}) G_b(z), s in {b, 1/b}.  Nothing here
imports the program under test.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 30


def gb_reference(z: complex, b: float) -> complex:
    """G_b(z) to about 30 digits, rounded to a Python complex at the end."""
    with mp.workdps(DIGITS):
        bb = mp.mpf(b)
        Q = bb + 1 / bb
        s = min(bb, 1 / bb)
        x = mp.mpc(z)
        mult = mp.mpc(1)
        # G(x) = G(x - s) * (1 - e^{2 pi i s (x - s)})
        while x.real > 0.75 * Q:
            x -= s
            mult *= 1 - mp.exp(2j * mp.pi * s * x)
        # G(x) = G(x + s) / (1 - e^{2 pi i s x})
        while x.real < 0.25 * Q:
            mult /= 1 - mp.exp(2j * mp.pi * s * x)
            x += s
        eps = mp.pi * s
        zeta = mp.exp(1j * mp.pi / 4 + 1j * mp.pi * (bb**2 + bb**-2) / 12)

        def integrand(u):
            t = mp.mpc(u, eps)
            return mp.exp(x * t) / (t * (1 - mp.exp(bb * t)) * (1 - mp.exp(t / bb)))

        integral = mp.quad(integrand, [-mp.inf, -4, 0, 4, mp.inf])
        return complex(mult * mp.conj(zeta) * mp.exp(-integral))


def self_check(b: float) -> float:
    """Relative deviation of the reference from the exact value G_b(b) = -i*b."""
    return abs(gb_reference(b, b) - (-1j * b)) / b
