"""Spin-1/2 geometry: measurement axes, states, eigenvectors and overlaps.

A measurement axis lives on the restricted chart [0, pi) x [0, pi): antipodal
directions describe the same measurement up to exchanging the up/down labels,
so every direction has a unique chart representative.  States are parametrized
by (rho, tau) with rho the weight of the first amplitude and tau its phase.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from ._values import Value

TWO_PI = 2.0 * math.pi


class Axis(Value, namedtuple("Axis", ("theta", "phi", "labels_swapped"))):
    """A measurement axis on the restricted chart.

    theta, phi are radians in [0, pi).  labels_swapped is True when
    canonicalization applied the antipodal map, which exchanges the
    up/down eigenvector labels.
    """

    __slots__ = ()

    def __new__(cls, theta: float, phi: float, labels_swapped: bool = False):
        if not (0.0 <= theta < math.pi):
            raise ValueError(f"theta out of chart: {theta}")
        if not (0.0 <= phi < math.pi):
            raise ValueError(f"phi out of chart: {phi}")
        if theta == 0.0 and phi != 0.0:
            raise ValueError("pole convention: theta=0 requires phi=0")
        return tuple.__new__(cls, (theta, phi, labels_swapped))


class SpinState(Value, namedtuple("SpinState", ("rho", "tau"))):
    """A pure spin state (sqrt(rho) e^{-i tau}, sqrt(1-rho))."""

    __slots__ = ()

    def __new__(cls, rho: float, tau: float):
        if not (0.0 <= rho <= 1.0):
            raise ValueError(f"rho out of [0,1]: {rho}")
        if not (0.0 <= tau < TWO_PI):
            raise ValueError(f"tau out of [0, 2pi): {tau}")
        if rho in (0.0, 1.0) and tau != 0.0:
            raise ValueError("canonical phase: rho in {0,1} requires tau=0")
        return tuple.__new__(cls, (rho, tau))


def canonicalize_axis(theta_raw: float, phi_raw: float) -> Axis:
    """Reduce raw spherical angles to the chart [0, pi) x [0, pi).

    theta is first brought into [0, pi] (mod 2pi, folding theta > pi onto
    2pi - theta with phi + pi, the same direction), then the antipodal map
    (theta, phi) -> (pi - theta, phi + pi), which swaps the up/down labels,
    is applied while the axis is off the chart: theta == pi, or phi >= pi
    away from the pole.  At the pole phi is 0.
    """
    if not (math.isfinite(theta_raw) and math.isfinite(phi_raw)):
        raise ValueError("non-finite axis angles")

    theta = theta_raw % TWO_PI
    phi = phi_raw % TWO_PI
    if phi == TWO_PI:  # a tiny negative phi_raw; 0 keeps theta's bits
        phi = 0.0
    if theta > math.pi:
        theta = TWO_PI - theta
        phi = (phi + math.pi) % TWO_PI
    # At most two folds.  theta == pi folds onto the pole, where the loop
    # stops.  theta in (0, pi) with phi >= pi folds to theta in (0, pi] and
    # phi in [0, pi], since phi + pi can round up to pi past 2pi.  A second
    # fold then ends on the pole, or at theta in (0, pi) (one of the two
    # subtractions from pi is exact) with phi + pi >= 2pi reduced below pi.
    # Two folds are the identity on the line, so off the pole the theta
    # before them is kept: pi - (pi - theta) can round one ulp off it.
    theta_in, folds = theta, 0
    while theta != 0.0 and (theta == math.pi or phi >= math.pi):
        theta = math.pi - theta
        phi = (phi + math.pi) % TWO_PI
        folds += 1
    if theta == 0.0:
        phi = 0.0
    elif folds == 2:
        theta = theta_in
    return Axis(theta, phi, folds == 1)


def axis_to_bloch(a: Axis) -> tuple[float, float, float]:
    """Unit Bloch vector (sin t cos p, sin t sin p, cos t) of an axis."""
    st = math.sin(a.theta)
    return (st * math.cos(a.phi), st * math.sin(a.phi), math.cos(a.theta))


def eigenvectors(a: Axis) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Orthonormal (up, down) eigenvectors of the spin operator along a."""
    half = a.theta / 2.0
    ph = cmath.exp(-1j * a.phi)
    up = (math.cos(half) * ph, complex(math.sin(half)))
    down = (-math.sin(half) * ph, complex(math.cos(half)))
    return up, down


def spin_operator(a: Axis) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """2x2 hermitian spin-projection operator for the axis (trace 0, det -1)."""
    ct, st = math.cos(a.theta), math.sin(a.theta)
    ph = cmath.exp(1j * a.phi)
    return ((complex(ct), st / ph), (st * ph, complex(-ct)))


def state_to_bloch(s: SpinState) -> tuple[float, float, float]:
    """Unit Bloch vector of a state: (2r cos tau, 2r sin tau, 2 rho - 1)."""
    r = math.sqrt(s.rho * (1.0 - s.rho))
    return (2.0 * r * math.cos(s.tau), 2.0 * r * math.sin(s.tau), 2.0 * s.rho - 1.0)


def overlap_terms(theta: float, phi: float, rho: float, tau: float) -> tuple:
    """(n, m, c, p) of raw, possibly off-chart angles: the axis and state
    Bloch vectors, c = n . m and the up overlap p = (1 + c) / 2 clamped to
    [0, 1].  The one copy of the instance arithmetic, which both solver
    routes, the trace and up_overlap_prob read; it repeats axis_to_bloch's
    and state_to_bloch's formulas rather than calling them, which would
    add two calls to every closed-form solve."""
    r = math.sqrt(rho * (1.0 - rho))
    m0, m1, m2 = (2.0 * r * math.cos(tau), 2.0 * r * math.sin(tau),
                  2.0 * rho - 1.0)
    st = math.sin(theta)
    n0, n1, n2 = st * math.cos(phi), st * math.sin(phi), math.cos(theta)
    c = n0 * m0 + n1 * m1 + n2 * m2
    return (n0, n1, n2), (m0, m1, m2), c, min(1.0, max(0.0, 0.5 * (1.0 + c)))


def overlap_from_angles(theta: float, phi: float, rho: float, tau: float) -> float:
    """|<up(theta,phi)|state(rho,tau)>|^2 in [0, 1] for raw, possibly
    off-chart angles: overlap_terms' p."""
    return overlap_terms(theta, phi, rho, tau)[3]


def up_overlap_prob(a: Axis, s: SpinState) -> float:
    """Probability of the up outcome when measuring state s along axis a."""
    return overlap_terms(a.theta, a.phi, s.rho, s.tau)[3]


def axes_up_overlap(f: Axis, i: Axis) -> float:
    """|<up_f|up_i>|^2, equal to (1 + n_f . n_i)/2 for the Bloch vectors."""
    nf = axis_to_bloch(f)
    ni = axis_to_bloch(i)
    dot = nf[0] * ni[0] + nf[1] * ni[1] + nf[2] * ni[2]
    return min(1.0, max(0.0, 0.5 * (1.0 + dot)))


def eigenstate_as_state(a: Axis, outcome: int) -> SpinState:
    """The up (outcome=1) or down (outcome=0) eigenstate of a as a SpinState.

    Phase is canonicalized so the second amplitude is real non-negative.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    half = a.theta / 2.0
    if outcome == 1:
        rho = math.cos(half) ** 2
        tau = a.phi
    else:
        rho = math.sin(half) ** 2
        tau = (a.phi + math.pi) % TWO_PI
    if rho <= 0.0 or rho >= 1.0:
        rho = min(1.0, max(0.0, rho))
        tau = 0.0
    return SpinState(rho, tau)


def bloch_to_axis_angles(n: tuple[float, float, float]) -> tuple[float, float]:
    """Raw spherical angles of a unit vector (no chart reduction); theta is
    atan2(hypot(x, y), z), exact to rounding at the poles as acos(z) is
    not."""
    x, y, z = n
    theta = math.atan2(math.hypot(x, y), z)
    phi = math.atan2(y, x) % TWO_PI
    if theta == 0.0 or theta == math.pi:
        phi = 0.0
    return theta, phi
