"""Shared helpers: random instance sampling and independent oracles."""

import math

import numpy as np

from spincollapse.bloch import (
    Axis,
    SpinState,
    axis_to_bloch,
    canonicalize_axis,
    state_to_bloch,
)
from spincollapse.contour import _runs


def random_instance(rng) -> tuple[Axis, SpinState]:
    """A uniformly drawn (axis, state) pair on the chart / parameter box."""
    theta = rng.uniform(0.0, math.pi)
    phi = rng.uniform(0.0, math.pi)
    rho = rng.uniform(0.0, 1.0)
    tau = rng.uniform(0.0, 2.0 * math.pi)
    return canonicalize_axis(theta, phi), SpinState(rho, tau)


def missed_rows(a, b, c, level: float) -> int:
    """How many (run, row) split ranks of marching_squares' field b[i] *
    c[j] + a[i] the analytic lookup misses: on each monotone run of c, taken
    in ascending order, the searchsorted rank of (level - a[i]) / b[i] is
    not the first rank whose node value is >= level.  Flat rows (b == 0)
    are not counted: marching_squares sets their split from the sign of
    a[i] - level, whatever the lookup gives."""
    rows = b != 0.0
    ar, br = a[rows], b[rows]
    count = 0
    for s, e, rising in _runs(c):
        v = c[s:e + 1] if rising else c[s:e + 1][::-1]
        true = br[:, None] * v + ar[:, None] >= level
        first = np.where(true[:, -1], true.argmax(axis=1), v.size)
        count += int((np.searchsorted(v, (level - ar) / br) != first).sum())
    return count


def is_nondegenerate(axis: Axis, state: SpinState) -> bool:
    """Reject instances near a status or selection boundary.

    The grid and closed-form routes are only required to agree away from
    configuration boundaries: near-trivial alignments, axes whose Bloch line
    grazes the chart edge, constraint circles tangent to the chart, and
    reflections landing on the chart seam all make the answer discontinuous
    in the inputs.
    """
    m = state_to_bloch(state)
    ni = axis_to_bloch(axis)
    c = ni[0] * m[0] + ni[1] * m[1] + ni[2] * m[2]
    if not 2e-3 < abs(c) < 0.95:
        return False
    if ni[1] <= 1e-3:
        return False
    root = math.sqrt(max(0.0, 1.0 - c * c))
    flip_max_y = -c * m[1] + root * math.sqrt(max(0.0, 1.0 - m[1] * m[1]))
    if abs(flip_max_y) <= 1e-3:
        return False
    nstar_y = ni[1] - 2.0 * c * m[1]
    if abs(nstar_y) <= 1e-3:
        return False
    return True


def nondegenerate_instances(seed: int, count: int) -> list[tuple[Axis, SpinState]]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        axis, state = random_instance(rng)
        if is_nondegenerate(axis, state):
            out.append((axis, state))
    return out


# unfiltered random_instance draws, labelled seed:index, as canonical
# (theta_i, phi_i, rho, tau), with n_i . y below 4.2e-4: -n_i lies on the
# flip circle just outside the chart, so near the chart edge that circle's
# eigenbasis entropy falls below EPS_Z without an extremum there.  The
# closed form answers Normal; a grid route that dropped a component for a
# zero-entropy vertex, not only for a zero-entropy extremum, answered
# DeathPoint at grid 256.
CHART_EDGE_INSTANCES = {
    "7:508": (0.043413424832707624, 3.132103939355464, 0.3129719864579231,
              3.2031040148764776),
    "7:1305": (0.07712226787812006, 3.139138025150323, 0.16735997550323256,
               3.6563271293912765),
    "7:2136": (2.9270270024213456, 0.00027042844286413183, 0.6363615377189471,
               5.81496974426366),
    "8:350": (0.9604632586170488, 0.0004261196109332289, 0.854286743678968,
              2.6258309122938326),
    "8:830": (0.006162400221587475, 0.022684882514749122, 0.47112515409435674,
              0.48977491978485876),
    "9:1114": (3.1401661393753684, 3.053728220543473, 0.7370752758191688,
               0.9272983704069069),
    "9:1468": (0.0010656435203375482, 0.016614872156843753,
               0.40237552676797195, 0.30650440593243783),
    "9:2062": (3.1409167709307124, 0.4493901503997025, 0.49528991893165963,
               0.3297887598609694),
    "9:2072": (0.29617160283798416, 3.1405843458540463, 0.6002376946495147,
               6.077876852458576),
    "9:2534": (3.033832732049182, 0.0012202625398644727, 0.6694173375483358,
               0.9996476704264734),
    "9:2971": (2.978778295067336, 0.0002119655162018641, 0.9506481131631465,
               6.030584121019879),
}


# unfiltered draws, labelled seed:index, as canonical (theta_i, phi_i, rho,
# tau), on which the grid route at grid 256 disagreed with the closed form
# through a defect of its refinement, not a configuration boundary: on
# these small circles (rho near 0 or 1) a bracket search for the level
# found no bracket and left probes off it.  "9:2263" is random_instance's
# rng 9 draw; the others are perfbench grid_corpus draws at seeds 11, 21
# and 22, "corpus11:6577" a Normal/DeathPoint split.
REFINEMENT_GAP_INSTANCES = {
    "9:2263": (3.084757656086319, 0.1333947071119043, 0.0011539476032513818,
               5.9801397702181625),
    "corpus11:6577": (0.1301650507804196, 2.9134884117243125,
                      0.9953618477915331, 2.8918396429077036),
    "corpus21:5747": (3.1386561417338483, 2.8805310933352217,
                      0.008517896053133689, 1.203624684553796),
    "corpus22:3744": (3.126376846631001, 1.5521533096191549,
                      0.0036687152312276927, 3.1171751647064365),
}


def eigvec_overlap_oracle(axis: Axis, state: SpinState) -> float:
    """Independent |<up_f|psi>|^2 oracle from raw complex-vector arithmetic."""
    up = np.array([math.cos(axis.theta / 2.0) * np.exp(-1j * axis.phi),
                   math.sin(axis.theta / 2.0)])
    psi = np.array([math.sqrt(state.rho) * np.exp(-1j * state.tau),
                    math.sqrt(1.0 - state.rho)])
    return float(abs(np.vdot(up, psi)) ** 2)
