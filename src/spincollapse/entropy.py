"""Binary entropy in nats and the three decoherence entropies of a collapse."""

from __future__ import annotations

import math

from .bloch import Axis, SpinState, axes_up_overlap, up_overlap_prob

LN2 = math.log(2.0)
# bisection width: far above an ulp of [0, 1/2], so no midpoint meets an end
_BISECT_TOL = 1e-12


def binary_entropy(p: float) -> float:
    """f(p) = -p ln p - (1-p) ln(1-p), continuously extended with f(0)=f(1)=0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of [0,1]: {p}")
    q = 1.0 - p
    # continuous extension; below 1e-300 the log would overflow anyway
    term_p = 0.0 if p < 1e-300 else -p * math.log(p)
    term_q = 0.0 if q < 1e-300 else -q * math.log(q)
    return term_p + term_q


def entropy_pair_solutions(s: float) -> tuple[float, float]:
    """The two solutions (p, 1-p) of f(p) = s, with p <= 1/2.

    Bisection on [0, 1/2]; f is strictly increasing there.  It stops when
    the bracket is at most 1e-12 wide.
    """
    if not 0.0 <= s <= LN2 + 1e-12:
        raise ValueError(f"entropy out of [0, ln 2]: {s}")
    if s >= LN2:
        return 0.5, 0.5
    if s <= 0.0:
        return 0.0, 1.0
    lo, hi = 0.0, 0.5
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < s:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    return p, 1.0 - p


def collapse_entropies(i: Axis, f: Axis, s: SpinState) -> tuple[float, float, float]:
    """(S_i, S_f, S_up): entropies of the initial/final axis overlaps with the
    state, and of the overlap between the two eigenbases."""
    s_i = binary_entropy(up_overlap_prob(i, s))
    s_f = binary_entropy(up_overlap_prob(f, s))
    s_up = binary_entropy(axes_up_overlap(f, i))
    return s_i, s_f, s_up
