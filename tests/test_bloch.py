"""Geometry layer: chart canonicalization, Bloch vectors, eigenvectors,
overlap probabilities.  Eq.-level values are cross-checked against a raw
complex-vector oracle built independently of the library code."""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincollapse.bloch import (
    Axis,
    SpinState,
    axes_up_overlap,
    axis_to_bloch,
    bloch_to_axis_angles,
    canonicalize_axis,
    eigenstate_as_state,
    eigenvectors,
    overlap_from_angles,
    overlap_terms,
    spin_operator,
    state_to_bloch,
    up_overlap_prob,
)

from conftest import eigvec_overlap_oracle

PI = math.pi

finite_angle = st.floats(min_value=-50.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)
chart_theta = st.floats(min_value=1e-6, max_value=PI - 1e-6)
chart_phi = st.floats(min_value=0.0, max_value=PI - 1e-9)
prob = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
phase = st.floats(min_value=0.0, max_value=2.0 * PI - 1e-9)
# chart angles, edges included, or raw ones, off the chart
chart_or_raw = st.one_of(st.floats(min_value=0.0, max_value=PI), finite_angle)


class TestAxis:
    def test_chart_invariants(self):
        a = Axis(PI / 4, PI / 2)
        assert a.theta == PI / 4 and a.phi == PI / 2
        assert not a.labels_swapped

    def test_rejects_out_of_chart(self):
        with pytest.raises(ValueError):
            Axis(PI, 0.5)
        with pytest.raises(ValueError):
            Axis(0.5, -0.1)
        with pytest.raises(ValueError):
            Axis(0.5, PI)

    def test_pole_convention_enforced(self):
        with pytest.raises(ValueError):
            Axis(0.0, 0.3)
        assert Axis(0.0, 0.0).phi == 0.0


class TestCanonicalize:
    def test_identity_on_chart(self):
        a = canonicalize_axis(PI / 4, PI / 2)
        assert a.theta == pytest.approx(PI / 4, abs=1e-15)
        assert a.phi == pytest.approx(PI / 2, abs=1e-15)
        assert not a.labels_swapped

    def test_antipodal_map(self):
        a = canonicalize_axis(3 * PI / 4, 3 * PI / 2)
        assert a.theta == pytest.approx(PI / 4, abs=1e-12)
        assert a.phi == pytest.approx(PI / 2, abs=1e-12)
        assert a.labels_swapped

    def test_pole_forgets_phi(self):
        a = canonicalize_axis(0.0, 2.1)
        assert (a.theta, a.phi) == (0.0, 0.0)
        assert not a.labels_swapped

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonicalize_axis(float("nan"), 0.0)
        with pytest.raises(ValueError):
            canonicalize_axis(0.0, float("inf"))

    @given(chart_theta, chart_phi)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, theta, phi):
        a = canonicalize_axis(theta, phi)
        b = canonicalize_axis(a.theta, a.phi)
        assert b.theta == pytest.approx(a.theta, abs=1e-12)
        assert b.phi == pytest.approx(a.phi, abs=1e-12)

    @given(chart_theta, chart_phi)
    @settings(max_examples=200, deadline=None)
    def test_antipodal_raw_angles_canonicalize_back(self, theta, phi):
        a = canonicalize_axis(theta, phi)
        b = canonicalize_axis(PI - a.theta, a.phi + PI)
        assert b.theta == pytest.approx(a.theta, abs=1e-12)
        assert b.phi == pytest.approx(a.phi, abs=1e-12)
        assert b.labels_swapped

    @given(finite_angle, finite_angle)
    @settings(max_examples=300, deadline=None)
    def test_canonical_image_keeps_the_bloch_line(self, theta, phi):
        a = canonicalize_axis(theta, phi)
        n_raw = np.array([math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi),
                          math.cos(theta)])
        n_can = np.array(axis_to_bloch(a))
        # same line through the origin: cross product vanishes
        assert np.linalg.norm(np.cross(n_raw, n_can)) < 1e-9


def adversarial_angles() -> np.ndarray:
    """Every float within 40 ulps of 0 and of the multiples +-pi/2 ... +-4pi
    where a fold or a mod-2pi reduction can round onto its bound, the
    powers +-10^-k down to 10^-123, and 20 uniform draws in [-4pi, 4pi]:
    1,319 angles."""
    values = set()
    for centre in (0.0, PI / 2, PI, 1.5 * PI, 2.0 * PI, 3.0 * PI, 4.0 * PI):
        for start in (centre, -centre):
            lo = hi = start
            values.add(start)
            for _ in range(40):
                lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
                values.update((lo, hi))
    for k in range(1, 124):
        values.update((10.0 ** -k, -(10.0 ** -k)))
    values.update(np.random.default_rng(0).uniform(-4.0 * PI, 4.0 * PI, 20))
    return np.array(sorted(values))


def test_canonicalize_adversarial_angles():
    # every (theta, phi) pair of the adversarial set: the image is on the
    # chart, names the raw axis's Bloch line, and swaps the labels exactly
    # when it names the antipode
    angles = adversarial_angles()
    assert angles.size == 1319
    theta = np.repeat(angles, angles.size)
    phi = np.tile(angles, angles.size)
    ct, cp, swapped = np.array(
        [(a.theta, a.phi, a.labels_swapped)
         for a in map(canonicalize_axis, theta.tolist(), phi.tolist())]).T
    assert ((0.0 <= ct) & (ct < PI) & (0.0 <= cp) & (cp < PI)).all()
    assert (cp[ct == 0.0] == 0.0).all()
    n_raw = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)], axis=1)
    n_can = np.stack([np.sin(ct) * np.cos(cp), np.sin(ct) * np.sin(cp),
                      np.cos(ct)], axis=1)
    assert np.linalg.norm(np.cross(n_raw, n_can), axis=1).max() <= 1e-12
    away = ct != 0.0
    dot = np.einsum("ij,ij->i", n_raw, n_can)
    assert ((swapped == 1.0) == (dot < 0.0))[away].all()


@pytest.mark.parametrize("phi", [-1e-15, 6.283185307179585,
                                 -6.283185307179587])
def test_canonicalize_phi_just_below_a_multiple_of_two_pi(phi):
    # phi + pi rounds onto pi at the antipodal fold, and a second fold
    # returns the axis itself, theta bit for bit although pi - (pi - theta)
    # rounds off it for 0.7, 0.3 and 0.1
    for theta in (0.5, 0.7, 0.3, 0.1):
        assert canonicalize_axis(theta, phi) == Axis(theta, 0.0, False)


class TestBlochVectors:
    @pytest.mark.parametrize("axis,expected", [
        (Axis(0.0, 0.0), (0.0, 0.0, 1.0)),
        (Axis(PI / 2, PI / 2), (0.0, 1.0, 0.0)),
        (Axis(PI / 4, PI / 2), (0.0, math.sqrt(0.5), math.sqrt(0.5))),
    ])
    def test_axis_to_bloch_values(self, axis, expected):
        assert axis_to_bloch(axis) == pytest.approx(expected, abs=1e-12)

    def test_state_to_bloch_values(self):
        assert state_to_bloch(SpinState(1.0, 0.0)) == \
            pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
        assert state_to_bloch(SpinState(0.4, 0.0)) == \
            pytest.approx((0.9797958971, 0.0, -0.2), abs=1e-9)
        assert state_to_bloch(SpinState(0.5, PI / 2)) == \
            pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    @given(chart_theta, chart_phi)
    @settings(max_examples=200, deadline=None)
    def test_bloch_round_trip(self, theta, phi):
        a = canonicalize_axis(theta, phi)
        th, ph = bloch_to_axis_angles(axis_to_bloch(a))
        b = canonicalize_axis(th, ph)
        assert b.theta == pytest.approx(a.theta, abs=1e-9)
        assert b.phi == pytest.approx(a.phi, abs=1e-9)

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = axis_to_bloch(canonicalize_axis(rng.uniform(0, PI),
                                                rng.uniform(0, PI)))
            assert abs(sum(c * c for c in v) - 1.0) < 1e-12
            m = state_to_bloch(SpinState(rng.uniform(0, 1),
                                         rng.uniform(0, 2 * PI)))
            assert abs(sum(c * c for c in m) - 1.0) < 1e-12


class TestEigenvectors:
    def test_poles_and_equator(self):
        up, down = eigenvectors(Axis(0.0, 0.0))
        assert up == pytest.approx([1.0, 0.0], abs=1e-12)
        assert down == pytest.approx([0.0, 1.0], abs=1e-12)
        up, down = eigenvectors(Axis(PI / 2, 0.0))
        r = math.sqrt(0.5)
        assert up == pytest.approx([r, r], abs=1e-12)
        assert down == pytest.approx([-r, r], abs=1e-12)

    def test_fig3_axis_eigenvector(self):
        up, _ = eigenvectors(Axis(PI / 4, PI / 2))
        assert up[0] == pytest.approx(math.cos(PI / 8) * np.exp(-1j * PI / 2),
                                      abs=1e-12)
        assert up[1] == pytest.approx(math.sin(PI / 8), abs=1e-12)

    @given(chart_theta, chart_phi)
    @settings(max_examples=200, deadline=None)
    def test_orthonormal(self, theta, phi):
        up, down = eigenvectors(canonicalize_axis(theta, phi))
        assert abs(np.vdot(up, up) - 1.0) < 1e-12
        assert abs(np.vdot(down, down) - 1.0) < 1e-12
        assert abs(np.vdot(up, down)) < 1e-12

    @given(chart_theta, chart_phi)
    @settings(max_examples=200, deadline=None)
    def test_operator_eigenrelation(self, theta, phi):
        a = canonicalize_axis(theta, phi)
        op = np.array(spin_operator(a))
        up, down = (np.array(v) for v in eigenvectors(a))
        assert np.allclose(op @ up, up, atol=1e-12)
        assert np.allclose(op @ down, -down, atol=1e-12)

    def test_operator_matrix_values(self):
        assert np.allclose(spin_operator(Axis(0.0, 0.0)),
                           [[1, 0], [0, -1]], atol=1e-12)
        assert np.allclose(spin_operator(Axis(PI / 2, 0.0)),
                           [[0, 1], [1, 0]], atol=1e-12)

    @given(chart_theta, chart_phi)
    @settings(max_examples=100, deadline=None)
    def test_operator_hermitian_traceless(self, theta, phi):
        op = np.array(spin_operator(canonicalize_axis(theta, phi)))
        assert np.allclose(op, op.conj().T, atol=1e-12)
        assert abs(np.trace(op)) < 1e-12
        assert abs(np.linalg.det(op) + 1.0) < 1e-12


class TestOverlaps:
    def test_pinned_values(self):
        assert up_overlap_prob(Axis(0.0, 0.0), SpinState(1.0, 0.0)) == \
            pytest.approx(1.0, abs=1e-12)
        assert up_overlap_prob(Axis(PI / 4, PI / 2), SpinState(0.4, 0.0)) == \
            pytest.approx(0.4293, abs=5e-5)
        assert up_overlap_prob(Axis(0.862, 1.197),
                               SpinState(math.cos(PI / 8) ** 2, PI / 2)) == \
            pytest.approx(0.9799, abs=2e-4)

    @given(chart_theta, chart_phi, prob, phase)
    @settings(max_examples=300, deadline=None)
    def test_matches_complex_vector_oracle(self, theta, phi, rho, tau):
        a = canonicalize_axis(theta, phi)
        s = SpinState(rho, tau)
        assert up_overlap_prob(a, s) == \
            pytest.approx(eigvec_overlap_oracle(a, s), abs=1e-12)

    @given(chart_theta, chart_phi, prob, phase)
    @settings(max_examples=300, deadline=None)
    def test_bloch_dot_identity(self, theta, phi, rho, tau):
        a = canonicalize_axis(theta, phi)
        s = SpinState(rho, tau)
        n = axis_to_bloch(a)
        m = state_to_bloch(s)
        dot = sum(x * y for x, y in zip(n, m))
        assert up_overlap_prob(a, s) == \
            pytest.approx(0.5 * (1.0 + dot), abs=1e-12)

    def test_grid_identity_eq8_vs_bloch(self):
        # dense cross-check of the Bloch-form rewrite on a 100x100 axis grid
        s = SpinState(0.4, 0.0)
        m = np.array(state_to_bloch(s))
        thetas = np.linspace(1e-6, PI - 1e-6, 100)
        phis = np.linspace(0.0, PI - 1e-6, 100)
        for th in thetas:
            for ph in phis:
                a = canonicalize_axis(th, ph)
                n = np.array(axis_to_bloch(a))
                assert abs(up_overlap_prob(a, s)
                           - 0.5 * (1.0 + float(n @ m))) < 1e-12

    def test_axes_up_overlap_values(self):
        a = Axis(0.862, 1.197)
        assert axes_up_overlap(a, a) == pytest.approx(1.0, abs=1e-12)
        assert axes_up_overlap(a, Axis(PI / 4, PI / 2)) == \
            pytest.approx(0.98, abs=5e-4)
        assert axes_up_overlap(Axis(0.0, 0.0), Axis(PI / 2, 0.0)) == \
            pytest.approx(0.5, abs=1e-12)

    @given(chart_theta, chart_phi, chart_theta, chart_phi)
    @settings(max_examples=200, deadline=None)
    def test_axes_overlap_equals_bloch_dot(self, t1, p1, t2, p2):
        f = canonicalize_axis(t1, p1)
        i = canonicalize_axis(t2, p2)
        nf, ni = axis_to_bloch(f), axis_to_bloch(i)
        dot = sum(x * y for x, y in zip(nf, ni))
        assert axes_up_overlap(f, i) == \
            pytest.approx(0.5 * (1.0 + dot), abs=1e-12)

    @given(chart_or_raw, chart_or_raw, st.floats(min_value=0.0, max_value=1.0),
           chart_or_raw)
    @settings(max_examples=500, deadline=None)
    def test_overlap_terms_is_the_helpers_bit_for_bit(self, theta, phi, rho,
                                                      tau):
        # overlap_terms repeats axis_to_bloch's and state_to_bloch's
        # formulas rather than calling them; the helpers only read the
        # angles, so raw off-chart ones reach them through a namespace
        a = SimpleNamespace(theta=theta, phi=phi)
        s = SimpleNamespace(rho=rho, tau=tau)
        n, m, c, p = overlap_terms(theta, phi, rho, tau)
        assert struct.pack("<6d", *n, *m) == \
            struct.pack("<6d", *axis_to_bloch(a), *state_to_bloch(s))
        assert struct.pack("<d", c) == struct.pack(
            "<d", n[0] * m[0] + n[1] * m[1] + n[2] * m[2])
        assert struct.pack("<3d", p, p, p) == struct.pack(
            "<3d", overlap_from_angles(theta, phi, rho, tau),
            up_overlap_prob(a, s), min(1.0, max(0.0, 0.5 * (1.0 + c))))

    @given(chart_theta, chart_phi, prob, phase)
    @settings(max_examples=300, deadline=None)
    def test_antipodal_swap_flips_probability(self, theta, phi, rho, tau):
        a = canonicalize_axis(theta, phi)
        p = overlap_from_angles(a.theta, a.phi, rho, tau)
        p_swapped = overlap_from_angles(PI - a.theta, a.phi + PI, rho, tau)
        assert p_swapped == pytest.approx(1.0 - p, abs=1e-12)


class TestEigenstateAsState:
    def test_pinned_values(self):
        s = eigenstate_as_state(Axis(PI / 4, PI / 2), 1)
        assert s.rho == pytest.approx(math.cos(PI / 8) ** 2, abs=1e-12)
        assert s.tau == pytest.approx(PI / 2, abs=1e-12)
        s = eigenstate_as_state(Axis(0.862, 1.197), 1)
        assert s.rho == pytest.approx(0.8254, abs=1e-4)
        assert s.tau == pytest.approx(1.197, abs=1e-12)
        s = eigenstate_as_state(Axis(0.0, 0.0), 0)
        assert (s.rho, s.tau) == (0.0, 0.0)

    @given(chart_theta, chart_phi, st.sampled_from([0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_eigenstate_has_unit_overlap(self, theta, phi, outcome):
        a = canonicalize_axis(theta, phi)
        s = eigenstate_as_state(a, outcome)
        p = up_overlap_prob(a, s)
        assert p == pytest.approx(float(outcome), abs=1e-12)

    def test_degenerate_phase_forced_to_zero(self):
        assert eigenstate_as_state(Axis(0.0, 0.0), 1).tau == 0.0
        assert eigenstate_as_state(Axis(0.0, 0.0), 0).tau == 0.0


class TestSpinState:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpinState(-0.1, 0.0)
        with pytest.raises(ValueError):
            SpinState(1.1, 0.0)
        with pytest.raises(ValueError):
            SpinState(1.0, 0.5)  # degenerate rho forces tau = 0

    def test_tau_range_enforced(self):
        with pytest.raises(ValueError):
            SpinState(0.5, 2 * PI + 0.25)
        with pytest.raises(ValueError):
            SpinState(0.5, -0.25)
