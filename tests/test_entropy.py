"""Binary entropy, its two-branch inverse, and the three collapse entropies.
The composite entropies are cross-checked against raw complex-vector inner
products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincollapse.bloch import Axis, SpinState, canonicalize_axis
from spincollapse.entropy import (
    binary_entropy,
    collapse_entropies,
    entropy_pair_solutions,
)

from conftest import eigvec_overlap_oracle

LN2 = math.log(2.0)


class TestBinaryEntropy:
    def test_pinned_values(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.98) == pytest.approx(0.0980, abs=5e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_symmetry_dense(self):
        ps = np.random.default_rng(11).uniform(0.0, 1.0, 10_000)
        for p in ps:
            assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-14

    def test_range(self):
        for p in np.linspace(0.0, 1.0, 1001):
            v = binary_entropy(float(p))
            assert 0.0 <= v <= LN2 + 1e-12

    def test_monotone(self):
        ps = np.linspace(1e-9, 0.5, 2000)
        vals = [binary_entropy(float(p)) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        ps = np.linspace(0.5, 1.0 - 1e-9, 2000)
        vals = [binary_entropy(float(p)) for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_tiny_probability_is_finite(self):
        assert binary_entropy(1e-310) >= 0.0
        assert math.isfinite(binary_entropy(1e-310))


class TestEntropyInverse:
    def test_pinned_values(self):
        lo, hi = entropy_pair_solutions(LN2)
        assert (lo, hi) == pytest.approx((0.5, 0.5), abs=1e-9)
        lo, hi = entropy_pair_solutions(0.0)
        assert (lo, hi) == pytest.approx((0.0, 1.0), abs=1e-9)
        lo, hi = entropy_pair_solutions(0.0980)
        assert lo == pytest.approx(0.02, abs=1e-4)
        assert hi == pytest.approx(0.98, abs=1e-4)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            entropy_pair_solutions(LN2 + 1e-6)
        with pytest.raises(ValueError):
            entropy_pair_solutions(-1e-6)

    def test_branch_ordering(self):
        for s in np.linspace(0.0, LN2, 100):
            lo, hi = entropy_pair_solutions(float(s))
            assert lo <= 0.5 <= hi
            assert hi == pytest.approx(1.0 - lo, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, p):
        lo, hi = entropy_pair_solutions(binary_entropy(p))
        recovered = lo if p <= 0.5 else hi
        assert recovered == pytest.approx(p, abs=1e-9)


class TestCollapseEntropies:
    def test_no_collapse_exception_is_all_zero(self):
        from spincollapse.bloch import eigenstate_as_state
        i = canonicalize_axis(0.7, 0.3)
        s = eigenstate_as_state(i, 1)
        assert collapse_entropies(i, i, s) == \
            pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_pinned_instance(self):
        s_i, s_f, s_up = collapse_entropies(
            Axis(math.pi / 4, math.pi / 2), Axis(0.862, 1.197),
            SpinState(0.4, 0.0))
        assert s_i == pytest.approx(0.6831, abs=1e-4)
        assert s_f == pytest.approx(0.6831, abs=1e-4)
        assert s_up == pytest.approx(0.0980, abs=1e-4)

    def test_against_complex_vector_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            i = canonicalize_axis(rng.uniform(0, math.pi),
                                  rng.uniform(0, math.pi))
            f = canonicalize_axis(rng.uniform(0, math.pi),
                                  rng.uniform(0, math.pi))
            s = SpinState(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            s_i, s_f, _ = collapse_entropies(i, f, s)
            assert s_i == pytest.approx(
                binary_entropy(eigvec_overlap_oracle(i, s)), abs=1e-12)
            assert s_f == pytest.approx(
                binary_entropy(eigvec_overlap_oracle(f, s)), abs=1e-12)

    def test_antipodal_invariance(self):
        from spincollapse.bloch import overlap_from_angles
        rng = np.random.default_rng(17)
        for _ in range(1000):
            theta = rng.uniform(1e-6, math.pi - 1e-6)
            phi = rng.uniform(0, math.pi)
            rho = rng.uniform(1e-6, 1 - 1e-6)
            tau = rng.uniform(0, 2 * math.pi)
            p = overlap_from_angles(theta, phi, rho, tau)
            p_anti = overlap_from_angles(math.pi - theta, phi + math.pi,
                                         rho, tau)
            assert abs(binary_entropy(p) - binary_entropy(p_anti)) <= 1e-12
