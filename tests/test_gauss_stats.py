import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wiener_coding import (
    ParameterError,
    ThresholdConfig,
    event_probabilities,
    scheme_constants,
)
from wiener_coding.gauss_stats import gauss_pdf, gauss_tail

MU = 10.0  # slope is irrelevant for this module; configs just need mu > 0


def cfg(a, b):
    return ThresholdConfig(a, b, MU)


class TestThresholdConfig:
    def test_rejects_zero_slope(self):
        with pytest.raises(ParameterError):
            ThresholdConfig(1, 1, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=-0.1, b=0, mu=1),
            dict(a=0, b=-1, mu=1),
            dict(a=0, b=0, mu=-2),
            dict(a=0, b=0, mu=1, sigma2=0),
            dict(a=math.nan, b=0, mu=1),
            dict(a=math.inf, b=0, mu=1),
            dict(a=0, b=math.inf, mu=1),
            dict(a=0, b=0, mu=1, sigma2=math.inf),
            dict(a=0, b=0, mu=math.nan),
            dict(a=0, b=0, mu=-math.inf),
            dict(a=True, b=0, mu=1),
            dict(a=0, b=0, mu=True),
            dict(a="1", b=0, mu=1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            ThresholdConfig(**kwargs)

    def test_accepts_numpy_scalars(self):
        c = ThresholdConfig(np.int64(1), np.float32(0.5), np.int32(10), np.float64(2))
        assert c == ThresholdConfig(1.0, 0.5, 10.0, 2.0)
        assert all(type(v) is float for v in (c.a, c.b, c.mu, c.sigma2))

    def test_accepts_infinite_slope(self):
        # mu = inf is the large-slope limit; numpy infinities become floats
        for mu in (math.inf, np.float64("inf")):
            c = ThresholdConfig(1, 2, mu, 4)
            assert c.mu == math.inf and type(c.mu) is float

    def test_sigma_default(self):
        assert cfg(1, 1).sigma2 == 1.0


class TestEventProbabilities:
    def test_degenerate_origin(self):
        p = event_probabilities(cfg(0, 0))
        assert p.as_tuple() == (0.5, 0.0, 0.0, 0.5)

    def test_symmetric_unit_band(self):
        # frozen from the quadrature oracle on the defining integrals
        p = event_probabilities(cfg(1, 1))
        assert p.p1 == pytest.approx(0.15865525393145707, abs=1e-12)
        assert p.p4 == pytest.approx(0.15865525393145707, abs=1e-12)
        assert p.p2 == pytest.approx(0.341344746068543, abs=1e-12)
        assert p.p3 == pytest.approx(0.341344746068543, abs=1e-12)

    def test_total_probability_asymmetric(self):
        p = event_probabilities(cfg(1, 2))
        assert sum(p.as_tuple()) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_grid(self):
        for a in np.arange(0, 4.01, 0.1):
            for b in np.arange(0, 4.01, 0.1):
                p = event_probabilities(cfg(a, b))
                assert abs(sum(p.as_tuple()) - 1.0) <= 1e-12
                assert all(0.0 <= x <= 1.0 for x in p.as_tuple())

    def test_matches_quadrature(self):
        for a, b in [(0.3, 0.7), (1.0, 2.0), (2.5, 0.1), (4.0, 4.0)]:
            p = event_probabilities(cfg(a, b))
            assert p.p1 == pytest.approx(oracles.q_tail(a), abs=1e-10)
            assert p.p2 == pytest.approx(oracles.q_band_up(a, b), abs=1e-10)
            assert p.p3 == pytest.approx(oracles.q_band_dn(a, b), abs=1e-10)
            assert p.p4 == pytest.approx(oracles.q_tail(b), abs=1e-10)

    @pytest.mark.parametrize("a", [37.0, 37.5, 38.0, 60.0, 1e200])
    def test_far_asymmetric_band(self, a):
        # (a^2 - b^2)/2 passes 700 near a = 37.4 with b = 0, where expm1 would
        # overflow; phi(a) is then negligible and p2 = phi(0)/a
        p = event_probabilities(cfg(a, 0))
        assert p.p2 == pytest.approx(gauss_pdf(0.0) / a, rel=1e-14)
        assert abs(sum(p.as_tuple()) - 1.0) <= 1e-12

    def test_p1_strictly_decreasing(self):
        grid = np.arange(0, 4.01, 0.1)
        p1 = [event_probabilities(cfg(a, 1)).p1 for a in grid]
        assert all(x > y for x, y in zip(p1, p1[1:]))

    @given(
        a=st.floats(0, 4, allow_nan=False),
        b=st.floats(0, 4, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, a, b):
        p = event_probabilities(cfg(a, b))
        q = event_probabilities(cfg(b, a))
        assert p.p1 == pytest.approx(q.p4, abs=1e-14)
        assert p.p2 == pytest.approx(q.p3, abs=1e-14)
        assert abs(sum(p.as_tuple()) - 1.0) <= 1e-12


class TestPartialMoments:
    def test_half_normal_values(self):
        m = scheme_constants(cfg(0, 0)).moments
        assert m.upper[0] == pytest.approx(0.5, abs=1e-14)
        assert m.upper[1] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-14)
        assert m.upper[2] == pytest.approx(0.5, abs=1e-14)

    def test_a0_b0_equal_tail_probabilities(self):
        m = scheme_constants(cfg(1.3, 0.4)).moments
        assert m.upper[0] == pytest.approx(gauss_tail(1.3), abs=1e-15)
        assert m.lower[0] == pytest.approx(gauss_tail(0.4), abs=1e-15)

    def test_frozen_quadrature_values_a15(self):
        # computed once with scipy.integrate.quad on (x-a)^k phi over [a, inf)
        expected = (
            0.06680720126885809,
            0.02930679376260463,
            0.022847010624951123,
            0.024343071587782577,
            0.032026424493179516,
        )
        m = scheme_constants(cfg(1.5, 1.5)).moments
        for got, exp in zip(m.upper, expected):
            assert got == pytest.approx(exp, abs=1e-10)

    def test_matches_quadrature_grid(self):
        for a in (0.0, 0.2, 0.9, 1.7, 2.6, 4.0):
            m = scheme_constants(cfg(a, a)).moments
            for k in range(5):
                assert m.upper[k] == pytest.approx(
                    oracles.q_shifted_moment(a, k), abs=1e-10
                )

    def test_quartic_expansion_identity(self):
        # binomial expansion of ((x-a)+a)^4 against the raw tail moment
        for a in np.arange(0, 4.01, 0.25):
            m = scheme_constants(cfg(a, a)).moments.upper
            p1 = gauss_tail(a)
            lhs = p1 * a**4 + 4 * a**3 * m[1] + 6 * a**2 * m[2] + 4 * a * m[3] + m[4]
            rhs = oracles.q_tail_moment(a, 4)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSchemeConstants:
    def test_degenerate_origin(self):
        sc = scheme_constants(cfg(0, 0))
        assert sc.a_tilde == pytest.approx(0.5, abs=1e-14)
        assert sc.b_tilde == pytest.approx(0.5, abs=1e-14)
        assert sc.x_tilde == 0.0
        assert sc.d == pytest.approx(1.0, abs=1e-14)
        assert sc.k == pytest.approx(0.5, abs=1e-14)
        assert sc.p_tilde == pytest.approx((0.5, 0.0, 0.0, 0.5), abs=1e-14)

    def test_wide_band_limits(self):
        sc = scheme_constants(cfg(8, 8))
        assert sc.x_tilde == pytest.approx(3.0, abs=1e-6)
        # the band terms dominate K for wide bands: K -> a^2/6, not 0
        assert sc.k == pytest.approx(oracles.oracle_constants(8, 8)["k"], abs=1e-10)
        assert sc.k == pytest.approx(64.0 / 6.0, rel=1e-3)

    @pytest.mark.parametrize("a,b", [(1e78, 1e78), (1e78, 0), (0, 1e78), (1e308, 1e308)])
    def test_overflowing_thresholds_raise(self, a, b):
        # a**4 overflows above about 1.3e77
        with pytest.raises(ParameterError, match="too large"):
            scheme_constants(cfg(a, b))

    def test_largest_thresholds_finite(self):
        assert scheme_constants(cfg(1e76, 1e76)).k == pytest.approx(1e152 / 6, rel=1e-12)

    def test_frozen_unit_band(self):
        sc = scheme_constants(cfg(1, 1))
        assert sc.a_tilde == pytest.approx(0.40062597845060044, abs=1e-12)
        assert sc.x_tilde == pytest.approx(0.11230268025811091, abs=1e-10)
        assert sc.d == pytest.approx(1.4839414490382867, abs=1e-12)
        assert sc.k == pytest.approx(0.4010026602007414, abs=1e-12)

    def test_dual_form_identity(self):
        # p1*a^2 + 2a*A1 + A2 must equal the tail second moment
        for a in np.arange(0, 4.01, 0.2):
            sc = scheme_constants(cfg(a, 0.7))
            m = sc.moments.upper
            expansion = sc.probs.p1 * a * a + 2 * a * m[1] + m[2]
            assert expansion == pytest.approx(sc.a_tilde, abs=1e-10)
            mb = sc.moments.lower
            expansion_b = sc.probs.p4 * 0.49 + 2 * 0.7 * mb[1] + mb[2]
            assert expansion_b == pytest.approx(sc.b_tilde, abs=1e-10)

    def test_p_tilde_normalized(self):
        for a, b in [(0, 0), (0.5, 1.5), (2, 2), (0, 3)]:
            sc = scheme_constants(cfg(a, b))
            assert sum(sc.p_tilde) == pytest.approx(1.0, abs=1e-12)
            assert sc.d > 0

    def test_matches_quadrature(self):
        for a, b in [(0.5, 0.5), (1, 1), (1.5, 0.3), (3, 2)]:
            sc = scheme_constants(cfg(a, b))
            ora = oracles.oracle_constants(a, b)
            assert sc.a_tilde == pytest.approx(ora["a_tilde"], abs=1e-10)
            assert sc.b_tilde == pytest.approx(ora["b_tilde"], abs=1e-10)
            assert sc.x_tilde == pytest.approx(ora["x_tilde"], abs=1e-10)
            assert sc.d == pytest.approx(ora["d"], abs=1e-10)
            assert sc.k == pytest.approx(ora["k"], abs=1e-10)

    def test_a_tilde_strictly_decreasing(self):
        grid = np.arange(0, 4.01, 0.1)
        at = [scheme_constants(cfg(a, 0)).a_tilde for a in grid]
        assert all(x > y for x, y in zip(at, at[1:]))

    @given(a=st.floats(0, 4), b=st.floats(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_swap_symmetry_invariants(self, a, b):
        s1 = scheme_constants(cfg(a, b))
        s2 = scheme_constants(cfg(b, a))
        assert s1.a_tilde == pytest.approx(s2.b_tilde, abs=1e-13)
        assert s1.x_tilde == pytest.approx(s2.x_tilde, abs=1e-13)
        assert s1.d == pytest.approx(s2.d, abs=1e-13)
        assert s1.k == pytest.approx(s2.k, abs=1e-13)

    def test_x_tilde_bounds(self):
        for a in (0, 0.5, 1, 2, 5, 8):
            sc = scheme_constants(cfg(a, a))
            assert 0.0 <= sc.x_tilde <= 3.0 + 1e-12


def test_pdf_tail_basics():
    assert gauss_pdf(0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-16)
    assert gauss_tail(0) == pytest.approx(0.5, abs=1e-16)
    assert gauss_tail(-8) == pytest.approx(1.0, abs=1e-14)
