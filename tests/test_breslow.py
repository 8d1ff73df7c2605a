import math

import numpy as np
import pytest
from hypothesis import given

from breslow_lab import (
    a_n_curve,
    breslow_plugin,
    breslow_traditional,
    validate_dataset,
)

from conftest import random_dataset, survival_datasets
from oracles import central_diff_grad, nelson_aalen


@pytest.fixture
def three_point():
    return validate_dataset([(1.0, True, [1.0]), (2.0, True, [0.0]), (3.0, True, [1.0])])


class TestTraditionalForm:
    def test_hand_values_at_root(self, three_point):
        beta = [-math.log(2.0) / 2.0]
        est = breslow_traditional(three_point, beta)
        expected = [math.sqrt(2.0) - 1.0, 1.0, 1.0 + math.sqrt(2.0)]
        assert np.allclose(est.curve.cumulative_values, expected, atol=1e-12)
        assert est.curve(0.0) == 0.0

    def test_no_covariate_matches_nelson_aalen_exactly(self):
        data = validate_dataset([(1.0, True, []), (2.0, False, []), (3.0, True, [])])
        est = breslow_traditional(data, [])
        jumps, cum = nelson_aalen(data.times, data.events)
        assert np.array_equal(est.curve.jump_times, jumps)
        assert np.array_equal(est.curve.cumulative_values, cum)
        assert est.curve(1.0) == pytest.approx(1.0 / 3.0)
        assert est.curve(3.0) == pytest.approx(4.0 / 3.0)

    def test_tied_events_aggregate(self):
        data = validate_dataset(
            [(1.0, True, [0.0]), (1.0, True, [0.0]), (2.0, False, [0.0]), (3.0, False, [0.0])]
        )
        est = breslow_traditional(data, [0.0])
        assert est.curve(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_constant_extension_and_flag(self, three_point):
        est = breslow_traditional(three_point, [0.0])
        assert est.curve(100.0) == est.curve.cumulative_values[-1]

    def test_jumps_only_at_event_times(self):
        data = validate_dataset(
            [(1.0, True, [0.5]), (1.5, False, [0.2]), (2.0, True, [0.1])]
        )
        est = breslow_traditional(data, [0.3])
        assert np.array_equal(est.curve.jump_times, [1.0, 2.0])


class TestPluginFormIdentity:
    def test_hand_values(self, three_point):
        est = breslow_plugin(three_point, [-math.log(2.0) / 2.0])
        expected = [math.sqrt(2.0) - 1.0, 1.0, 1.0 + math.sqrt(2.0)]
        assert np.allclose(est.curve.cumulative_values, expected, atol=1e-12)

    def test_single_event_n1(self):
        data = validate_dataset([(2.5, True, [])])
        est = breslow_plugin(data, [])
        assert est.curve(2.5) == 1.0

    @given(data=survival_datasets(max_n=40, max_p=3))
    def test_forms_agree_on_random_data(self, data):
        beta = np.linspace(-0.4, 0.4, data.covariate_dim)
        trad = breslow_traditional(data, beta)
        plug = breslow_plugin(data, beta)
        vals_t = trad.curve.cumulative_values
        vals_p = plug.curve(trad.curve.jump_times)
        assert np.array_equal(trad.curve.jump_times, plug.curve.jump_times)
        assert np.max(np.abs(vals_p - vals_t) / (1.0 + np.abs(vals_t))) <= 1e-12


class TestSensitivityCurve:
    def test_hand_value(self, three_point):
        curve = a_n_curve(three_point, [0.0])
        assert curve.values_at(1.0)[:, 0] == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_zero_before_first_event(self, three_point):
        curve = a_n_curve(three_point, [0.0])
        assert curve.values_at(0.0)[:, 0] == 0.0

    def test_empty_flag_for_p0(self):
        data = validate_dataset([(1.0, True, [])])
        curve = a_n_curve(data, [])
        assert curve.is_empty
        assert curve.values_at([1.0]).shape == (1, 0)

    def test_minus_curve_is_beta_gradient_of_hazard(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            data = random_dataset(rng, int(rng.integers(5, 40)), int(rng.integers(1, 3)))
            beta = rng.normal(0, 0.4, size=data.covariate_dim)
            x = float(rng.uniform(0.1, data.times.max()))
            curve = a_n_curve(data, beta)
            fd = central_diff_grad(
                lambda b: breslow_traditional(data, b).curve(x), beta, h=1e-5
            )
            exact = -curve.values_at([x])[0]
            assert np.allclose(exact, fd, rtol=1e-5, atol=1e-7)

    def test_negative_covariates_make_nonmonotone_components_legal(self):
        data = validate_dataset(
            [(1.0, True, [-1.0]), (2.0, False, [-1.0]), (3.0, True, [1.0])]
        )
        curve = a_n_curve(data, [0.0])
        vals = curve.curve.cumulative_values[:, 0]
        assert vals[0] == pytest.approx(-1.0 / 9.0, rel=1e-14)
        assert vals[0] < 0 < vals[1] - vals[0]
