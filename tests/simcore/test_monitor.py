"""Time series."""

import numpy as np
import pytest

from repro.simcore.monitor import TimeSeries


class TestTimeSeries:
    def test_step_semantics(self):
        ts = TimeSeries([0.0, 10.0], [5.0, 1.0])
        assert ts.value_at(-1.0) == 0.0
        assert ts.value_at(0.0) == 5.0
        assert ts.value_at(9.999) == 5.0
        assert ts.value_at(10.0) == 1.0
        assert ts.value_at(100.0) == 1.0

    def test_integrate(self):
        ts = TimeSeries([0.0, 10.0], [5.0, 1.0])
        assert ts.integrate(0.0, 20.0) == pytest.approx(5.0 * 10 + 1.0 * 10)
        assert ts.integrate(5.0, 15.0) == pytest.approx(5.0 * 5 + 1.0 * 5)

    def test_integrate_before_first_sample(self):
        ts = TimeSeries([10.0], [2.0])
        assert ts.integrate(0.0, 10.0) == 0.0

    def test_mean(self):
        ts = TimeSeries([0.0, 10.0], [4.0, 0.0])
        assert ts.mean(0.0, 20.0) == pytest.approx(2.0)

    def test_append_order_enforced(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        with pytest.raises(ValueError):
            ts.append(0.5, 20.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0])

    def test_as_arrays(self):
        ts = TimeSeries([0.0, 1.0], [1.0, 2.0])
        times, values = ts.as_arrays()
        assert isinstance(times, np.ndarray)
        assert times.tolist() == [0.0, 1.0]
        assert values.tolist() == [1.0, 2.0]


class TestDeprecation:
    def test_timeseries_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            TimeSeries([0.0], [1.0])
