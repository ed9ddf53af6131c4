"""Savitzky-Golay smoothing versus a least-squares oracle.

The oracle solves the local polynomial fit directly: build the Vandermonde
matrix over window offsets, solve the normal equations, and read the
smoothed value as the fitted polynomial at offset zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.savgol import check_params, savgol_smooth


def vandermonde_smooth(x, window_len, poly_order):
    """Windowed least-squares fit evaluated at each sample position.

    Interior points use the centered fit; the first and last half-window
    points re-use the polynomial fitted to the edge window, evaluated at
    their own offsets.
    """
    half = window_len // 2
    n = x.size
    out = np.empty(n)
    for i in range(n):
        lo = min(max(i - half, 0), n - window_len)
        offsets = np.arange(lo - i, lo - i + window_len, dtype=np.float64)
        a = np.vander(offsets, poly_order + 1, increasing=True)
        coef = np.linalg.solve(a.T @ a, a.T @ x[lo:lo + window_len])
        out[i] = coef[0]
    return out


class TestCheckParams:
    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            check_params(6, 2)

    def test_order_must_be_below_window(self):
        with pytest.raises(ValueError):
            check_params(5, 5)


class TestSmoothing:
    @pytest.mark.parametrize("window_len", [5, 9, 21])
    def test_quadratic_series_reproduced_exactly(self, window_len):
        t = np.arange(60, dtype=np.float64)
        series = 0.3 * t * t - 2.0 * t + 7.0
        out = savgol_smooth(series, window_len, 2)
        np.testing.assert_allclose(out, series, atol=1e-9)

    def test_linear_series_reproduced(self):
        t = np.arange(30, dtype=np.float64)
        series = 4.0 * t - 1.5
        np.testing.assert_allclose(savgol_smooth(series, 7, 2), series,
                                   atol=1e-9)

    @pytest.mark.parametrize("window_len", [5, 9, 21])
    def test_interior_matches_vandermonde_oracle(self, window_len):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(80)
        got = savgol_smooth(x, window_len, 2)
        want = vandermonde_smooth(x, window_len, 2)
        half = window_len // 2
        np.testing.assert_allclose(got[half:-half], want[half:-half],
                                   atol=1e-12)

    def test_constant_series_unchanged(self):
        x = np.full(40, 3.25)
        np.testing.assert_allclose(savgol_smooth(x, 9, 2), x, atol=1e-12)

    def test_reduces_noise_variance(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0, 4 * np.pi, 400)
        clean = np.sin(t)
        noisy = clean + rng.normal(0, 0.3, t.size)
        smoothed = savgol_smooth(noisy, 21, 2)
        assert np.mean((smoothed - clean) ** 2) < 0.5 * np.mean(
            (noisy - clean) ** 2)

    def test_output_dtype_and_shape(self):
        out = savgol_smooth(np.arange(10.0), 5, 2)
        assert out.shape == (10,)
        assert out.dtype == np.float64

    def test_window_longer_than_series_rejected(self):
        with pytest.raises(ValueError):
            savgol_smooth(np.arange(4.0), 5, 2)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            savgol_smooth(np.zeros((3, 3)), 3, 2)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    alpha=st.floats(min_value=-3, max_value=3),
    beta=st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=30)
def test_linearity_property(seed, alpha, beta):
    # the filter is linear: S(a x + b y) == a S(x) + b S(y)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    combined = savgol_smooth(alpha * x + beta * y, 9, 2)
    separate = alpha * savgol_smooth(x, 9, 2) + beta * savgol_smooth(y, 9, 2)
    np.testing.assert_allclose(combined, separate, atol=1e-10)
