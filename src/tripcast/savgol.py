"""Savitzky-Golay smoothing for trip sensor channels.

Each output point is the center value of a least-squares polynomial fit over
a sliding window. Edges keep the series length: the polynomial fitted to the
first (last) full window is evaluated at the edge offsets.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import savgol_filter as _scipy_filter


def check_params(window_len: int, poly_order: int,
                 series_len: int | None = None) -> None:
    """Raise ``ValueError`` unless the settings (and, if given, the series
    length) admit a filter."""
    if window_len % 2 == 0:
        raise ValueError(f"savgol window_len must be odd, got {window_len}")
    if not 0 <= poly_order < window_len:
        raise ValueError(
            f"savgol poly_order {poly_order} must be ≥ 0 and smaller than "
            f"window_len {window_len}"
        )
    if series_len is not None and window_len > series_len:
        raise ValueError(
            f"savgol window_len {window_len} exceeds series length {series_len}"
        )


def savgol_smooth(series, window_len: int, poly_order: int) -> np.ndarray:
    """Filter a 1-d series, preserving its length."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"savgol_smooth expects a 1-d series, got shape {x.shape}")
    check_params(window_len, poly_order, x.size)
    return _scipy_filter(x, window_len, poly_order, mode="interp")
