from __future__ import annotations

import numpy as np
import pytest

from munsc import Dataset


@pytest.fixture
def line_dataset():
    """Points on a line at coordinates 0, 1, 5, 9 (ids 0..3)."""
    return Dataset.from_coords([[0.0], [1.0], [5.0], [9.0]])


@pytest.fixture
def pool_dataset():
    rng = np.random.default_rng(99)
    return Dataset.from_coords(rng.normal(0.0, 30.0, size=(300, 2)))


def _sweep_cases() -> dict[str, tuple[np.ndarray, int]]:
    """2-d coordinates and a center count m, whose first m points are the
    centers: the table for the sorted sweep of `metric.nearest_lookup`.

    Every point, centers included, is a query. The blobs carry outliers, at
    four scales: at 1e-170 every square underflows and every distance is 0,
    at 1e-150 the smallest ones do. The grid repeats few points, so centers
    share their first coordinate and duplicate one another. The pairs put two
    centers level with a query, one on each side and at the same distance;
    the copies repeat every center as a later point.
    """
    cases = {"underflow": (np.array([[3e-170, 0.0], [1e-170, 0.0], [0.0, 0.0]]), 2)}
    for m in (1, 2, 16, 32, 33, 64, 263):
        rng = np.random.default_rng(m)
        blobs = rng.normal(size=(m + 200, 2)) + 6.0 * rng.integers(0, 2, size=(m + 200, 1))
        blobs[::20] = rng.uniform(-30.0, 30.0, size=blobs[::20].shape)
        for scale in (1.0, 1e-170, 1e-150, 1e150):
            cases[f"blobs-{scale:g}-{m}"] = (blobs * scale, m)
        cases[f"grid-{m}"] = (rng.integers(-3, 4, size=(m + 120, 2)).astype(float), m)
        mid = rng.integers(-20, 21, size=((m + 1) // 2, 2)).astype(float)
        half = rng.integers(1, 4, size=(mid.shape[0], 1)) * np.array([[1.0, 0.0]])
        pairs = np.concatenate([mid - half, mid + half])[rng.permutation(2 * mid.shape[0])][:m]
        cases[f"pairs-{m}"] = (np.concatenate([pairs, mid, mid + [0.0, 1.0], mid + half / 2]), m)
        centers = blobs[:m]
        cases[f"copies-{m}"] = (np.concatenate([centers, centers[rng.permutation(m)], blobs[m:]]), m)
    return cases


SWEEP_CASES = _sweep_cases()


@pytest.fixture(params=list(SWEEP_CASES))
def sweep_case(request) -> tuple[np.ndarray, int]:
    """One entry of `_sweep_cases`."""
    return SWEEP_CASES[request.param]
