"""Pinned outputs of small fixed runs.

The selections, optima and risks below were recorded before square blocks
were mirrored, centers were given a risk of 0 without a distance
computation, and local search learned to stop before the end of a sweep.
Each of those changes claims to keep every output bit for bit; these hashes
hold them to it. The inputs are drawn here, not by `munsc.harness.data`,
so that a change to the generator cannot move them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import munsc.solvers as solvers_mod
from munsc.metric import Dataset, risk
from munsc.multiscale import compute_schedule, run_stream
from munsc.oracle import exact_opt
from munsc.params import PROFILES
from munsc.solvers import get_solver, solve_local_search


def blobs(seed: int, n: int, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """n points around k means drawn at scale 20, and a stream order."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=20.0, size=(k, dim))
    x = means[rng.integers(0, k, size=n)] + rng.normal(size=(n, dim))
    return x, rng.permutation(n)


def ids_hash(ids) -> str:
    return hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest()


# 16-d phase-1 solves take the mirrored square block
@pytest.mark.parametrize(
    "seed, n, dim, k, order_hash, t_out_hash, risk_hex",
    [
        (
            1, 3000, 2, 2,
            "137e043725cca4df3025d0eac755fb69c452565b0b1cb6994582530511c4f14e",
            "c40049a47fcfddbb11e6755fca5e9b6fc6ce1759c9199ec1b62b502ddfe14a7b",
            "0x1.b70a2dd1a6e9cp+3",
        ),
        (
            2, 2500, 16, 3,
            "613561ce171715a43b365565926840fcc3eba8e62b699c6ad2527b1c63ab0359",
            "bd4912203b2427c95798ba8c5aac55bf825310a0f9d841a8dc0680a8185d1fea",
            "0x1.02015eed6e039p+8",
        ),
    ],
    ids=["2d", "16d"],
)  # fmt: skip
def test_run_stream(seed, n, dim, k, order_hash, t_out_hash, risk_hex):
    x, perm = blobs(seed, n, dim, k)
    data = Dataset.from_coords(x)
    schedule = compute_schedule(k, 0.2, n, PROFILES["desk"])
    result = run_stream(perm, schedule, data, get_solver("local-search", max_iters=20))
    assert ids_hash(result.selection_order) == order_hash
    assert ids_hash(result.centers.ids) == t_out_hash
    assert risk(range(n), result.centers, data).hex() == risk_hex


@pytest.mark.parametrize(
    "seed, n, dim, k, digest",
    [
        (3, 120, 2, 2, "5faf24ffcaf524db0ae23aeda9e1e39d09a96ac0a0da1572d84ebeab87c00ee9"),
        (4, 90, 12, 2, "848f9d1185455027dcbd1051c9ab76f7473922e6076ecf86e7d62c8aca818797"),
        (5, 40, 9, 3, "ac027fdc38f49c79876136bef4c04d24d9ac349547ed7296d7ec0c9d277540f4"),
    ],
    ids=["2d-k2", "12d-k2", "9d-k3"],
)
def test_exact_opt(seed, n, dim, k, digest):
    opt = exact_opt(Dataset.from_coords(blobs(seed, n, dim, k)[0]), k)
    assert hashlib.sha256(repr((opt.centers.ids, opt.risk.hex())).encode()).hexdigest() == digest


# one sweep, two, and convergence; from the cached matrix and from tiles recomputed each sweep
@pytest.mark.parametrize("matrix_limit", [4096, 100])
@pytest.mark.parametrize(
    "seed, dim, max_iters, centers",
    [
        (6, 2, 1, (62, 152, 581, 644, 683, 685)),
        (6, 2, 2, (62, 152, 392, 581, 644, 685)),
        (6, 2, 100, (62, 152, 392, 581, 644, 685)),
        (7, 24, 1, (322, 337, 358, 376, 529, 571)),
        (7, 24, 2, (299, 322, 337, 358, 376, 571)),
        (7, 24, 100, (299, 322, 337, 358, 376, 571)),
    ],
    ids=["2d-1", "2d-2", "2d-100", "24d-1", "24d-2", "24d-100"],
)
def test_local_search(seed, dim, max_iters, centers, matrix_limit, monkeypatch):
    monkeypatch.setattr(solvers_mod, "_MATRIX_LIMIT", matrix_limit)
    data = Dataset.from_coords(blobs(seed, 700 if dim == 2 else 600, dim, 4)[0])
    assert solve_local_search(range(data.n), 6, data, max_iters=max_iters).ids == centers
