"""Pinned outputs of small fixed runs.

The selections, optima and risks below were recorded before square blocks
were mirrored, centers were given a risk of 0 without a distance
computation, and local search learned to stop before the end of a sweep;
the nearest-center digests of `test_metric`, before the screen of
`nearest_dists` moved to float32; the bin sizes, before `bins` stopped
precomputing the largest total of each bin count. Each of those changes
claims to keep every output bit for bit; these hashes hold them to it. The
inputs are drawn here, not by `munsc.harness.data`, so that a change to the
generator cannot move them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import munsc.solvers as solvers_mod
from munsc.bins import _integer_sizes
from munsc.errors import InfeasibleBinDivisionError
from munsc.metric import CenterSet, Dataset, farthest_order, nearest_dists, risk, truncated_risk
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


def tight_clusters(seed: int, n: int, dim: int) -> np.ndarray:
    """n points in 10 clusters of sd 0.001, with means uniform over +-1000."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-1000.0, 1000.0, size=(10, dim))
    return means[rng.integers(0, 10, size=n)] + rng.normal(scale=0.001, size=(n, dim))


# "tight" inputs are the clusters above, the rest are blobs; +1e6 moves a 2-d set far from the origin
@pytest.mark.parametrize(
    "seed, n, dim, m, shape, digest",
    [
        (8, 3000, 2, 200, "blobs", "5f14a6b097f41c6793037548eb55c7d6029c768afcfec51f0f40fcb5df4b9cf1"),
        (9, 3000, 2, 200, "far", "e5a934126e8c67806f78c6d0bc9d50494adaf36ad58bf9c13b7f9eff75da58da"),
        (10, 2000, 9, 150, "blobs", "98262e5b911356eae1b8d0f6f84961e7924d970957190b5f271d5fb7fae59977"),
        (11, 2000, 64, 300, "blobs", "59de5781d483c37b0cda85405153929cdf01f18d60bb0d533871fb7add6991c4"),
        (12, 5000, 64, 2500, "blobs", "ec420aeaf1ee5a9490dfcfd5e61853c61eac79a55ac6a3d0a515ffbf92e74328"),
        (13, 20_000, 2, 5000, "blobs", "b16b16544f03585988e26f3826c941c4efa9a0a3b02ed502b4741dc715e8ad91"),
        (14, 500, 2, 40, "matrix", "220c26ec96c1e607a8c0d9b5a457e004fc4f5371d5e2e57bef664e86d6e2e546"),
        (15, 4000, 2, 1000, "tight", "b321faad06920ee46c39f0b966575c026a7267c38b86d342fbf840761be00a88"),
        (16, 3000, 64, 1000, "tight", "f426d94139d120aecdcdf6a0b74bd6adc2d9ed9f513c9895a39a87ff59fc52c3"),
    ],
    ids=["2d", "2d-far", "9d", "64d", "64d-2500-centers", "2d-5000-centers", "matrix", "tight-2d", "tight-64d"],
)  # fmt: skip
def test_metric(seed, n, dim, m, shape, digest):
    assert metric_digest(seed, n, dim, m, shape) == digest


def metric_digest(seed: int, n: int, dim: int, m: int, shape: str) -> str:
    """sha256 over `nearest_dists` (bytes of both arrays), `risk`, `truncated_risk`
    and `farthest_order` of every point against m random centers."""
    x = tight_clusters(seed, n, dim) if shape == "tight" else blobs(seed, n, dim, 5)[0]
    data = Dataset.from_coords(x + 1e6 if shape == "far" else x)
    if shape == "matrix":
        data = Dataset.from_matrix(data.pairwise(range(n), range(n)))
    centers = CenterSet.of(np.random.default_rng(seed).choice(n, size=m, replace=False))
    ids = np.arange(n, dtype=np.int64)
    dist, pos = nearest_dists(ids, centers, data)
    parts = (
        dist.tobytes(),
        pos.astype(np.int64).tobytes(),
        risk(ids, centers, data).hex().encode(),
        truncated_risk(ids, centers, n // 10, data).hex().encode(),
        farthest_order(ids, centers, data).astype(np.int64).tobytes(),
    )
    return hashlib.sha256(b"|".join(parts)).hexdigest()


def test_integer_sizes():
    """sha256 over the bin sizes of every (z, w) with z <= 40 and w <= 600, None where none exist."""
    h = hashlib.sha256()
    for z in range(1, 41):
        for w in range(1, 601):
            try:
                sizes = _integer_sizes(z, w)
            except InfeasibleBinDivisionError:
                sizes = None
            h.update(repr((z, w, sizes)).encode())
    assert h.hexdigest() == "8ebaaa445654e301ac340390d7e49ce4e85d078e441a1c52b4f92f37dc81991c"
