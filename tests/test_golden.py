"""Pinned outputs of small fixed runs.

The selections, optima and risks below were recorded before square blocks
were mirrored, centers were given a risk of 0 without a distance
computation, and local search learned to stop before the end of a sweep;
the nearest-center digests of `test_metric`, before the screen of
`nearest_dists` moved to float32; the bin sizes, before `bins` stopped
precomputing the largest total of each bin count; the decision columns of
`test_run_stream` and its 1-d and matrix cases, before each copy chose its
nearest-reference lookup once, with a Python loop for few 2-d centers; the
decision logs of `test_run_stream`, before the stream kept one byte per
decision in place of a record object; the mixture of `test_mixture`, before
the rejection sampler tested only the rows it redrew.
Each of those changes claims to keep every output bit for bit; these hashes
hold them to it. The inputs are drawn here, not by `munsc.harness.data`, so
that a change to the generator cannot move them; `test_mixture` pins the
generator itself.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import munsc.solvers as solvers_mod
from munsc.bins import _integer_sizes
from munsc.errors import InfeasibleBinDivisionError
from munsc.harness.data import generate_gaussian_mixture
from munsc.metric import CenterSet, Dataset, farthest_order, nearest_dists, risk, truncated_risk
from munsc.multiscale import compute_schedule, run_stream
from munsc.oracle import exact_opt
from munsc.params import PROFILES
from munsc.solvers import get_solver, solve_local_search
from munsc.stream import InstrumentedStream


def blobs(seed: int, n: int, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """n points around k means drawn at scale 20, and a stream order."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=20.0, size=(k, dim))
    x = means[rng.integers(0, k, size=n)] + rng.normal(size=(n, dim))
    return x, rng.permutation(n)


def ids_hash(ids) -> str:
    return hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest()


# 16-d phase-1 solves take the mirrored square block; "matrix" streams over the
# distance matrix of the same kind of blobs
@pytest.mark.parametrize(
    "seed, n, dim, k, order_hash, t_out_hash, risk_hex, columns_hash, log_hash",
    [
        (
            1, 3000, 2, 2,
            "137e043725cca4df3025d0eac755fb69c452565b0b1cb6994582530511c4f14e",
            "c40049a47fcfddbb11e6755fca5e9b6fc6ce1759c9199ec1b62b502ddfe14a7b",
            "0x1.b70a2dd1a6e9cp+3",
            "ea72f757766262e2a527a7f21f281a921a28c97656e6a8682b98ab763b937954",
            "9995fa11737320cc923aabb8fa913f494cd5a4a9fa32a876bc947d4c3ad9727c",
        ),
        (
            2, 2500, 16, 3,
            "613561ce171715a43b365565926840fcc3eba8e62b699c6ad2527b1c63ab0359",
            "bd4912203b2427c95798ba8c5aac55bf825310a0f9d841a8dc0680a8185d1fea",
            "0x1.02015eed6e039p+8",
            "791aebbccff9c5eda207b67048cafc41bf865d153e709d3db34c97e10a12964e",
            "7e204a4d81841bdb6113e7d5071657bdc480743926a7bc8f966bd6b4a5ee61a5",
        ),
        (
            17, 3000, 1, 2,
            "9f1438746197e792e08ff283dfb96050bfb19b7b6a93d9d05c600ed2ae025807",
            "1b2b4894326dcfd279ed42e335f1b6e5cc1b7e0d673de64e41cf4d371626c195",
            "0x1.3b5898a751b50p-1",
            "386a13691a11ba321fbed70af419765ce78271763b25fb6c87dd39b27f247c9f",
            "898ade4aad6ba6801f0f9762b3eb7e05a2ff8d915d8d90ad7ed62ebe1e9ab538",
        ),
        (
            18, 1500, "matrix", 2,
            "aa169173c4551e6443ef62ee5b8258b90201d3451f5abe7fa2f268d4144ca04c",
            "263eccfc13fb8edb7b6becf8a31b18f960123eee6f4bc8497f0e9c7cc3dd0e73",
            "0x1.b6ca8dc23a66dp+2",
            "2ef4db812b38f825d4cb600efa79f399f693f6e17ca01bd78beb2e20a8ae8cb3",
            "10c4ad78c7eaf0144312ef900cb7b0b9feab0a30b2001496948580b0b369f856",
        ),
    ],
    ids=["2d", "16d", "1d", "matrix"],
)  # fmt: skip
def test_run_stream(seed, n, dim, k, order_hash, t_out_hash, risk_hex, columns_hash, log_hash):
    assert run_stream_digests(seed, n, dim, k) == (order_hash, t_out_hash, risk_hex, columns_hash, log_hash)


def run_stream_digests(seed: int, n: int, dim, k: int) -> tuple[str, str, str, str, str]:
    """Hashes of the selection order and T_out, the risk of T_out, a sha256
    over every copy's `dists`, `slots` (as int64) and `reasons` columns, and
    one over the stream's decision log as int64 (index, point, selected) rows."""
    x, perm = blobs(seed, n, 2 if dim == "matrix" else dim, k)
    data = Dataset.from_coords(x)
    if dim == "matrix":
        data = Dataset.from_matrix(data.pairwise(range(n), range(n)))
    schedule = compute_schedule(k, 0.2, n, PROFILES["desk"])
    stream = InstrumentedStream(perm)
    result = run_stream(stream, schedule, data, get_solver("local-search", max_iters=20))
    columns = hashlib.sha256()
    for rep in result.copy_reports:
        for col in (rep.dists, rep.slots.astype(np.int64), rep.reasons):
            columns.update(col.tobytes())
            columns.update(b"|")
    return (
        ids_hash(result.selection_order),
        ids_hash(result.centers.ids),
        risk(range(n), result.centers, data).hex(),
        columns.hexdigest(),
        ids_hash([(t, rec.point, rec.selected) for t, rec in stream.decision_log]),
    )


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


def test_mixture():
    """sha256 over the coordinates, labels and means of a small 64-d mixture with outliers."""
    s = generate_gaussian_mixture(300, 3, 64, 40.0, 0.01, seed=73)
    parts = (s.dataset.coords.tobytes(), s.labels.tobytes(), s.means.tobytes())
    assert hashlib.sha256(b"|".join(parts)).hexdigest() == "59e5d1a2e2305cbbdfaea179d5b6355d4730f2d65051f402a7a766589941d5ca"
