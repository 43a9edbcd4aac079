"""Synthetic datasets and flat-file dataset formats.

CSV formats: coordinate datasets are plain rows of floats; distance-matrix
datasets carry a single `# matrix` header line followed by the square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ContractError, _real, _whole
from ..metric import Dataset

__all__ = ["MixtureSample", "generate_gaussian_mixture", "save_dataset", "load_dataset"]

_MATRIX_HEADER = "# matrix"


@dataclass(frozen=True)
class MixtureSample:
    """A generated mixture with its ground truth."""

    dataset: Dataset
    labels: np.ndarray  # blob index per point; -1 marks outliers
    means: np.ndarray


def _place_means(rng: np.random.Generator, k_true: int, dim: int, separation: float) -> np.ndarray:
    """Rejection-sample blob means with pairwise distance >= separation."""
    side = separation * max(2.0, float(k_true))
    means: list[np.ndarray] = []
    attempts = 0
    while len(means) < k_true:
        cand = rng.uniform(0.0, side, size=dim)
        if all(float(np.linalg.norm(cand - m)) >= separation for m in means):
            means.append(cand)
        attempts += 1
        if attempts > 1000 * k_true:
            side *= 2.0  # box too tight for this draw sequence; widen and go on
            attempts = 0
    return np.asarray(means)


def _truncated_normal(rng: np.random.Generator, count: int, dim: int, radius: float = 6.0) -> np.ndarray:
    """Unit-variance isotropic normals conditioned on norm <= radius.

    Each pass redraws the rows still outside the ball, in ascending order,
    and tests only those: an accepted row never changes.
    """
    out = rng.standard_normal((count, dim))
    bad = np.flatnonzero(np.linalg.norm(out, axis=1) > radius)
    while bad.size:
        redrawn = rng.standard_normal((bad.size, dim))
        out[bad] = redrawn
        bad = bad[np.linalg.norm(redrawn, axis=1) > radius]
    return out


def generate_gaussian_mixture(
    n: int,
    k_true: int,
    dim: int,
    separation: float,
    outlier_fraction: float,
    seed: int,
) -> MixtureSample:
    """Isotropic unit-variance blobs plus uniform outliers, deterministic per seed.

    Blob means sit pairwise at least `separation` apart (so separation is in
    units of the blob standard deviation). Blob draws are conditioned on a
    norm of at most six standard deviations; outliers are uniform in an
    enlarged bounding box of the means. The cut bites in high dimension: an
    untruncated 64-d draw has norm about 8, so 64-d blobs are thin shells
    just inside the cut, of mean norm about 5.8 (5-95% range 5.5 to 6.0),
    and rejection keeps fewer than 1 draw in 500.
    """
    n, k_true, dim = _whole(n, "n"), _whole(k_true, "k_true"), _whole(dim, "dim")
    seed = _whole(seed, "seed", 0)
    separation = _real(separation, "separation", 0.0)
    outlier_fraction = _real(outlier_fraction, "outlier_fraction", 0.0, 0.2, "[]")

    rng = np.random.default_rng(seed)
    means = _place_means(rng, k_true, dim, separation)
    n_out = int(round(outlier_fraction * n))
    n_in = n - n_out
    if n_in < k_true:
        raise ContractError("not enough non-outlier points for the requested blobs")

    sizes = [n_in // k_true] * k_true
    for i in range(n_in % k_true):
        sizes[i] += 1

    blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for i, size in enumerate(sizes):
        blocks.append(means[i] + _truncated_normal(rng, size, dim))
        labels.append(np.full(size, i, dtype=np.int64))

    if n_out:
        span = means.max(axis=0) - means.min(axis=0)
        pad = 0.25 * span + 10.0
        lo = means.min(axis=0) - pad
        hi = means.max(axis=0) + pad
        blocks.append(rng.uniform(lo, hi, size=(n_out, dim)))
        labels.append(np.full(n_out, -1, dtype=np.int64))

    coords = np.vstack(blocks)
    lab = np.concatenate(labels)
    lab.setflags(write=False)
    return MixtureSample(dataset=Dataset.from_coords(coords), labels=lab, means=means)


def save_dataset(data: Dataset, path: str | Path) -> None:
    path = Path(path)
    if data.mode == "matrix":
        with path.open("w") as fh:
            fh.write(_MATRIX_HEADER + "\n")
            np.savetxt(fh, data.matrix, delimiter=",", fmt="%.17g")
    else:
        np.savetxt(path, data.coords, delimiter=",", fmt="%.17g")


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        if first.strip() == _MATRIX_HEADER:
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
            return Dataset.from_matrix(body)
    body = np.loadtxt(path, delimiter=",", ndmin=2)
    return Dataset.from_coords(body)
