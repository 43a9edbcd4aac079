"""Seeded benchmark inputs: isotropic Gaussian blobs plus uniform outliers.

The benchmark builds its own points instead of calling the program's
generator, so a workload stays the same when `munsc.harness.data` changes.
Each instance is written as a CSV of coordinate rows, the only form in which
the program receives it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Part of every cache key; change it whenever the construction below changes.
GENERATOR_VERSION = 1
CACHE_LIMIT_BYTES = 256 * 2**20


@dataclass(frozen=True)
class Shape:
    """What one instance looks like; the seed picks the points."""

    n: int
    dim: int
    blobs: int
    separation: float
    outlier_fraction: float
    outlier_pad: float  # how far the outlier box reaches past the blob means


@dataclass(frozen=True)
class Instance:
    """One generated input: the CSV for the program and the benchmark's copy."""

    path: Path
    coords: np.ndarray  # bit-identical to what the CSV holds
    means: np.ndarray  # blob means, one row per blob
    perm: np.ndarray  # stream order, a permutation of range(n)


def blob_means(shape: Shape) -> np.ndarray:
    """Means at separation / sqrt(2) along the first coordinate axes.

    Every pair of means is exactly `separation` apart and the geometry does
    not depend on the seed, so seeds change the sample and not the layout.
    """
    if shape.blobs > shape.dim:
        raise ValueError("blob means sit on coordinate axes, so blobs <= dim")
    means = np.zeros((shape.blobs, shape.dim))
    means[np.arange(shape.blobs), np.arange(shape.blobs)] = shape.separation / np.sqrt(2.0)
    return means


def make_points(shape: Shape, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates and blob means for one instance.

    round(outlier_fraction * n) outliers are uniform in the bounding box of
    the means padded by outlier_pad on every side; the remaining
    points are split evenly over the blobs (the first blobs take one extra
    point when the split is uneven) and drawn as mean + N(0, I). Rows are blob
    by blob, outliers last.
    """
    means = blob_means(shape)
    n_out = int(round(shape.outlier_fraction * shape.n))
    n_in = shape.n - n_out
    sizes = [n_in // shape.blobs + (i < n_in % shape.blobs) for i in range(shape.blobs)]
    blocks = [m + rng.standard_normal((size, shape.dim)) for m, size in zip(means, sizes)]
    lo = means.min(axis=0) - shape.outlier_pad
    hi = means.max(axis=0) + shape.outlier_pad
    blocks.append(rng.uniform(lo, hi, size=(n_out, shape.dim)))
    return np.vstack(blocks), means


def make_instance(shape: Shape, seed: int, index: int, cache_dir: Path) -> Instance:
    """Instance `index` of a run with `seed`; the same arguments give the same input.

    The CSV is written with 17 significant digits, so it parses back to
    exactly `coords`. A file already in the cache under the same key is
    reused.
    """
    rng = np.random.default_rng([seed, index])
    coords, means = make_points(shape, rng)
    perm = rng.permutation(shape.n)
    key = hashlib.sha256(repr((GENERATOR_VERSION, shape, seed, index)).encode()).hexdigest()[:16]
    path = cache_dir / f"points-n{shape.n}-d{shape.dim}-{key}.csv"
    if path.exists():
        os.utime(path)
    else:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        np.savetxt(tmp, coords, delimiter=",", fmt="%.17g")
        tmp.replace(path)
        _prune(cache_dir, keep=path)
    return Instance(path=path, coords=coords, means=means, perm=perm)


def _prune(cache_dir: Path, keep: Path) -> None:
    """Drop the least recently used CSVs once the cache exceeds its limit."""
    files = sorted(cache_dir.glob("*.csv"), key=lambda p: p.stat().st_mtime, reverse=True)
    total = 0
    for p in files:
        total += p.stat().st_size
        if total > CACHE_LIMIT_BYTES and p != keep:
            p.unlink(missing_ok=True)
