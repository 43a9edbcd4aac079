"""Linearly growing bin divisions, well-representedness, and the tail-risk bound.

A z-linear bin division partitions a point set into bins ordered by
decreasing distance to a reference clustering, subject to four constraints:

  1. non-trivial divisions (z <= |W|) have |bins[i]| >= z*(i+1)/2 (1-based i);
  2. the first bin holds at most (5/2)*z points;
  3. adjacent sizes grow by at most 3/2;
  4. every point of a bin is at least as far from the reference as every
     point of the next bin.

All size comparisons are exact integer arithmetic (2*|b| >= z*(i+1) instead
of a float check), so odd z cannot produce spurious failures.

Integer feasibility caveat: for odd z and |W| = (5z+1)/2 there is provably
no integer partition satisfying constraints 1-3 simultaneously (the minimal
two-bin layout needs (5z+3)/2 points while one bin caps at (5z-1)/2).
`build_division` raises InfeasibleBinDivisionError on exactly the inputs
where no layout exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, InfeasibleBinDivisionError, PremiseError, _whole
from .metric import CenterSet, Dataset, _point_ids, farthest_order, nearest_dists, risk

__all__ = [
    "BinDivision",
    "build_division",
    "division_properties",
    "check_well_represented",
    "tail_risk_bound_holds",
]


@dataclass(frozen=True)
class BinDivision:
    """Ordered partition of a point set into bins of linearly growing size."""

    bins: tuple[tuple[int, ...], ...]
    z: int
    reference: CenterSet
    trivial: bool

    @property
    def members(self) -> set[int]:
        out: set[int] = set()
        for b in self.bins:
            out.update(b)
        return out

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bins)


def _ceil_half(num: int) -> int:
    """Smallest integer s with 2*s >= num."""
    return -(-num // 2)


def _min_profile(z: int, length: int) -> list[int] | None:
    """Pointwise-minimal feasible sizes for a given bin count, or None.

    Built backwards: each bin must hold ceil(z*(i+1)/2) points and at least
    two thirds of its successor (constraint 3). Returns None when the first
    bin would exceed its cap of floor(5z/2).
    """
    req = [0] * length
    nxt = 0
    for i in range(length, 0, -1):
        lower = _ceil_half(z * (i + 1))
        ratio_lift = -(-2 * nxt // 3)  # ceil(2*nxt/3)
        req[i - 1] = max(lower, ratio_lift)
        nxt = req[i - 1]
    if req[0] > (5 * z) // 2:
        return None
    return req


def _fill_to_total(sizes: list[int], z: int, total: int) -> list[int]:
    """Grow a feasible size profile one unit at a time until it sums to total.

    Each unit goes to the latest bin with slack under its cap; if none has
    slack the profile already sits at the maximum. Preserves feasibility at
    every step.
    """
    cap1 = (5 * z) // 2
    cur = sum(sizes)
    while cur < total:
        placed = False
        for i in range(len(sizes) - 1, -1, -1):
            cap = cap1 if i == 0 else (3 * sizes[i - 1]) // 2
            if sizes[i] < cap:
                sizes[i] += 1
                cur += 1
                placed = True
                break
        if not placed:
            raise InfeasibleBinDivisionError("size profile saturated below target total")
    return sizes


def _target_rounding(z: int, w: int) -> tuple[int, list[int]]:
    """Length and sizes from the real-valued construction, floored with the
    leftover spread one-per-bin starting from the last bin."""
    length = 1
    while z * (length + 1) * (length + 4) <= 4 * w:
        length += 1
    # targets t_i = z(i+1)/2 + (w - B)/L as exact rationals over 4L
    base = []
    for i in range(1, length + 1):
        numer = z * length * (2 * i - length - 1) + 4 * w
        base.append(numer // (4 * length))
    leftover = w - sum(base)
    assert 0 <= leftover < length
    for j in range(leftover):
        base[length - 1 - j] += 1
    return length, base


def _integer_sizes(z: int, w: int) -> list[int]:
    """Integer bin sizes satisfying constraints 1-3 and summing to w.

    Tries the floored real-valued target sizes first; when those break a
    constraint (common for odd z, where the growth ratio is tight), falls
    back to the minimal feasible profile padded toward the back. Scans bin
    counts nearest the real-valued one first, preferring fewer bins on ties,
    and skips a count whose profile saturates below w.
    """
    target_len, sizes = _target_rounding(z, w)
    if all(_size_rules(z, sizes).values()):
        return sizes

    profiles = []  # profiles[L - 1]: the minimal profile of L bins, for every L that fits in w
    while (prof := _min_profile(z, len(profiles) + 1)) is not None and sum(prof) <= w:
        profiles.append(prof)
    for length in sorted(range(1, len(profiles) + 1), key=lambda L: (abs(L - target_len), L)):
        try:
            return _fill_to_total(profiles[length - 1], z, w)
        except InfeasibleBinDivisionError:
            continue
    raise InfeasibleBinDivisionError(
        f"no integer bin layout exists for |W|={w}, z={z}"
    )


def _size_rules(z: int, sizes: Sequence[int], trivial: bool = False) -> dict[str, bool]:
    """Constraints 1-3 on bin sizes; a trivial division is exempt from 1 and 2."""
    return {
        "linear_growth": trivial or all(2 * s >= z * (i + 1) for i, s in enumerate(sizes, start=1)),
        "first_bin_cap": trivial or 2 * sizes[0] <= 5 * z,
        "adjacent_ratio": all(2 * b <= 3 * a for a, b in zip(sizes, sizes[1:])),
    }


def build_division(points: Iterable[int], reference: CenterSet, z: int, data: Dataset) -> BinDivision:
    """Construct a z-linear bin division of `points` with respect to `reference`.

    Points are ordered by decreasing distance to the reference (ties toward
    smaller ids) and cut into bins. |W| < z yields the trivial single-bin
    division. The output is re-validated against all four constraints.
    """
    ids = _point_ids(points, data.n, unique=True)
    if ids.size == 0:
        raise ContractError("W must be nonempty")
    if len(reference) == 0:
        raise ContractError("reference clustering must be nonempty")
    z = _whole(z, "z")

    if ids.size < z:
        return BinDivision(bins=(tuple(ids.tolist()),), z=z, reference=reference, trivial=True)

    sizes = _integer_sizes(z, int(ids.size))
    ordered = farthest_order(ids, reference, data).tolist()
    bins = tuple(tuple(ordered[end - s : end]) for s, end in zip(sizes, accumulate(sizes)))
    div = BinDivision(bins=bins, z=z, reference=reference, trivial=False)
    bad = [name for name, ok in division_properties(div, data).items() if not ok]
    if bad:
        raise InfeasibleBinDivisionError(f"constructed division violates {bad}")
    return div


def division_properties(div: BinDivision, data: Dataset) -> dict[str, bool]:
    """Evaluate the four division constraints plus the partition requirement.

    Trivial divisions are exempt from the size lower bound; the remaining
    checks still apply (and hold vacuously for a single bin).
    """
    props = _size_rules(div.z, div.sizes(), div.trivial)
    ok = True
    prev_min = np.inf
    for b in div.bins:
        d = nearest_dists(b, div.reference, data)[0]
        if d.size and float(d.max()) > prev_min:
            ok = False
            break
        prev_min = float(d.min()) if d.size else prev_min
    props["distance_ordered"] = ok

    flat = [i for b in div.bins for i in b]
    props["is_partition"] = len(flat) == len(set(flat)) and all(len(b) > 0 for b in div.bins)
    return props


def check_well_represented(b_set: Iterable[int], a_set: Iterable[int], w_set: Iterable[int]) -> bool:
    """True iff |B n A| / |B| lies in the closed interval [r/2, 3r/2], r = |A|/|W|.

    Pure counting with integer cross-multiplication, so interval endpoints
    are decided exactly.
    """
    b, a, w = (set(_point_ids(s).tolist()) for s in (b_set, a_set, w_set))
    if not b:
        raise ContractError("B must be nonempty")
    if not b <= w or not a <= w:
        raise ContractError("B and A must be subsets of W")
    inter = len(b & a)
    # inter/|B| >= r/2  and  inter/|B| <= 3r/2, with r = |A|/|W|
    lower_ok = 2 * inter * len(w) >= len(a) * len(b)
    upper_ok = 2 * inter * len(w) <= 3 * len(a) * len(b)
    return lower_ok and upper_ok


def tail_risk_bound_holds(div: BinDivision, a_set: Iterable[int], r: float, data: Dataset) -> bool:
    """Check R(A \\ bins[1], T) <= (3/2) * r * R(W, T) under the bin premise.

    Premise: every bin satisfies |bin n A| <= r * |bin|. A violated premise
    raises PremiseError rather than returning False. The inequality itself is
    evaluated with 1e-9 relative slack for float noise.
    """
    if not (0.0 < r < 1.0):
        raise ContractError("r must lie in (0,1)")
    a = set(_point_ids(a_set, data.n).tolist())
    members = div.members
    if not a <= members:
        raise ContractError("A must be a subset of the divided set")
    for b in div.bins:
        inter = len(a.intersection(b))
        if inter > r * len(b):
            raise PremiseError(
                f"bin with {len(b)} points holds {inter} points of A, above the rate {r}"
            )
    lhs = risk(a.difference(div.bins[0]), div.reference, data)
    rhs = 1.5 * r * risk(members, div.reference, data)
    return lhs <= rhs * (1.0 + 1e-9) + 1e-12
