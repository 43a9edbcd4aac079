from __future__ import annotations

import math

import pytest

from munsc import (
    ContractError,
    PROFILES,
    Profile,
    alpha_schedule,
    compute_schedule,
    k_plus_size,
    min_nondegenerate_n,
    phi_alpha,
    quota_default,
    ratio_ceiling,
    selection_threshold,
    theorem_constants,
)
from munsc.params import PSI_DENOM, psi_truncation_count

PAPER = PROFILES["paper"]
DESK = PROFILES["desk"]


def test_phi_alpha_worked_example():
    # 150 * ln(640) / 0.1
    assert phi_alpha(2, 0.1, 0.1, PAPER) == pytest.approx(150.0 * math.log(640.0) / 0.1)
    assert phi_alpha(2, 0.1, 0.1, PAPER) == pytest.approx(9692.2, rel=1e-4)


def test_phi_alpha_unit_alpha_cancels_division():
    assert phi_alpha(2, 0.1, 1.0, PAPER) == pytest.approx(150.0 * math.log(640.0))


def test_k_plus_worked_example():
    assert k_plus_size(2, 0.1, PAPER) == 248


def test_quota_default_worked_example():
    # ceil(log2(8 * 248 / 0.1)) = ceil(log2(19840)) = 15
    assert quota_default(248, 0.1) == 15


def test_psi_truncation_is_floor():
    phi = phi_alpha(2, 0.1, 0.1, PAPER)
    expected = math.floor(2.0 * 0.1 * 3 * phi)
    assert psi_truncation_count(2, 0.1, phi) == expected


def test_selection_threshold():
    assert selection_threshold(6.0, 2, 1.5) == pytest.approx(2.0)
    assert selection_threshold(0.0, 3, 10.0) == 0.0
    with pytest.raises(ContractError):
        selection_threshold(-1.0, 2, 1.0)


def test_alpha_schedule_worked_example():
    s = alpha_schedule(2, 0.1)
    assert s.alpha_1 == pytest.approx(0.0125)
    assert s.doublings == 3
    assert len(s.alphas) == 4
    assert s.alphas[-1] == pytest.approx(0.1)
    assert 1.0 / 12.0 < s.alphas[-1] <= 1.0 / 6.0
    assert s.delta_prime == pytest.approx(0.025)


def test_alpha_schedule_single_copy():
    s = alpha_schedule(2, 0.9)
    assert s.alpha_1 == pytest.approx(0.1125)
    assert s.doublings == 0
    assert len(s.alphas) == 1


def test_alpha_schedule_requires_k_at_least_two():
    with pytest.raises(ContractError):
        alpha_schedule(1, 0.1)


def test_theorem_constants_and_ceiling():
    tc = theorem_constants(1.0)
    assert tc.small_cluster_coeff == 56.0
    assert tc.large_cluster_coeff == 728.0
    assert tc.combined_ceiling == 785.0
    assert ratio_ceiling(5.0) == 2801.0


def test_ceiling_affine_slope_504():
    assert ratio_ceiling(3.0) - ratio_ceiling(2.0) == pytest.approx(504.0)
    with pytest.raises(ContractError):
        ratio_ceiling(0.5)


def test_profile_presets():
    assert PAPER.c_phi == 150.0 and PAPER.c_kplus == 38.0
    assert DESK.c_phi == 5.0 and DESK.c_kplus == 2.0
    assert PSI_DENOM == 3.0
    with pytest.raises(ContractError):
        Profile("bad", -1.0, 2.0)


def test_parameter_range_validation():
    with pytest.raises(ContractError):
        phi_alpha(0, 0.1, 0.1, PAPER)
    with pytest.raises(ContractError):
        phi_alpha(2, 1.5, 0.1, PAPER)
    with pytest.raises(ContractError):
        phi_alpha(2, 0.1, 0.0, PAPER)


# the figures of the roadmap's center-count item: desk profile, delta = 0.2, the first copy's scale
@pytest.mark.parametrize("k, expected", [(2, 8241), (4, 31361), (8, 126081)])
def test_min_nondegenerate_n(k, expected):
    sched = alpha_schedule(k, 0.2)
    n = min_nondegenerate_n(k, sched.delta_prime, sched.alpha_1, DESK)
    assert n == expected
    assert all(c.p1_end > c.psi_drop for c in compute_schedule(k, 0.2, n, DESK).copies)
    first = compute_schedule(k, 0.2, n - 1, DESK).copies[0]
    assert first.p1_end == first.psi_drop
