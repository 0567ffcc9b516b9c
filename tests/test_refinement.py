import math

import numpy as np
import pytest

from promptseg.errors import EmptyMaskError, RejectedInputError
from promptseg.prompting import AXIAL, SAGITTAL, Box2D, BoxPromptPair, make_box_prompts
from promptseg.refinement import (ACCEPTED, REJECT_EMPTIED, REJECT_ENTROPY,
                                  OrganRefinementState, RefinementConfig,
                                  apply_class_threshold, apply_roi, build_roi,
                                  entropy_gate, mean_mask_entropy,
                                  refine_pseudo_label)
from promptseg.volgrid import LabelMap, ProbVolume, softmax_from_logits

DIMS = (32, 32, 32)


def two_class_probs(p_fg):
    return ProbVolume(np.stack([1.0 - p_fg, p_fg]).astype(np.float32))


def sphere(dims, center, radius):
    yy, xx, zz = np.indices(dims)
    return ((yy - center[0]) ** 2 + (xx - center[1]) ** 2 + (zz - center[2]) ** 2) <= radius ** 2


def gt_prompts(mask, padding=6):
    pred = LabelMap(mask.astype(np.uint8), 2)
    return make_box_prompts(pred, 1, padding)


def test_class_threshold_boundary_behavior():
    cand = np.ones((1, 1, 2), dtype=bool)
    p_fg = np.array([[[0.39, 0.40]]], dtype=np.float32)
    kept = apply_class_threshold(cand, two_class_probs(p_fg), 1, 0.4)
    assert kept.ravel().tolist() == [False, True]  # >= keeps the boundary voxel


def test_class_threshold_identity_when_confident():
    cand = sphere((16, 16, 16), (8, 8, 8), 4)
    p_fg = np.where(cand, np.float32(1.0), np.float32(0.0))
    kept = apply_class_threshold(cand, two_class_probs(p_fg), 1, 0.4)
    assert np.array_equal(kept, cand)


def test_build_roi_from_orthogonal_boxes():
    # axial box: x in [10,20], y in [12,18] at z=16; sagittal: y in [11,19], z in [10,22] at x=16
    prompts = BoxPromptPair(
        class_id=1,
        axial=Box2D(AXIAL, 16, (12, 10), (18, 20)),
        sagittal=Box2D(SAGITTAL, 16, (11, 10), (19, 22)),
    )
    roi = build_roi(prompts, 0, DIMS)
    # independent oracle: evaluate the stated construction voxel-by-voxel
    expected = np.zeros(DIMS, dtype=bool)
    for y in range(DIMS[0]):
        for x in range(DIMS[1]):
            for z in range(DIMS[2]):
                expected[y, x, z] = (10 <= x <= 20) and (11 <= y <= 19) and (10 <= z <= 22)
    assert np.array_equal(roi, expected)
    dilated = build_roi(prompts, 3, DIMS)
    expected3 = np.zeros(DIMS, dtype=bool)
    expected3[8:23, 7:24, 7:26] = True
    assert np.array_equal(dilated, expected3)


def test_build_roi_exact_product_when_y_ranges_match():
    prompts = BoxPromptPair(
        class_id=1,
        axial=Box2D(AXIAL, 5, (4, 6), (9, 11)),
        sagittal=Box2D(SAGITTAL, 8, (4, 3), (9, 12)),
    )
    roi = build_roi(prompts, 0, (16, 16, 16))
    expected = np.zeros((16, 16, 16), dtype=bool)
    expected[4:10, 6:12, 3:13] = True
    assert np.array_equal(roi, expected)


def test_build_roi_rejects_out_of_bounds_boxes():
    prompts = BoxPromptPair(
        class_id=1,
        axial=Box2D(AXIAL, 5, (0, 0), (40, 11)),
        sagittal=Box2D(SAGITTAL, 8, (4, 3), (9, 12)),
    )
    with pytest.raises(RejectedInputError):
        build_roi(prompts, 0, (16, 16, 16))


def test_apply_roi_trivial_cases():
    cand = sphere((10, 10, 10), (5, 5, 5), 3)
    assert np.array_equal(apply_roi(cand, np.ones_like(cand)), cand)
    assert not apply_roi(cand, np.zeros_like(cand)).any()
    roi = np.zeros_like(cand)
    roi[:5] = True
    kept = apply_roi(cand, roi)
    assert kept.sum() == (cand & roi).sum()


def test_mean_mask_entropy_examples():
    uniform = ProbVolume(np.full((4, 2, 2, 2), np.float32(0.25)))
    from promptseg.volgrid import voxel_entropy
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 1] = True
    assert mean_mask_entropy(mask, voxel_entropy(uniform)) == pytest.approx(math.log(4), abs=1e-6)
    onehot = np.zeros((4, 2, 2, 2), dtype=np.float32)
    onehot[2] = 1.0
    assert mean_mask_entropy(mask, voxel_entropy(ProbVolume(onehot))) == 0.0
    field = np.zeros((2, 2, 2), dtype=np.float32)
    field[1, 1, 1] = math.log(2)
    assert mean_mask_entropy(mask, field) == pytest.approx(math.log(2) / 2)
    with pytest.raises(EmptyMaskError):
        mean_mask_entropy(np.zeros((2, 2, 2), dtype=bool), field)


def test_entropy_gate_contract():
    st = OrganRefinementState(class_id=1)
    assert entropy_gate(st, 0.9, gate_active=False)          # inactive: accept
    assert st.mean_entropy_history == [0.9]
    assert entropy_gate(st, 0.7, gate_active=True)           # strict decrease
    assert not entropy_gate(st, 0.7, gate_active=True)       # equal is a reject
    assert st.mean_entropy_history == [0.9, 0.7]             # appended only on accept
    assert not entropy_gate(st, 0.71, gate_active=True)      # comparator unchanged
    fresh = OrganRefinementState(class_id=2)
    assert entropy_gate(fresh, 5.0, gate_active=True)        # no previous: accept


def test_refine_identity_when_filters_vacuous():
    mask = sphere(DIMS, (16, 16, 16), 5)
    p_fg = np.where(mask, np.float32(0.99), np.float32(0.01))
    probs = two_class_probs(p_fg)
    prompts = gt_prompts(mask)
    state = OrganRefinementState(class_id=1)
    res = refine_pseudo_label(mask, probs, prompts,
                              RefinementConfig(entropy_gate_active=False), state)
    assert res.accepted and res.reason == ACCEPTED
    assert np.array_equal(res.mask, mask)
    assert np.array_equal(state.current_pseudo, mask)


def test_refine_removes_blob_outside_roi():
    core = sphere(DIMS, (12, 12, 12), 4)
    blob = sphere(DIMS, (28, 28, 28), 2)
    candidate = core | blob
    p_fg = np.where(candidate, np.float32(0.95), np.float32(0.05))
    probs = two_class_probs(p_fg)
    prompts = gt_prompts(core, padding=2)
    config = RefinementConfig(delta_roi=1, entropy_gate_active=False)
    state = OrganRefinementState(class_id=1)
    res = refine_pseudo_label(candidate, probs, prompts, config, state)
    # oracle: recompute the expected surviving set by brute force
    roi = build_roi(prompts, 1, DIMS)
    expected = candidate & roi & (p_fg >= 0.4)
    assert res.accepted
    assert np.array_equal(res.mask, expected)
    assert not (res.mask & blob).any()
    assert (res.mask & core).sum() == (core & roi).sum()


def test_refine_gated_rejection_keeps_stored_label():
    mask = sphere(DIMS, (16, 16, 16), 5)
    sharp = two_class_probs(np.where(mask, np.float32(0.99), np.float32(0.01)))
    fuzzy = two_class_probs(np.where(mask, np.float32(0.6), np.float32(0.4)))
    prompts = gt_prompts(mask)
    state = OrganRefinementState(class_id=1)
    first = refine_pseudo_label(mask, sharp, prompts,
                                RefinementConfig(entropy_gate_active=False), state)
    assert first.accepted
    stored = state.current_pseudo
    second = refine_pseudo_label(mask, fuzzy, prompts,
                                 RefinementConfig(entropy_gate_active=True), state)
    assert not second.accepted and second.reason == REJECT_ENTROPY
    assert state.current_pseudo is stored
    assert len(state.mean_entropy_history) == 1


def test_refine_stores_probabilities_at_the_accepted_voxels():
    mask = sphere(DIMS, (16, 16, 16), 5)
    rng = np.random.default_rng(3)
    p_fg = np.where(mask, rng.uniform(0.5, 1.0, DIMS), 0.01).astype(np.float32)
    state = OrganRefinementState(class_id=1)
    res = refine_pseudo_label(mask, two_class_probs(p_fg), gt_prompts(mask),
                              RefinementConfig(entropy_gate_active=False), state)
    assert res.accepted
    assert state.current_conf.shape == (int(mask.sum()),)
    assert np.array_equal(state.current_conf, p_fg[state.current_pseudo])  # C order
    assert not state.current_conf.flags.writeable
    stored = state.current_conf
    fuzzy = two_class_probs(np.where(mask, np.float32(0.6), np.float32(0.4)))
    refine_pseudo_label(mask, fuzzy, gt_prompts(mask),
                        RefinementConfig(entropy_gate_active=True), state)
    assert state.current_conf is stored  # a rejection keeps the stored probabilities


def test_refine_emptied_candidate_is_reject():
    mask = sphere(DIMS, (16, 16, 16), 5)
    low = two_class_probs(np.where(mask, np.float32(0.2), np.float32(0.1)))
    state = OrganRefinementState(class_id=1)
    res = refine_pseudo_label(mask, low, gt_prompts(mask),
                              RefinementConfig(entropy_gate_active=False), state)
    assert not res.accepted and res.reason == REJECT_EMPTIED
    assert res.mean_entropy is None
    assert state.current_pseudo is None and state.mean_entropy_history == []


def test_refinement_contraction_randomized():
    rng = np.random.default_rng(5)
    for _ in range(25):
        candidate = rng.random(DIMS) < 0.2
        p_fg = rng.random(DIMS).astype(np.float32)
        probs = two_class_probs(p_fg)
        mask = sphere(DIMS, rng.integers(8, 24, size=3), 5)
        prompts = gt_prompts(mask, padding=int(rng.integers(0, 8)))
        config = RefinementConfig(delta_roi=int(rng.integers(0, 5)),
                                  entropy_gate_active=False)
        res = refine_pseudo_label(candidate, probs, prompts, config,
                                  OrganRefinementState(class_id=1))
        assert not (res.mask & ~candidate).any()  # refined subseteq candidate
        # the two voxel filters commute
        t_then_r = apply_roi(apply_class_threshold(candidate, probs, 1, 0.4),
                             build_roi(prompts, config.delta_roi, DIMS))
        r_then_t = apply_class_threshold(
            apply_roi(candidate, build_roi(prompts, config.delta_roi, DIMS)), probs, 1, 0.4)
        assert np.array_equal(t_then_r, r_then_t)


def test_refine_degenerate_config_is_identity():
    rng = np.random.default_rng(9)
    logits = rng.normal(0, 2, size=(2,) + DIMS).astype(np.float32)
    probs = softmax_from_logits(logits)
    candidate = rng.random(DIMS) < 0.3
    prompts = BoxPromptPair(
        class_id=1,
        axial=Box2D(AXIAL, 16, (0, 0), (31, 31)),
        sagittal=Box2D(SAGITTAL, 16, (0, 0), (31, 31)),
    )
    config = RefinementConfig(tau_cls=1e-9, delta_roi=max(DIMS),
                              entropy_gate_active=False)
    res = refine_pseudo_label(candidate, probs, prompts, config,
                              OrganRefinementState(class_id=1))
    assert np.array_equal(res.mask, candidate)


def test_config_validation():
    with pytest.raises(RejectedInputError):
        RefinementConfig(tau_cls=0.0)
    with pytest.raises(RejectedInputError):
        RefinementConfig(tau_cls=1.0)
    with pytest.raises(RejectedInputError):
        RefinementConfig(delta_roi=-1)
