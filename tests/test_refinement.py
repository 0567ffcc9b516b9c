import dataclasses
import math

import numpy as np
import pytest

from promptseg.errors import EmptyMaskError, RejectedInputError
from promptseg.prompting import AXIAL, SAGITTAL, Box2D, BoxPromptPair, make_box_prompts
from promptseg.refinement import (ACCEPTED, REJECT_EMPTIED, REJECT_ENTROPY,
                                  OrganRefinementState, RefinementConfig,
                                  apply_class_threshold, build_roi,
                                  entropy_gate, mean_mask_entropy,
                                  refine_pseudo_label, refine_stored, roi_box)
from promptseg.volgrid import (LabelMap, ProbVolume, crop_mask, paste_mask, softmax_from_logits,
                               voxel_entropy)

DIMS = (32, 32, 32)


def whole(res, dims=DIMS):
    """A refinement result's kept mask on the whole grid."""
    return paste_mask(res.mask, res.box, dims)


def held(state, dims=DIMS):
    """A state's stored pseudo-label on the whole grid."""
    return paste_mask(state.current_pseudo, state.box, dims)


def assert_kept_after_rejection(new, old, rejected):
    """``new`` holds what ``old`` held, the very same objects, and the
    rejected attempt."""
    for f in dataclasses.fields(old):
        if f.name != "rejected":
            assert getattr(new, f.name) is getattr(old, f.name), f.name
    assert new.rejected == rejected


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
    assert entropy_gate(None, 0.9, gate_active=False)        # inactive: accept
    assert entropy_gate(0.9, 0.7, gate_active=True)          # strict decrease
    assert not entropy_gate(0.7, 0.7, gate_active=True)      # equal is a reject
    assert not entropy_gate(0.7, 0.71, gate_active=True)     # compared with the last accept
    assert entropy_gate(None, 5.0, gate_active=True)         # no previous: accept


def test_refine_identity_when_filters_vacuous():
    mask = sphere(DIMS, (16, 16, 16), 5)
    p_fg = np.where(mask, np.float32(0.99), np.float32(0.01))
    probs = two_class_probs(p_fg)
    prompts = gt_prompts(mask)
    state = OrganRefinementState(class_id=1)
    res = refine_pseudo_label(mask, probs, prompts,
                              RefinementConfig(entropy_gate_active=False), state)
    assert res.accepted and res.reason == ACCEPTED
    assert np.array_equal(whole(res), mask)
    assert np.array_equal(held(res.state), mask)
    cut, box = crop_mask(mask)  # held on its tight box
    assert res.box == res.state.box == box and res.mask.tobytes() == cut.tobytes()


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
    kept = whole(res)
    assert np.array_equal(kept, expected)
    assert not (kept & blob).any()
    assert (kept & core).sum() == (core & roi).sum()


def test_refine_gated_rejection_keeps_stored_label():
    mask = sphere(DIMS, (16, 16, 16), 5)
    sharp = two_class_probs(np.where(mask, np.float32(0.99), np.float32(0.01)))
    fuzzy = two_class_probs(np.where(mask, np.float32(0.6), np.float32(0.4)))
    prompts = gt_prompts(mask)
    state = OrganRefinementState(class_id=1)
    first = refine_pseudo_label(mask, sharp, prompts,
                                RefinementConfig(entropy_gate_active=False), state)
    assert first.accepted
    second = refine_pseudo_label(mask, fuzzy, prompts,
                                 RefinementConfig(entropy_gate_active=True), first.state)
    assert not second.accepted and second.reason == REJECT_ENTROPY
    # the stored label and its comparator stay; the attempt is remembered
    assert_kept_after_rejection(second.state, first.state,
                                (prompts, REJECT_ENTROPY, second.mean_entropy))
    assert second.state.mean_entropy == first.mean_entropy


def test_refine_stores_probabilities_at_the_accepted_voxels():
    mask = sphere(DIMS, (16, 16, 16), 5)
    rng = np.random.default_rng(3)
    p_fg = np.where(mask, rng.uniform(0.5, 1.0, DIMS), 0.01).astype(np.float32)
    state = OrganRefinementState(class_id=1)
    res = refine_pseudo_label(mask, two_class_probs(p_fg), gt_prompts(mask),
                              RefinementConfig(entropy_gate_active=False), state)
    assert res.accepted
    stored = res.state
    assert stored.current_conf.shape == (int(mask.sum()),)
    assert np.array_equal(stored.current_conf, p_fg[held(stored)])  # C order
    assert not stored.current_conf.flags.writeable
    fuzzy = two_class_probs(np.where(mask, np.float32(0.6), np.float32(0.4)))
    again = refine_pseudo_label(mask, fuzzy, gt_prompts(mask),
                                RefinementConfig(entropy_gate_active=True), stored)
    assert again.state.current_conf is stored.current_conf  # a rejection keeps them


def test_refine_emptied_candidate_is_reject():
    mask = sphere(DIMS, (16, 16, 16), 5)
    low = two_class_probs(np.where(mask, np.float32(0.2), np.float32(0.1)))
    state = OrganRefinementState(class_id=1)
    res = refine_pseudo_label(mask, low, gt_prompts(mask),
                              RefinementConfig(entropy_gate_active=False), state)
    assert not res.accepted and res.reason == REJECT_EMPTIED
    assert res.mean_entropy is None and res.mask.shape == (0, 0, 0)
    assert_kept_after_rejection(res.state, state, (gt_prompts(mask), REJECT_EMPTIED, None))
    assert state.current_pseudo is None and state.mean_entropy is None


def test_refine_accept_returns_the_next_state_and_modifies_nothing_given():
    mask = sphere(DIMS, (16, 16, 16), 5)
    old_mask = sphere(DIMS, (15, 16, 16), 4)
    p_fg = np.where(mask, np.float32(0.9), np.float32(0.05))
    probs, prompts = two_class_probs(p_fg), gt_prompts(mask)
    state = OrganRefinementState(2, *crop_mask(old_mask),
                                 np.full(int(old_mask.sum()), np.float32(0.7)), 0.5)
    before = dict(vars(state))
    inputs = (mask.copy(), probs.data.copy())
    res = refine_pseudo_label(mask, probs, prompts, RefinementConfig(), state)
    assert res.accepted
    assert all(getattr(state, name) is value for name, value in before.items())
    assert np.array_equal(held(state), old_mask)
    assert np.array_equal(mask, inputs[0]) and np.array_equal(probs.data, inputs[1])
    new = res.state
    assert new is not state and new.class_id == 2
    assert np.array_equal(held(new), mask) and new.current_pseudo is res.mask
    assert np.array_equal(new.current_conf, p_fg[mask]) and new.prompts == prompts
    assert new.mean_entropy == res.mean_entropy == mean_mask_entropy(mask, voxel_entropy(probs))
    assert not new.current_pseudo.flags.writeable and not new.current_conf.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        new.mean_entropy = 0.0


def test_refine_stored_equals_refining_the_same_answer_again():
    mask = sphere(DIMS, (16, 16, 16), 5)
    candidate = mask | sphere(DIMS, (3, 3, 3), 2)  # a blob outside the ROI
    p_fg = np.where(candidate, np.random.default_rng(5).uniform(0.3, 1.0, DIMS), 0.05)
    probs, prompts = two_class_probs(p_fg), gt_prompts(mask)
    first = refine_pseudo_label(candidate, probs, prompts,
                                RefinementConfig(entropy_gate_active=False),
                                OrganRefinementState(class_id=1))
    assert first.accepted and first.state.prompts == prompts
    for gate in (False, True):
        config = RefinementConfig(entropy_gate_active=gate)
        again = refine_pseudo_label(candidate, probs, prompts, config, first.state)
        stored = refine_stored(first.state, prompts, config)
        assert ((stored.accepted, stored.reason, stored.mean_entropy)
                == (again.accepted, again.reason, again.mean_entropy)
                == (not gate, REJECT_ENTROPY if gate else ACCEPTED, first.mean_entropy))
        assert stored.mask.tobytes() == again.mask.tobytes() and stored.box == again.box
        got, want = stored.state, again.state
        assert got is first.state
        assert got.current_pseudo.tobytes() == want.current_pseudo.tobytes()
        assert got.current_conf.tobytes() == want.current_conf.tobytes()
        assert (got.mean_entropy, got.prompts) == (want.mean_entropy, want.prompts)
    # nothing stored, or other prompts: the generalist must be asked
    assert refine_stored(OrganRefinementState(class_id=1), prompts, RefinementConfig()) is None
    other = gt_prompts(mask, padding=2)
    assert other != prompts and refine_stored(first.state, other, RefinementConfig()) is None


def test_refine_stored_replays_the_last_rejection():
    """A rejected answer is rejected again, for the same reason at the same
    entropy, until an accept replaces the state."""
    mask = sphere(DIMS, (16, 16, 16), 5)
    sharp = two_class_probs(np.where(mask, np.float32(0.99), np.float32(0.01)))
    fuzzy = two_class_probs(np.where(mask, np.float32(0.6), np.float32(0.4)))
    low = two_class_probs(np.where(mask, np.float32(0.2), np.float32(0.1)))
    first_prompts, fuzzy_prompts, low_prompts = (gt_prompts(mask, padding=k) for k in (6, 4, 2))
    gated = RefinementConfig(entropy_gate_active=True)
    state = refine_pseudo_label(mask, sharp, first_prompts, gated,
                                OrganRefinementState(class_id=1)).state
    for probs, prompts, reason in ((fuzzy, fuzzy_prompts, REJECT_ENTROPY),
                                   (low, low_prompts, REJECT_EMPTIED)):
        asked = refine_pseudo_label(mask, probs, prompts, gated, state)
        assert not asked.accepted and asked.reason == reason
        replayed = refine_stored(asked.state, prompts, gated)
        assert ((replayed.accepted, replayed.reason, replayed.mean_entropy)
                == (asked.accepted, asked.reason, asked.mean_entropy))
        assert replayed.state is asked.state and replayed.mask is None
        # asking again gives the same outcome and the same state content
        again = refine_pseudo_label(mask, probs, prompts, gated, asked.state)
        assert_kept_after_rejection(again.state, asked.state, asked.state.rejected)
        # the stored pseudo-label's own prompts still re-gate on it
        assert refine_stored(asked.state, first_prompts, gated).mask is state.current_pseudo
        state = asked.state
    # only the last rejection is kept, and an accept drops it
    assert refine_stored(state, fuzzy_prompts, gated) is None
    accepted = refine_pseudo_label(mask, sharp, fuzzy_prompts, RefinementConfig(), state).state
    assert accepted.rejected is None and refine_stored(accepted, low_prompts, gated) is None


def test_refine_takes_two_class_probabilities_only():
    mask = sphere(DIMS, (16, 16, 16), 5)
    p_fg = np.where(mask, np.float32(0.9), np.float32(0.05))
    three = ProbVolume(np.stack([1.0 - p_fg, p_fg / 2, p_fg / 2]).astype(np.float32))
    state = OrganRefinementState(class_id=1)
    with pytest.raises(RejectedInputError, match="2-class"):
        refine_pseudo_label(mask, three, gt_prompts(mask), RefinementConfig(), state)


def random_face_prompts(rng, dims):
    """Box prompts whose corners often sit on the grid's faces."""
    def span(n):
        lo, hi = np.sort(rng.integers(0, n, size=2))
        return (0 if rng.random() < 0.3 else int(lo)), (n - 1 if rng.random() < 0.3 else int(hi))
    H, W, D = dims
    (y0, y1), (x0, x1), (y2, y3), (z0, z1) = span(H), span(W), span(H), span(D)
    return BoxPromptPair(class_id=1,
                         axial=Box2D(AXIAL, int(rng.integers(0, D)), (y0, x0), (y1, x1)),
                         sagittal=Box2D(SAGITTAL, int(rng.integers(0, W)), (y2, z0), (y3, z1)))


def test_refine_reads_whole_grid_and_roi_box_probabilities_alike():
    rng = np.random.default_rng(21)
    dims = (20, 17, 13)
    reasons = set()
    for _ in range(60):
        candidate = rng.random(dims) < rng.uniform(0.0, 0.9) ** 3
        probs = two_class_probs(rng.random(dims).astype(np.float32))
        prompts = random_face_prompts(rng, dims)
        config = RefinementConfig(tau_cls=float(rng.uniform(0.05, 0.99)),
                                  delta_roi=int(rng.integers(0, 5)),
                                  entropy_gate_active=bool(rng.random() < 0.5))
        state = OrganRefinementState(1, mean_entropy=float(rng.uniform(0.4, 0.7)))
        box = roi_box(prompts, config.delta_roi, dims)
        on_grid = refine_pseudo_label(candidate, probs, prompts, config, state)
        on_box = refine_pseudo_label(candidate, ProbVolume(probs.data[(slice(None),) + box]),
                                     prompts, config, state)
        # the full-grid filters and entropy, as refinement computed them before it cropped
        kept = apply_class_threshold(candidate, probs, 1, config.tau_cls) & \
            build_roi(prompts, config.delta_roi, dims)
        cut, cut_box = crop_mask(kept)
        for res in (on_grid, on_box):
            assert res.mask.tobytes() == cut.tobytes() and res.box == cut_box
            assert res.mask.shape == cut.shape
            assert res.reason == on_grid.reason and res.mean_entropy == on_grid.mean_entropy
            if kept.any():
                assert res.mean_entropy == mean_mask_entropy(kept, voxel_entropy(probs))
            if res.accepted:
                assert held(res.state, dims).tobytes() == kept.tobytes()
                assert res.state.current_conf.tobytes() == probs.class_probs(1)[kept].tobytes()
                assert res.state.mean_entropy == res.mean_entropy
            else:
                assert_kept_after_rejection(res.state, state,
                                            (prompts, res.reason, res.mean_entropy))
        reasons.add(on_grid.reason)
    assert reasons == {ACCEPTED, REJECT_EMPTIED, REJECT_ENTROPY}


def test_refine_crops_whole_grid_probabilities_without_checking_them_again(monkeypatch):
    mask = sphere(DIMS, (16, 16, 16), 5)
    prompts = gt_prompts(mask)
    probs = two_class_probs(np.where(mask, np.float32(0.9), np.float32(0.2)))
    checks = []
    real = ProbVolume.__post_init__
    monkeypatch.setattr(ProbVolume, "__post_init__",
                        lambda self: checks.append(self) or real(self))
    res = refine_pseudo_label(mask, probs, prompts, RefinementConfig(delta_roi=3),
                              OrganRefinementState(class_id=1))
    assert res.accepted and whole(res).tobytes() == mask.tobytes()
    assert not checks


def test_refine_rejects_probabilities_on_other_dims():
    mask = sphere(DIMS, (16, 16, 16), 5)
    prompts = gt_prompts(mask)
    box_shape = build_roi(prompts, 3, DIMS)[roi_box(prompts, 3, DIMS)].shape
    assert box_shape != DIMS
    for shape in [(31, 32, 32), (32, 32, 33), box_shape[:2] + (box_shape[2] + 1,),
                  (box_shape[0] - 1,) + box_shape[1:], (1, 1, 1)]:
        probs = two_class_probs(np.full(shape, np.float32(0.9)))
        with pytest.raises(RejectedInputError, match="dims"):
            refine_pseudo_label(mask, probs, prompts, RefinementConfig(delta_roi=3),
                                OrganRefinementState(class_id=1))


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
        assert not (whole(res) & ~candidate).any()  # refined subseteq candidate
        # the two voxel filters commute
        roi = build_roi(prompts, config.delta_roi, DIMS)
        t_then_r = apply_class_threshold(candidate, probs, 1, 0.4) & roi
        r_then_t = apply_class_threshold(candidate & roi, probs, 1, 0.4)
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
    assert np.array_equal(whole(res), candidate)


def test_config_validation():
    with pytest.raises(RejectedInputError):
        RefinementConfig(tau_cls=0.0)
    with pytest.raises(RejectedInputError):
        RefinementConfig(tau_cls=1.0)
    with pytest.raises(RejectedInputError):
        RefinementConfig(delta_roi=-1)
