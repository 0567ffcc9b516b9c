import math

import numpy as np
import pytest

from promptseg.errors import RejectedInputError
from promptseg.volgrid import (EMPTY_BOX, PROB_SUM_TOL, LabelMap, ProbVolume, Volume,
                               argmax_labelmap, class_mask, crop_mask, paste_mask,
                               softmax_from_logits, union_box, voxel_entropy)


def probs_1vox(*values):
    arr = np.array(values, dtype=np.float32).reshape(len(values), 1, 1, 1)
    return ProbVolume(arr)


def test_softmax_symmetric_logits():
    p = softmax_from_logits(np.zeros((2, 1, 1, 1), dtype=np.float32))
    assert np.allclose(p.data, 0.5)


def test_softmax_extreme_logits_no_overflow():
    logits = np.zeros((2, 1, 1, 1), dtype=np.float32)
    logits[0] = 1000.0
    p = softmax_from_logits(logits)
    assert p.data[0, 0, 0, 0] == pytest.approx(1.0)
    assert p.data[1, 0, 0, 0] == pytest.approx(0.0)


def test_softmax_ln2_logit():
    logits = np.zeros((2, 1, 1, 1), dtype=np.float32)
    logits[0] = math.log(2.0)
    p = softmax_from_logits(logits)
    assert abs(p.data[0, 0, 0, 0] - 2.0 / 3.0) < 1e-6
    assert abs(p.data[1, 0, 0, 0] - 1.0 / 3.0) < 1e-6


def test_softmax_rejects_nonfinite():
    logits = np.zeros((2, 2, 2, 2), dtype=np.float32)
    logits[0, 0, 0, 0] = np.nan
    with pytest.raises(RejectedInputError):
        softmax_from_logits(logits)
    logits[0, 0, 0, 0] = np.inf
    with pytest.raises(RejectedInputError):
        softmax_from_logits(logits)


def test_softmax_sums_to_one_randomized():
    rng = np.random.default_rng(7)
    logits = rng.normal(0, 10, size=(5, 12, 10, 11)).astype(np.float32)
    p = softmax_from_logits(logits)
    sums = p.data.sum(axis=0, dtype=np.float64)
    assert sums.size >= 1000
    assert np.abs(sums - 1.0).max() < 1e-5


def test_argmax_matches_raw_logit_argmax():
    rng = np.random.default_rng(11)
    logits = rng.normal(0, 3, size=(4, 6, 5, 7)).astype(np.float32)
    lab = argmax_labelmap(softmax_from_logits(logits))
    assert np.array_equal(lab.data, np.argmax(logits, axis=0))


def test_argmax_examples_and_tie_break():
    assert argmax_labelmap(probs_1vox(0.1, 0.7, 0.2)).data[0, 0, 0] == 1
    assert argmax_labelmap(probs_1vox(0.5, 0.5)).data[0, 0, 0] == 0
    uniform = ProbVolume(np.full((3, 2, 2, 2), np.float32(1 / 3)))
    assert not argmax_labelmap(uniform).data.any()


def test_class_mask_examples():
    zeros = LabelMap(np.zeros((2, 2, 2), dtype=np.uint8), 3)
    assert not class_mask(zeros, 1).any()
    const = LabelMap(np.full((2, 2, 2), 2, dtype=np.uint8), 3)
    assert class_mask(const, 2).all()
    mixed = LabelMap(np.array([0, 1, 1, 2], dtype=np.uint8).reshape(4, 1, 1), 3)
    assert np.array_equal(class_mask(mixed, 1).ravel(), [False, True, True, False])
    with pytest.raises(RejectedInputError):
        class_mask(mixed, 3)


def test_voxel_entropy_examples():
    assert voxel_entropy(probs_1vox(1.0, 0.0))[0, 0, 0] == 0.0
    h4 = voxel_entropy(ProbVolume(np.full((4, 1, 1, 1), np.float32(0.25))))
    assert h4[0, 0, 0] == pytest.approx(math.log(4.0), abs=1e-6)
    assert voxel_entropy(probs_1vox(0.5, 0.5))[0, 0, 0] == pytest.approx(math.log(2.0), abs=1e-6)


def test_voxel_entropy_bounds_and_permutation_invariance():
    rng = np.random.default_rng(3)
    logits = rng.normal(0, 4, size=(5, 8, 8, 8)).astype(np.float32)
    p = softmax_from_logits(logits)
    h = voxel_entropy(p)
    assert h.min() >= 0.0
    assert h.max() <= math.log(5.0) + 1e-6
    perm = rng.permutation(5)
    h_perm = voxel_entropy(ProbVolume(np.ascontiguousarray(p.data[perm])))
    assert np.abs(h - h_perm).max() < 1e-6  # summation order costs a few ulps


def test_probvolume_invariants_enforced():
    with pytest.raises(RejectedInputError):
        ProbVolume(np.full((2, 1, 1, 1), np.float32(0.7)))  # sums to 1.4
    bad = np.zeros((2, 1, 1, 1), dtype=np.float32)
    bad[0] = 1.2
    bad[1] = -0.2
    with pytest.raises(RejectedInputError):
        ProbVolume(bad)
    with pytest.raises(RejectedInputError):
        ProbVolume(np.full((1, 1, 1, 1), np.float32(1.0)))  # C < 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probvolume_rejects_non_finite_entries(bad):
    data = np.full((2, 4, 4, 4), 0.5, np.float32)
    data[1, 2, 3, 1] = bad
    with pytest.raises(RejectedInputError, match=r"not all in \[0, 1\]"):
        ProbVolume(data.copy())  # a constructor takes and freezes its array
    data[0, 0, 0, 0] = bad  # also where the first plane seeds the sum
    with pytest.raises(RejectedInputError):
        ProbVolume(data)


def test_probvolume_sum_check_equals_the_whole_volume_float64_sum():
    rng = np.random.default_rng(8)
    for trial in range(40):
        C = int(rng.integers(2, 17))
        data = rng.dirichlet(np.ones(C), size=(3, 4, 5)).astype(np.float32)
        data = np.ascontiguousarray(np.moveaxis(data, -1, 0))
        data[rng.integers(C), rng.integers(3), rng.integers(4), rng.integers(5)] *= (
            np.float32(rng.choice([1.0, 1.0 + 2e-5, 1.0 - 2e-5, 1.5])))
        data = np.clip(data, 0.0, 1.0)
        err = float(np.abs(data.sum(axis=0, dtype=np.float64) - 1.0).max())
        if err > PROB_SUM_TOL:
            with pytest.raises(RejectedInputError, match="sum to 1"):
                ProbVolume(data)
        else:
            ProbVolume(data)


def test_crop_and_paste_mask_round_trip_on_tight_boxes():
    rng = np.random.default_rng(12)
    dims = (7, 6, 5)
    for _ in range(50):
        mask = rng.random(dims) < rng.uniform(0.0, 0.1)
        cut, box = crop_mask(mask, origin=(2, 0, 3))
        if not mask.any():
            assert cut.shape == (0, 0, 0) and box == EMPTY_BOX
            continue
        nz = np.argwhere(mask)
        lo, hi = nz.min(axis=0), nz.max(axis=0) + 1
        assert box == tuple(slice(int(a) + o, int(b) + o) for a, b, o in zip(lo, hi, (2, 0, 3)))
        assert cut.tobytes() == mask[tuple(slice(a, b) for a, b in zip(lo, hi))].tobytes()
        assert not np.shares_memory(cut, mask)
        grid = paste_mask(cut, crop_mask(mask)[1], dims)
        assert grid.dtype == bool and np.array_equal(grid, mask)
    a, b = (slice(1, 3), slice(0, 2), slice(4, 5)), (slice(2, 6), slice(1, 2), slice(0, 1))
    outer = union_box([a, b])
    assert outer == (slice(1, 6), slice(0, 2), slice(0, 5))


def test_labelmap_and_volume_validation():
    with pytest.raises(RejectedInputError):
        LabelMap(np.array([[[3]]], dtype=np.uint8), 3)  # label >= C
    with pytest.raises(RejectedInputError):
        Volume(np.zeros((2, 2), dtype=np.float32))  # not 3D
    with pytest.raises(RejectedInputError):
        Volume(np.zeros((2, 2, 2), dtype=np.float32), spacing=(1.0, 0.0, 1.0))
    vol = Volume(np.zeros((2, 3, 4), dtype=np.float32), spacing=(1.0, 2.0, 3.0))
    assert vol.dims == (2, 3, 4)
    assert not vol.data.flags.writeable


@pytest.mark.parametrize("values, message", [
    # what a cast to uint8 made of each: 0, 1, 2 / 1, 2, 0 / 255, 0, 1 / 44 / 255 / 0
    (np.array([0.7, 1.9, 2.2], np.float32), "bool or integers, got float32"),
    (np.array([1.0, 2.0, 0.0], np.float64), "bool or integers, got float64"),
    (np.array([-1.5, 0.0, 1.0]), "bool or integers, got float64"),
    (np.array([300, 1, 0], np.int64), r"integers in \[0, 255\], got int64 from 0 to 300"),
    (np.array([-1, 1, 0], np.int8), r"integers in \[0, 255\], got int8 from -1 to 1"),
    (np.array([256, 0, 0], np.uint16), r"integers in \[0, 255\], got uint16 from 0 to 256")],
    ids=["float32", "whole-float64", "negative-float", "int64-300", "int8-negative", "uint16-256"])
def test_labelmap_refuses_data_uint8_cannot_hold_exactly(values, message):
    with pytest.raises(RejectedInputError, match=f"label data must be {message}"):
        LabelMap(values.reshape(1, 1, 3), 3)


def test_labelmap_takes_bool_and_integers_in_uint8_range_as_they_are():
    for values in (np.array([True, False, True]), np.array([0, 255, 7], np.int64),
                   np.array([0, 127, 1], np.int8), np.array([255, 0, 2], np.uint16)):
        labels = LabelMap(values.reshape(1, 1, 3), 256)
        assert labels.data.dtype == np.uint8
        assert labels.data.ravel().tolist() == values.astype(int).tolist()


@pytest.mark.parametrize("spacing", [(1e-50, 1.0, 1.0), (1.0, 1e39, 1.0)])
def test_volume_spacing_must_survive_float32(spacing):
    """NIfTI stores spacing as float32: a value that underflows to 0 or
    overflows to inf there is refused, with no overflow warning."""
    with pytest.raises(RejectedInputError, match="spacing"):
        Volume(np.zeros((2, 2, 2), dtype=np.float32), spacing=spacing)


def test_probvolume_crop_is_a_contiguous_read_only_copy_not_checked_again(monkeypatch):
    rng = np.random.default_rng(6)
    p = softmax_from_logits(rng.normal(size=(3, 5, 6, 7)).astype(np.float32))
    checks = []
    real = ProbVolume.__post_init__
    monkeypatch.setattr(ProbVolume, "__post_init__",
                        lambda self: checks.append(self) or real(self))
    for region in ((slice(1, 4), slice(0, 6), slice(2, 3)),
                   (slice(0, 5), slice(0, 6), slice(0, 7))):
        crop = p.crop(region)
        assert crop.data.flags.c_contiguous and not crop.data.flags.writeable
        assert not np.shares_memory(crop.data, p.data)
        want = np.ascontiguousarray(p.data[(slice(None),) + region])
        assert crop.data.tobytes() == want.tobytes()
        assert crop.num_classes == 3 and crop.dims == tuple(s.stop - s.start for s in region)
    assert not checks
