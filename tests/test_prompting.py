import numpy as np
import pytest

from promptseg.errors import (NoForegroundError, NoPredictionError,
                              RejectedInputError)
from promptseg.prompting import (AXIAL, SAGITTAL, Box2D, bbox_2d,
                                 format_prompts, make_box_prompts,
                                 median_foreground_slice, pad_box,
                                 parse_prompts)
from promptseg.volgrid import LabelMap


def mask_with_axial_slices(indices, dims=(8, 8, 16)):
    mask = np.zeros(dims, dtype=bool)
    for z in indices:
        mask[4, 4, z] = True
    return mask


def rasterize_sphere(dims, center, radius):
    # independent voxel-by-voxel oracle
    mask = np.zeros(dims, dtype=bool)
    cy, cx, cz = center
    for y in range(dims[0]):
        for x in range(dims[1]):
            for z in range(dims[2]):
                if (y - cy) ** 2 + (x - cx) ** 2 + (z - cz) ** 2 <= radius ** 2:
                    mask[y, x, z] = True
    return mask


def test_median_slice_examples():
    assert median_foreground_slice(mask_with_axial_slices([4]), AXIAL) == 4
    assert median_foreground_slice(mask_with_axial_slices([2, 5, 9]), AXIAL) == 5
    assert median_foreground_slice(mask_with_axial_slices([2, 5, 9, 10]), AXIAL) == 5
    with pytest.raises(NoForegroundError):
        median_foreground_slice(np.zeros((4, 4, 4), dtype=bool), AXIAL)


def test_median_slice_invariant_to_duplication_within_slices():
    mask = mask_with_axial_slices([2, 5, 9])
    dense = mask.copy()
    dense[1:7, 1:7, 5] = True  # more foreground, same occupied slices
    assert median_foreground_slice(dense, AXIAL) == median_foreground_slice(mask, AXIAL)


def test_bbox_examples():
    sl = np.zeros((10, 10), dtype=bool)
    sl[3, 7] = True
    assert bbox_2d(sl) == ((3, 7), (3, 7))
    sl[5, 3] = False
    sl2 = np.zeros((10, 10), dtype=bool)
    sl2[2, 3] = sl2[5, 7] = True
    assert bbox_2d(sl2) == ((2, 3), (5, 7))
    assert bbox_2d(np.ones((8, 8), dtype=bool)) == ((0, 0), (7, 7))
    with pytest.raises(NoForegroundError):
        bbox_2d(np.zeros((4, 4), dtype=bool))


def test_pad_box_examples():
    box = Box2D(AXIAL, 0, (10, 10), (20, 20))
    padded = pad_box(box, 6, (64, 64))
    assert (padded.lo, padded.hi) == ((4, 4), (26, 26))
    clamped = pad_box(Box2D(AXIAL, 0, (2, 2), (5, 5)), 6, (64, 64))
    assert (clamped.lo, clamped.hi) == ((0, 0), (11, 11))
    same = pad_box(box, 0, (64, 64))
    assert (same.lo, same.hi) == (box.lo, box.hi)
    with pytest.raises(RejectedInputError):
        pad_box(box, -1, (64, 64))


def test_make_box_prompts_sphere_against_rasterization_oracle():
    dims = (32, 32, 32)
    sphere = rasterize_sphere(dims, (16, 16, 16), 5)
    pred = LabelMap(sphere.astype(np.uint8), 2)
    prompts = make_box_prompts(pred, 1, padding=0)
    assert prompts.axial.slice_index == 16
    # oracle: tight bounds of the rasterized sphere on the selected slice
    rows, cols = np.nonzero(sphere[:, :, 16])
    assert prompts.axial.lo == (rows.min(), cols.min()) == (11, 11)
    assert prompts.axial.hi == (rows.max(), cols.max()) == (21, 21)
    padded = make_box_prompts(pred, 1, padding=6)
    assert padded.axial.lo == (5, 5)
    assert padded.axial.hi == (27, 27)
    assert padded.sagittal.lo == (5, 5)
    assert padded.sagittal.hi == (27, 27)


def test_make_box_prompts_absent_class():
    pred = LabelMap(np.zeros((8, 8, 8), dtype=np.uint8), 3)
    with pytest.raises(NoPredictionError):
        make_box_prompts(pred, 2)


def random_blob_mask(rng, dims):
    mask = np.zeros(dims, dtype=bool)
    n = rng.integers(1, 30)
    ys = rng.integers(0, dims[0], n)
    xs = rng.integers(0, dims[1], n)
    zs = rng.integers(0, dims[2], n)
    mask[ys, xs, zs] = True
    return mask


def test_prompt_properties_randomized():
    rng = np.random.default_rng(42)
    dims = (14, 12, 10)
    for _ in range(500):
        mask = random_blob_mask(rng, dims)
        pred = LabelMap(mask.astype(np.uint8), 2)
        tight = make_box_prompts(pred, 1, padding=0)
        padded = make_box_prompts(pred, 1, padding=6)
        # every foreground voxel of the selected slices lies inside the tight box
        ax = tight.axial
        rows, cols = np.nonzero(mask[:, :, ax.slice_index])
        assert rows.min() >= ax.lo[0] and rows.max() <= ax.hi[0]
        assert cols.min() >= ax.lo[1] and cols.max() <= ax.hi[1]
        sg = tight.sagittal
        rows, cols = np.nonzero(mask[:, sg.slice_index, :])
        assert rows.min() >= sg.lo[0] and rows.max() <= sg.hi[0]
        assert cols.min() >= sg.lo[1] and cols.max() <= sg.hi[1]
        # padded boxes contain the tight boxes and never leave the volume
        for t, p, lim in ((tight.axial, padded.axial, (dims[0], dims[1])),
                          (tight.sagittal, padded.sagittal, (dims[0], dims[2]))):
            assert p.lo[0] <= t.lo[0] and p.lo[1] <= t.lo[1]
            assert p.hi[0] >= t.hi[0] and p.hi[1] >= t.hi[1]
            assert p.lo[0] >= 0 and p.lo[1] >= 0
            assert p.hi[0] < lim[0] and p.hi[1] < lim[1]


def test_prompt_wire_format_round_trip():
    pred = LabelMap(rasterize_sphere((32, 32, 32), (16, 16, 16), 5).astype(np.uint8), 2)
    prompts = make_box_prompts(pred, 1)
    text = format_prompts(prompts)
    back = parse_prompts(text, class_id=1)
    assert back == prompts
    with pytest.raises(RejectedInputError):
        parse_prompts("axial 1 2 3 4\n")  # wrong arity
    with pytest.raises(RejectedInputError):
        parse_prompts(text.splitlines()[0] + "\n")  # missing sagittal box


def test_box_validation():
    with pytest.raises(RejectedInputError):
        Box2D("coronal", 0, (0, 0), (1, 1))
    with pytest.raises(RejectedInputError):
        Box2D(AXIAL, 0, (2, 2), (1, 1))
    with pytest.raises(RejectedInputError):
        Box2D(SAGITTAL, -1, (0, 0), (1, 1))
