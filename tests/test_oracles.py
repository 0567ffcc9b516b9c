import errno
import logging
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from promptseg import exchange, nifti_io, oracles, phantom
from scipy import ndimage
from scipy.spatial.transform import Rotation

from promptseg.errors import (ConfigError, OracleProtocolError, OracleUnavailableError,
                              RejectedInputError, UnknownVolumeError)
from promptseg.exchange import Server
from promptseg.metrics import dice
from promptseg.oracles import (POLL_INTERVAL_S, FileOracle, GeneralistOracle, SpecialistOracle,
                               TrainingExample)
from promptseg.phantom import (Ellipsoid, PhantomGeneralist, PhantomRegistry, PhantomSpecialist,
                               PhantomSpec, _distance_from, _ellipsoid_on_box, _grow, _rng_for,
                               _rotation_matrix, _within, generate_phantom, make_phantom_suite,
                               random_phantom_spec, volume_fingerprint)
from promptseg.prompting import (Box2D, BoxPromptPair, AXIAL, SAGITTAL, format_prompts,
                                 make_box_prompts)
from promptseg.refinement import (OrganRefinementState, RefinementConfig, refine_pseudo_label,
                                  roi_box, roi_ranges)
from promptseg.vls_loss import SupervisionTarget
from promptseg.volgrid import (LabelMap, ProbVolume, Volume, argmax_labelmap,
                               class_mask, mask_to_labels, paste_mask)


# --- phantom generation -------------------------------------------------------

def test_generate_phantom_zero_organs():
    spec = PhantomSpec(dims=(8, 8, 8), organs=())
    vol, gt = generate_phantom(spec, seed=0)
    assert not gt.data.any()
    assert vol.dims == (8, 8, 8)


def test_generator_draws_the_same_values_in_consecutive_pieces():
    """Phantom noise is drawn one block of y-planes at a time: pieces of a
    ``standard_normal`` (into a reused buffer) or ``normal`` draw hold the values
    of one whole draw and leave the same state for the draws that follow."""
    sizes = [1, 4480, 7, 65536, 3, 100]
    whole = np.random.default_rng(11)
    want = whole.standard_normal(sum(sizes))
    pieces, buf = np.random.default_rng(11), np.empty(max(sizes))
    got = np.concatenate([pieces.standard_normal(out=buf[:n]).copy() for n in sizes])
    assert got.tobytes() == want.tobytes()
    assert pieces.uniform(size=5).tobytes() == whole.uniform(size=5).tobytes()
    whole, pieces = np.random.default_rng((5, 2000)), np.random.default_rng((5, 2000))
    want = whole.normal(0.0, 0.05, size=(9, 8, 7))
    got = np.concatenate([pieces.normal(0.0, 0.05, size=(n, 8, 7)) for n in (2, 1, 4, 2)])
    assert got.tobytes() == want.tobytes()
    assert pieces.standard_normal(3).tobytes() == whole.standard_normal(3).tobytes()


def test_generate_phantom_equals_its_whole_grid_draw(monkeypatch):
    """The block-by-block image equals the float32 cast of a whole-grid float64
    image plus one whole-grid noise draw, also when a block holds one plane."""
    spec = random_phantom_spec((20, 18, 16), 4, np.random.default_rng(3))
    _, gt = generate_phantom(spec, seed=(1, 2))
    intensity = np.array([0.0] + [ell.intensity for ell in spec.organs])
    noise = np.random.default_rng((1, 2)).normal(0.0, phantom.IMAGE_SIGMA, size=spec.dims)
    want = (intensity[gt.data] + noise).astype(np.float32)
    for block in (phantom.DRAW_BLOCK, 18 * 16 * 3, 1):
        monkeypatch.setattr(phantom, "DRAW_BLOCK", block)
        vol, labels = generate_phantom(spec, seed=(1, 2))
        assert vol.data.tobytes() == want.tobytes(), block
        assert labels.data.tobytes() == gt.data.tobytes()


def test_sphere_voxel_count_matches_brute_force():
    spec = PhantomSpec(dims=(32, 32, 32),
                       organs=(Ellipsoid(center=(16, 16, 16), radii=(5, 5, 5)),))
    _, gt = generate_phantom(spec, seed=0)
    count = 0
    for y in range(32):
        for x in range(32):
            for z in range(32):
                if (y - 16) ** 2 + (x - 16) ** 2 + (z - 16) ** 2 <= 25:
                    count += 1
    assert int((gt.data == 1).sum()) == count


def test_generate_phantom_deterministic():
    spec = PhantomSpec(dims=(16, 16, 16),
                       organs=(Ellipsoid(center=(8, 8, 8), radii=(4, 3, 5)),))
    v1, g1 = generate_phantom(spec, seed=42)
    v2, g2 = generate_phantom(spec, seed=42)
    assert v1.data.tobytes() == v2.data.tobytes()
    assert g1.data.tobytes() == g2.data.tobytes()


def ellipsoid_mask(dims, ell):
    """The ellipsoid's mask on its box, pasted on the grid."""
    box, inside = _ellipsoid_on_box(dims, ell)
    return paste_mask(inside, box, dims)


def test_overlap_resolved_by_organ_priority():
    spec = PhantomSpec(dims=(16, 16, 16),
                       organs=(Ellipsoid(center=(8, 8, 8), radii=(4, 4, 4)),
                               Ellipsoid(center=(9, 8, 8), radii=(4, 4, 4))))
    _, gt = generate_phantom(spec, seed=0)
    overlap = ellipsoid_mask((16, 16, 16), spec.organs[0]) & \
        ellipsoid_mask((16, 16, 16), spec.organs[1])
    assert overlap.any()
    assert (gt.data[overlap] == 1).all()  # earlier organ wins


def test_rotated_ellipsoid_matches_brute_force_formula():
    ell = Ellipsoid(center=(8.3, 7.6, 9.1), radii=(5, 3, 2), angles=(0.4, 1.1, 2.0))
    mask = ellipsoid_mask((18, 18, 18), ell)
    rot = Rotation.from_euler("zyx", ell.angles).as_matrix()
    for idx in [(8, 8, 9), (4, 4, 4), (12, 9, 9), (8, 10, 11), (0, 0, 0)]:
        p = np.asarray(idx, dtype=np.float64) - ell.center
        local = rot.T @ p
        inside = ((local / np.asarray(ell.radii)) ** 2).sum() <= 1.0
        assert mask[idx] == inside


def test_rotation_matrix_equals_scipy_from_euler_bit_for_bit():
    rng = np.random.default_rng(12)
    angles = [tuple(a) for a in rng.uniform(0.0, np.pi, size=(10_000, 3))]
    angles += [(0.0, 0.0, 0.0), (np.pi / 2,) * 3, (np.pi,) * 3, (0.0, np.pi / 2, np.pi)]
    for a in angles:
        want = Rotation.from_euler("zyx", a).as_matrix()
        assert _rotation_matrix(a).tobytes() == want.tobytes(), a


BENCHMARK_IMPORTS = ("PhantomGeneralist", "PhantomRegistry", "PhantomSpecialist",
                     "make_phantom_suite")


def test_oracles_reexports_only_the_testbed_names_the_benchmark_imports():
    import promptseg
    for name in BENCHMARK_IMPORTS:
        assert getattr(oracles, name) is getattr(phantom, name) is getattr(promptseg, name)
    own = {name for name, value in vars(phantom).items()
           if getattr(value, "__module__", None) == phantom.__name__}
    assert set(BENCHMARK_IMPORTS) < own
    assert not any(hasattr(oracles, name) for name in own - set(BENCHMARK_IMPORTS))
    with pytest.raises(AttributeError):
        oracles.generate_phantom


def test_suite_determinism_and_nonempty_organs():
    s1 = make_phantom_suite(3, 4, (24, 24, 24), seed=5)
    s2 = make_phantom_suite(3, 4, (24, 24, 24), seed=5)
    for (i1, v1, g1), (i2, v2, g2) in zip(s1, s2):
        assert i1 == i2
        assert v1.data.tobytes() == v2.data.tobytes()
        assert g1.data.tobytes() == g2.data.tobytes()
        for c in range(1, 5):
            assert (g1.data == c).any()


# --- phantom specialist ---------------------------------------------------------

def registered_suite(n=2, organs=3, dims=(24, 24, 24), seed=7):
    suite = make_phantom_suite(n, organs, dims, seed=seed)
    registry = PhantomRegistry()
    for _, vol, gt in suite:
        registry.register(vol, gt)
    return suite, registry


def test_specialist_quality_one_is_exact():
    suite, registry = registered_suite()
    spec = PhantomSpecialist(registry, quality=1.0)
    for _, vol, gt in suite:
        pred = spec.predict(vol)
        assert np.array_equal(pred.data, gt.data)


def test_specialist_unfitted_predicts_background_everywhere():
    suite, registry = registered_suite()
    spec = PhantomSpecialist(registry, quality=0.0)
    labels = spec.predict(suite[0][1])
    assert labels.num_classes == suite[0][2].num_classes
    assert not labels.data.any()


def test_specialist_unknown_volume_rejected():
    _, registry = registered_suite()
    spec = PhantomSpecialist(registry, quality=1.0)
    rogue = Volume(np.zeros((24, 24, 24), dtype=np.float32))
    with pytest.raises(UnknownVolumeError):
        spec.predict(rogue)


def test_specialist_never_supervised_class_stays_invisible():
    suite, registry = registered_suite(n=2, organs=3)
    spec = PhantomSpecialist(registry)
    examples = []
    for _, vol, gt in suite:
        target_data = np.array(gt.data)
        target_data[target_data == 3] = 0  # class 3 never annotated
        examples.append(TrainingExample(
            volume=vol,
            target=SupervisionTarget(LabelMap(target_data, gt.num_classes)),
            labeled_classes=frozenset({1, 2})))
    spec.fit(examples, supervision="partial")
    assert spec.quality(1) > 0 and spec.quality(2) > 0
    assert spec.quality(3) == 0.0
    labels = spec.predict(suite[0][1])
    assert not (labels.data == 3).any()  # organ invisible


def test_specialist_partial_fit_raises_only_labeled_classes():
    suite, registry = registered_suite()
    spec = PhantomSpecialist(registry)
    examples = []
    for _, vol, gt in suite:
        target_data = np.array(gt.data)
        target_data[target_data > 1] = 0
        examples.append(TrainingExample(
            volume=vol,
            target=SupervisionTarget(LabelMap(target_data, gt.num_classes)),
            labeled_classes=frozenset({1})))
    spec.fit(examples, supervision="partial")
    assert spec.quality(1) > 0.9
    assert spec.quality(2) == 0.0 and spec.quality(3) == 0.0


def test_specialist_full_supervision_penalizes_missing_organs():
    suite, registry = registered_suite()
    full = PhantomSpecialist(registry)
    part = PhantomSpecialist(registry)
    examples = []
    for _, vol, gt in suite:
        target_data = np.array(gt.data)
        target_data[target_data == 2] = 0  # organ 2 unannotated everywhere
        examples.append(TrainingExample(
            volume=vol,
            target=SupervisionTarget(LabelMap(target_data, gt.num_classes)),
            labeled_classes=frozenset({1, 3})))
    full.fit(examples, supervision="full")
    part.fit(examples, supervision="partial")
    assert full.quality(2) == 0.0      # contradicted by background labels
    assert part.quality(2) == 0.0      # ignored entirely
    assert full.quality(1) == pytest.approx(part.quality(1))


def test_specialist_accuracy_monotone_in_supervision():
    suite, registry = registered_suite(n=4, organs=2)
    spec = PhantomSpecialist(registry)
    _, vol0, gt0 = suite[0]

    def fit_on(k):
        examples = [TrainingExample(volume=v, target=SupervisionTarget(g),
                                    labeled_classes=frozenset({1, 2}))
                    for _, v, g in suite[:k]]
        spec.fit(examples, supervision="partial")
        pred = spec.predict(vol0)
        return dice(pred.data == 1, gt0.data == 1)

    scores = [fit_on(k) for k in (1, 2, 4)]
    assert scores[0] <= scores[1] + 1e-9 <= scores[2] + 2e-9
    assert scores[-1] > 0.8


def test_specialist_predict_deterministic():
    suite, registry = registered_suite()
    _, vol, gt = suite[0]
    s1 = PhantomSpecialist(registry, quality=0.5, seed=3)
    s2 = PhantomSpecialist(registry, quality=0.5, seed=3)
    assert s1.predict(vol).data.tobytes() == s2.predict(vol).data.tobytes()
    s3 = PhantomSpecialist(registry, quality=0.5, seed=4)
    assert s3.predict(vol).data.tobytes() != s1.predict(vol).data.tobytes()


# --- phantom generalist ----------------------------------------------------------

def test_generalist_perfect_prompts_returns_exact_gt():
    suite, registry = registered_suite()
    _, vol, gt = suite[0]
    gen = PhantomGeneralist(registry, cooperativeness=1.0)
    for c in range(1, gt.num_classes):
        prompts = make_box_prompts(gt, c, padding=6)
        mask, probs = gen.segment(vol, prompts)
        assert np.array_equal(mask, gt.data == c)
        assert float(probs.class_probs(1)[mask].min()) >= 0.9


def test_generalist_off_organ_prompts_yield_empty_output():
    suite, registry = registered_suite(dims=(40, 40, 40))
    _, vol, gt = suite[0]
    gen = PhantomGeneralist(registry, cooperativeness=1.0, assumed_padding=0)
    prompts = BoxPromptPair(class_id=1,
                            axial=Box2D(AXIAL, 1, (0, 0), (1, 1)),
                            sagittal=Box2D(SAGITTAL, 1, (0, 0), (1, 1)))
    mask, probs = gen.segment(vol, prompts)
    assert not mask.any()
    assert np.allclose(probs.data, 0.5)


def test_generalist_quality_non_increasing_with_prompt_displacement():
    suite, registry = registered_suite(n=1, organs=1, dims=(48, 48, 48), seed=11)
    _, vol, gt = suite[0]
    gen = PhantomGeneralist(registry, cooperativeness=0.9, seed=2)
    base = make_box_prompts(gt, 1, padding=6)

    def displaced(d):
        def move(box):
            return Box2D(box.axis, box.slice_index,
                         (min(box.lo[0] + d, 47), min(box.lo[1] + d, 47)),
                         (min(box.hi[0] + d, 47), min(box.hi[1] + d, 47)))
        return BoxPromptPair(class_id=1, axial=move(base.axial),
                             sagittal=move(base.sagittal))

    scores = []
    for d in (0, 4, 8, 14, 22, 30):
        mask, _ = gen.segment(vol, displaced(d))
        scores.append(dice(mask, gt.data == 1))
    for a, b in zip(scores, scores[1:]):
        assert b <= a + 0.02  # non-increasing up to noise on ties
    assert scores[0] > 0.9
    assert scores[-1] < 0.2


def test_generalist_candidate_within_half_probability_level_set():
    suite, registry = registered_suite()
    _, vol, gt = suite[0]
    gen = PhantomGeneralist(registry, cooperativeness=0.4, seed=5)
    prompts = make_box_prompts(gt, 2, padding=6)
    mask, probs = gen.segment(vol, prompts)
    assert (probs.class_probs(1)[mask] >= 0.5).all()


def test_generalist_deterministic_per_prompts():
    suite, registry = registered_suite()
    _, vol, gt = suite[0]
    gen = PhantomGeneralist(registry, cooperativeness=0.5, seed=9)
    prompts = make_box_prompts(gt, 1, padding=6)
    m1, p1 = gen.segment(vol, prompts)
    m2, p2 = gen.segment(vol, prompts)
    assert np.array_equal(m1, m2)
    assert p1.data.tobytes() == p2.data.tobytes()


def test_end_to_end_refined_pseudo_label_equals_gt():
    suite, registry = registered_suite()
    gen = PhantomGeneralist(registry, cooperativeness=1.0)
    for _, vol, gt in suite:
        for c in range(1, gt.num_classes):
            prompts = make_box_prompts(gt, c, padding=6)
            candidate, probs = gen.segment(vol, prompts)
            result = refine_pseudo_label(candidate, probs, prompts,
                                         RefinementConfig(entropy_gate_active=False),
                                         OrganRefinementState(class_id=c))
            assert result.accepted
            assert np.array_equal(paste_mask(result.mask, result.box, gt.dims),
                                  class_mask(gt, c))


# --- phantom geometry: cropped work equals the full-grid reference ---------------
# Each reference below is the plain full-volume formula; the oracles compute
# the same values on organ boxes and must agree byte for byte.

def full_grid_ellipsoid_mask(dims, ell):
    coords = np.indices(dims, dtype=np.float64)
    offs = coords - np.asarray(ell.center, dtype=np.float64).reshape(3, 1, 1, 1)
    rot = Rotation.from_euler("zyx", ell.angles).as_matrix()
    local = np.einsum("ji,j...->i...", rot, offs)
    radii = np.asarray(ell.radii, dtype=np.float64).reshape(3, 1, 1, 1)
    return ((local / radii) ** 2).sum(axis=0) <= 1.0


def full_grid_signed_distance(gt, class_id):
    mask = gt.data == class_id
    inside = ndimage.distance_transform_edt(mask)
    outside = ndimage.distance_transform_edt(~mask)
    return (inside - outside).astype(np.float32)


def assert_signed_distances_exact(registry, fp, gt):
    for c in range(1, gt.num_classes):
        got = registry.signed_distance(fp, c)
        assert got.dtype == np.float32
        assert got.tobytes() == full_grid_signed_distance(gt, c).tobytes(), c


def clustered_features(dims, rng):
    """Masks whose zeros sit in a sub-box: a blob in a corner, a blob touching each
    face, two blobs far apart on the longest axis with empty planes between them,
    and one zero voxel."""
    def blob(lo, hi):
        image = np.ones(dims, dtype=bool)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        image[box] = rng.random(image[box].shape) < 0.5
        image[tuple(int(rng.integers(a, b)) for a, b in zip(lo, hi))] = False
        return image

    def extent(n):
        return int(rng.integers(1, max(1, n // 3) + 1))

    yield blob((0, 0, 0), [extent(n) for n in dims])
    for axis, n in enumerate(dims):
        for at_end in (False, True):
            lo = [int(rng.integers(0, m)) for m in dims]
            hi = [min(a + extent(m), m) for a, m in zip(lo, dims)]
            lo[axis], hi[axis] = (n - extent(n), n) if at_end else (0, extent(n))
            image = blob(lo, hi)
            point = [int(rng.integers(a, b)) for a, b in zip(lo, hi)]
            point[axis] = n - 1 if at_end else 0           # a zero on the face itself
            image[tuple(point)] = False
            yield image
    long = int(np.argmax(dims))
    near = [(0, 1)] * 3
    near[long] = (0, max(1, dims[long] // 8))
    far = [(0, 1)] * 3
    far[long] = (dims[long] - max(1, dims[long] // 8), dims[long])
    yield blob(*zip(*near)) & blob(*zip(*far))
    image = np.ones(dims, dtype=bool)
    image[tuple(int(rng.integers(n)) for n in dims)] = False
    yield image


@pytest.mark.parametrize("dims, dtype", [
    ((1, 1, 1), np.int16), ((1, 9, 1), np.int16), ((6, 1, 7), np.int16),
    ((13, 17, 11), np.int16), ((8, 78, 103), np.int16), ((9, 78, 103), np.int32),
    ((80, 3, 80), np.int16), ((81, 2, 96), np.int16), ((3, 200, 4), np.int32)])
def test_squared_edt_equals_scipy_edt(dims, dtype):
    """The roots of ``_squared_edt`` are ``ndimage.distance_transform_edt``'s
    distances, bit for bit: on random masks from one zero voxel (no other
    line or plane holds one) to many, and on masks whose zeros sit in a
    sub-box of the grid (``clustered_features``), on sides of 1 to 200; int16
    up to the edge where twice the grid's largest squared distance, plus one,
    still fits (8 x 78 x 103), int32 past it (9 x 78 x 103)."""
    rng = np.random.default_rng(sum(dims))
    images = []
    for zeros in (1, 2, 0.01, 0.3):                     # a count or a fraction of the grid
        image = np.ones(dims, dtype=bool)
        image.flat[rng.choice(image.size, max(1, int(zeros * image.size)) if zeros < 1
                              else min(zeros, image.size), replace=False)] = False
        images.append(image)
    for case, image in enumerate(images + list(clustered_features(dims, rng))):
        got = phantom._squared_edt(image)
        assert got.dtype == dtype
        assert np.array_equal(np.sqrt(got.astype(np.float64)),
                              ndimage.distance_transform_edt(image)), case


@pytest.mark.parametrize("n, organs, dims", [
    (3, 6, (32, 32, 32)),
    (2, 6, (48, 40, 24)),
    (1, 8, (80, 80, 56)),
    (1, 6, (96, 88, 64)),
])
def test_signed_distance_equals_full_grid_edt_on_phantoms(n, organs, dims):
    suite, registry = registered_suite(n=n, organs=organs, dims=dims, seed=3)
    for _, vol, gt in suite:
        assert_signed_distances_exact(registry, volume_fingerprint(vol), gt)


def test_signed_distance_equals_full_grid_edt_on_scattered_masks():
    rng = np.random.default_rng(0)
    dims = (17, 12, 9)
    data = np.zeros(dims, dtype=np.uint8)
    data[rng.random(dims) < 0.08] = 1          # scattered single voxels, borders too
    data[0:4, 0:3, :] = 2                      # touches three faces of the grid
    data[13:17, 8:12, 0:2] = 2                 # second piece, opposite corner
    data[:, 6, 4] = 3                          # a rod spanning the grid
    data[5:9, 2:10, 3:7] = 4                   # an interior block
    data[16, 11, 8] = 5                        # the last voxel alone
    gt = LabelMap(data, 6)
    registry = PhantomRegistry()
    fp = registry.register(Volume(rng.random(dims).astype(np.float32)), gt)
    assert_signed_distances_exact(registry, fp, gt)


def test_ellipsoid_mask_equals_full_grid_formula():
    rng = np.random.default_rng(1)
    dims = (20, 16, 12)
    cases = [
        Ellipsoid(center=(10, 8, 6), radii=(4, 3, 2), angles=(0.3, 1.2, 2.5)),
        Ellipsoid(center=(10, 8, 6), radii=(5, 3, 2)),                 # extremes on voxels
        Ellipsoid(center=(4, 9, 5), radii=(2, 6, 3)),
        Ellipsoid(center=(12, 7, 3), radii=(3, 2, 7)),
        Ellipsoid(center=(-3.5, 8, 6), radii=(5, 4, 3), angles=(1.0, 0.2, 0.7)),
        Ellipsoid(center=(30, 30, 30), radii=(2, 2, 2)),               # misses the grid
        Ellipsoid(center=(-40, 8, 6), radii=(3, 3, 3)),                # misses the grid
        Ellipsoid(center=(10, 8, 6), radii=(40, 25, 30), angles=(0.5, 0.5, 0.5)),
        Ellipsoid(center=(19.5, 15.5, 11.5), radii=(6.5, 2.0, 9.0), angles=(2.0, 0.1, 1.4)),
    ]
    for _ in range(60):
        cases.append(Ellipsoid(center=tuple(rng.uniform(-6, 26, size=3)),
                               radii=tuple(rng.uniform(0.5, 12, size=3)),
                               angles=tuple(rng.uniform(0, np.pi, size=3))))
    for ell in cases:
        got = ellipsoid_mask(dims, ell)
        assert got.dtype == bool and got.shape == dims
        assert np.array_equal(got, full_grid_ellipsoid_mask(dims, ell)), ell


def test_distance_from_equals_index_grid_form():
    rng = np.random.default_rng(2)
    for dims in [(7, 5, 3), (32, 32, 32), (9, 1, 14)]:
        for center in [rng.uniform(-5, 40, size=3) for _ in range(5)] + [np.zeros(3)]:
            coords = np.indices(dims, dtype=np.float64)
            offs = coords - np.asarray(center, dtype=np.float64).reshape(3, 1, 1, 1)
            want = np.sqrt((offs ** 2).sum(axis=0))
            got = _distance_from(tuple(slice(0, n) for n in dims), center)
            assert got.shape == dims
            assert got.tobytes() == want.tobytes()


def test_specialist_quality_one_equals_positive_signed_distance():
    suite, registry = registered_suite(n=2, organs=5, dims=(32, 28, 24), seed=4)
    spec = PhantomSpecialist(registry, quality=1.0)
    for _, vol, gt in suite:
        fp = volume_fingerprint(vol)
        labels = np.zeros(gt.dims, dtype=np.uint8)
        for c in range(1, gt.num_classes):
            labels[(labels == 0) & (registry.signed_distance(fp, c) > 0.0)] = c
        assert spec.predict(vol).data.tobytes() == labels.tobytes()


def test_specialist_quality_one_rejects_empty_class():
    data = np.zeros((8, 8, 8), dtype=np.uint8)
    data[2:5, 2:5, 2:5] = 1
    registry = PhantomRegistry()
    vol = Volume(np.arange(512, dtype=np.float32).reshape(8, 8, 8))
    registry.register(vol, LabelMap(data, 3))  # class 2 has no voxels
    with pytest.raises(RejectedInputError):
        PhantomSpecialist(registry, quality=1.0).predict(vol)


def full_grid_phantom(spec, seed):
    labels = np.zeros(spec.dims, dtype=np.uint8)
    image = np.zeros(spec.dims, dtype=np.float64)
    for idx, ell in enumerate(spec.organs, start=1):
        mask = full_grid_ellipsoid_mask(spec.dims, ell) & (labels == 0)
        labels[mask] = idx
        image[mask] = ell.intensity
    image += np.random.default_rng(seed).normal(0.0, 0.05, size=spec.dims)
    return image.astype(np.float32), labels


def test_generate_phantom_equals_full_grid_rasterization():
    rng = np.random.default_rng(5)
    dims = (21, 17, 13)
    for trial in range(12):
        organs = tuple(Ellipsoid(center=tuple(rng.uniform(-4, 24, size=3)),
                                 radii=tuple(rng.uniform(1, 9, size=3)),
                                 angles=tuple(rng.uniform(0, np.pi, size=3)),
                                 intensity=float(rng.uniform(0.2, 1.0)))
                       for _ in range(int(rng.integers(1, 7))))
        organs += (Ellipsoid(center=(60, 8, 6), radii=(2, 2, 2)),)   # misses the grid
        spec = PhantomSpec(dims=dims, organs=organs)
        vol, gt = generate_phantom(spec, seed=trial)
        image, labels = full_grid_phantom(spec, trial)
        assert gt.data.tobytes() == labels.tobytes(), trial
        assert vol.data.tobytes() == image.tobytes(), trial


def test_phantom_spec_refuses_a_side_without_room_before_drawing():
    """Organs of up to 0.17 x 6 voxels plus the 1.5-voxel margin do not fit
    on a 6-voxel side, so no draw is made at all."""
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ConfigError, match=r"^dims must be >= 7"):
        random_phantom_spec((6, 6, 6), 2, rng)
    assert rng.bit_generator.state == before
    with pytest.raises(ConfigError, match=r"^dims must be >= 7"):
        make_phantom_suite(2, 2, (32, 32, 4), seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_phantom_suite_names_the_first_empty_organ(seed, monkeypatch):
    spec = random_phantom_spec((7, 7, 7), 6, np.random.default_rng((seed, 1000)))
    _, labels = full_grid_phantom(spec, (seed, 2000))
    first = next(c for c in range(1, 7) if not (labels == c).any())
    for block in (phantom.DRAW_BLOCK, 20):          # 20 values: less than one 7 x 7 plane
        monkeypatch.setattr(phantom, "DRAW_BLOCK", block)
        with pytest.raises(ConfigError) as err:
            make_phantom_suite(1, 6, (7, 7, 7), seed=seed)
        assert str(err.value) == f"phantom organ {first} rasterized empty; dims too small"


def border_label_maps():
    """Label maps whose organs touch the grid's faces, edges and corners."""
    dims = (19, 15, 11)
    data = np.zeros(dims, dtype=np.uint8)
    data[0:5, 0:4, 0:3] = 1                    # a corner
    data[14:19, 5:10, 3:8] = 2                 # the far y face
    data[7:12, 11:15, 0:11] = 3                # spans z, touches the x face
    data[8, 2, 5] = 4                          # a single voxel
    data[3:6, 6:9, 5:8] = 5                    # interior
    yield LabelMap(data, 6)
    rng = np.random.default_rng(11)
    scattered = np.zeros((12, 9, 7), dtype=np.uint8)
    scattered[rng.random(scattered.shape) < 0.05] = 1
    scattered[:, 0, 0] = 2                     # a rod along an edge
    scattered[11, 8, 6] = 3                    # the last voxel
    yield LabelMap(scattered, 4)


def full_grid_predict(gt, fp, seed, quality):
    labels = np.zeros(gt.dims, dtype=np.uint8)
    for c in range(1, gt.num_classes):
        q = quality[c]
        if q <= 0.0:
            continue
        if q >= 1.0:
            corrupted = gt.data == c
        else:
            sd = full_grid_signed_distance(gt, c)
            noise = _rng_for(seed, fp, c).standard_normal(gt.dims).astype(np.float32)
            corrupted = sd + (1.0 - q) * PhantomSpecialist.JITTER_SIGMA * noise > 0.0
        labels[(labels == 0) & corrupted] = c
    return labels


def test_specialist_predict_equals_full_grid_jitter():
    rng = np.random.default_rng(8)
    cases = list(border_label_maps())
    cases += [gt for _, _, gt in make_phantom_suite(2, 6, (26, 22, 18), seed=9)]
    for gt in cases:
        registry = PhantomRegistry()
        vol = Volume(rng.random(gt.dims).astype(np.float32))
        fp = registry.register(vol, gt)
        for seed in (0, 1, 2):
            spec = PhantomSpecialist(registry, seed=seed)
            for trial in range(6):
                q = rng.uniform(0.0, 1.0, size=gt.num_classes)
                q[rng.random(gt.num_classes) < 0.2] = 0.0
                q[rng.random(gt.num_classes) < 0.2] = 1.0
                q[rng.random(gt.num_classes) < 0.3] = 1e-6   # widest jitter, clipped boxes
                spec._quality = {c: float(q[c]) for c in range(1, gt.num_classes)}
                if trial == 3:                              # a full-grid read, as segment does
                    registry.signed_distance(fp, int(rng.integers(1, gt.num_classes)))
                want = full_grid_predict(gt, fp, seed, q)
                assert spec.predict(vol).data.tobytes() == want.tobytes(), (seed, trial)


def noise_peaks(seed, fp, gt):
    """The largest ``|noise|`` of each class's draw (1 for the background,
    which is never drawn)."""
    return np.array([1.0] + [float(np.abs(_rng_for(seed, fp, c).standard_normal(gt.dims)).max())
                             for c in range(1, gt.num_classes)])


def test_specialist_predict_skips_only_draws_that_cannot_flip_a_voxel():
    rng = np.random.default_rng(15)
    cases = list(border_label_maps())
    cases += [gt for _, _, gt in make_phantom_suite(1, 5, (26, 22, 18), seed=4)]
    parity = np.indices((9, 8, 7)).sum(axis=0)
    cases += [LabelMap((parity % k).astype(np.uint8), k) for k in (2, 3)]  # every |sd| is 1
    for gt in cases:
        registry = PhantomRegistry()
        vol = Volume(rng.random(gt.dims).astype(np.float32))
        fp = registry.register(vol, gt)
        for seed in (0, 5, 9):
            peaks = noise_peaks(seed, fp, gt)
            spec = PhantomSpecialist(registry, seed=seed)
            # scale * max|noise| per class: fresh just under 1/2, just over, under
            # again, past the |sd| >= 1 margin, mixed; then q = 1 - 1e-4
            for ratio in (0.5 - 1e-9, 0.5 + 1e-9, 0.5 - 1e-9, 1.1,
                          np.where(rng.random(peaks.size) < 0.5, 0.5 - 1e-9, 0.5 + 1e-9)):
                q = 1.0 - ratio / (PhantomSpecialist.JITTER_SIGMA * peaks)
                spec._quality = {c: float(q[c]) for c in range(1, gt.num_classes)}
                want = full_grid_predict(gt, fp, seed, q)
                assert spec.predict(vol).data.tobytes() == want.tobytes(), (seed, ratio)
            q = np.full(peaks.size, 1.0 - 1e-4)
            spec._quality = {c: float(q[c]) for c in range(1, gt.num_classes)}
            assert spec.predict(vol).data.tobytes() == full_grid_predict(gt, fp, seed, q).tobytes()


def test_specialist_second_predict_at_high_quality_draws_nothing(monkeypatch):
    suite, registry = registered_suite(n=1, organs=3)
    _, vol, gt = suite[0]
    fp = volume_fingerprint(vol)
    draws = []
    monkeypatch.setattr(phantom, "_rng_for", lambda *key: draws.append(key) or _rng_for(*key))
    high = np.full(gt.num_classes, 1.0 - 1e-4)
    for start in (0.5, 1.0 - 1e-4):       # an earlier draw at low q, or at this very q
        spec = PhantomSpecialist(registry, quality=start, seed=3)
        spec.predict(vol)
        assert len(draws) == 3
        assert spec._noise_peak == {(fp, c): float(p) for c, p in enumerate(noise_peaks(3, fp, gt))
                                    if c > 0}
        spec._quality = {c: float(high[c]) for c in range(1, gt.num_classes)}
        assert spec.predict(vol).data.tobytes() == full_grid_predict(gt, fp, 3, high).tobytes()
        assert len(draws) == 3
        draws.clear()


def whole_draw_predict(spec, vol):
    """The phantom predict with one whole-grid draw per drawn class:
    ``standard_normal(dims)``, then ``noise[box].astype(np.float32)`` on the
    organ's box grown by the reach."""
    fp, scan = spec.registry.lookup(vol)
    gt, dims = scan.gt, scan.gt.dims
    labels = np.zeros(dims, dtype=np.uint8)
    for c in range(1, gt.num_classes):
        q = spec.quality(c)
        if q <= 0.0:
            continue
        lo, hi = spec.registry.organ_bbox(fp, c)
        scale = (1.0 - q) * PhantomSpecialist.JITTER_SIGMA
        noise = _rng_for(spec.seed, fp, c).standard_normal(dims)
        if scale * max(float(noise.max()), -float(noise.min())) < 0.5:
            box = _grow(lo, hi, 0, dims)
            corrupted = gt.data[box] == c
        else:
            box = _grow(lo, hi, int(np.ceil(scale * max(float(noise.max()), 0.0))), dims)
            sd = spec.registry.signed_distance(fp, c, box)
            corrupted = sd + scale * noise[box].astype(np.float32) > 0.0
        sub = labels[box]
        sub[(sub == 0) & corrupted] = c
    return labels


def block_draw_cases():
    """(label map, draw block) pairs whose grid's y-size is not a multiple of
    the block's rows, each drawn in more than one block."""
    gt = next(border_label_maps())                                  # 19 y-planes
    yield gt, 15 * 11 * 4
    yield make_phantom_suite(1, 5, (50, 40, 33), seed=3)[0][2], phantom.DRAW_BLOCK  # 49 + 1
    yield make_phantom_suite(1, 4, (23, 20, 17), seed=5)[0][2], 20 * 17 * 4


@pytest.mark.parametrize("case", range(3))
def test_specialist_block_draw_equals_the_whole_grid_draw(monkeypatch, case):
    gt, block = list(block_draw_cases())[case]
    monkeypatch.setattr(phantom, "DRAW_BLOCK", block)
    rows = phantom._plane_blocks(gt.dims)[0][1]
    assert gt.dims[0] > rows and gt.dims[0] % rows
    registry = PhantomRegistry()
    vol = Volume(np.random.default_rng(case).random(gt.dims).astype(np.float32))
    fp = registry.register(vol, gt)
    rng = np.random.default_rng(20 + case)
    for seed in (0, 4):
        peaks = noise_peaks(seed, fp, gt)
        qualities = [np.full(peaks.size, q) for q in (1e-6, 0.2, 0.5, 0.8, 0.97)]
        # scale * max|noise| just under, at and just over 1/2: the skip threshold
        qualities += [1.0 - r / (PhantomSpecialist.JITTER_SIGMA * peaks)
                      for r in (0.5 - 1e-9, 0.5, 0.5 + 1e-9)]
        qualities.append(rng.uniform(0.0, 1.0, size=peaks.size))
        for q in qualities:
            spec = PhantomSpecialist(registry, seed=seed)
            spec._quality = {c: float(q[c]) for c in range(1, gt.num_classes)}
            want = whole_draw_predict(spec, vol)
            assert spec.predict(vol).data.tobytes() == want.tobytes(), (seed, q)
            assert spec.predict(vol).data.tobytes() == want.tobytes(), (seed, q)  # peaks known


def test_specialist_redraws_the_reach_box_past_the_noise_bound(monkeypatch):
    """With ``NOISE_BOUND`` low, the reach box sticks out of the kept box: the
    class is drawn again, keeping the reach box, and the labels do not move."""
    monkeypatch.setattr(phantom, "NOISE_BOUND", 0.3)
    boxes = []
    noise_on = phantom._noise_on
    monkeypatch.setattr(phantom, "_noise_on",
                        lambda rng, dims, box: boxes.append(box) or noise_on(rng, dims, box))
    suite, registry = registered_suite(n=2, organs=4, dims=(26, 22, 18), seed=2)
    for q in (1e-6, 0.3, 0.7):
        spec = PhantomSpecialist(registry, quality=q, seed=6)
        for _, vol, _ in suite:
            boxes.clear()
            assert spec.predict(vol).data.tobytes() == whole_draw_predict(spec, vol).tobytes()
            assert len(boxes) == 8                  # each of the 4 classes drawn twice
            assert all(_within(reach, kept) is None for kept, reach in zip(boxes[::2], boxes[1::2]))


def test_signed_distance_on_a_region_is_the_full_grid_field_there():
    rng = np.random.default_rng(9)
    cases = list(border_label_maps())
    cases += [gt for _, _, gt in make_phantom_suite(1, 6, (30, 26, 20), seed=2)]
    for gt in cases:
        registry = PhantomRegistry()
        fp = registry.register(Volume(rng.random(gt.dims).astype(np.float32)), gt)
        full = {c: full_grid_signed_distance(gt, c) for c in range(1, gt.num_classes)}
        for _ in range(40):
            c = int(rng.integers(1, gt.num_classes))
            lo, hi = registry.organ_bbox(fp, c)
            if rng.random() < 0.8:                          # holds the organ box grown by 1
                a = [int(rng.integers(0, max(int(l), 1) + 1)) for l in lo]
                b = [int(rng.integers(min(int(h) + 2, n), n + 1)) for h, n in zip(hi, gt.dims)]
            else:                                           # any region at all
                a = [int(rng.integers(0, n)) for n in gt.dims]
                b = [int(rng.integers(x + 1, n + 1)) for x, n in zip(a, gt.dims)]
            region = tuple(slice(x, y) for x, y in zip(a, b))
            got = registry.signed_distance(fp, c, region)
            assert got.dtype == np.float32 and not got.flags.writeable
            assert got.tobytes() == np.ascontiguousarray(full[c][region]).tobytes()
        for c in range(1, gt.num_classes):
            whole = registry.signed_distance(fp, c)
            assert whole.tobytes() == full[c].tobytes()
            assert registry.signed_distance(fp, c) is whole


def cached_field(registry, fp, c):
    return registry._scans[fp].sdist[c]


def test_signed_distance_regions_are_held_as_2_byte_codes():
    suite, registry = registered_suite(n=2, organs=6, dims=(32, 32, 32), seed=5)
    for _, vol, gt in suite:
        fp = volume_fingerprint(vol)
        for c in range(1, gt.num_classes):
            lo, hi = registry.organ_bbox(fp, c)
            region = tuple(slice(max(int(a) - 3, 0), min(int(b) + 4, n))
                           for a, b, n in zip(lo, hi, gt.dims))
            got = registry.signed_distance(fp, c, region)
            at, codes = cached_field(registry, fp, c)
            assert codes.dtype == np.int16 and not codes.flags.writeable
            assert got.dtype == np.float32 and not got.flags.writeable
            want = full_grid_signed_distance(gt, c)
            assert got.tobytes() == np.ascontiguousarray(want[region]).tobytes()
            assert np.array_equal(np.sign(codes), np.sign(want[at]))


def test_signed_distance_codes_take_4_bytes_only_past_int16():
    dims = (130, 130, 8)                       # sum((n - 1) ** 2) = 33331 > 32767
    data = np.zeros(dims, dtype=np.uint8)
    data[0, 0, 0] = 1                          # the far corner is 33331 away, squared
    data[60:70, 50:64, 2:6] = 2
    gt = LabelMap(data, 3)
    registry = PhantomRegistry()
    fp = registry.register(Volume(np.zeros(dims, dtype=np.float32)), gt)
    for region, dtype in (((slice(0, 130), slice(0, 130), slice(0, 7)), np.int32),  # 33318
                          ((slice(0, 130), slice(0, 120), slice(0, 8)), np.int16),  # 30851
                          ((slice(0, 130), slice(1, 130), slice(0, 8)), np.int32)):
        for c in (1, 2):
            got = registry.signed_distance(fp, c, region)
            assert cached_field(registry, fp, c)[1].dtype == dtype
            want = full_grid_signed_distance(gt, c)[region]
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (region, c)
    assert registry.signed_distance(fp, 1)[129, 129, 7] == -np.float32(np.sqrt(33331.0))


def test_regions_of_a_whole_grid_field_are_views_of_it():
    suite, registry = registered_suite(n=1, organs=4, dims=(30, 26, 20), seed=4)
    _, vol, gt = suite[0]
    fp = volume_fingerprint(vol)
    for c in range(1, gt.num_classes):
        lo, hi = registry.organ_bbox(fp, c)
        box = tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))
        coded = registry.signed_distance(fp, c, box)        # codes on a region first
        whole = registry.signed_distance(fp, c)
        assert cached_field(registry, fp, c) == (tuple(slice(0, n) for n in gt.dims), whole)
        assert whole.dtype == np.float32 and not whole.flags.writeable
        assert registry.signed_distance(fp, c) is whole
        part = registry.signed_distance(fp, c, box)
        assert part.base is whole and not part.flags.writeable
        assert part.tobytes() == coded.tobytes()


def test_organ_bbox_equals_argwhere_and_rejects_non_organs():
    rng = np.random.default_rng(10)
    for gt in list(border_label_maps()) + [make_phantom_suite(1, 5, (24, 20, 16), 4)[0][2]]:
        registry = PhantomRegistry()
        fp = registry.register(Volume(rng.random(gt.dims).astype(np.float32)), gt)
        for c in range(1, gt.num_classes):
            coords = np.argwhere(gt.data == c)
            lo, hi = registry.organ_bbox(fp, c)
            assert lo.dtype == hi.dtype == np.int64
            assert not lo.flags.writeable and not hi.flags.writeable
            assert registry.organ_bbox(fp, c)[0] is lo       # built once per scan
            assert np.array_equal(lo, coords.min(axis=0))
            assert np.array_equal(hi, coords.max(axis=0))
        for c in (0, -1, gt.num_classes, gt.num_classes + 3):
            with pytest.raises(RejectedInputError):
                registry.organ_bbox(fp, c)
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[1, 1, 1], data[4, 4, 4] = 1, 3                    # class 2 lies between, empty
    registry = PhantomRegistry()
    fp = registry.register(Volume(np.zeros((6, 6, 6), dtype=np.float32)), LabelMap(data, 5))
    for c in (2, 4):                                        # empty inside and past find_objects
        with pytest.raises(RejectedInputError):
            registry.organ_bbox(fp, c)


def loop_match(registry, fp, gt, prompts, padding):
    """The generalist's organ match as a per-class loop: the reference for
    the vectorized ``PhantomGeneralist._match``."""
    dims = gt.dims
    ranges = roi_ranges(prompts, 0, dims)
    roi_lo = np.array([r[0] for r in ranges], dtype=np.float64)
    roi_hi = np.array([r[1] for r in ranges], dtype=np.float64)
    best_c, best_iou = None, 0.0
    best_center = np.zeros(3)
    for c in range(1, gt.num_classes):
        lo, hi = registry.organ_bbox(fp, c)
        plo = np.maximum(lo - padding, 0)
        phi = np.minimum(hi + padding, np.asarray(dims) - 1)
        ilo = np.maximum(roi_lo, plo)
        ihi = np.minimum(roi_hi, phi)
        if np.any(ihi < ilo):
            continue
        inter = float(np.prod(ihi - ilo + 1))
        vol_roi = float(np.prod(roi_hi - roi_lo + 1))
        vol_box = float(np.prod(phi - plo + 1))
        iou = inter / (vol_roi + vol_box - inter)
        if iou > best_iou:
            best_c, best_iou = c, iou
            best_center = (plo + phi) / 2.0
    return best_c, best_iou, (roi_lo + roi_hi) / 2.0 - best_center


def full_grid_segment(gen, vol, gt, prompts):
    """The generalist's whole-grid answer from the plain full-volume
    formulas: signed distance, shifted field, noise, blobs and sigmoid."""
    fp, dims = volume_fingerprint(vol), gt.dims
    c, iou, offset = loop_match(gen.registry, fp, gt, prompts, gen.assumed_padding)
    if c is None:
        return np.zeros(dims, dtype=bool), np.full((2,) + dims, np.float32(0.5))
    sd = full_grid_signed_distance(gt, c).astype(np.float64)
    if iou < gen.MATCH_THRESHOLD:
        shift = np.clip(np.round(offset).astype(int), -8, 8)
        shifted = np.full(dims, -float(max(dims)))
        if all(abs(d) < n for d, n in zip(shift, dims)):
            dst = tuple(slice(max(d, 0), n - max(-d, 0)) for d, n in zip(shift, dims))
            src = tuple(slice(max(-d, 0), n - max(d, 0)) for d, n in zip(shift, dims))
            shifted[dst] = sd[src]
        sd = shifted - (1.0 + 2.0 * (gen.MATCH_THRESHOLD - iou) / gen.MATCH_THRESHOLD)
    rng = _rng_for(gen.seed, fp, c, format_prompts(prompts))
    sd = sd + (1.0 - gen.g) * gen.NOISE_SIGMA * rng.standard_normal(dims)
    lo, hi = gen.registry.organ_bbox(fp, c)
    spread = (np.asarray(hi) - lo) / 2.0 + gen.assumed_padding
    organ_center = (np.asarray(lo) + hi) / 2.0
    coords = np.indices(dims, dtype=np.float64)
    for _ in range(gen.BLOB_COUNT):
        blob_center = organ_center + rng.uniform(-spread, spread)
        if rng.uniform() >= 1.0 - gen.g:
            continue
        offs = coords - blob_center.reshape(3, 1, 1, 1)
        sd = np.maximum(sd, gen.BLOB_RADIUS - np.sqrt((offs ** 2).sum(axis=0)))
    slope = gen.KAPPA * (0.2 + 0.8 * gen.g * min(1.0, iou))
    p_fg = (1.0 / (1.0 + np.exp(-slope * sd))).astype(np.float32)
    return sd > 0.0, np.stack([np.float32(1.0) - p_fg, p_fg])


def random_prompts(rng, dims, class_id):
    """An axial and a sagittal box anywhere on the grid."""
    def corners(n_a, n_b):
        a = np.sort(rng.integers(0, n_a, size=2))
        b = np.sort(rng.integers(0, n_b, size=2))
        return (int(a[0]), int(b[0])), (int(a[1]), int(b[1]))
    H, W, D = dims
    return BoxPromptPair(class_id=class_id,
                         axial=Box2D(AXIAL, int(rng.integers(0, D)), *corners(H, W)),
                         sagittal=Box2D(SAGITTAL, int(rng.integers(0, W)), *corners(H, D)))


def face_regions(dims):
    """The whole grid and, per axis, a low and a high slab touching its faces."""
    regions = [tuple(slice(0, n) for n in dims)]
    for ax, n in enumerate(dims):
        for part in (slice(0, n // 2 + 1), slice(n // 2, n)):
            regions.append(tuple(part if i == ax else slice(0, m) for i, m in enumerate(dims)))
    return regions


def test_generalist_on_a_region_is_the_whole_grid_answer_there(monkeypatch):
    monkeypatch.setattr(phantom, "DRAW_BLOCK", 300)     # noise drawn one to a few planes at a time
    rng = np.random.default_rng(12)
    lone = np.zeros((16, 12, 10), dtype=np.uint8)
    lone[1:3, 1:3, 1:3] = 1                                # most prompts miss it
    cases = list(border_label_maps()) + [LabelMap(lone, 2)]
    cases += [gt for _, _, gt in make_phantom_suite(1, 6, (26, 22, 18), seed=5)]
    seen = {"no-match": 0, "degraded": 0, "shifted": 0, "blobs": 0}
    for gt in cases:
        registry = PhantomRegistry()
        vol = Volume(rng.random(gt.dims).astype(np.float32))
        fp = registry.register(vol, gt)
        for g, padding in ((1.0, 2), (0.5, 0), (0.0, 4)):
            gen = PhantomGeneralist(registry, cooperativeness=g, assumed_padding=padding,
                                    seed=int(rng.integers(0, 100)))
            for trial in range(12):
                c = int(rng.integers(1, gt.num_classes))
                prompts = (make_box_prompts(gt, c, padding=int(rng.integers(0, 4)))
                           if trial % 3 == 0 else random_prompts(rng, gt.dims, c))
                match, iou, offset = loop_match(registry, fp, gt, prompts, padding)
                seen["no-match"] += match is None
                seen["degraded"] += match is not None and iou < gen.MATCH_THRESHOLD
                seen["shifted"] += (match is not None and iou < gen.MATCH_THRESHOLD
                                    and bool(np.round(offset).any()))
                seen["blobs"] += match is not None and g < 1.0
                want_mask, want_probs = full_grid_segment(gen, vol, gt, prompts)
                whole_mask, whole_probs = gen.segment(vol, prompts)
                assert whole_mask.tobytes() == want_mask.tobytes()
                assert whole_probs.data.tobytes() == want_probs.tobytes()
                regions = face_regions(gt.dims)
                for _ in range(4):
                    a = [int(rng.integers(0, n)) for n in gt.dims]
                    regions.append(tuple(slice(x, int(rng.integers(x + 1, n + 1)))
                                         for x, n in zip(a, gt.dims)))
                for region in regions:
                    mask, probs = gen.segment(vol, prompts, region)
                    assert mask.dtype == bool
                    assert mask.tobytes() == np.ascontiguousarray(want_mask[region]).tobytes()
                    assert probs.data.tobytes() == np.ascontiguousarray(
                        want_probs[(slice(None),) + region]).tobytes(), (region, prompts)
    assert all(n >= 5 for n in seen.values()), seen


def test_generalist_match_scores_all_boxes_like_the_per_class_loop():
    rng = np.random.default_rng(13)
    cases = list(border_label_maps())
    cases += [gt for _, _, gt in make_phantom_suite(2, 6, (24, 20, 16), seed=6)]
    for gt in cases:
        registry = PhantomRegistry()
        vol = Volume(rng.random(gt.dims).astype(np.float32))
        fp = registry.register(vol, gt)
        _, scan = registry.lookup(vol)
        for padding in (0, 3, 30):
            gen = PhantomGeneralist(registry, assumed_padding=padding)
            for _ in range(40):
                prompts = random_prompts(rng, gt.dims, 1)
                c, iou, offset = gen._match(fp, scan, prompts)
                want_c, want_iou, want_offset = loop_match(registry, fp, gt, prompts, padding)
                assert (c, iou) == (want_c, want_iou) and type(iou) is float
                assert offset.tobytes() == want_offset.tobytes()
    tie = np.zeros((8, 8, 8), dtype=np.uint8)
    tie[1:3, 1:3, 1:3], tie[5:7, 5:7, 5:7] = 1, 2             # equal IoU with a whole-grid ROI
    registry = PhantomRegistry()
    vol = Volume(np.zeros((8, 8, 8), dtype=np.float32))
    fp = registry.register(vol, LabelMap(tie, 3))
    whole = BoxPromptPair(1, Box2D(AXIAL, 0, (0, 0), (7, 7)), Box2D(SAGITTAL, 0, (0, 0), (7, 7)))
    assert PhantomGeneralist(registry)._match(fp, registry.lookup(vol)[1], whole)[0] == 1
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[1, 1, 1], data[4, 4, 4] = 1, 3                        # class 2 is empty
    registry = PhantomRegistry()
    vol = Volume(np.ones((6, 6, 6), dtype=np.float32))
    fp = registry.register(vol, LabelMap(data, 4))
    prompts = BoxPromptPair(1, Box2D(AXIAL, 1, (1, 1), (1, 1)), Box2D(SAGITTAL, 1, (1, 1), (1, 1)))
    with pytest.raises(RejectedInputError, match="class 2 is empty"):
        loop_match(registry, fp, LabelMap(data, 4), prompts, 0)
    with pytest.raises(RejectedInputError, match="class 2 is empty"):
        PhantomGeneralist(registry)._match(fp, registry.lookup(vol)[1], prompts)


BAD_REGIONS = [
    (slice(0, 0), slice(0, 5), slice(0, 4)),       # empty
    (slice(2, 1), slice(0, 5), slice(0, 4)),       # reversed
    (slice(-1, 3), slice(0, 5), slice(0, 4)),      # starts off the grid
    (slice(0, 6), slice(0, 6), slice(0, 4)),       # ends off the grid
    (slice(0, 6), slice(0, 5)),                    # two axes
    (slice(0, 6), slice(0, 5), slice(0, 4), slice(0, 1)),  # four axes
    (slice(0, 6, 2), slice(0, 5), slice(0, 4)),    # strided
    (slice(None, 6), slice(0, 5), slice(0, 4)),    # open start
    (slice(0.5, 6), slice(0, 5), slice(0, 4)),     # not integer
    (0, slice(0, 5), slice(0, 4)),                 # an index, not a slice
    5,
]


@pytest.mark.parametrize("region", BAD_REGIONS, ids=range(len(BAD_REGIONS)))
def test_generalist_rejects_a_region_that_is_not_three_in_grid_slices(region):
    data = np.zeros((6, 5, 4), dtype=np.uint8)
    data[2:4, 1:3, 1:3] = 1
    registry = PhantomRegistry()
    vol = Volume(np.ones((6, 5, 4), dtype=np.float32))
    registry.register(vol, LabelMap(data, 2))
    gen = PhantomGeneralist(registry)
    prompts = make_box_prompts(LabelMap(data, 2), 1, padding=1)
    with pytest.raises(RejectedInputError, match="not three non-empty slices"):
        gen.segment(vol, prompts, region)
    mask, _ = gen.segment(vol, prompts, (slice(np.int64(2), np.int64(4)), slice(1, 3),
                                         slice(1, 3, 1)))
    assert mask.shape == (2, 2, 2) and mask.all()


def per_class_qualities(registry, examples, supervision, cw):
    support, contra, gt_total = {}, {}, {}
    for ex in examples:
        _, scan = registry.lookup(ex.volume)
        gt, y, C = scan.gt.data, ex.target.labels.data, scan.gt.num_classes
        w = ex.weight_mask if ex.weight_mask is not None else np.ones(gt.shape, dtype=bool)
        supervised = (frozenset(range(1, C)) if supervision == "full"
                      else frozenset(ex.labeled_classes) | ex.target.pseudo_classes)
        for c in range(1, C):
            gt_c = gt == c
            gt_total[c] = gt_total.get(c, 0.0) + float(gt_c.sum())
            if c not in supervised:
                continue
            t_c = y == c
            support[c] = support.get(c, 0.0) + float((gt_c & t_c & w).sum())
            wrong = (t_c & ~gt_c & w) | (gt_c & ~t_c & w)
            contra[c] = contra.get(c, 0.0) + float(wrong.sum())
    out = {}
    for c, total in gt_total.items():
        if total == 0.0 or (c not in support and c not in contra):
            continue
        out[c] = min(1.0, max(0.0, (support.get(c, 0.0) - cw * contra.get(c, 0.0)) / total))
    return out


def noisy_examples(suite, rng, masks):
    examples = []
    for _, vol, gt in suite:
        y = np.array(gt.data)
        flip = rng.random(gt.dims) < 0.02
        y[flip] = rng.integers(0, gt.num_classes, size=int(flip.sum()))
        classes = rng.permutation(np.arange(1, gt.num_classes))
        labeled = frozenset(int(c) for c in classes[:2])
        pseudo = frozenset(int(c) for c in classes[2:3])
        mask = rng.random(gt.dims) < 0.7 if masks else None
        examples.append(TrainingExample(
            volume=vol, target=SupervisionTarget(LabelMap(y, gt.num_classes), pseudo),
            labeled_classes=labeled, weight_mask=mask))
    return examples


def test_specialist_fit_equals_per_class_formula():
    suite, registry = registered_suite(n=3, organs=5, dims=(24, 20, 16), seed=6)
    rng = np.random.default_rng(12)
    for masks in (False, True):
        for supervision in ("full", "partial"):
            for cw in (0.0, 0.5, 2.0):
                examples = noisy_examples(suite, rng, masks)
                spec = PhantomSpecialist(registry, contradiction_weight=cw)
                spec.fit(examples, supervision=supervision)
                want = per_class_qualities(registry, examples, supervision, cw)
                assert spec._quality == want, (masks, supervision, cw)


def four_bincount_qualities(registry, examples, supervision, cw):
    """The fit's qualities with its counts taken as four ``np.bincount``
    calls per example, in the same float arithmetic."""
    support, contra, gt_total = {}, {}, {}
    for ex in examples:
        _, scan = registry.lookup(ex.volume)
        C = scan.gt.num_classes
        gt = scan.gt.data.ravel()
        y = ex.target.labels.data.ravel()
        gt_count = np.bincount(gt, minlength=C)
        if ex.weight_mask is not None:
            w = ex.weight_mask.ravel() != 0
            gt, y = gt[w], y[w]
        gt_w = np.bincount(gt, minlength=C)
        y_w = np.bincount(y, minlength=C)
        both = np.bincount(gt[gt == y], minlength=C)
        supervised = (frozenset(range(1, C)) if supervision == "full"
                      else frozenset(ex.labeled_classes) | ex.target.pseudo_classes)
        for c in range(1, C):
            gt_total[c] = gt_total.get(c, 0.0) + float(gt_count[c])
            if c not in supervised:
                continue
            support[c] = support.get(c, 0.0) + float(both[c])
            contra[c] = contra.get(c, 0.0) + float(gt_w[c] + y_w[c] - 2 * both[c])
    out = {}
    for c, total in gt_total.items():
        if total == 0.0 or (c not in support and c not in contra):
            continue
        out[c] = min(1.0, max(0.0, (support.get(c, 0.0) - cw * contra.get(c, 0.0)) / total))
    return out


def test_specialist_fit_joint_counts_equal_four_bincounts():
    suite, registry = registered_suite(n=3, organs=5, dims=(24, 20, 16), seed=8)
    rng = np.random.default_rng(16)
    for masks in (False, True):
        for supervision in ("full", "partial"):
            examples = noisy_examples(suite, rng, masks)
            # a target with more classes than the scan, holding labels past its last
            ex = examples[0]
            y = np.array(ex.target.labels.data)
            y[rng.random(y.shape) < 0.05] = ex.target.labels.num_classes + 1
            examples[0] = TrainingExample(
                ex.volume, SupervisionTarget(LabelMap(y, ex.target.labels.num_classes + 2),
                                             ex.target.pseudo_classes),
                ex.labeled_classes, ex.weight_mask)
            for cw in (0.0, 0.5, 2.0):
                spec = PhantomSpecialist(registry, contradiction_weight=cw)
                spec.fit(examples, supervision=supervision)
                want = four_bincount_qualities(registry, examples, supervision, cw)
                assert spec._quality == want, (masks, supervision, cw)


def test_specialist_fit_joint_counts_hold_at_256_classes():
    rng = np.random.default_rng(17)
    dims = (20, 18, 16)
    registry = PhantomRegistry()
    gt = LabelMap(rng.integers(0, 256, size=dims).astype(np.uint8), 256)
    vol = Volume(rng.random(dims).astype(np.float32))
    registry.register(vol, gt)
    y = np.where(rng.random(dims) < 0.7, gt.data, rng.integers(0, 256, size=dims)).astype(np.uint8)
    for mask in (None, rng.random(dims) < 0.6):
        examples = [TrainingExample(vol, SupervisionTarget(LabelMap(y, 256), frozenset({7})),
                                    frozenset({1, 255}), mask)]
        for supervision in ("full", "partial"):
            spec = PhantomSpecialist(registry)
            spec.fit(examples, supervision=supervision)
            assert spec._quality == four_bincount_qualities(registry, examples, supervision, 0.5)


def fit_block_cases():
    """(gt, target, K) triples whose voxel counts are not a multiple of the
    count block, the last with K = 256 and the code 65535 in its last block."""
    rng = np.random.default_rng(21)
    for dims, K in (((50, 40, 33), 7), ((21, 19, 17), 256)):  # 65536 + 464; 6783 voxels
        gt = rng.integers(0, K, size=dims).astype(np.uint8)
        y = np.where(rng.random(dims) < 0.7, gt, rng.integers(0, K, size=dims)).astype(np.uint8)
        gt.flat[-1] = y.flat[-1] = K - 1
        yield LabelMap(gt, K), LabelMap(y, K), K


@pytest.mark.parametrize("case", range(2))
def test_specialist_fit_block_counts_equal_one_whole_grid_bincount(monkeypatch, case):
    gt, y, K = list(fit_block_cases())[case]
    if K == 256:
        monkeypatch.setattr(phantom, "DRAW_BLOCK", 1000)
    assert gt.data.size % phantom.DRAW_BLOCK and gt.data.size > phantom.DRAW_BLOCK
    vol = Volume(np.random.default_rng(case).random(gt.dims).astype(np.float32))
    mask = np.random.default_rng(30 + case).random(gt.dims) < 0.6
    mask.flat[-1] = True
    for mask in (None, mask):
        registry = PhantomRegistry()           # the scan's class counts not yet taken
        registry.register(vol, gt)
        ex = TrainingExample(vol, SupervisionTarget(y, frozenset({2})), frozenset({1, K - 1}), mask)
        for supervision in ("full", "partial"):
            spec = PhantomSpecialist(registry)
            spec.fit([ex], supervision=supervision)
            assert spec._quality == four_bincount_qualities(registry, [ex], supervision, 0.5)
        code = gt.data.astype(np.intp) * K + y.data
        used = code.ravel() if mask is None else code[mask]
        assert used.max() == K * K - 1
        assert registry.lookup(vol)[1].counts.tobytes() == np.bincount(
            gt.data.ravel(), minlength=K).tobytes()


@pytest.mark.parametrize("block", [None, 20 * 18 * 16 // 3])   # the grid ends a block
def test_specialist_fit_refuses_a_target_or_mask_of_another_size(monkeypatch, block):
    if block:
        monkeypatch.setattr(phantom, "DRAW_BLOCK", block)
    suite, registry = registered_suite(n=1, organs=3, dims=(20, 18, 16))
    _, vol, gt = suite[0]
    longer = np.zeros((21, 18, 16), dtype=np.uint8)
    for target, mask in ((LabelMap(longer, gt.num_classes), None),
                         (gt, np.ones(longer.shape, dtype=bool)),
                         (gt, np.ones((19, 18, 16), dtype=bool))):
        ex = TrainingExample(vol, SupervisionTarget(target), frozenset({1}), mask)
        with pytest.raises((ValueError, IndexError)):
            PhantomSpecialist(registry).fit([ex])


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phantom_predict_and_fit_hold_no_whole_grid_8_byte_array():
    """One predict at q = 0.5 peaks below one whole-grid float64 noise field,
    and one single-example fit below one whole-grid intp copy of its codes."""
    suite, registry = registered_suite(n=1, organs=4, dims=(64, 64, 48), seed=7)
    _, vol, gt = suite[0]
    whole = gt.data.size * 8
    spec = PhantomSpecialist(registry, quality=0.5, seed=1)
    assert traced_peak(lambda: spec.predict(vol)) < whole
    y = LabelMap(np.array(gt.data), gt.num_classes)
    for mask in (None, np.random.default_rng(4).random(gt.dims) < 0.5):
        ex = TrainingExample(vol, SupervisionTarget(y, frozenset()), frozenset({1, 2}), mask)
        assert traced_peak(lambda: spec.fit([ex], supervision="partial")) < whole
        assert spec._quality == four_bincount_qualities(registry, [ex], "partial", 0.5)


def test_specialist_fit_reads_any_nonzero_weight_as_use():
    suite, registry = registered_suite(n=2, organs=4, dims=(20, 20, 16), seed=3)
    examples = noisy_examples(suite, np.random.default_rng(13), masks=True)
    qualities = []
    for as_mask in (lambda m: m, lambda m: m.astype(np.uint8),
                    lambda m: m.astype(np.uint8) * np.uint8(255)):
        spec = PhantomSpecialist(registry)
        spec.fit([TrainingExample(ex.volume, ex.target, ex.labeled_classes,
                                  as_mask(ex.weight_mask)) for ex in examples])
        qualities.append(spec._quality)
    assert any(0.0 < q < 1.0 for q in qualities[0].values())
    assert qualities[0] == qualities[1] == qualities[2]


def test_specialist_fit_takes_any_iterable_once():
    suite, registry = registered_suite(n=3, organs=5, dims=(24, 20, 16), seed=6)
    examples = noisy_examples(suite, np.random.default_rng(14), masks=True)
    qualities = []
    for as_iterable in (list, tuple, iter, lambda xs: (ex for ex in xs)):
        spec = PhantomSpecialist(registry)
        spec.fit(as_iterable(examples), supervision="partial")
        qualities.append(spec._quality)
    assert qualities[0] and all(q == qualities[0] for q in qualities)


@pytest.mark.parametrize("empty", [[], (), iter([]), (ex for ex in [])])
def test_specialist_fit_rejects_an_empty_iterable(empty):
    _, registry = registered_suite(n=1, organs=2, dims=(12, 12, 12))
    spec = PhantomSpecialist(registry, quality=0.5)
    with pytest.raises(RejectedInputError):
        spec.fit(empty)
    assert spec.quality(1) == 0.5


# --- file oracle ------------------------------------------------------------------

class Stub(SpecialistOracle, GeneralistOracle):
    """A stub model: ``answer(k)``, after ``pause`` seconds, to the request whose
    volume is filled with ``k``, listing each ``k`` in ``answered``; counts fits."""

    def __init__(self, answer=None, pause=0.0):
        self.answer, self.pause, self.answered, self.fits = answer, pause, [], 0

    def predict(self, volume):
        time.sleep(self.pause)
        self.answered.append(int(volume.data.flat[0]))
        return self.answer(self.answered[-1])

    def segment(self, volume, prompts, region=None):
        return self.predict(volume)

    def fit(self, examples, supervision="full"):
        self.fits += 1


def two_class_probs(mask):
    p = np.where(mask, np.float32(0.9), np.float32(0.1))
    return ProbVolume(np.stack([1.0 - p, p]))


def box_prompts_for(mask):
    return make_box_prompts(LabelMap(mask.astype(np.uint8), 2), 1, padding=2)


def test_file_oracle_round_trip(tmp_path, serve):
    """Phantom oracles served over the exchange answer a file oracle as
    direct calls do, byte for byte, and a served fit (VLS masks, pseudo
    classes) leaves the qualities of a direct one."""
    suite, registry = registered_suite(n=2, organs=3, dims=(16, 16, 16))
    registries = (registry, registered_suite(n=2, organs=3, dims=(16, 16, 16))[1])
    direct_spec, served_spec = (PhantomSpecialist(r, quality=0.6, seed=5) for r in registries)
    direct_gen, served_gen = (PhantomGeneralist(r, 0.5, seed=5) for r in registries)
    serve(Server(tmp_path / "spec", specialist=served_spec))
    serve(Server(tmp_path / "gen", generalist=served_gen))
    specialist, generalist = (FileOracle(tmp_path / d, timeout=10.0) for d in ("spec", "gen"))
    for _, vol, gt in suite:
        got = specialist.predict(vol)
        assert got.data.tobytes() == direct_spec.predict(vol).data.tobytes()
        for c in range(1, gt.num_classes):
            prompts = make_box_prompts(got, c, padding=2)
            roi = roi_box(prompts, 2, vol.dims)
            (mask, probs), (want_mask, want_probs) = (
                oracle.segment(vol, prompts, roi) for oracle in (generalist, direct_gen))
            assert mask.tobytes() == want_mask.tobytes()
            assert probs.data.tobytes() == want_probs.data.tobytes()
    examples = noisy_examples(suite, np.random.default_rng(2), masks=True)
    for oracle in (specialist, direct_spec):
        oracle.fit(examples, supervision="partial")
    qualities = [direct_spec.quality(c) for c in range(1, 4)]
    assert qualities != [0.6] * 3 and [served_spec.quality(c) for c in range(1, 4)] == qualities


def fit_set_files(root):
    """Each fit directory's file names and bytes."""
    return [{f.name: f.read_bytes() for f in d.iterdir()} for d in root.glob("fit_*") if d.is_dir()]


def test_file_oracle_fit_writes_the_same_files_from_a_generator(tmp_path, serve):
    suite, _ = registered_suite(n=3, organs=3, dims=(12, 10, 8), seed=2)
    examples = noisy_examples(suite, np.random.default_rng(5), masks=True)
    examples[1] = TrainingExample(examples[1].volume, examples[1].target,
                                  examples[1].labeled_classes)       # one without a mask
    written = []
    for k, as_iterable in enumerate((list, lambda xs: (ex for ex in xs))):
        model = serve(Server(tmp_path / str(k), specialist=Stub())).specialist
        FileOracle(tmp_path / str(k), timeout=10.0).fit(as_iterable(examples), "partial")
        assert model.fits == 1
        written.append(fit_set_files(tmp_path / str(k)))
    assert len(written[0]) == 1 and len(written[0][0]) == 11
    assert written[0] == written[1]

    def fields(ex):                     # and the server half reads back what was written
        mask = None if ex.weight_mask is None else ex.weight_mask.tobytes()
        return ex.labeled_classes, ex.target.pseudo_classes, ex.target.labels.data.tobytes(), mask
    (fit_dir,) = [d for d in (tmp_path / "0").iterdir() if d.is_dir()]
    assert [fields(ex) for ex in exchange.read_examples(fit_dir)] == [fields(ex) for ex in examples]


def test_file_oracle_fit_leaves_no_request_when_an_example_fails(tmp_path):
    suite, _ = registered_suite(n=2, organs=2, dims=(10, 10, 10))
    example = TrainingExample(suite[0][1], SupervisionTarget(suite[0][2]), frozenset({1}))

    def failing():
        yield example
        raise ConfigError("the second example cannot be built")

    server = Server(tmp_path, specialist=Stub())
    with pytest.raises(ConfigError):
        FileOracle(tmp_path, timeout=0.1).fit(failing())
    (fit_dir,) = tmp_path.glob("fit_*")
    assert fit_dir.is_dir() and (fit_dir / "scan_0000.manifest").exists()
    assert not list(tmp_path.glob("fit_*.req"))
    assert server.serve_once() == 0 and server.specialist.fits == 0    # no trainer starts


def predict_answered_with(serve, root, response, dims=(6, 5, 4)):
    """``FileOracle.predict`` of a zero volume, answered ``response`` as it is."""
    serve(Server(root, specialist=Stub(lambda k: response)))
    return FileOracle(root, timeout=10.0).predict(Volume(np.zeros(dims, dtype=np.float32)))


def test_file_oracle_predict_takes_a_label_image_as_it_is(tmp_path, serve):
    labels = np.random.default_rng(0).integers(0, 3, size=(6, 5, 4)).astype(np.uint8)
    labels[5, 4, 3] = 3
    got = predict_answered_with(serve, tmp_path, LabelMap(labels, 6))
    assert isinstance(got, LabelMap)
    assert got.data.tobytes() == labels.tobytes()
    assert got.num_classes == 4  # read from disk: max label + 1


def test_file_oracle_predict_argmaxes_probabilities(tmp_path, serve):
    C, dims = 5, (6, 5, 4)
    raw = np.random.default_rng(1).dirichlet(np.ones(C), size=dims).astype(np.float32)
    raw = np.ascontiguousarray(np.moveaxis(raw, -1, 0))
    raw[:, 0, 0, 0] = 0.2                          # a five-way tie
    raw[:, 1, 0, 0] = [0.0, 0.0, 0.5, 0.5, 0.0]    # a two-way tie
    got = predict_answered_with(serve, tmp_path, ProbVolume(raw))
    assert isinstance(got, LabelMap) and got.num_classes == C
    for idx in np.ndindex(dims):
        p = [float(raw[(c,) + idx]) for c in range(C)]
        assert got.data[idx] == p.index(max(p)), idx  # ties go to the lowest class
    assert got.data[0, 0, 0] == 0 and got.data[1, 0, 0] == 2


def test_file_oracle_predict_rejects_other_responses(tmp_path, serve):
    with pytest.raises(OracleProtocolError, match=r"must be a float32 4D probability image or a "
                       r"uint8 label image on dims \(6, 5, 4\), not a float32 3D image"):
        predict_answered_with(serve, tmp_path / "image", Volume(np.ones((6, 5, 4), np.float32)))
    with pytest.raises(OracleProtocolError, match="dims"):
        predict_answered_with(serve, tmp_path / "dims", LabelMap(np.ones((6, 5, 3), np.uint8), 2))


def test_file_oracle_predict_rejects_nan_probabilities(tmp_path, serve):
    data = np.full((2, 6, 5, 4), 0.5, np.float32)
    data[1, 5, 4, 3] = np.nan
    with pytest.raises(OracleProtocolError, match=r"not all in \[0, 1\]"):
        predict_answered_with(serve, tmp_path, unchecked_probs(data))


def test_response_label_out_of_range_rejected_before_any_segment(tmp_path, serve):
    from promptseg.pipeline import PipelineConfig, run_pipeline
    dims = (6, 6, 6)
    data, spec_dir, gen_dir = tmp_path / "data", tmp_path / "spec", tmp_path / "gen"
    data.mkdir()
    labels = np.zeros(dims, dtype=np.uint8)
    labels[1:3, 1:3, 1:3] = 1
    nifti_io.write_volume(data / "s.nii", Volume(np.zeros(dims, np.float32)))
    nifti_io.write_volume(data / "s.labels.nii", LabelMap(labels, 3))
    nifti_io.write_manifest(data / "s.manifest", nifti_io.ScanManifest(
        statuses={1: "labeled", 2: "unlabeled"}))
    answer = labels.copy()
    answer[4, 4, 4] = 3  # a class the 3-class scan does not have
    model = serve(Server(spec_dir, specialist=Stub(lambda k: LabelMap(answer, 4)))).specialist
    with pytest.raises(RejectedInputError, match="^s: predicted label 3 >= num_classes 3$"):
        run_pipeline(PipelineConfig(
            oracle="file", data_dir=str(data), specialist_exchange=str(spec_dir),
            generalist_exchange=str(gen_dir), oracle_timeout=10.0, rounds=1,
            entropy_gate_from_round=1, out_dir=str(tmp_path / "out")))
    assert model.fits == 1                               # initial training ran
    assert len(list(spec_dir.glob("resp_*.prob.nii"))) == 1  # then one predict
    assert not list(gen_dir.iterdir())                   # and no segment request


class AsIs(Server):
    """Answers every request by writing ``files``, {exchange name: grid or
    bytes}, in place and as they are: broken answers on purpose."""

    def __init__(self, root, files, segment=True):
        super().__init__(root, **{"generalist" if segment else "specialist": Stub()})
        self.files = files

    def answer(self, kind, uid):
        for name, content in self.files.items():
            write = Path.write_bytes if isinstance(content, bytes) else nifti_io.write_volume
            write(exchange.path(self.root, name, uid), content)


def test_file_oracle_timeout(tmp_path):
    oracle = FileOracle(tmp_path, timeout=0.3)
    vol = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    with pytest.raises(OracleUnavailableError):
        oracle.predict(vol)


def test_file_oracle_response_that_stays_corrupt_is_protocol_error(tmp_path, serve):
    serve(AsIs(tmp_path, {"probs": b"\x00" * 100}, segment=False))
    with pytest.raises(OracleProtocolError, match="still corrupt") as info:
        FileOracle(tmp_path, timeout=0.3).predict(Volume(np.zeros((4, 4, 4), dtype=np.float32)))
    (resp,) = tmp_path.glob("resp_*.prob.nii")
    assert str(resp) in str(info.value)


def test_file_oracle_wrong_dims_is_protocol_error(tmp_path, serve):
    small = mask_to_labels(np.ones((4, 4, 4), dtype=bool))
    with pytest.raises(OracleProtocolError):
        predict_answered_with(serve, tmp_path, small, dims=(10, 10, 10))


class FakeClock:
    """Stands in for the ``time`` module: ``sleep`` records the pause and
    moves the clock on by it."""

    def __init__(self):
        self.now = 0.0
        self.pauses, self.slept_at = [], []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept_at.append(self.now)
        self.pauses.append(seconds)
        self.now += seconds


class AnswerAt(FakeClock):
    """A ``FakeClock`` under which an empty file appears at ``path`` once the
    clock reaches ``at``."""

    def __init__(self, path, at):
        super().__init__()
        self.path, self.at = path, at

    def sleep(self, seconds):
        super().sleep(seconds)
        if self.now >= self.at:
            self.path.touch()


def assert_bounded_lag(clock, deadline=None):
    """Each pause of a wait that started at 0 is max(1 ms, waited / 8), at most
    the poll interval; a wait that timed out gave up at its first look past
    ``deadline``."""
    assert POLL_INTERVAL_S == 0.05
    assert clock.pauses[0] == 0.001
    assert clock.pauses == [min(max(0.001, at / 8), POLL_INTERVAL_S) for at in clock.slept_at]
    if deadline is not None:
        assert clock.pauses[-1] == POLL_INTERVAL_S       # a long wait polls every 50 ms
        assert clock.slept_at[-1] <= deadline < clock.now


def test_file_oracle_wait_pauses_an_eighth_of_the_time_waited(tmp_path, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(oracles, "time", clock)
    with pytest.raises(OracleUnavailableError, match="no response"):
        FileOracle(tmp_path, timeout=1.0).predict(Volume(np.zeros((4, 4, 4), np.float32)))
    assert_bounded_lag(clock, 1.0)
    assert len(list(tmp_path.glob("req_*.nii"))) == 1
    clock = FakeClock()
    monkeypatch.setattr(oracles, "time", clock)
    resp = tmp_path / "resp_x.prob.nii"
    resp.write_bytes(b"\x00" * 100)
    with pytest.raises(OracleProtocolError, match="still corrupt"):
        FileOracle(tmp_path, timeout=0.5)._await_file(resp, deadline=0.5, kind=ProbVolume)
    assert_bounded_lag(clock, 0.5)


@pytest.mark.parametrize("at", [0.0004, 0.001, 0.0035, 0.008, 0.0213, 0.1, 0.37, 2.5])
def test_file_oracle_sees_an_answer_within_an_eighth_of_its_wait(tmp_path, monkeypatch, at):
    """An answer that lands ``at`` seconds into the wait is seen by
    max(at + 1 ms, 9 at / 8), and not before it lands."""
    done = tmp_path / "fit_x.done"
    clock = AnswerAt(done, at)
    monkeypatch.setattr(oracles, "time", clock)
    FileOracle(tmp_path)._await_file(done, deadline=10.0)
    assert at <= clock.now <= max(at + 0.001, 9 * at / 8) + 1e-12
    assert_bounded_lag(clock)


def unchecked_probs(data):
    """A ProbVolume holding ``data`` as it is, to write a response that
    fails the reader's checks."""
    probs = object.__new__(ProbVolume)
    probs.data = np.ascontiguousarray(data, dtype=np.float32)
    return probs


SEGMENT_DIMS = (6, 5, 4)
SEGMENT_REGION = (slice(1, 5), slice(1, 4), slice(1, 3))   # the response's interior
GOOD_MASK = np.zeros(SEGMENT_DIMS, bool)
GOOD_MASK[2:4, 2:4, 1:3] = True                             # a well-formed answer's mask
GOOD_PROMPTS = box_prompts_for(GOOD_MASK)
OUTSIDE_REGION = np.full(SEGMENT_DIMS, 0.5, np.float32)
OUTSIDE_REGION[0, 0, 0] = 0.7                               # sums to 1.2 off the region
NAN_OFF_REGION = np.full(SEGMENT_DIMS, 0.5, np.float32)
NAN_OFF_REGION[0, 0, 0] = np.nan
BAD_SEGMENT_RESPONSES = {
    "mask-not-labels": (Volume(np.zeros(SEGMENT_DIMS, np.float32)), None,
                        r"must be a uint8 label image on dims \(6, 5, 4\), not a float32 3D"),
    "mask-dims": (mask_to_labels(np.zeros((6, 5, 3), bool)), None,
                  r"must be a uint8 label image on dims \(6, 5, 4\), not a uint8 label "
                  r"image on \(6, 5, 3\)"),
    "mask-not-binary": (LabelMap(np.full(SEGMENT_DIMS, 2, np.uint8), 3), None, "not binary"),
    "mask-not-binary-off-region": (
        LabelMap(np.pad(np.zeros((4, 3, 2), np.uint8), 1, constant_values=2), 3), None,
        "not binary"),
    "probs-3-class": (None, ProbVolume(np.full((3,) + SEGMENT_DIMS, np.float32(1 / 3))),
                      "must be 2-class"),
    "probs-dims": (None, two_class_probs(np.zeros((6, 5, 3), bool)),
                   r"must be a float32 4D probability image on dims \(6, 5, 4\), not a "
                   r"float32 4D probability image on \(6, 5, 3\)"),
    "probs-sum-off-region": (None, unchecked_probs(np.stack([OUTSIDE_REGION, OUTSIDE_REGION])),
                             "sum to 1"),
    "probs-nan-off-region": (None, unchecked_probs(np.stack([NAN_OFF_REGION, NAN_OFF_REGION])),
                             r"not all in \[0, 1\]"),
}


@pytest.mark.parametrize("case, region", [
    pytest.param(case, region, id=case if region is None else f"{case}-region")
    for case in sorted(BAD_SEGMENT_RESPONSES) for region in (None, SEGMENT_REGION)])
def test_file_oracle_segment_rejects_bad_responses(tmp_path, serve, case, region):
    mask, probs, message = BAD_SEGMENT_RESPONSES[case]
    serve(AsIs(tmp_path, {"probs": two_class_probs(GOOD_MASK) if probs is None else probs,
                          "mask": mask_to_labels(GOOD_MASK) if mask is None else mask}))
    with pytest.raises(OracleProtocolError, match=message):
        FileOracle(tmp_path, timeout=10.0).segment(
            Volume(np.zeros(SEGMENT_DIMS, np.float32)), GOOD_PROMPTS, region)


def test_file_oracle_segment_on_a_region_is_the_crop_of_the_answer(tmp_path, serve):
    rng = np.random.default_rng(3)
    mask = rng.random(SEGMENT_DIMS) < 0.5
    probs = two_class_probs(rng.random(SEGMENT_DIMS).astype(np.float32))
    serve(Server(tmp_path, generalist=Stub(lambda k: (mask, probs))))
    oracle = FileOracle(tmp_path, timeout=10.0)
    vol = Volume(np.zeros(SEGMENT_DIMS, np.float32))
    for region in (SEGMENT_REGION, (slice(0, 6), slice(4, 5), slice(0, 1))):
        got_mask, got_probs = oracle.segment(vol, box_prompts_for(mask), region)
        assert got_mask.dtype == bool
        assert got_mask.tobytes() == np.ascontiguousarray(mask[region]).tobytes()
        assert got_probs.data.tobytes() == np.ascontiguousarray(
            probs.data[(slice(None),) + region]).tobytes()


def test_file_oracle_segment_checks_the_probability_response_once(tmp_path, serve,
                                                                  monkeypatch):
    rng = np.random.default_rng(4)
    mask = rng.random(SEGMENT_DIMS) < 0.5
    probs = two_class_probs(rng.random(SEGMENT_DIMS).astype(np.float32))
    checks = []
    real = ProbVolume.__post_init__
    monkeypatch.setattr(ProbVolume, "__post_init__",
                        lambda self: checks.append(self) or real(self))
    serve(Server(tmp_path, generalist=Stub(lambda k: (mask, probs))))
    oracle = FileOracle(tmp_path, timeout=10.0)
    vol = Volume(np.zeros(SEGMENT_DIMS, np.float32))
    for region in (None, SEGMENT_REGION):
        checks.clear()
        oracle.segment(vol, box_prompts_for(mask), region)
        assert [p.dims for p in checks] == [SEGMENT_DIMS]      # the response as read


@pytest.mark.parametrize("region", BAD_REGIONS, ids=range(len(BAD_REGIONS)))
def test_file_oracle_rejects_a_bad_region_before_writing_a_request(tmp_path, region):
    oracle = FileOracle(tmp_path, timeout=0.1)
    vol, prompts = Volume(np.zeros(SEGMENT_DIMS, np.float32)), GOOD_PROMPTS
    with pytest.raises(RejectedInputError, match="not three non-empty slices"):
        oracle.segment(vol, prompts, region)
    assert not list(tmp_path.iterdir())
    # anywhere in a batch: no request of the batch is written
    for at in (0, 1, 2):
        batch = [(vol, prompts, None), (vol, prompts, SEGMENT_REGION)]
        batch.insert(at, (vol, prompts, region))
        with pytest.raises(RejectedInputError, match="not three non-empty slices"):
            oracle.segment_all(batch)
        assert not list(tmp_path.iterdir())


def indexed_volume(k):
    """Request ``k`` of a batch: a volume filled with ``k``."""
    return Volume(np.full(SEGMENT_DIMS, k, np.float32))


def indexed_segment_answer(k):
    """A distinct mask and its probabilities per request."""
    mask = np.random.default_rng(k).random(SEGMENT_DIMS) < 0.5
    return mask, two_class_probs(mask)


def indexed_predict_answer(k):
    labels = np.random.default_rng(100 + k).integers(0, 4, SEGMENT_DIMS).astype(np.uint8)
    return LabelMap(labels, 4)


class InIndexOrder(Server):
    """Answers the requests it finds together in index order (``reverse``:
    the other way round)."""

    def __init__(self, root, reverse=False, **oracle):
        super().__init__(root, **oracle)
        self.reverse = reverse

    def pending(self):
        def index(request):
            return nifti_io.read_volume(exchange.path(self.root, "image", request[1])).data.flat[0]
        return sorted(super().pending(), key=index, reverse=self.reverse)


def test_file_oracle_batches_are_on_disk_before_the_first_answer_is_awaited(tmp_path, serve):
    """A server that answers nothing until the whole batch is on disk, then
    answers in reverse: a serial client times out, a batch gets every
    answer, each to its own request."""
    n, serial = 6, tmp_path / "serial"
    serve(InIndexOrder(serial, reverse=True, generalist=Stub(indexed_segment_answer)), batch=n)
    with pytest.raises(OracleUnavailableError):
        FileOracle(serial, timeout=0.3).segment(indexed_volume(0), GOOD_PROMPTS)

    regions = [None if k % 2 else SEGMENT_REGION for k in range(n)]
    model = Stub(indexed_segment_answer)
    serve(InIndexOrder(tmp_path / "gen", reverse=True, generalist=model), batch=n)
    got = list(FileOracle(tmp_path / "gen", timeout=1.0).segment_all(
        [(indexed_volume(k), GOOD_PROMPTS, region) for k, region in enumerate(regions)]))
    assert model.answered == list(range(n))[::-1]
    for k, ((mask, probs), region) in enumerate(zip(got, regions)):
        want_mask, want_probs = indexed_segment_answer(k)
        at = region or (slice(None),) * 3
        assert np.array_equal(mask, want_mask[at]), k
        assert probs.data.tobytes() == want_probs.crop(at).data.tobytes(), k

    model = Stub(indexed_predict_answer)
    serve(InIndexOrder(tmp_path / "spec", reverse=True, specialist=model), batch=n)
    got = FileOracle(tmp_path / "spec", timeout=1.0).predict_all(
        [indexed_volume(k) for k in range(n)])
    assert model.answered == list(range(n))[::-1]
    assert [labels.data.tobytes() for labels in got] == [
        indexed_predict_answer(k).data.tobytes() for k in range(n)]


def test_file_oracle_batch_keeps_a_bad_answer_to_its_own_request(tmp_path, serve):
    def answer(k):
        if k == 1:  # request 2 of 4: wrong dims
            return np.zeros((4, 4, 4), bool), two_class_probs(np.zeros((4, 4, 4), bool))
        return indexed_segment_answer(k)

    serve(Server(tmp_path, generalist=Stub(answer)))
    got = list(FileOracle(tmp_path, timeout=10.0).segment_all(
        [(indexed_volume(k), GOOD_PROMPTS, None) for k in range(4)]))
    assert isinstance(got[1], OracleProtocolError) and "dims" in str(got[1])
    for k in (0, 2, 3):
        mask, probs = got[k]
        assert np.array_equal(mask, indexed_segment_answer(k)[0])


def test_file_oracle_gives_each_answer_its_own_timeout(tmp_path, serve):
    """A serial server at 0.1 s a request answers 12 requests in more than
    one timeout; each answer is awaited for ``timeout`` on its own."""
    model = Stub(indexed_segment_answer, pause=0.1)
    serve(InIndexOrder(tmp_path, generalist=model))
    oracle = FileOracle(tmp_path, timeout=1.0)
    start = time.monotonic()
    got = list(oracle.segment_all(
        [(indexed_volume(k), GOOD_PROMPTS, None) for k in range(12)]))
    assert time.monotonic() - start > oracle.timeout
    assert model.answered == list(range(12))
    for k, (mask, _) in enumerate(got):
        assert np.array_equal(mask, indexed_segment_answer(k)[0]), k


def test_file_oracle_fit_times_its_answer_from_the_committed_request(tmp_path, serve):
    """Building the one example takes longer than the timeout, and the
    trainer answers at once: the fit's clock starts only at its request."""
    suite, _ = registered_suite(n=1, organs=2, dims=(10, 10, 10))

    def slow():
        time.sleep(0.6)
        yield TrainingExample(suite[0][1], SupervisionTarget(suite[0][2]), frozenset({1}))

    model = serve(Server(tmp_path, specialist=Stub())).specialist
    FileOracle(tmp_path, timeout=0.5).fit(slow())
    assert model.fits == 1


class Images:
    """Predict requests committed to ``root`` through one cache of first
    copies, as one ``FileOracle`` sends them; ``written`` lists every
    ``write_volume`` path."""

    def __init__(self, root, monkeypatch):
        self.root, self.copies, self.written, write = root, {}, [], nifti_io.write_volume

        def counting(path, grid, *args, **kwargs):
            self.written.append(Path(path))
            return write(path, grid, *args, **kwargs)
        monkeypatch.setattr(nifti_io, "write_volume", counting)

    def send(self, volume):
        """The committed request image's path."""
        return exchange.path(self.root, "image",
                             exchange.send(self.root, volume, copies=self.copies))


def fresh_bytes(tmp_path, volume):
    """The bytes of ``volume`` written on its own."""
    nifti_io.write_volume(tmp_path / "fresh.nii", volume)
    return (tmp_path / "fresh.nii").read_bytes()


def ramp_volume():
    return Volume(np.arange(60, dtype=np.float32).reshape(5, 4, 3), (0.5, 1.0, 2.0))


def test_file_oracle_links_each_later_request_of_an_image_to_its_first_copy(tmp_path,
                                                                            monkeypatch):
    images, vol = Images(tmp_path, monkeypatch), ramp_volume()
    first = images.send(vol)
    later = [images.send(vol), images.send(Volume(vol.data, vol.spacing))]  # the very array
    assert images.written == [first.with_name(first.name + ".tmp")]
    assert {p.stat().st_ino for p in later} == {first.stat().st_ino}
    assert first.stat().st_nlink == 3
    assert first.read_bytes() == fresh_bytes(tmp_path, vol)


def a_byte_equal_copy(vol, first, monkeypatch):
    return Volume(np.array(vol.data), vol.spacing)


def other_spacing(vol, first, monkeypatch):
    return Volume(vol.data, (1.0, 1.0, 1.0))


def link_raises(vol, first, monkeypatch):
    real = os.link

    def fails_once(src, dst):
        monkeypatch.setattr(os, "link", real)
        raise OSError(errno.EPERM, "no hard links on this filesystem")
    monkeypatch.setattr(os, "link", fails_once)
    return vol


def first_copy_deleted(vol, first, monkeypatch):
    first.unlink()
    return vol


@pytest.mark.parametrize("case", [a_byte_equal_copy, other_spacing, link_raises,
                                  first_copy_deleted])
def test_an_image_that_cannot_link_to_a_first_copy_is_written_and_becomes_it(
        tmp_path, monkeypatch, case):
    images, vol = Images(tmp_path, monkeypatch), ramp_volume()
    first = images.send(vol)
    again = case(vol, first, monkeypatch)
    new = images.send(again)
    assert images.written[1:] == [new.with_name(new.name + ".tmp")]
    assert not first.exists() or first.stat().st_ino != new.stat().st_ino
    later = [images.send(again) for _ in range(2)]
    assert len(images.written) == 2
    assert {p.stat().st_ino for p in later} == {new.stat().st_ino}
    assert new.read_bytes() == fresh_bytes(tmp_path, again)


def test_a_writable_array_is_written_each_time_until_it_is_read_only_again(tmp_path,
                                                                           monkeypatch):
    """The array may change while it is writable, so no copy made before or
    during that time is reused."""
    images, vol = Images(tmp_path, monkeypatch), ramp_volume()
    first = images.send(vol)
    vol.data.flags.writeable = True
    vol.data[0, 0, 0] = 7.0
    writable = [images.send(vol) for _ in range(2)]
    vol.data.flags.writeable = False
    frozen = [images.send(vol) for _ in range(3)]
    assert len(images.written) == 4
    assert len({p.stat().st_ino for p in [first, *writable, frozen[0]]}) == 4
    assert {p.stat().st_ino for p in frozen} == {frozen[0].stat().st_ino}
    want = fresh_bytes(tmp_path, vol)
    assert first.read_bytes() != want
    assert all(p.read_bytes() == want for p in writable + frozen)


# --- exchange server ------------------------------------------------------------

def test_server_answers_each_complete_request_once(tmp_path, monkeypatch):
    """A segment request is complete once its prompts are committed; each is answered
    once, probabilities before mask, and no temporary file remains."""
    server = Server(tmp_path, generalist=Stub(indexed_segment_answer))
    first = exchange.send(tmp_path, indexed_volume(0))          # prompts not yet committed
    second = exchange.send(tmp_path, indexed_volume(1), GOOD_PROMPTS)
    committed, real = [], exchange.commit
    monkeypatch.setattr(exchange, "commit",
                        lambda dest, *content: committed.append(dest.name) or real(dest, *content))
    assert server.serve_once() == 1 and server.generalist.answered == [1]
    real(exchange.path(tmp_path, "prompts", first), format_prompts(GOOD_PROMPTS))
    assert [server.serve_once() for _ in range(3)] == [1, 0, 0]
    assert server.generalist.answered == [1, 0]
    assert committed == [exchange.path(tmp_path, name, uid).name
                         for uid in (second, first) for name in ("probs", "mask")]
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".nii"] * 6 + [".prompts"] * 2


def test_server_logs_a_failing_answer_and_answers_later_requests(tmp_path, caplog):
    server = Server(tmp_path, specialist=Stub(lambda k: indexed_predict_answer(k) if k else 1 / 0))
    bad = exchange.send(tmp_path, indexed_volume(0))
    with caplog.at_level(logging.ERROR, logger="promptseg"):
        assert server.serve_once() == 1
        later = exchange.send(tmp_path, indexed_volume(2))
        assert server.serve_once() == 1 and server.serve_once() == 0
    assert server.specialist.answered == [0, 2]              # the failed one is not retried
    (record,) = caplog.records
    assert record.name == "promptseg.exchange" and bad in record.getMessage()
    assert "ZeroDivisionError" in caplog.text
    files = [("image", bad), ("error", bad), ("image", later), ("probs", later)]
    assert {p.name for p in tmp_path.iterdir()} == {exchange.path(tmp_path, *f).name for f in files}


def out_of_memory(k):
    raise RuntimeError("CUDA out of memory.\nTried to allocate 2.00 GiB")


def test_server_answers_a_failing_request_with_one_error_file(tmp_path, monkeypatch, caplog):
    """The error answer is one line, committed by way of a temporary name,
    and it answers the request: the next poll finds nothing."""
    server = Server(tmp_path, specialist=Stub(out_of_memory))
    uid = exchange.send(tmp_path, indexed_volume(0))
    written, renamed, write_text, rename = [], [], Path.write_text, Path.rename
    monkeypatch.setattr(Path, "write_text",
                        lambda p, text: written.append(p.name) or write_text(p, text))
    monkeypatch.setattr(Path, "rename",
                        lambda p, dest: renamed.append((p.name, dest.name)) or rename(p, dest))
    with caplog.at_level(logging.ERROR, logger="promptseg"):
        assert server.serve_once() == 1
    err = exchange.path(tmp_path, "error", uid)
    assert written == [err.name + ".tmp"] and renamed == [(err.name + ".tmp", err.name)]
    assert err.read_text() == "RuntimeError: CUDA out of memory. Tried to allocate 2.00 GiB\n"
    assert list(tmp_path.glob("resp_*")) == [err]
    assert server.serve_once() == 0 and server.specialist.answered == [0]


class Stopped(BaseException):
    """The server process is killed."""


def test_server_answers_again_a_segment_stopped_between_its_answer_files(tmp_path, monkeypatch):
    """A segment whose probabilities are committed but whose mask is not is
    still pending, and is answered again."""
    server = Server(tmp_path, generalist=Stub(indexed_segment_answer))
    uid = exchange.send(tmp_path, indexed_volume(1), GOOD_PROMPTS)
    probs, mask = exchange.path(tmp_path, "probs", uid), exchange.path(tmp_path, "mask", uid)
    commit = exchange.commit

    def killed_at_the_mask(dest, *content):
        if dest == mask:
            raise Stopped
        commit(dest, *content)
    monkeypatch.setattr(exchange, "commit", killed_at_the_mask)
    with pytest.raises(Stopped):
        server.serve_once()
    assert probs.exists() and not mask.exists()
    monkeypatch.setattr(exchange, "commit", commit)
    assert server.pending() == [("segment", uid)]
    assert server.serve_once() == 1 and server.serve_once() == 0
    assert server.generalist.answered == [1, 1]
    assert np.array_equal(nifti_io.read_volume(mask).data > 0, indexed_segment_answer(1)[0])


def test_a_fresh_server_answers_nothing_an_earlier_one_answered(tmp_path):
    """The exchange directory is the server's only record: after one server
    per directory answers a predict and a fit, and a segment, fresh servers
    on the same directories find nothing to do and call no model."""
    suite, _ = registered_suite(n=1, organs=2, dims=(10, 10, 10))
    example = TrainingExample(suite[0][1], SupervisionTarget(suite[0][2]), frozenset({1}))

    def servers():
        return (Server(tmp_path / "spec", specialist=Stub(indexed_predict_answer)),
                Server(tmp_path / "gen", generalist=Stub(indexed_segment_answer)))
    spec, gen = servers()
    exchange.send(spec.root, indexed_volume(3))
    exchange.send_fit(spec.root, [example], "full")
    exchange.send(gen.root, indexed_volume(4), GOOD_PROMPTS)
    assert (spec.serve_once(), gen.serve_once()) == (2, 1)
    assert (spec.specialist.answered, spec.specialist.fits) == ([3], 1)
    assert gen.generalist.answered == [4]
    spec, gen = servers()
    assert (spec.serve_once(), gen.serve_once()) == (0, 0)
    assert (spec.specialist.answered, spec.specialist.fits, gen.generalist.answered) == ([], 0, [])


def test_server_answers_a_fit_whose_target_is_float32_with_an_error(tmp_path):
    """A float32 ``.target.nii`` holds no exact labels (0.4 above each one
    here, which a cast would drop): the fit is answered ``.err`` naming the
    refusal, and the trainer takes no example."""
    suite, _ = registered_suite(n=1, organs=2, dims=(10, 10, 10))
    example = TrainingExample(suite[0][1], SupervisionTarget(suite[0][2]), frozenset({1}))
    taken = []

    class Taking(Stub):
        def fit(self, examples, supervision="full"):
            taken.extend(examples)
    server = Server(tmp_path, specialist=Taking())
    uid = exchange.send_fit(tmp_path, [example], "full")
    target = exchange.path(tmp_path, "examples", uid) / "scan_0000.target.nii"
    nifti_io.write_volume(target, Volume(nifti_io.read_volume(target).data + np.float32(0.4)))
    assert server.serve_once() == 1
    assert exchange.path(tmp_path, "error", uid).read_text() == (
        f"RejectedInputError: {target}: must be a uint8 label image on dims "
        "(10, 10, 10), not a float32 3D image on (10, 10, 10)\n")
    assert not exchange.path(tmp_path, "done", uid).exists() and taken == []


@pytest.mark.parametrize("name", ["scan_0000.target.nii", "scan_0000.mask.nii"])
def test_server_answers_a_fit_whose_target_or_mask_is_off_its_image_dims_with_an_error(
        tmp_path, name):
    """A uint8 target or VLS mask on other dims than its image is refused
    before the trainer takes the example, by an error naming the file."""
    suite, _ = registered_suite(n=1, organs=2, dims=(10, 10, 10))
    weights = np.ones((10, 10, 10), bool)
    example = TrainingExample(suite[0][1], SupervisionTarget(suite[0][2]), frozenset({1}), weights)
    taken = []

    class Taking(Stub):
        def fit(self, examples, supervision="full"):
            taken.extend(examples)
    server = Server(tmp_path, specialist=Taking())
    uid = exchange.send_fit(tmp_path, [example], "full")
    bad = exchange.path(tmp_path, "examples", uid) / name
    nifti_io.write_volume(bad, LabelMap(nifti_io.read_volume(bad).data[:, :, :9], 3))
    assert server.serve_once() == 1
    assert exchange.path(tmp_path, "error", uid).read_text() == (
        f"RejectedInputError: {bad}: must be a uint8 label image on dims "
        "(10, 10, 10), not a uint8 label image on (10, 10, 9)\n")
    assert not exchange.path(tmp_path, "done", uid).exists() and taken == []


@pytest.mark.parametrize("kind", ["predict", "segment"])
@pytest.mark.parametrize("image", ["uint8", "4D"])
def test_server_answers_a_request_image_that_is_not_float32_3d_with_an_error(
        tmp_path, kind, image):
    """A predict or segment request image that is a uint8 or 4D file is
    answered ``.err`` naming the file, and the model is never called."""
    model = Stub(indexed_predict_answer if kind == "predict" else indexed_segment_answer)
    server = Server(tmp_path, **{"specialist" if kind == "predict" else "generalist": model})
    uid = exchange.send(tmp_path, indexed_volume(1), None if kind == "predict" else GOOD_PROMPTS)
    request = exchange.path(tmp_path, "image", uid)
    grid, what = ((mask_to_labels(GOOD_MASK), "a uint8 label image") if image == "uint8"
                  else (two_class_probs(GOOD_MASK), "a float32 4D probability image"))
    nifti_io.write_volume(request, grid)
    assert server.serve_once() == 1
    assert exchange.path(tmp_path, "error", uid).read_text() == (
        f"RejectedInputError: {request}: must be a float32 3D image, not {what} on (6, 5, 4)\n")
    assert model.answered == []


@pytest.mark.parametrize("case", ["uint8-image", "4D-image", "target-above-manifest"])
def test_server_answers_a_fit_with_a_refused_example_file_with_an_error(tmp_path, case):
    """A fit example image that is not a float32 3D image, or a target
    holding a label at or above its manifest's class count, is answered
    ``.err`` naming the file, and the trainer takes no example."""
    suite, _ = registered_suite(n=1, organs=2, dims=(10, 10, 10))
    gt = suite[0][2]                                        # labels 0, 1 and 2
    example = TrainingExample(suite[0][1], SupervisionTarget(gt), frozenset({1}))
    taken = []

    class Taking(Stub):
        def fit(self, examples, supervision="full"):
            taken.extend(examples)
    server = Server(tmp_path, specialist=Taking())
    uid = exchange.send_fit(tmp_path, [example], "full")
    fit_dir = exchange.path(tmp_path, "examples", uid)
    if case == "target-above-manifest":
        nifti_io.write_manifest(fit_dir / "scan_0000.manifest", nifti_io.status_manifest(2, {1}))
        bad = fit_dir / "scan_0000.target.nii"
        message = "label 2 >= the 2 classes of scan_0000.manifest"
    else:
        grid, what = ((gt, "a uint8 label image") if case == "uint8-image"
                      else (two_class_probs(gt.data > 0), "a float32 4D probability image"))
        bad = fit_dir / "scan_0000.nii"
        nifti_io.write_volume(bad, grid)
        message = f"must be a float32 3D image, not {what} on (10, 10, 10)"
    assert server.serve_once() == 1
    assert exchange.path(tmp_path, "error", uid).read_text() == (
        f"RejectedInputError: {bad}: {message}\n")
    assert not exchange.path(tmp_path, "done", uid).exists() and taken == []


@pytest.mark.parametrize("case", ["uint8-image", "4D-image", "float32-target",
                                  "mask-off-dims", "second-example-image"])
def test_server_answers_a_fit_with_a_refused_header_with_an_error_before_the_trainer(
        tmp_path, case):
    """Every example's files are checked, header by header, before the
    trainer is called: a trainer that takes no example (``Stub``) is not
    called for a fit with a file of the wrong kind or dims, and the fit is
    answered ``.err`` naming the file, never ``.done``."""
    suite, _ = registered_suite(n=1, organs=2, dims=(10, 10, 10))
    _, vol, gt = suite[0]
    model = Stub()
    server = Server(tmp_path, specialist=model)
    example = TrainingExample(vol, SupervisionTarget(gt), frozenset({1}), gt.data > 0)
    uid = exchange.send_fit(tmp_path, [example, example], "full")
    name, grid, what = {
        "uint8-image": ("scan_0000.nii", gt, "a float32 3D image, not a uint8 label image"),
        "4D-image": ("scan_0000.nii", two_class_probs(gt.data > 0),
                     "a float32 3D image, not a float32 4D probability image"),
        "float32-target": ("scan_0000.target.nii", vol,
                           "a uint8 label image on dims (10, 10, 10), not a float32 3D image"),
        "mask-off-dims": ("scan_0000.mask.nii", LabelMap(np.zeros((10, 10, 9), np.uint8), 2),
                          "a uint8 label image on dims (10, 10, 10), not a uint8 label image"),
        "second-example-image": ("scan_0001.nii", gt,
                                 "a float32 3D image, not a uint8 label image"),
    }[case]
    bad = exchange.path(tmp_path, "examples", uid) / name
    nifti_io.write_volume(bad, grid)
    assert server.serve_once() == 1
    assert exchange.path(tmp_path, "error", uid).read_text() == (
        f"RejectedInputError: {bad}: must be {what} on {grid.dims}\n")
    assert not exchange.path(tmp_path, "done", uid).exists() and model.fits == 0


class TrainerDown(Stub):
    def fit(self, examples, supervision="full"):
        raise RuntimeError("trainer down")


def test_file_oracle_raises_an_error_answer_at_once(tmp_path, serve):
    """At a 30 s timeout, a failed predict or fit raises, and a failed
    segment of a batch is yielded, as ``OracleUnavailableError`` naming its
    ``.err`` within 1 s; the batch still answers the requests after it."""
    suite, _ = registered_suite(n=1, organs=2, dims=(10, 10, 10))
    example = TrainingExample(suite[0][1], SupervisionTarget(suite[0][2]), frozenset({1}))
    serve(Server(tmp_path / "spec", specialist=TrainerDown(lambda k: 1 / 0)))
    serve(Server(tmp_path / "gen",
                 generalist=Stub(lambda k: 1 / 0 if k == 1 else indexed_segment_answer(k))))
    specialist, generalist = (FileOracle(tmp_path / d, timeout=30.0) for d in ("spec", "gen"))
    for call, text in ((lambda: specialist.predict(indexed_volume(0)), "ZeroDivisionError"),
                       (lambda: specialist.fit([example]), "RuntimeError: trainer down")):
        start = time.monotonic()
        with pytest.raises(OracleUnavailableError, match=rf"resp_\w+\.err: {text}"):
            call()
        assert time.monotonic() - start < 1.0
    start = time.monotonic()
    got = list(generalist.segment_all([(indexed_volume(k), GOOD_PROMPTS, None) for k in range(3)]))
    assert time.monotonic() - start < 1.0
    (err,) = (tmp_path / "gen").glob("resp_*.err")
    assert isinstance(got[1], OracleUnavailableError) and str(err) in str(got[1])
    for k in (0, 2):
        assert np.array_equal(got[k][0], indexed_segment_answer(k)[0]), k


def test_server_takes_pending_requests_in_commit_order(tmp_path):
    """uids sort in commit order, so a serial server answers a batch's first
    awaited request first, whatever order the directory lists its files in."""
    server = Server(tmp_path, specialist=Stub(indexed_predict_answer))
    uids = [exchange.send(tmp_path, indexed_volume(k)) for k in range(14)]
    assert server.pending() == [("predict", uid) for uid in uids]
    server.serve_once()
    assert server.specialist.answered == list(range(14))


def test_server_takes_one_model_per_directory(tmp_path):
    for models in ({"specialist": Stub(), "generalist": Stub()}, {}):
        with pytest.raises(ConfigError, match="share a name"):
            Server(tmp_path, **models)


class ScriptedAnswers(GeneralistOracle):
    """Answers each request with its prompts; "down" is an oracle failure
    and "bug" a programming error."""

    def __init__(self):
        self.asked = []

    def segment(self, volume, prompts, region=None):
        self.asked.append(prompts)
        if prompts == "down":
            raise OracleUnavailableError("no answer")
        if prompts == "bug":
            raise TypeError("not an oracle failure")
        return prompts, region


def test_default_segment_all_asks_lazily_and_yields_oracle_errors():
    oracle = ScriptedAnswers()
    answers = oracle.segment_all([(None, p, k) for k, p in enumerate(["a", "down", "b", "bug"])])
    assert oracle.asked == []              # nothing is asked before the first item
    assert next(answers) == ("a", 0)
    assert oracle.asked == ["a"]
    assert isinstance(next(answers), OracleUnavailableError)
    assert next(answers) == ("b", 2)
    with pytest.raises(TypeError, match="not an oracle failure"):
        next(answers)
    assert oracle.asked == ["a", "down", "b", "bug"]


def test_default_predict_all_predicts_each_volume_in_order():
    class Echo(SpecialistOracle):
        def predict(self, volume):
            return LabelMap(volume.data.astype(np.uint8), 9)

        def fit(self, examples, supervision="full"):
            pass

    got = Echo().predict_all([indexed_volume(k) for k in (3, 1, 2)])
    assert [int(labels.data.flat[0]) for labels in got] == [3, 1, 2]


# --- phantom batches on a helper thread -----------------------------------------

def fresh_oracles(suite, seed=7):
    """A new registry (empty caches) and its specialist and generalist."""
    registry = PhantomRegistry()
    for _, vol, gt in suite:
        registry.register(vol, gt)
    return (PhantomSpecialist(registry, quality=0.6, seed=seed),
            PhantomGeneralist(registry, cooperativeness=0.4, seed=seed))


@pytest.fixture
def helper_on(monkeypatch):
    """Phantom batches use their helper thread whatever this machine's CPUs,
    and thread switches come often, so the two threads interleave finely."""
    monkeypatch.setattr(phantom, "_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_predict_all_over_a_repeated_volume_equals_one_by_one(helper_on):
    """Both threads fill the caches of one scan and class at once (signed
    distances, organ boxes, noise peaks); every prediction still equals the
    one-by-one call of an oracle whose caches were filled in order."""
    suite = make_phantom_suite(3, 4, (24, 22, 20), seed=2)
    vols = [vol for _, vol, _ in suite]
    batch = [vols[k] for k in (0, 0, 1, 0, 2, 2, 1, 0, 0)]
    for trial in range(3):
        batched, _ = fresh_oracles(suite, seed=trial)
        single, _ = fresh_oracles(suite, seed=trial)
        got = batched.predict_all(batch)
        want = [single.predict(vol) for vol in batch]
        assert [g.data.tobytes() for g in got] == [w.data.tobytes() for w in want], trial


def test_segment_all_keeps_each_error_at_its_position(helper_on):
    """A request that fails with ``RejectedInputError``, whether the caller
    (even positions) or the helper (odd) computes it, is yielded at its
    position, and every answer equals the one-by-one call."""
    suite = make_phantom_suite(2, 3, (24, 20, 18), seed=4)
    _, generalist = fresh_oracles(suite)
    asks = []
    for _, vol, gt in suite:
        for c in (1, 2, 3):
            prompts = make_box_prompts(gt, c, padding=2)
            asks.append((vol, prompts, roi_box(prompts, 4, vol.dims)))
    asks.append((suite[0][1], asks[0][1], None))                # the whole grid
    bad = (slice(0, 0), slice(0, 4), slice(0, 4))
    for failing in ({0, 3}, {1, 4}, {2, 5, 6}):
        requests = [(v, p, bad if k in failing else r) for k, (v, p, r) in enumerate(asks)]
        got = list(generalist.segment_all(requests))
        _, single = fresh_oracles(suite)
        for k, (answer, request) in enumerate(zip(got, requests)):
            if k in failing:
                assert isinstance(answer, RejectedInputError), k
                with pytest.raises(RejectedInputError):
                    single.segment(*request)
                continue
            mask, probs = single.segment(*request)
            assert answer[0].tobytes() == mask.tobytes(), k
            assert answer[1].data.tobytes() == probs.data.tobytes(), k


def test_an_error_in_a_helper_item_propagates_out_of_predict_all(helper_on):
    """Only ``PromptsegError``s are answers: any other exception raised in a
    helper item leaves ``predict_all`` as itself, after the items before it."""
    suite, registry = registered_suite(n=3, organs=2, dims=(12, 12, 12))
    vols = [vol for _, vol, _ in suite]
    ran = []

    class Faulty(PhantomSpecialist):
        def _predict(self, volume):
            ran.append((volume is vols[1], threading.current_thread() is threading.main_thread()))
            if volume is vols[1]:
                raise TypeError("not an oracle failure")
            return super()._predict(volume)

    with pytest.raises(TypeError, match="not an oracle failure"):
        Faulty(registry, quality=1.0).predict_all(vols)
    assert (True, False) in ran                     # raised on the helper thread
    assert (False, True) in ran                     # item 0 ran on the caller's


@pytest.mark.parametrize("batch", ["predict_all", "segment_all"])
def test_a_phantom_batch_has_at_most_two_items_in_flight(helper_on, batch):
    """An item is in flight from when its computation starts until its public
    ``predict`` or ``segment`` returns it: the helper runs one item ahead of
    the caller, never more.  Each item is computed once and goes through one
    public call on the caller's thread, in order."""
    suite, registry = registered_suite(n=2, organs=2, dims=(12, 12, 12))
    vols = [suite[k % 2][1] for k in range(7)]
    lock, flight, calls = threading.Lock(), [0, 0, 0], []    # in flight, most, computed

    def started():
        with lock:
            flight[0] += 1
            flight[1:] = max(flight[:2]), flight[2] + 1
        time.sleep(0.02)

    def returned(volume, answer):
        calls.append(([v is volume for v in vols].index(True),
                      threading.current_thread() is threading.main_thread()))
        with lock:
            flight[0] -= 1
        return answer

    class SlowSpecialist(PhantomSpecialist):
        def predict(self, volume, **kwargs):
            return returned(volume, super().predict(volume, **kwargs))

        def _predict(self, volume):
            started()
            return super()._predict(volume)

    class SlowGeneralist(PhantomGeneralist):
        def segment(self, volume, *request, **kwargs):
            return returned(volume, super().segment(volume, *request, **kwargs))

        def _segment(self, *request):
            started()
            return super()._segment(*request)

    if batch == "predict_all":
        got = SlowSpecialist(registry, quality=1.0).predict_all(vols)
        assert [g.data.tobytes() for g in got] == [suite[k % 2][2].data.tobytes()
                                                   for k in range(7)]
    else:
        prompts = [make_box_prompts(gt, 1, padding=2) for _, _, gt in suite]
        requests = [(vol, prompts[k % 2], None) for k, vol in enumerate(vols)]
        got = list(SlowGeneralist(registry, cooperativeness=0.4, seed=7).segment_all(requests))
        plain = PhantomGeneralist(registry, cooperativeness=0.4, seed=7)
        for answer, request in zip(got, requests, strict=True):
            mask, probs = plain.segment(*request)
            assert answer[0].tobytes() == mask.tobytes()
            assert answer[1].data.tobytes() == probs.data.tobytes()
    assert flight == [0, 2, 7]
    assert calls == [(k % 2, True) for k in range(7)]


def test_a_call_on_another_thread_never_takes_a_helper_result(helper_on):
    """While the caller's public ``predict`` of a helper item runs, a
    ``predict`` of the same oracle on another thread computes its own answer."""
    suite, registry = registered_suite(n=2, organs=2, dims=(12, 12, 12))
    (_, a, gt_a), (_, b, gt_b) = suite
    other = []

    class Shared(PhantomSpecialist):
        def predict(self, volume, **kwargs):
            if volume is b:                 # item 1: the helper's result is on hand
                thread = threading.Thread(target=lambda: other.append(self.predict(a)))
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
            return super().predict(volume, **kwargs)

    got = Shared(registry, quality=1.0).predict_all([a, b])
    assert other[0].data.tobytes() == gt_a.data.tobytes()
    assert [g.data.tobytes() for g in got] == [gt_a.data.tobytes(), gt_b.data.tobytes()]


def test_a_public_call_on_other_arguments_never_takes_a_helper_result(helper_on):
    """An override that first predicts another volume, or segments with other
    prompts, before it forwards its item gets that call's own answer; the
    item still gets the helper's."""
    suite, registry = registered_suite(n=3, organs=2, dims=(12, 12, 12))
    vols = [vol for _, vol, _ in suite]
    side = []

    class Probing(PhantomSpecialist):
        def predict(self, volume, **kwargs):
            other = ([v is volume for v in vols].index(True) + 1) % 3
            side.append((other, super().predict(vols[other])))
            return super().predict(volume, **kwargs)

    got = Probing(registry, quality=1.0).predict_all(vols * 2)
    assert [g.data.tobytes() for g in got] == [gt.data.tobytes() for _, _, gt in suite * 2]
    assert [other for other, _ in side] == [1, 2, 0] * 2
    for other, labels in side:
        assert labels.data.tobytes() == suite[other][2].data.tobytes()

    vol, gt = suite[0][1], suite[0][2]
    requests = [(vol, make_box_prompts(gt, c, padding=2), None) for c in (1, 2, 1, 2)]

    class Asking(PhantomGeneralist):
        def segment(self, volume, prompts, region=None, **kwargs):
            side.append(super().segment(volume, requests[0][1] if prompts is not requests[0][1]
                                        else requests[1][1], region))
            return super().segment(volume, prompts, region, **kwargs)

    _, plain = fresh_oracles(suite)
    asking = Asking(registry, cooperativeness=0.4, seed=7)
    side.clear()
    got = list(asking.segment_all(requests))
    for answer, request in zip(got, requests):
        assert answer[1].data.tobytes() == plain.segment(*request)[1].data.tobytes()
    for answer, request in zip(side, requests):
        other = requests[0] if request[1] is not requests[0][1] else requests[1]
        assert answer[1].data.tobytes() == plain.segment(*other)[1].data.tobytes()


def test_one_cpu_starts_no_thread(monkeypatch):
    """Pinned to one CPU, phantom batches run on the caller's thread alone."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert phantom._cpus() == 1

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    suite = make_phantom_suite(3, 2, (12, 12, 12), seed=1)
    specialist, generalist = fresh_oracles(suite)
    assert len(specialist.predict_all([vol for _, vol, _ in suite])) == 3
    prompts = make_box_prompts(suite[0][2], 1, padding=2)
    assert len(list(generalist.segment_all([(suite[0][1], prompts, None)] * 3))) == 3


def test_fingerprint_sensitive_to_content():
    a = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    b = Volume(np.ones((4, 4, 4), dtype=np.float32))
    assert volume_fingerprint(a) != volume_fingerprint(b)
    c = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    assert volume_fingerprint(a) == volume_fingerprint(c)


def test_registry_lookup_hashes_only_arrays_it_did_not_register(monkeypatch):
    suite, registry = registered_suite(n=2, organs=2, dims=(12, 12, 12))
    hashed = []
    real = phantom.volume_fingerprint
    monkeypatch.setattr(phantom, "volume_fingerprint", lambda v: hashed.append(v) or real(v))
    (_, vol, gt), (_, other, _) = suite
    fp, scan = registry.lookup(vol)
    assert fp == real(vol) and scan.gt is gt and not hashed
    copy = Volume(np.array(vol.data), vol.spacing)          # byte-equal, another array
    fp_copy, scan_copy = registry.lookup(copy)
    assert fp_copy == fp and scan_copy is scan and hashed == [copy]
    changed = np.array(vol.data)
    changed[3, 4, 5] += 1.0
    with pytest.raises(UnknownVolumeError):
        registry.lookup(Volume(changed))
    other.data.flags.writeable = True                       # a registered array, altered
    other.data[0, 0, 0] += 1.0
    with pytest.raises(UnknownVolumeError):
        registry.lookup(other)
