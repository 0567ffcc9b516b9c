import threading
import time

import numpy as np
import pytest

from promptseg import nifti_io
from scipy import ndimage
from scipy.spatial.transform import Rotation

from promptseg.errors import (ConfigError, OracleProtocolError, OracleUnavailableError,
                              RejectedInputError, UnknownVolumeError)
from promptseg.metrics import dice
from promptseg.oracles import (Ellipsoid, FileOracle, PhantomGeneralist,
                               PhantomRegistry,
                               PhantomSpecialist, PhantomSpec, TrainingExample,
                               _distance_from, _rng_for,
                               ellipsoid_mask, generate_phantom,
                               make_phantom_suite, random_phantom_spec,
                               volume_fingerprint)
from promptseg.prompting import Box2D, BoxPromptPair, AXIAL, SAGITTAL, make_box_prompts
from promptseg.refinement import OrganRefinementState, RefinementConfig, refine_pseudo_label
from promptseg.vls_loss import SupervisionTarget
from promptseg.volgrid import (LabelMap, ProbVolume, Volume, argmax_labelmap,
                               class_mask, mask_to_labels)


# --- phantom generation -------------------------------------------------------

def test_generate_phantom_zero_organs():
    spec = PhantomSpec(dims=(8, 8, 8), organs=())
    vol, gt = generate_phantom(spec, seed=0)
    assert not gt.data.any()
    assert vol.dims == (8, 8, 8)


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
    from scipy.spatial.transform import Rotation
    rot = Rotation.from_euler("zyx", ell.angles).as_matrix()
    for idx in [(8, 8, 9), (4, 4, 4), (12, 9, 9), (8, 10, 11), (0, 0, 0)]:
        p = np.asarray(idx, dtype=np.float64) - ell.center
        local = rot.T @ p
        inside = ((local / np.asarray(ell.radii)) ** 2).sum() <= 1.0
        assert mask[idx] == inside


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
            assert np.array_equal(result.mask, class_mask(gt, c))


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


@pytest.mark.parametrize("n, organs, dims", [
    (3, 6, (32, 32, 32)),
    (2, 6, (48, 40, 24)),
    (1, 8, (80, 80, 56)),
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
            got = _distance_from(dims, center)
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_phantom_suite_names_the_first_empty_organ(seed):
    with pytest.raises(ConfigError) as err:
        make_phantom_suite(1, 6, (7, 7, 7), seed=seed)
    spec = random_phantom_spec((7, 7, 7), 6, np.random.default_rng((seed, 1000)))
    _, labels = full_grid_phantom(spec, (seed, 2000))
    first = next(c for c in range(1, 7) if not (labels == c).any())
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


def test_organ_bbox_equals_argwhere_and_rejects_non_organs():
    rng = np.random.default_rng(10)
    for gt in list(border_label_maps()) + [make_phantom_suite(1, 5, (24, 20, 16), 4)[0][2]]:
        registry = PhantomRegistry()
        fp = registry.register(Volume(rng.random(gt.dims).astype(np.float32)), gt)
        for c in range(1, gt.num_classes):
            coords = np.argwhere(gt.data == c)
            lo, hi = registry.organ_bbox(fp, c)
            assert lo.dtype == hi.dtype == np.int64
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


# --- file oracle ------------------------------------------------------------------

class StubResponder(threading.Thread):
    """Minimal external model: answers requests in an exchange directory.
    ``mask`` is a boolean array, written as a 0/1 label image, or any grid,
    written as it is."""

    def __init__(self, root, mask, probs):
        super().__init__(daemon=True)
        self.root = root
        self.mask = mask_to_labels(mask) if isinstance(mask, np.ndarray) else mask
        self.probs = probs
        self.stop = threading.Event()
        self.fits_seen = 0

    def run(self):
        seen = set()
        while not self.stop.is_set():
            for req in self.root.glob("req_*.nii"):
                uid = req.stem[len("req_"):]
                if uid in seen:
                    continue
                seen.add(uid)
                nifti_io.write_volume(self.root / f"resp_{uid}.nii", self.mask)
                nifti_io.write_volume(self.root / f"resp_{uid}.prob.nii", self.probs)
            for req in self.root.glob("fit_*.req"):
                uid = req.stem[len("fit_"):]
                marker = self.root / f"fit_{uid}.done"
                if not marker.exists():
                    self.fits_seen += 1
                    marker.write_text("ok\n")
            time.sleep(0.01)


def two_class_probs(mask):
    p = np.where(mask, np.float32(0.9), np.float32(0.1))
    return ProbVolume(np.stack([1.0 - p, p]))


def box_prompts_for(mask):
    return make_box_prompts(LabelMap(mask.astype(np.uint8), 2), 1, padding=2)


def test_file_oracle_round_trip(tmp_path):
    dims = (10, 10, 10)
    mask = np.zeros(dims, dtype=bool)
    mask[3:7, 3:7, 3:7] = True
    probs = two_class_probs(mask)
    responder = StubResponder(tmp_path, mask, probs)
    responder.start()
    try:
        oracle = FileOracle(tmp_path, timeout=10.0)
        vol = Volume(np.zeros(dims, dtype=np.float32))
        got = oracle.predict(vol)
        assert got.data.tobytes() == argmax_labelmap(probs).data.tobytes()
        got_mask, got_probs = oracle.segment(vol, box_prompts_for(mask))
        assert np.array_equal(got_mask, mask)
        assert got_probs.data.tobytes() == probs.data.tobytes()
        labels = mask.astype(np.uint8)
        labels[0, 0, :2] = 2  # a pseudo-labeled class next to the labeled one
        oracle.fit([TrainingExample(volume=vol,
                                    target=SupervisionTarget(LabelMap(labels, 3),
                                                             frozenset({2})),
                                    labeled_classes=frozenset({1}),
                                    weight_mask=mask)])
        assert responder.fits_seen == 1
        fit_dirs = [p for p in tmp_path.glob("fit_*") if p.is_dir()]
        assert len(fit_dirs) == 1
        assert (fit_dirs[0] / "scan_0000.nii").exists()
        assert (fit_dirs[0] / "scan_0000.target.nii").exists()
        assert (fit_dirs[0] / "scan_0000.mask.nii").exists()
        man = nifti_io.read_manifest(fit_dirs[0] / "scan_0000.manifest")
        assert man.statuses == {1: "labeled", 2: "pseudo"}
    finally:
        responder.stop.set()
        responder.join()


def predict_answered_with(root, response, dims=(6, 5, 4)):
    """``FileOracle.predict`` of a zero volume of ``dims``, answered by a
    StubResponder that writes ``response`` as ``resp_<uid>.prob.nii``."""
    responder = StubResponder(root, np.zeros(response.dims, dtype=bool), response)
    responder.start()
    try:
        return FileOracle(root, timeout=10.0).predict(Volume(np.zeros(dims, dtype=np.float32)))
    finally:
        responder.stop.set()
        responder.join()


def test_file_oracle_predict_takes_a_label_image_as_it_is(tmp_path):
    labels = np.random.default_rng(0).integers(0, 3, size=(6, 5, 4)).astype(np.uint8)
    labels[5, 4, 3] = 3
    got = predict_answered_with(tmp_path, LabelMap(labels, 6))
    assert isinstance(got, LabelMap)
    assert got.data.tobytes() == labels.tobytes()
    assert got.num_classes == 4  # read from disk: max label + 1


def test_file_oracle_predict_argmaxes_probabilities(tmp_path):
    C, dims = 5, (6, 5, 4)
    raw = np.random.default_rng(1).dirichlet(np.ones(C), size=dims).astype(np.float32)
    raw = np.ascontiguousarray(np.moveaxis(raw, -1, 0))
    raw[:, 0, 0, 0] = 0.2                          # a five-way tie
    raw[:, 1, 0, 0] = [0.0, 0.0, 0.5, 0.5, 0.0]    # a two-way tie
    got = predict_answered_with(tmp_path, ProbVolume(raw))
    assert isinstance(got, LabelMap) and got.num_classes == C
    for idx in np.ndindex(dims):
        p = [float(raw[(c,) + idx]) for c in range(C)]
        assert got.data[idx] == p.index(max(p)), idx  # ties go to the lowest class
    assert got.data[0, 0, 0] == 0 and got.data[1, 0, 0] == 2


def test_file_oracle_predict_rejects_other_responses(tmp_path):
    (tmp_path / "image").mkdir()
    (tmp_path / "dims").mkdir()
    with pytest.raises(OracleProtocolError, match="neither probabilities nor labels"):
        predict_answered_with(tmp_path / "image", Volume(np.ones((6, 5, 4), np.float32)))
    with pytest.raises(OracleProtocolError, match="dims"):
        predict_answered_with(tmp_path / "dims", LabelMap(np.ones((6, 5, 3), np.uint8), 2))


def test_response_label_out_of_range_rejected_before_any_segment(tmp_path):
    from promptseg.pipeline import PipelineConfig, run_pipeline
    dims = (6, 6, 6)
    data, spec_dir, gen_dir = tmp_path / "data", tmp_path / "spec", tmp_path / "gen"
    for d in (data, spec_dir, gen_dir):
        d.mkdir()
    labels = np.zeros(dims, dtype=np.uint8)
    labels[1:3, 1:3, 1:3] = 1
    nifti_io.write_volume(data / "s.nii", Volume(np.zeros(dims, np.float32)))
    nifti_io.write_volume(data / "s.labels.nii", LabelMap(labels, 3))
    nifti_io.write_manifest(data / "s.manifest", nifti_io.ScanManifest(
        statuses={1: "labeled", 2: "unlabeled"}))
    answer = labels.copy()
    answer[4, 4, 4] = 3  # a class the 3-class scan does not have
    responder = StubResponder(spec_dir, labels > 0, LabelMap(answer, 4))
    responder.start()
    try:
        with pytest.raises(RejectedInputError, match="label 3 >= num_classes 3"):
            run_pipeline(PipelineConfig(
                oracle="file", data_dir=str(data), specialist_exchange=str(spec_dir),
                generalist_exchange=str(gen_dir), oracle_timeout=10.0, rounds=1,
                entropy_gate_from_round=1, out_dir=str(tmp_path / "out")))
    finally:
        responder.stop.set()
        responder.join()
    assert responder.fits_seen == 1                      # initial training ran
    assert len(list(spec_dir.glob("resp_*.prob.nii"))) == 1  # then one predict
    assert not list(gen_dir.iterdir())                   # and no segment request


def test_file_oracle_timeout(tmp_path):
    oracle = FileOracle(tmp_path, timeout=0.3)
    vol = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    with pytest.raises(OracleUnavailableError):
        oracle.predict(vol)


def test_file_oracle_response_that_stays_corrupt_is_protocol_error(tmp_path):
    stop = threading.Event()

    def write_garbage():
        while not stop.is_set():
            for req in tmp_path.glob("req_*.nii"):
                uid = req.stem[len("req_"):]
                (tmp_path / f"resp_{uid}.prob.nii").write_bytes(b"\x00" * 100)
                return
            time.sleep(0.01)

    writer = threading.Thread(target=write_garbage, daemon=True)
    writer.start()
    try:
        oracle = FileOracle(tmp_path, timeout=0.3)
        with pytest.raises(OracleProtocolError, match="still corrupt") as info:
            oracle.predict(Volume(np.zeros((4, 4, 4), dtype=np.float32)))
        (resp,) = tmp_path.glob("resp_*.prob.nii")
        assert str(resp) in str(info.value)
    finally:
        stop.set()
        writer.join(timeout=5.0)
    assert not writer.is_alive()


def test_file_oracle_wrong_dims_is_protocol_error(tmp_path):
    dims = (10, 10, 10)
    small = np.zeros((4, 4, 4), dtype=bool)
    small[1:3, 1:3, 1:3] = True
    responder = StubResponder(tmp_path, small, two_class_probs(small))
    responder.start()
    try:
        oracle = FileOracle(tmp_path, timeout=10.0)
        vol = Volume(np.zeros(dims, dtype=np.float32))
        with pytest.raises(OracleProtocolError):
            oracle.predict(vol)
    finally:
        responder.stop.set()
        responder.join()


SEGMENT_DIMS = (6, 5, 4)
BAD_SEGMENT_RESPONSES = {
    "mask-not-labels": (Volume(np.zeros(SEGMENT_DIMS, np.float32)), None, "not a uint8 label"),
    "mask-dims": (np.zeros((6, 5, 3), bool), None, "segment response dims"),
    "mask-not-binary": (LabelMap(np.full(SEGMENT_DIMS, 2, np.uint8), 3), None, "not binary"),
    "probs-3-class": (None, ProbVolume(np.full((3,) + SEGMENT_DIMS, np.float32(1 / 3))),
                      "must be 2-class"),
    "probs-dims": (None, two_class_probs(np.zeros((6, 5, 3), bool)), "probability dims"),
}


@pytest.mark.parametrize("case", sorted(BAD_SEGMENT_RESPONSES))
def test_file_oracle_segment_rejects_bad_responses(tmp_path, case):
    mask, probs, message = BAD_SEGMENT_RESPONSES[case]
    good = np.zeros(SEGMENT_DIMS, bool)
    good[2:4, 2:4, 1:3] = True
    responder = StubResponder(tmp_path, good if mask is None else mask,
                              two_class_probs(good) if probs is None else probs)
    responder.start()
    try:
        oracle = FileOracle(tmp_path, timeout=10.0)
        with pytest.raises(OracleProtocolError, match=message):
            oracle.segment(Volume(np.zeros(SEGMENT_DIMS, np.float32)), box_prompts_for(good))
    finally:
        responder.stop.set()
        responder.join()


def test_file_oracle_exchange_root_from_environment(tmp_path, monkeypatch):
    from promptseg.errors import ConfigError
    monkeypatch.delenv("PROMPTSEG_EXCHANGE", raising=False)
    with pytest.raises(ConfigError):
        FileOracle()
    monkeypatch.setenv("PROMPTSEG_EXCHANGE", str(tmp_path / "xchg"))
    oracle = FileOracle(timeout=0.1)
    assert oracle.root == tmp_path / "xchg"
    assert oracle.root.is_dir()


def test_fingerprint_sensitive_to_content():
    a = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    b = Volume(np.ones((4, 4, 4), dtype=np.float32))
    assert volume_fingerprint(a) != volume_fingerprint(b)
    c = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    assert volume_fingerprint(a) == volume_fingerprint(c)
