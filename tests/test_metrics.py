import tracemalloc

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from promptseg import metrics
from promptseg.errors import EmptyMaskError, RejectedInputError
from promptseg.metrics import (_nearest_distances, boundary_voxels, dice, evaluate_scan, hd95,
                               summarize, volume_diagonal)
from promptseg.phantom import Ellipsoid, PhantomSpec, generate_phantom, make_phantom_suite
from promptseg.volgrid import LabelMap


# --- independent oracles ------------------------------------------------------

def brute_force_boundary(mask):
    out = np.zeros_like(mask)
    H, W, D = mask.shape
    for y in range(H):
        for x in range(W):
            for z in range(D):
                if not mask[y, x, z]:
                    continue
                for dy, dx, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    ny, nx, nz = y + dy, x + dx, z + dz
                    if not (0 <= ny < H and 0 <= nx < W and 0 <= nz < D) or not mask[ny, nx, nz]:
                        out[y, x, z] = True
                        break
    return out


def brute_force_hd95(a, b, spacing):
    sx, sy, sz = spacing
    scale = np.array([sy, sx, sz], dtype=np.float64)
    pa = np.argwhere(brute_force_boundary(a)).astype(np.float64) * scale
    pb = np.argwhere(brute_force_boundary(b)).astype(np.float64) * scale
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    d_ab = np.sqrt(d2.min(axis=1))
    d_ba = np.sqrt(d2.min(axis=0))
    return float(np.percentile(np.concatenate([d_ab, d_ba]), 95.0))


def cube(dims, lo, hi):
    m = np.zeros(dims, dtype=bool)
    m[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return m


def random_mask(rng, side):
    dims = (side, side, side)
    m = rng.random(dims) < rng.uniform(0.05, 0.5)
    if not m.any():
        m[tuple(rng.integers(0, side, 3))] = True
    return m


# --- dice ----------------------------------------------------------------------

def test_dice_examples():
    a = cube((10, 10, 10), (0, 0, 0), (10, 10, 10))
    assert dice(a, a) == 1.0
    b = cube((20, 10, 10), (10, 0, 0), (20, 10, 10))
    a2 = cube((20, 10, 10), (0, 0, 0), (10, 10, 10))
    assert dice(a2, b) == 0.0
    # two 10^3 cubes overlapping in a 10x10x5 region
    p = cube((10, 10, 15), (0, 0, 0), (10, 10, 10))
    q = cube((10, 10, 15), (0, 0, 5), (10, 10, 15))
    assert dice(p, q) == 0.5
    empty = np.zeros((4, 4, 4), dtype=bool)
    assert dice(empty, empty) == 1.0
    assert dice(empty, cube((4, 4, 4), (0, 0, 0), (2, 2, 2))) == 0.0


def test_dice_symmetry_and_spacing_invariance():
    rng = np.random.default_rng(0)
    a, b = random_mask(rng, 10), random_mask(rng, 10)
    assert dice(a, b) == dice(b, a)
    # dice never looks at spacing; nothing to vary, just the identity case
    assert dice(a, a) == 1.0


# --- hd95 -----------------------------------------------------------------------

def test_boundary_extraction_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = random_mask(rng, 8)
        assert np.array_equal(boundary_voxels(m), brute_force_boundary(m))
    # an organ touching the volume face has a boundary there
    full = np.ones((3, 3, 3), dtype=bool)
    assert boundary_voxels(full).sum() == 26  # all but the center voxel


def test_hd95_examples():
    a = cube((10, 10, 10), (2, 2, 2), (8, 8, 8))
    assert hd95(a, a) == 0.0
    p = np.zeros((12, 4, 4), dtype=bool)
    q = np.zeros((12, 4, 4), dtype=bool)
    p[2, 1, 1] = True
    q[7, 1, 1] = True
    assert hd95(p, q, (1.0, 1.0, 1.0)) == 5.0
    with pytest.raises(EmptyMaskError):
        hd95(p, np.zeros_like(q))


def test_hd95_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(2)
    for trial in range(30):
        side = int(rng.integers(4, 17))
        a, b = random_mask(rng, side), random_mask(rng, side)
        spacing = tuple(rng.uniform(0.5, 3.0, 3))
        assert hd95(a, b, spacing) == brute_force_hd95(a, b, spacing), (trial, side)


def test_hd95_symmetry_and_spacing_linearity():
    rng = np.random.default_rng(3)
    a, b = random_mask(rng, 12), random_mask(rng, 12)
    spacing = (0.7, 1.3, 2.1)
    assert hd95(a, b, spacing) == hd95(b, a, spacing)
    base = hd95(a, b, spacing)
    for k in (0.25, 2.0, 7.5):
        scaled = hd95(a, b, tuple(k * s for s in spacing))
        assert abs(scaled - k * base) <= 1e-9 * max(abs(scaled), abs(k * base))


# --- evaluate_scan ---------------------------------------------------------------

def labelmap_from(arrays, num_classes):
    data = np.zeros(arrays[1].shape, dtype=np.uint8)
    for cid, m in enumerate(arrays[1:], start=1):
        data[m] = cid
    return LabelMap(data, num_classes)


def test_evaluate_scan_perfect_prediction():
    rng = np.random.default_rng(4)
    organ1 = cube((12, 12, 12), (1, 1, 1), (5, 5, 5))
    organ2 = cube((12, 12, 12), (7, 7, 7), (11, 11, 11))
    gt = labelmap_from([None, organ1, organ2], 3)
    ev = evaluate_scan(gt, gt)
    assert all(cm.dsc == 1.0 and cm.hd95 == 0.0 for cm in ev.per_class)
    overall = summarize({"s": ev})[-1]
    assert overall.mean_dsc == 1.0 and overall.mean_hd95 == 0.0


def test_evaluate_scan_missing_organ():
    organ1 = cube((12, 12, 12), (1, 1, 1), (5, 5, 5))
    organ2 = cube((12, 12, 12), (7, 7, 7), (11, 11, 11))
    gt = labelmap_from([None, organ1, organ2], 3)
    pred = labelmap_from([None, organ1, np.zeros_like(organ2)], 3)
    ev = evaluate_scan(pred, gt)
    assert ev.per_class[0].dsc == 1.0
    assert ev.per_class[1].dsc == 0.0 and ev.per_class[1].hd95 is None
    overall = summarize({"s": ev})[-1]
    assert overall.mean_dsc == 0.5
    assert overall.mean_hd95 == 0.0  # only the defined entry contributes
    ev2 = evaluate_scan(pred, gt, hd95_missing="max_diag")
    assert summarize({"s": ev2})[-1].mean_hd95 == pytest.approx(
        volume_diagonal((12, 12, 12), (1, 1, 1)) / 2)


def test_evaluate_scan_matches_per_class_recomputation():
    rng = np.random.default_rng(5)
    dims = (10, 10, 10)
    gt_data = rng.integers(0, 4, size=dims).astype(np.uint8)
    pred_data = gt_data.copy()
    flip = rng.random(dims) < 0.15
    pred_data[flip] = rng.integers(0, 4, size=int(flip.sum())).astype(np.uint8)
    gt = LabelMap(gt_data, 4)
    pred = LabelMap(pred_data, 4)
    spacing = (1.0, 1.5, 2.0)
    ev = evaluate_scan(pred, gt, spacing)
    for cm in ev.per_class:
        pm, gm = pred.data == cm.class_id, gt.data == cm.class_id
        assert cm.dsc == dice(pm, gm)
        if pm.any() and gm.any():
            assert cm.hd95 == brute_force_hd95(pm, gm, spacing)


def test_evaluate_scan_dim_mismatch():
    a = LabelMap(np.zeros((4, 4, 4), dtype=np.uint8), 2)
    b = LabelMap(np.zeros((4, 4, 5), dtype=np.uint8), 2)
    with pytest.raises(RejectedInputError):
        evaluate_scan(a, b)


# --- summarize --------------------------------------------------------------------

def test_summarize_matches_per_class_brute_force():
    from promptseg.metrics import ClassMetrics, ScanEvaluation
    rng = np.random.default_rng(11)
    for trial in range(40):
        C = int(rng.integers(2, 7))
        evaluations = {}
        for s in rng.permutation(int(rng.integers(1, 6))):
            per_class = tuple(ClassMetrics(c, float(rng.random()),
                                           None if rng.random() < 0.3 else float(rng.random() * 9))
                              for c in range(1, C))
            evaluations[f"scan{s}"] = ScanEvaluation(per_class)
        rows = summarize(evaluations)
        assert [r.class_id for r in rows] == [*range(1, C), "overall"]
        every_dsc, every_hd = [], []
        for row in rows[:-1]:
            entries = [cm for ev in evaluations.values() for cm in ev.per_class
                       if cm.class_id == row.class_id]
            dscs = [cm.dsc for cm in entries]
            hds = [cm.hd95 for cm in entries if cm.hd95 is not None]
            every_dsc += dscs
            every_hd += hds
            assert row.count == len(evaluations)
            assert row.mean_dsc == float(np.mean(dscs))  # scans in evaluations order
            assert row.mean_hd95 == (float(np.mean(hds)) if hds else None)
        overall = rows[-1]
        assert overall.count == len(evaluations) * (C - 1)
        assert overall.mean_dsc == float(np.mean(every_dsc))  # class-major order
        assert overall.mean_hd95 == (float(np.mean(every_hd)) if every_hd else None)


def test_evaluate_scan_reports_the_hd95_policy_per_class():
    organ1 = cube((12, 12, 12), (1, 1, 1), (5, 5, 5))
    organ2 = cube((12, 12, 12), (7, 7, 7), (11, 11, 11))
    gt = labelmap_from([None, organ1, organ2], 3)
    pred = labelmap_from([None, organ1, np.zeros_like(organ2)], 3)
    spacing = (1.0, 2.0, 0.5)
    diag = volume_diagonal((12, 12, 12), spacing)
    excluded = evaluate_scan(pred, gt, spacing)
    filled = evaluate_scan(pred, gt, spacing, hd95_missing="max_diag")
    assert [cm.hd95 for cm in excluded.per_class] == [0.0, None]
    assert [cm.hd95 for cm in filled.per_class] == [0.0, diag]
    assert [cm.dsc for cm in filled.per_class] == [cm.dsc for cm in excluded.per_class]


# --- box-cropped evaluate_scan ------------------------------------------------------

def full_grid_evaluate(pred, gt, spacing, hd95_missing):
    """Per-class (class, Dice, HD95) taken on the whole grid, class by class:
    the reference the box-cropped ``evaluate_scan`` must equal bit for bit."""
    sx, sy, sz = spacing
    scale = np.array([sy, sx, sz])
    missing = volume_diagonal(gt.dims, spacing) if hd95_missing == "max_diag" else None
    rows = []
    for c in range(1, gt.num_classes):
        pm, gm = pred.data == c, gt.data == c
        h = missing
        if pm.any() and gm.any():
            pa = np.argwhere(boundary_voxels(pm)).astype(np.float64) * scale
            pb = np.argwhere(boundary_voxels(gm)).astype(np.float64) * scale
            d = np.concatenate([cKDTree(pb).query(pa, k=1)[0], cKDTree(pa).query(pb, k=1)[0]])
            h = float(np.percentile(d, 95.0))
        rows.append((c, dice(pm, gm).hex(), None if h is None else h.hex()))
    return rows


def assert_evaluation_is_full_grid(pred, gt, spacing):
    for policy in ("exclude", "max_diag"):
        ev = evaluate_scan(pred, gt, spacing, hd95_missing=policy)
        got = [(cm.class_id, cm.dsc.hex(), None if cm.hd95 is None else cm.hd95.hex())
               for cm in ev.per_class]
        assert got == full_grid_evaluate(pred, gt, spacing, policy), (policy, spacing)


def grid_touching_maps():
    """(pred, gt) pairs whose classes touch every face, edge and corner of
    the grid, hold single voxels, or are empty in one map or in both."""
    dims = (9, 8, 7)
    corners = np.zeros(dims, np.uint8)
    for k, (y, x, z) in enumerate(np.ndindex(2, 2, 2), start=1):  # one organ per corner
        corners[y * 6:y * 6 + 3, x * 5:x * 5 + 3, z * 4:z * 4 + 3] = k
    edges = np.zeros(dims, np.uint8)
    edges[:, 0, 0] = 1                      # an edge along y
    edges[0, :, 6] = 2                      # an edge along x
    edges[8, 7, :] = 3                      # an edge along z
    edges[3:6, 2:5, 2:5] = 4                # interior
    edges[4, 0, 3] = 5                      # a single voxel on a face
    faces = np.zeros(dims, np.uint8)
    faces[0, :, :] = 1                      # whole faces
    faces[:, :, 6] = 2
    faces[4:7, 7, 1:4] = 3
    faces[8, 7, 6] = 3                      # the far corner, apart from the rest of 3
    for gt_data in (corners, edges, faces):
        gt = LabelMap(gt_data, 10)          # classes past the last label are empty in both
        yield gt, gt
        yield LabelMap(np.roll(gt_data, 1, axis=0), 10), gt
        yield LabelMap(np.roll(gt_data, (-2, 1, 3), axis=(0, 1, 2)), 10), gt
        no_3 = np.where(gt_data == 3, 0, gt_data).astype(np.uint8)
        yield LabelMap(no_3, 10), gt                            # 3 empty in pred only
        yield gt, LabelMap(no_3, 10)                            # 3 empty in gt only
        extra = gt_data.copy()
        extra[4, 4, 3] = 9                                      # a class only pred has
        yield LabelMap(extra, 10), gt
    one = np.zeros((1, 5, 4), np.uint8)     # every voxel lies on two faces
    one[0, 1:3, 1:3] = 1
    one[0, 4, 3] = 2
    yield LabelMap(np.roll(one, 1, axis=2), 3), LabelMap(one, 3)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.9), (3.0, 0.25, 1.0)])
def test_evaluate_scan_on_class_boxes_equals_full_grid_at_grid_faces(spacing):
    for pred, gt in grid_touching_maps():
        assert_evaluation_is_full_grid(pred, gt, spacing)


def test_evaluate_scan_on_class_boxes_equals_full_grid_on_random_label_maps():
    rng = np.random.default_rng(21)
    for trial in range(40):
        dims = tuple(int(n) for n in rng.integers(1, 14, size=3))
        C = int(rng.integers(2, 9))
        gt_data = np.zeros(dims, np.uint8)
        for c in range(1, C):
            if rng.random() < 0.2:
                continue                                      # an absent class
            lo = rng.integers(0, dims)
            hi = lo + rng.integers(1, 6, size=3)
            gt_data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = c
        gt_data[rng.random(dims) < 0.03] = rng.integers(0, C)  # scattered voxels
        pred_data = gt_data.copy()
        flip = rng.random(dims) < rng.uniform(0.0, 0.3)
        pred_data[flip] = rng.integers(0, C, size=int(flip.sum()))
        if rng.random() < 0.3:
            pred_data = np.roll(pred_data, tuple(rng.integers(-2, 3, size=3)), axis=(0, 1, 2))
        spacing = tuple(float(s) for s in rng.uniform(0.3, 3.0, 3))
        assert_evaluation_is_full_grid(LabelMap(pred_data, C), LabelMap(gt_data, C), spacing)


def test_evaluate_scan_empty_in_both_maps_reads_the_policy():
    gt = LabelMap(np.zeros((5, 6, 7), np.uint8), 3)
    spacing = (1.0, 2.0, 0.5)
    for policy, h in (("exclude", None), ("max_diag", volume_diagonal((5, 6, 7), spacing))):
        ev = evaluate_scan(gt, gt, spacing, hd95_missing=policy)
        assert [(cm.dsc, cm.hd95) for cm in ev.per_class] == [(1.0, h), (1.0, h)]


# --- nearest boundary distances without cKDTree ------------------------------------

def all_pairs_directed(pa, pb, rows=256):
    """Both directed nearest distances by the all-pairs formula, ``rows`` of
    ``pa`` at a time, so no |A| x |B| x 3 array is held at once."""
    d_ab, best_ba = [], np.full(len(pb), np.inf)
    for i in range(0, len(pa), rows):
        d2 = ((pa[i:i + rows, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
        d_ab.append(np.sqrt(d2.min(axis=1)))
        best_ba = np.minimum(best_ba, d2.min(axis=0))
    return np.concatenate(d_ab), np.sqrt(best_ba)


def all_pairs_hd95(a, b, spacing):
    sx, sy, sz = spacing
    scale = np.array([sy, sx, sz], dtype=np.float64)
    pa = np.argwhere(boundary_voxels(a)).astype(np.float64) * scale
    pb = np.argwhere(boundary_voxels(b)).astype(np.float64) * scale
    return float(np.percentile(np.concatenate(all_pairs_directed(pa, pb)), 95.0))


def organ_cases(dims=(80, 80, 56), organs=(1, 6, 11), at_faces=False):
    """(name, a, b) pairs on phantom organs: b dilated, eroded, shifted by 3
    voxels, and with a 3^3 blob in the far corner of the grid.  ``at_faces``
    first moves each organ to touch the grid's first faces."""
    _, _, gt = make_phantom_suite(1, 12, dims, seed=7)[0]
    for c in organs:
        a = gt.data == c
        if at_faces:
            a = np.roll(a, [-s.start for s in ndimage.find_objects(a.view(np.uint8))[0]],
                        axis=(0, 1, 2))
        blob = a.copy()
        blob[-3:, -3:, -3:] = True
        yield f"dilated {c}", a, ndimage.binary_dilation(a)
        yield f"eroded {c}", a, ndimage.binary_erosion(a)
        yield f"shifted {c}", a, np.roll(a, 3, axis=1)
        yield f"far blob {c}", a, blob


ANISOTROPIC = [(0.8, 0.8, 2.5), (0.9765625, 0.9765625, 3.0)]


@pytest.mark.parametrize("spacing", ANISOTROPIC)
def test_hd95_equals_all_pairs_on_organ_masks(spacing):
    for name, a, b in organ_cases():
        assert hd95(a, b, spacing).hex() == all_pairs_hd95(a, b, spacing).hex(), name


@pytest.mark.parametrize("spacing", ANISOTROPIC)
def test_evaluate_scan_equals_all_pairs_on_organs_at_grid_faces(spacing):
    for name, a, b in organ_cases(at_faces=True):
        gt, pred = LabelMap(a.astype(np.uint8), 2), LabelMap(b.astype(np.uint8), 2)
        got = evaluate_scan(pred, gt, spacing).per_class[0]
        assert got.hd95.hex() == all_pairs_hd95(b, a, spacing).hex(), name
        assert got.dsc == dice(b, a)


def test_nearest_distances_equal_ckdtree_in_c_order():
    """Every directed distance, not just the percentile, is cKDTree's, and in
    the C order of the boundary voxels; boxes scaled from a far origin."""
    rng = np.random.default_rng(31)
    for spacing in ANISOTROPIC + [(1.0, 1.0, 1.0), (0.7, 1.3, 2.9)]:
        sx, sy, sz = spacing
        scale = np.array([sy, sx, sz])
        for name, a, b in organ_cases(organs=(3,)):
            box = ndimage.find_objects((a | b).view(np.uint8))[0]
            origin = np.array([s.start for s in box]) + rng.integers(0, 400, 3)
            ba, bb = boundary_voxels(a[box]), boundary_voxels(b[box])
            pa = (np.argwhere(ba) + origin) * scale
            pb = (np.argwhere(bb) + origin) * scale
            for src, dst, p, q in ((ba, bb, pa, pb), (bb, ba, pb, pa)):
                want = cKDTree(q).query(p, k=1)[0]
                assert _nearest_distances(src, dst, scale, origin).tobytes() == want.tobytes(), \
                    (name, spacing)


def test_hd95_on_a_large_organ_holds_no_all_pairs_array():
    """One HD95 of a large organ on an 80 x 80 x 56 grid, against its shifted
    copy or itself plus a far blob, peaks under 16 MB: one |A| x |B| x 3
    float64 array of their boundaries would take over 500 MB."""
    organ = Ellipsoid(center=(38.2, 41.5, 27.3), radii=(30, 21, 17), angles=(0.4, 1.1, 2.0))
    spec = PhantomSpec((80, 80, 56), (organ,))
    a = generate_phantom(spec, seed=0)[1].data == 1
    blob = a.copy()
    blob[-3:, -3:, -3:] = True
    for b in (np.roll(a, 3, axis=1), blob):
        pairs = np.count_nonzero(boundary_voxels(a)) * np.count_nonzero(boundary_voxels(b)) * 24
        assert pairs > 500 * 2**20
        tracemalloc.start()
        try:
            hd95(a, b, ANISOTROPIC[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("edt_voxels, halo", [(12**3, 2), (1 << 20, 1)])
def test_tiled_and_far_searches_equal_all_pairs(monkeypatch, edt_voxels, halo):
    """Boxes read in tiles a few voxels wide with a 2-voxel margin, some with
    no voxel of the other boundary (as around a lone voxel at the grid's
    corner), or whole with a 1-voxel margin, so that many voxels fall past it
    and try every voxel of the other boundary: every distance is still the
    all-pairs one."""
    monkeypatch.setattr(metrics, "EDT_VOXELS", edt_voxels)
    monkeypatch.setattr(metrics, "HALO", halo)
    scale = np.array([0.8, 0.8, 2.5])
    corner, block = np.zeros((24, 24, 24), bool), np.zeros((24, 24, 24), bool)
    corner[0, 0, 0] = corner[16:21, 17:21, 18:22] = block[16:21, 17:21, 20:24] = True
    block[0:2, 10:12, 20:22] = block[20:22, 0:2, 0:2] = True   # its box reaches the corner
    for name, a, b in [*organ_cases(organs=(1, 6)), ("corner", corner, block)]:
        box = ndimage.find_objects((a | b).view(np.uint8))[0]
        origin = np.array([s.start for s in box])
        ba, bb = boundary_voxels(a[box]), boundary_voxels(b[box])
        want = all_pairs_directed((np.argwhere(ba) + origin) * scale,
                                  (np.argwhere(bb) + origin) * scale)
        got = _nearest_distances(ba, bb, scale, origin), _nearest_distances(bb, ba, scale, origin)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], name


def test_search_on_a_grid_wide_box_holds_no_grid_wide_transform():
    """A small organ against its shifted copy plus a 3^3 blob in the far
    corner and 200 voxels strewn over a 192 x 192 x 128 grid: the union box
    is the grid, whose one feature transform would hold 56 MB of indices, and
    trying every pair of the organ's 1,833 x 1,833 boundary voxels about
    150 MB.  The search reads windows only where the organ is, peaks under
    8 MB, and equals all pairs."""
    dims, spacing = (192, 192, 128), (0.8, 0.8, 2.5)
    organ = Ellipsoid(center=(95.5, 90.2, 60.7), radii=(18, 14, 9), angles=(0.4, 1.1, 2.0))
    a = generate_phantom(PhantomSpec(dims, (organ,)), seed=0)[1].data == 1
    b = np.roll(a, 3, axis=1)
    b[-3:, -3:, -3:] = True
    b[tuple(np.random.default_rng(5).integers(0, dims, size=(200, 3)).T)] = True
    ba, bb = boundary_voxels(a), boundary_voxels(b)
    scale = np.array([spacing[1], spacing[0], spacing[2]])
    want = all_pairs_directed(np.argwhere(ba) * scale, np.argwhere(bb) * scale)
    for src, dst, w in ((ba, bb, want[0]), (bb, ba, want[1])):
        tracemalloc.start()
        try:
            got = _nearest_distances(src, dst, scale, (0, 0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == w.tobytes()
        assert peak < 8 * 2**20, peak
