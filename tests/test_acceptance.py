"""Acceptance suite: one test per release criterion, each printing a pass line
(run with ``pytest tests/test_acceptance.py -v -s``).  Expected values come
from independent oracles computed inside this module, never from the code
under test.
"""

import itertools
import logging
import struct
import time

import numpy as np
import pytest

from promptseg import nifti_io
from promptseg.errors import UnsupportedFormatError
from promptseg.metrics import dice, hd95
from promptseg.phantom import Ellipsoid, PhantomSpec, generate_phantom
from promptseg.pipeline import PipelineConfig, run_pipeline, simulate_partial_labels
from promptseg.prompting import make_box_prompts
from promptseg.refinement import (OrganRefinementState, RefinementConfig,
                                  refine_pseudo_label)
from promptseg.vls_loss import (SupervisionTarget, masked_cross_entropy,
                                masked_soft_dice, vls_mask)
from promptseg.volgrid import (LabelMap, ProbVolume, Volume, argmax_labelmap,
                               paste_mask, softmax_from_logits)

logging.disable(logging.INFO)

DICE_EPS = 1e-5


def report(num, name, t0):
    print(f"ACCEPTANCE {num} {name}: PASS ({time.monotonic() - t0:.1f}s)")


# --- 1. refinement contraction & exactness -----------------------------------

def _roi_oracle(prompts, delta, dims):
    # independent re-statement of the ROI construction via coordinate grids
    yy, xx, zz = np.indices(dims)
    ax, sg = prompts.axial, prompts.sagittal
    y_lo = min(ax.lo[0], sg.lo[0]) - delta
    y_hi = max(ax.hi[0], sg.hi[0]) + delta
    return ((xx >= ax.lo[1] - delta) & (xx <= ax.hi[1] + delta)
            & (zz >= sg.lo[1] - delta) & (zz <= sg.hi[1] + delta)
            & (yy >= y_lo) & (yy <= y_hi))


def _sphere(dims, center, radius):
    yy, xx, zz = np.indices(dims)
    return ((yy - center[0]) ** 2 + (xx - center[1]) ** 2
            + (zz - center[2]) ** 2) <= radius ** 2


def test_criterion_1_refinement_contraction_and_exactness():
    t0 = time.monotonic()
    dims = (36, 36, 36)
    tau = 0.4
    for trial in range(100):
        rng = np.random.default_rng((100, trial))
        spec = PhantomSpec(dims=dims, organs=(Ellipsoid(
            center=tuple(rng.uniform(12, 24, 3)),
            radii=tuple(rng.uniform(4, 7, 3)),
            angles=tuple(rng.uniform(0, np.pi, 3))),))
        _, gt = generate_phantom(spec, seed=(101, trial))
        organ = gt.data == 1
        prompts = make_box_prompts(gt, 1, padding=6)
        roi = _roi_oracle(prompts, 3, dims)
        # noise blobs: outside the ROI (high confidence) or low-confidence inside
        noise = np.zeros(dims, dtype=bool)
        low_conf = np.zeros(dims, dtype=bool)
        placed = 0
        while placed < 4:
            center = rng.uniform(2, 34, 3)
            blob = _sphere(dims, center, rng.uniform(1.5, 3.0)) & ~organ
            if not blob.any():
                continue
            if placed % 2 == 0:
                if (blob & roi).any():
                    continue  # must sit fully outside the ROI
            else:
                low_conf |= blob
            noise |= blob
            placed += 1
        candidate = organ | noise
        p_fg = np.full(dims, 0.05, dtype=np.float32)
        p_fg[candidate] = 0.9
        p_fg[low_conf] = np.float32(rng.uniform(0.05, 0.39))
        probs = ProbVolume(np.stack([np.float32(1.0) - p_fg, p_fg]))
        result = refine_pseudo_label(
            candidate, probs, prompts,
            RefinementConfig(tau_cls=tau, delta_roi=3, entropy_gate_active=False),
            OrganRefinementState(class_id=1))
        assert result.accepted
        refined = paste_mask(result.mask, result.box, dims)
        assert not (refined & noise).any(), trial          # 100% of noise removed
        true_pass = organ & roi & (p_fg >= tau)
        assert (refined & true_pass).sum() == true_pass.sum(), trial  # 0% true loss
        assert np.array_equal(refined, candidate & roi & (p_fg >= tau)), trial
    report(1, "refinement contraction & exactness (100 phantoms)", t0)


# --- 2. entropy-gate monotonicity ---------------------------------------------

def test_criterion_2_entropy_gate_monotonicity(tmp_path):
    t0 = time.monotonic()
    config = PipelineConfig(rounds=4, entropy_gate_from_round=2, scans=20,
                            test_scans=2, organs=6, dims=(32, 32, 32),
                            keep_fraction=0.33, seed=17,
                            generalist_cooperativeness=0.7,
                            out_dir=str(tmp_path / "gate_run"))
    result = run_pipeline(config)
    series = {}
    for rep in result.round_reports:
        if rep.round_index < config.entropy_gate_from_round:
            continue
        for e in rep.accepted():
            series.setdefault((e.scan_id, e.class_id), []).append(e.mean_entropy)
    assert series, "no accepted updates in gated rounds"
    for key, values in series.items():
        assert all(b < a for a, b in zip(values, values[1:])), (key, values)
    report(2, "entropy-gate monotonicity (20 scans, 6 organs, R=4)", t0)


# --- 3. VLS correctness ----------------------------------------------------------

def _brute_force_vls(pred, target):
    y = target.labels.data
    out = np.zeros(y.shape, dtype=bool)
    for idx in np.ndindex(y.shape):
        label = int(y[idx])
        if label not in target.pseudo_classes:
            out[idx] = True
        else:
            votes = [float(pred.data[(c,) + idx]) for c in range(pred.num_classes)]
            out[idx] = votes.index(max(votes)) == label
    return out


def test_criterion_3_vls_correctness():
    t0 = time.monotonic()
    dims = (2, 2, 2)
    pseudo_sets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    rng = np.random.default_rng(30)
    checked = 0
    for flat in itertools.product(range(3), repeat=8):
        labels = LabelMap(np.array(flat, dtype=np.uint8).reshape(dims), 3)
        pred = softmax_from_logits(rng.normal(0, 2, size=(3,) + dims).astype(np.float32))
        for ps in pseudo_sets:
            target = SupervisionTarget(labels, ps)
            assert np.array_equal(vls_mask(argmax_labelmap(pred), target),
                                  _brute_force_vls(pred, target))
            checked += 1
    assert checked == 3 ** 8 * 4

    # gradients vs central finite differences, 50 random instances
    for trial in range(50):
        rng_t = np.random.default_rng((31, trial))
        pred = softmax_from_logits(rng_t.normal(0, 2, size=(3, 4, 4, 4)).astype(np.float32))
        labels = LabelMap(rng_t.integers(0, 3, size=(4, 4, 4)).astype(np.uint8), 3)
        target = SupervisionTarget(labels, frozenset({2}))
        mask = rng_t.random((4, 4, 4)) < 0.7
        for loss_fn in (masked_cross_entropy, masked_soft_dice):
            _, grad = loss_fn(pred, target, mask)
            for _ in range(6):
                c = int(rng_t.integers(0, 3))
                idx = tuple(int(rng_t.integers(0, 4)) for _ in range(3))
                if not 1e-5 < float(pred.data[(c,) + idx]) < 1.0 - 1e-5:
                    continue
                plus, minus = np.array(pred.data), np.array(pred.data)
                plus[(c,) + idx] += 1e-6
                minus[(c,) + idx] -= 1e-6
                step = float(plus[(c,) + idx]) - float(minus[(c,) + idx])
                lp, _ = loss_fn(ProbVolume(plus), target, mask)
                lm, _ = loss_fn(ProbVolume(minus), target, mask)
                fd = (lp - lm) / step
                an = float(grad[(c,) + idx])
                scale = max(abs(fd), abs(an))
                if scale > 1e-9:
                    assert abs(fd - an) / scale < 1e-4

        # all-ones-mask equivalence with the unmasked losses, 64-bit exact
        full = np.ones((4, 4, 4), dtype=bool)
        p64 = pred.data.astype(np.float64)
        y = labels.data.astype(np.int64)
        ce, _ = masked_cross_entropy(pred, target, full)
        p_y = np.take_along_axis(p64, y[None], axis=0)[0]
        assert abs(ce - float(np.mean(-np.log(np.maximum(p_y, 1e-12))))) < 1e-12
        dc, _ = masked_soft_dice(pred, target, full)
        dices = []
        for c in range(1, 3):
            t = (y == c).astype(np.float64)
            if t.sum() == 0:
                continue
            dices.append((2 * (p64[c] * t).sum() + DICE_EPS)
                         / (p64[c].sum() + t.sum() + DICE_EPS))
        if dices:
            assert abs(dc - (1.0 - float(np.mean(dices)))) < 1e-12
    report(3, "VLS mask + masked-loss gradients", t0)


# --- 4. metrics oracle equivalence ------------------------------------------------

def _loop_boundary(mask):
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
                    if not (0 <= ny < H and 0 <= nx < W and 0 <= nz < D) \
                            or not mask[ny, nx, nz]:
                        out[y, x, z] = True
                        break
    return out


def _all_pairs_hd95(a, b, spacing):
    sx, sy, sz = spacing
    scale = np.array([sy, sx, sz], dtype=np.float64)
    pa = np.argwhere(_loop_boundary(a)).astype(np.float64) * scale
    pb = np.argwhere(_loop_boundary(b)).astype(np.float64) * scale
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    pooled = np.concatenate([np.sqrt(d2.min(axis=1)), np.sqrt(d2.min(axis=0))])
    return float(np.percentile(pooled, 95.0))


def _loop_dice(a, b):
    na = nb = ni = 0
    for idx in np.ndindex(a.shape):
        if a[idx]:
            na += 1
        if b[idx]:
            nb += 1
        if a[idx] and b[idx]:
            ni += 1
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return 2.0 * ni / (na + nb)


def test_criterion_4_metrics_match_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(40)
    for trial in range(200):
        side = int(rng.integers(3, 17))
        dims = (side, side, side)
        a = rng.random(dims) < rng.uniform(0.05, 0.6)
        b = rng.random(dims) < rng.uniform(0.05, 0.6)
        if not a.any():
            a[tuple(rng.integers(0, side, 3))] = True
        if not b.any():
            b[tuple(rng.integers(0, side, 3))] = True
        spacing = tuple(rng.uniform(0.4, 3.0, 3))
        assert dice(a, b) == _loop_dice(a, b), trial
        assert hd95(a, b, spacing) == _all_pairs_hd95(a, b, spacing), trial
    # spacing linearity
    a = rng.random((12, 12, 12)) < 0.3
    b = rng.random((12, 12, 12)) < 0.3
    spacing = (0.9, 1.7, 2.3)
    base = hd95(a, b, spacing)
    for k in (0.1, 3.0, 11.0):
        scaled = hd95(a, b, tuple(k * s for s in spacing))
        assert abs(scaled - k * base) <= 1e-9 * max(abs(scaled), abs(k * base))
    report(4, "dice/hd95 equal O(n^2) oracles (200 pairs)", t0)


# --- 5. prompt correctness ---------------------------------------------------------

def test_criterion_5_prompt_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(50)
    dims = (15, 13, 11)
    for _ in range(500):
        mask = np.zeros(dims, dtype=bool)
        n = int(rng.integers(1, 40))
        mask[rng.integers(0, dims[0], n), rng.integers(0, dims[1], n),
             rng.integers(0, dims[2], n)] = True
        pred = LabelMap(mask.astype(np.uint8), 2)
        tight = make_box_prompts(pred, 1, padding=0)
        padded = make_box_prompts(pred, 1, padding=6)
        for box, plane in ((tight.axial, mask[:, :, tight.axial.slice_index]),
                           (tight.sagittal, mask[:, tight.sagittal.slice_index, :])):
            rows, cols = np.nonzero(plane)
            assert rows.size > 0
            assert (rows >= box.lo[0]).all() and (rows <= box.hi[0]).all()
            assert (cols >= box.lo[1]).all() and (cols <= box.hi[1]).all()
        for t, p, lim in ((tight.axial, padded.axial, (dims[0], dims[1])),
                          (tight.sagittal, padded.sagittal, (dims[0], dims[2]))):
            assert p.lo <= t.lo and p.hi >= t.hi
            assert p.lo >= (0, 0)
            assert p.hi[0] <= lim[0] - 1 and p.hi[1] <= lim[1] - 1
    report(5, "prompt boxes contain foreground; padding nests (500 masks)", t0)


# --- 6. partial-label simulation ----------------------------------------------------

def test_criterion_6_partial_label_simulation():
    t0 = time.monotonic()
    rng = np.random.default_rng(60)
    gt = LabelMap(rng.integers(0, 16, size=(6, 6, 6)).astype(np.uint8), 16)
    for scan_idx in range(50):
        scan_id = f"scan{scan_idx:03d}"
        sup67 = simulate_partial_labels(gt, 16, 0.67, seed=7, scan_id=scan_id)
        assert len(sup67.labeled) == 10
        sup33 = simulate_partial_labels(gt, 16, 0.33, seed=7, scan_id=scan_id)
        assert len(sup33.labeled) == 5
        again = simulate_partial_labels(gt, 16, 0.33, seed=7, scan_id=scan_id)
        assert again.labeled == sup33.labeled
        assert again.target.labels.data.tobytes() == sup33.target.labels.data.tobytes()
    report(6, "partial-label counts exact (f=0.67 -> 10, f=0.33 -> 5)", t0)


# --- 7. directional fidelity at desk scale -------------------------------------------

def test_criterion_7_directional_fidelity(tmp_path):
    t0 = time.monotonic()
    n_seeds = 10
    ordering_ok = 0
    for seed in range(n_seeds):
        common = dict(scans=20, test_scans=5, organs=6, dims=(32, 32, 32),
                      keep_fraction=0.33, seed=seed,
                      generalist_cooperativeness=0.8)
        it = run_pipeline(PipelineConfig(
            rounds=4, entropy_gate_from_round=2,
            out_dir=str(tmp_path / f"it{seed}"), **common)).mean_dsc
        pb = run_pipeline(PipelineConfig(
            rounds=0, supervision="partial",
            out_dir=str(tmp_path / f"pb{seed}"), **common)).mean_dsc
        fb = run_pipeline(PipelineConfig(
            rounds=0, supervision="full",
            out_dir=str(tmp_path / f"fb{seed}"), **common)).mean_dsc
        if it > pb > fb:
            ordering_ok += 1
    assert ordering_ok >= 9, f"mode ordering held in only {ordering_ok}/10 seeds"

    vls_ok = 0
    for seed in range(n_seeds):
        common = dict(rounds=4, entropy_gate_from_round=2, scans=20, test_scans=5,
                      organs=6, dims=(32, 32, 32), keep_fraction=0.33, seed=seed,
                      generalist_cooperativeness=0.45)  # corrupted pseudo-labels
        on = run_pipeline(PipelineConfig(
            use_vls=True, out_dir=str(tmp_path / f"von{seed}"), **common)).mean_dsc
        off = run_pipeline(PipelineConfig(
            use_vls=False, out_dir=str(tmp_path / f"voff{seed}"), **common)).mean_dsc
        if on >= off:
            vls_ok += 1
    assert vls_ok >= 9, f"VLS non-inferior in only {vls_ok}/10 seeds"
    report(7, f"mode ordering {ordering_ok}/10, VLS non-inferior {vls_ok}/10", t0)


# --- 8. NIfTI round-trip ----------------------------------------------------------------

def test_criterion_8_nifti_round_trip(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(80)
    for idx in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 9, 3))
        kind = idx % 3
        path = tmp_path / f"file{idx:03d}.nii"
        spacing = tuple(float(s) for s in rng.uniform(0.25, 4.0, 3).astype(np.float32))
        if kind == 0:
            obj = Volume(rng.normal(0, 5, size=dims).astype(np.float32), spacing=spacing)
            nifti_io.write_volume(path, obj)
        elif kind == 1:
            obj = LabelMap(rng.integers(0, 7, size=dims).astype(np.uint8), 7)
            nifti_io.write_volume(path, obj, spacing=spacing)
        else:
            C = int(rng.integers(2, 5))
            raw = rng.random((C,) + dims).astype(np.float32) + 1e-3
            raw /= raw.sum(axis=0, keepdims=True)
            obj = ProbVolume(raw)
            nifti_io.write_volume(path, obj, spacing=spacing)
        hdr, back = nifti_io.read_nifti(path)
        assert type(back) is type(obj)
        assert back.data.tobytes() == obj.data.tobytes()  # payload bit-exact
        assert hdr.pixdim == spacing
        assert hdr.vox_offset == 352
        assert hdr.datatype == (2 if kind == 1 else 16)
        # header-declared dims follow (nx, ny, nz[, nc])
        expected_shape = (dims[1], dims[0], dims[2])
        if kind == 2:
            expected_shape += (obj.num_classes,)
        assert hdr.shape == expected_shape

    # unsupported datatypes rejected
    victim = tmp_path / "file000.nii"
    for bad_code, bitpix in ((4, 16), (8, 32), (64, 64), (512, 16)):
        raw = bytearray(victim.read_bytes())
        struct.pack_into("<h", raw, 70, bad_code)
        struct.pack_into("<h", raw, 72, bitpix)
        bad_path = tmp_path / f"bad{bad_code}.nii"
        bad_path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedFormatError):
            nifti_io.read_volume(bad_path)
    report(8, "NIfTI round-trip bit-exact (50-file corpus)", t0)


# --- 9. end-to-end determinism ------------------------------------------------------------

def test_criterion_9_run_determinism(tmp_path):
    t0 = time.monotonic()
    blobs = []
    for name in ("first", "second"):
        config = PipelineConfig(rounds=3, entropy_gate_from_round=2, scans=10,
                                test_scans=3, organs=4, dims=(28, 28, 28),
                                keep_fraction=0.33, seed=23,
                                generalist_cooperativeness=0.6,
                                out_dir=str(tmp_path / name))
        result = run_pipeline(config)
        blob = {}
        for path in sorted(result.out_dir.rglob("*")):
            if path.suffix in (".csv", ".nii"):
                blob[path.relative_to(result.out_dir).as_posix()] = path.read_bytes()
        blobs.append(blob)
    assert blobs[0], "run produced no CSV/NIfTI outputs"
    assert blobs[0].keys() == blobs[1].keys()
    for key in blobs[0]:
        assert blobs[0][key] == blobs[1][key], f"{key} differs between runs"
    report(9, "byte-identical reports across repeated runs", t0)
