"""Organ states hold each pseudo-label on its tight box.  A whole-grid
reference of refinement and of the supervision merge, kept here, must give
the same round rows, targets and input hash, byte for byte, over random
phantom layouts with organs on every grid face, seeded pseudo-labels, and
the entropy gate both on and off.  The reference also asks the generalist
for every prompted organ, so it checks the re-gating of stored answers too.
"""

import hashlib
import math

import numpy as np

from promptseg.errors import NoPredictionError
from promptseg.metrics import dice
from promptseg.phantom import (Ellipsoid, PhantomGeneralist, PhantomRegistry,
                               PhantomSpec, PhantomSpecialist, generate_phantom)
from promptseg.pipeline import (PipelineConfig, Scan, ScanSupervision, _build_phantom_dataset,
                                _input_hash, initial_training, rounds)
from promptseg.prompting import make_box_prompts
from promptseg.refinement import build_roi
from promptseg.vls_loss import SupervisionTarget
from promptseg.volgrid import LabelMap, voxel_entropy

FACES = [(axis, side) for axis in range(3) for side in (0, 1)]


def face_layout(rng, dims, organs, faces):
    """Ellipsoids whose centres sit on the grid faces in ``faces`` (one
    each, in turn) and elsewhere at random, so that organs are cut by the
    faces."""
    ells = []
    for k in range(organs):
        center = [rng.uniform(0, d - 1) for d in dims]
        if k < len(faces):
            axis, side = faces[k]
            center[axis] = 0.0 if side == 0 else dims[axis] - 1.0
        ells.append(Ellipsoid(center=tuple(center), radii=tuple(rng.uniform(2.5, 4.5, size=3)),
                              angles=tuple(rng.uniform(0, np.pi, size=3)),
                              intensity=float(rng.uniform(0.4, 1.0))))
    return PhantomSpec(dims=dims, organs=tuple(ells))


def build_world(rng, trial):
    """A few phantom scans on one random layout family, partially labelled,
    some with a seeded pseudo-label as a file-mode manifest gives one;
    ``given`` maps each scan to its labels and seeded classes."""
    dims = tuple(int(n) for n in rng.integers(12, 19, size=3))
    organs = int(rng.integers(3, 6))
    registry = PhantomRegistry()
    scans, given = [], {}
    for idx in range(3):
        faces = [FACES[(trial + idx + k) % 6] for k in range(organs)]
        while True:
            vol, gt = generate_phantom(face_layout(rng, dims, organs, faces),
                                       (trial, idx))
            if np.unique(gt.data).size == organs + 1:  # every organ on the grid
                break
        registry.register(vol, gt)
        scan_id = f"s{idx}"
        labeled = frozenset(int(c) for c in rng.choice(np.arange(1, organs + 1),
                                                       size=organs // 2, replace=False))
        data = np.where(np.isin(gt.data, sorted(labeled)), gt.data, 0).astype(np.uint8)
        seeded = frozenset()
        if rng.random() < 0.6:  # an earlier round's pseudo-label, a part of the organ
            c = int(rng.choice(sorted(set(range(1, organs + 1)) - labeled)))
            data[(gt.data == c) & (rng.random(dims) < 0.8)] = c
            seeded = frozenset({c})
        given[scan_id] = data, seeded
        sup = ScanSupervision.from_target(labeled,
                                          SupervisionTarget(LabelMap(data, organs + 1), seeded))
        scans.append(Scan(scan_id, vol, sup, gt=gt))
    return scans, registry, given


def reference_round(scans, predictions, generalist, config, round_t, states):
    """One round on whole grids, asking the generalist for every prompted
    organ; ``states`` maps (scan, class) to (mask, conf, mean entropy)."""
    refine = config.refinement_config(round_t)
    rows = []
    for scan in scans:
        for c in sorted(scan.supervision.unlabeled):
            try:
                prompts = make_box_prompts(predictions[scan.scan_id], c, config.box_padding)
            except NoPredictionError:
                rows.append((scan.scan_id, c, "skip", "no-prediction", None, None))
                continue
            mask, probs = generalist.segment(scan.volume, prompts)  # the whole grid
            p_fg = probs.class_probs(1)
            roi = build_roi(prompts, refine.delta_roi, mask.shape)
            kept = mask & roi & (p_fg >= refine.tau_cls)
            if not kept.any():
                rows.append((scan.scan_id, c, "reject", "emptied", None, None))
                continue
            h = float(voxel_entropy(probs)[kept].mean(dtype=np.float64))
            prev = states.get((scan.scan_id, c), (None, None, None))[2]
            if refine.entropy_gate_active and prev is not None and not h < prev:
                rows.append((scan.scan_id, c, "reject", "entropy-not-decreased", h, None))
                continue
            states[scan.scan_id, c] = (kept, p_fg[kept], h)
            rows.append((scan.scan_id, c, "accept", "accepted", h,
                         dice(kept, scan.gt.data == c)))
    return rows


def reference_target(partial, held):
    """Ground truth wins; else the highest probability, ties to the lower class."""
    out = np.array(partial)
    best = np.where(out == 0, np.float32(-np.inf), np.float32(np.inf))
    for c in sorted(held):
        mask, conf, _ = held[c]
        field = np.full(out.shape, -np.inf, np.float32)
        field[mask] = conf
        win = mask & (field > best)
        out[win] = c
        best[win] = field[win]
    return out


def test_boxed_states_equal_the_whole_grid_reference():
    rng = np.random.default_rng(2024)
    seen = {"reasons": set(), "regated": 0, "seeded": 0, "gate": set()}
    for trial in range(12):
        scans, registry, given = build_world(rng, trial)
        # (cooperativeness, tau_cls): clean and noisy answers, and thresholds
        # that a blurred answer of a small organ cannot pass (emptied)
        coop, tau = [(1.0, 0.4), (0.6, 0.5), (0.2, 0.97), (0.0, 0.8)][trial % 4]
        config = PipelineConfig(rounds=3, entropy_gate_from_round=int(rng.choice([1, 2, 3])),
                                tau_cls=tau, delta_roi=int(rng.integers(0, 4)),
                                box_padding=int(rng.integers(0, 4)),
                                use_vls=bool(rng.random() < 0.5))
        specialist = PhantomSpecialist(registry, seed=trial)
        generalist = PhantomGeneralist(registry, cooperativeness=coop,
                                       assumed_padding=config.box_padding, seed=trial)
        states, partial = {}, {}
        for scan in scans:
            sup = scan.supervision
            labels, seeded = given[scan.scan_id]
            assert sup.pseudo == seeded  # the seeded states are the only ones held
            seen["seeded"] += len(seeded)
            partial[scan.scan_id] = np.where(np.isin(labels, sorted(seeded)), 0, labels)
            for c in seeded:
                mask = labels == c
                states[scan.scan_id, c] = (mask, np.zeros(int(mask.sum()), np.float32), None)
            assert sup.partial.data.tobytes() == partial[scan.scan_id].tobytes()
            assert sup.target.labels.data.tobytes() == labels.tobytes()
        want = hashlib.sha256()
        for scan in scans:
            for part in (scan.scan_id.encode(), scan.volume.data.tobytes(),
                         given[scan.scan_id][0].tobytes()):
                want.update(part)
        assert _input_hash(scans, []) == want.hexdigest()

        initial_training(scans, specialist)
        for r in rounds(config, scans, specialist, generalist):
            # the reference round on the round's input scans, its refit done
            rows = reference_round(scans, r.predictions, generalist, config, r.index, states)
            scans = r.scans
            got = [(e.scan_id, e.class_id, e.decision, e.reason, e.mean_entropy, e.pseudo_dice)
                   for e in r.report.entries]
            assert got == rows, (trial, r.index)
            for scan in scans:
                held = {c: s for (sid, c), s in states.items() if sid == scan.scan_id}
                target = scan.supervision.target
                assert target.pseudo_classes == frozenset(held)
                assert (target.labels.data.tobytes()
                        == reference_target(partial[scan.scan_id], held).tobytes()), trial
            seen["reasons"] |= {e.reason for e in r.report.entries}
            seen["regated"] += r.report.regated
            seen["gate"].add(config.refinement_config(r.index).entropy_gate_active)
    assert seen["reasons"] >= {"accepted", "emptied", "entropy-not-decreased"}
    assert seen["regated"] and seen["seeded"] and seen["gate"] == {False, True}


def test_stored_pseudo_labels_cost_their_box():
    """After 2 rounds every stored pseudo-label is its tight box's bytes,
    one per voxel, and no whole grid."""
    config = PipelineConfig(rounds=2, seed=7, keep_fraction=0.33)
    train, _, specialist, generalist = _build_phantom_dataset(config)
    initial_training(train, specialist)
    *_, last = rounds(config, train, specialist, generalist)
    held = 0
    for scan in last.scans:
        for state in scan.supervision.accepted().values():
            mask, box = state.current_pseudo, state.box
            assert mask.nbytes == math.prod(s.stop - s.start for s in box)
            assert mask.nbytes < math.prod(scan.volume.dims)
            # tight: the mask reaches every face of its box
            for axis in range(3):
                other = tuple(a for a in range(3) if a != axis)
                assert mask.any(axis=other)[[0, -1]].all()
            assert state.current_conf.size == np.count_nonzero(mask)
            held += 1
    assert held > 50
