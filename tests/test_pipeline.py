import errno
import logging
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from promptseg.errors import ConfigError, OracleUnavailableError
from promptseg.exchange import Server
from promptseg.metrics import dice
from promptseg.oracles import FileOracle, GeneralistOracle, SpecialistOracle
from promptseg.phantom import (PhantomGeneralist, PhantomRegistry, PhantomSpecialist,
                               make_phantom_suite, volume_fingerprint)
from promptseg.pipeline import (PipelineConfig, RoundEntry, Scan, ScanSupervision,
                                initial_training, load_config, merged_target,
                                predict_labels, pseudo_label_round, retrain,
                                run_pipeline,
                                simulate_partial_labels)
from promptseg.prompting import Box2D, BoxPromptPair, format_prompts, make_box_prompts
from promptseg.refinement import (OrganRefinementState, RefinementConfig, build_roi,
                                  refine_pseudo_label, roi_box)
from promptseg.vls_loss import SupervisionTarget, vls_mask
from promptseg.volgrid import LabelMap, ProbVolume, Volume, crop_mask, paste_mask


def holding(class_id, mask, conf):
    """An organ state holding the whole-grid ``mask`` with probabilities
    ``conf`` at its voxels, in C order."""
    return OrganRefinementState(class_id, *crop_mask(mask), np.asarray(conf, np.float32))

logging.disable(logging.INFO)


def make_gt(num_classes=16, dims=(6, 6, 6), seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, num_classes, size=dims).astype(np.uint8)
    return LabelMap(data, num_classes)


# --- partial-label simulation ---------------------------------------------------

def test_simulate_keep_counts_match_settings():
    gt = make_gt(16)  # 15 organs
    sup67 = simulate_partial_labels(gt, 16, 0.67, seed=1, scan_id="s0")
    assert len(sup67.labeled) == 10
    sup33 = simulate_partial_labels(gt, 16, 0.33, seed=1, scan_id="s0")
    assert len(sup33.labeled) == 5
    assert sup67.labeled | sup67.unlabeled == frozenset(range(1, 16))
    assert not sup67.labeled & sup67.unlabeled


def test_simulate_full_keep_is_identity():
    gt = make_gt(8)
    sup = simulate_partial_labels(gt, 8, 1.0, seed=3, scan_id="s1")
    assert sup.unlabeled == frozenset()
    assert np.array_equal(sup.target.labels.data, gt.data)


def test_simulate_zero_keep_rejected():
    gt = make_gt(6)
    with pytest.raises(ConfigError):
        simulate_partial_labels(gt, 6, 0.05, seed=0, scan_id="s2")


def test_simulate_deterministic_per_scan_and_seed():
    gt = make_gt(12)
    a = simulate_partial_labels(gt, 12, 0.5, seed=9, scan_id="alpha")
    b = simulate_partial_labels(gt, 12, 0.5, seed=9, scan_id="alpha")
    assert a.labeled == b.labeled
    assert a.target.labels.data.tobytes() == b.target.labels.data.tobytes()
    c = simulate_partial_labels(gt, 12, 0.5, seed=9, scan_id="beta")
    d = simulate_partial_labels(gt, 12, 0.5, seed=10, scan_id="alpha")
    assert (c.labeled != a.labeled) or (d.labeled != a.labeled)


def test_simulate_relabels_unlabeled_to_background():
    gt = make_gt(10)
    sup = simulate_partial_labels(gt, 10, 0.4, seed=2, scan_id="s")
    target = sup.target.labels.data
    for c in sup.unlabeled:
        assert not (target == c).any()
    for c in sup.labeled:
        assert np.array_equal(target == c, gt.data == c)


def test_label_set_masks_equal_isin_on_labels_up_to_255():
    """``simulate_partial_labels`` and ``vls_mask`` pick a label set's voxels by
    table: the same as ``np.isin`` for every uint8 label, with an empty set too."""
    rng = np.random.default_rng(5)
    for num_classes in (2, 17, 256):
        for trial in range(4):
            gt = LabelMap(rng.integers(0, num_classes, size=(7, 9, 5)).astype(np.uint8),
                          num_classes)
            sup = simulate_partial_labels(gt, num_classes, rng.uniform(0.3, 1.0), trial, "s")
            assert np.array_equal(sup.target.labels.data,
                                  np.where(np.isin(gt.data, sorted(sup.labeled)), gt.data, 0))
            pred = LabelMap(np.where(rng.random(gt.dims) < 0.5, gt.data, 0).astype(np.uint8),
                            num_classes)
            organs = np.arange(1, num_classes)
            for pseudo in (frozenset(), frozenset({num_classes - 1}),
                           frozenset(int(c) for c in rng.choice(organs, (len(organs) + 1) // 2,
                                                                replace=False))):
                want = np.where(np.isin(gt.data, sorted(pseudo)), pred.data == gt.data, True)
                got = vls_mask(pred, SupervisionTarget(gt, pseudo))
                assert got.dtype == bool and np.array_equal(got, want), (num_classes, pseudo)


# --- a tiny phantom world shared by the orchestration tests ---------------------

def phantom_world(n_scans=4, organs=3, dims=(24, 24, 24), seed=13, keep=0.34,
                  quality=0.0, coop=1.0):
    suite = make_phantom_suite(n_scans, organs, dims, seed=seed)
    registry = PhantomRegistry()
    scans = []
    for scan_id, vol, gt in suite:
        registry.register(vol, gt)
        sup = simulate_partial_labels(gt, organs + 1, keep, seed, scan_id)
        scans.append(Scan(scan_id, vol, sup, gt=gt))
    specialist = PhantomSpecialist(registry, quality=quality, seed=seed)
    generalist = PhantomGeneralist(registry, cooperativeness=coop, seed=seed)
    return scans, specialist, generalist


def test_initial_training_preconditions():
    scans, specialist, _ = phantom_world()
    with pytest.raises(ConfigError):
        initial_training([], specialist)
    broken = ScanSupervision.from_target(
        frozenset(), SupervisionTarget(LabelMap(np.zeros((4, 4, 4), dtype=np.uint8), 4)))
    with pytest.raises(ConfigError):
        initial_training([Scan("x", Volume(np.zeros((4, 4, 4), dtype=np.float32)),
                               broken)], specialist)


def test_scan_supervision_rejects_bad_labeled_and_seeded_classes():
    from promptseg.errors import RejectedInputError
    labels = np.zeros((2, 2, 2), np.uint8)
    labels[0] = 2
    given = SupervisionTarget(LabelMap(labels, 4), frozenset({2}))
    for labeled in ({0}, {0, 1}, {4}, {1, 5}, {2}, {1, 2}):
        with pytest.raises(RejectedInputError):
            ScanSupervision.from_target(frozenset(labeled), given)
    # class 2 has labels but is given as neither labeled nor pseudo
    with pytest.raises(RejectedInputError, match=r"classes \[2\] have labels"):
        ScanSupervision.from_target(frozenset({1, 3}), SupervisionTarget(LabelMap(labels, 4)))
    sup = ScanSupervision.from_target(frozenset({1, 3}), given)
    assert sup.num_classes == 4 and sup.unlabeled == {2}
    assert sup.pseudo == {2} and np.array_equal(sup.target.labels.data, labels)


def test_initial_training_raises_quality_of_labeled_classes_only():
    scans, specialist, _ = phantom_world()
    initial_training(scans, specialist, supervision="partial")
    labeled_somewhere = set().union(*(s.supervision.labeled for s in scans))
    for c in range(1, 4):
        if c in labeled_somewhere:
            assert specialist.quality(c) > 0
        else:
            assert specialist.quality(c) == 0.0


def test_cooperative_round_accepts_everything_exactly():
    scans, specialist, generalist = phantom_world(quality=1.0, coop=1.0)
    config = PipelineConfig(rounds=4, scans=4, organs=3, dims=(24, 24, 24))
    report, scans = pseudo_label_round(scans, predict_labels(scans, specialist), generalist,
                                       config, round_t=1)
    expected = sum(len(s.supervision.unlabeled) for s in scans)
    accepted = report.accepted()
    assert len(accepted) == expected
    assert all(e.pseudo_dice == 1.0 for e in accepted)
    for scan in scans:
        assert scan.supervision.pseudo == set(scan.supervision.unlabeled)
        target = scan.supervision.target.labels.data
        assert np.array_equal(target, scan.gt.data)  # fully recovered supervision


class AdversarialGeneralist(GeneralistOracle):
    """High-entropy noise: probabilities hover at 0.5, masks are random."""

    def __init__(self, dims, seed=0):
        self.dims = dims
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def segment(self, volume, prompts, region=None):
        self.calls += 1
        noise = self.rng.uniform(0.45, 0.55, size=self.dims).astype(np.float32)[region or ...]
        probs = ProbVolume(np.stack([np.float32(1.0) - noise, noise]))
        return noise > 0.5, probs


def test_adversarial_generalist_rejected_in_gated_round():
    scans, specialist, generalist = phantom_world(quality=1.0, coop=1.0)
    config = PipelineConfig(rounds=4, entropy_gate_from_round=2,
                            scans=4, organs=3, dims=(24, 24, 24))
    _, scans = pseudo_label_round(scans, predict_labels(scans, specialist), generalist, config,
                                  round_t=1)
    before = {s.scan_id: s.supervision.target.labels.data.tobytes() for s in scans}
    adversary = AdversarialGeneralist(scans[0].volume.dims, seed=1)
    # a jittered specialist moves the prompts, so the adversary is asked
    jittered = PhantomSpecialist(generalist.registry, quality=0.5, seed=1)
    report, scans = pseudo_label_round(scans, predict_labels(scans, jittered), adversary,
                                       config, round_t=2)
    assert adversary.calls == report.requests() == len(report.entries) > 0
    assert not report.accepted()
    assert all(e.decision in ("reject", "skip") for e in report.entries)
    for scan in scans:
        assert scan.supervision.target.labels.data.tobytes() == before[scan.scan_id]


class ForgetfulSpecialist(PhantomSpecialist):
    """Never predicts the highest class, whatever its quality."""

    def predict(self, volume, **kwargs):
        labels = super().predict(volume, **kwargs)
        data = np.array(labels.data)
        data[data == labels.num_classes - 1] = 0
        return LabelMap(data, labels.num_classes)


def test_absent_organ_skipped_with_reason():
    scans, _, generalist = phantom_world(quality=1.0, coop=1.0)
    registry = generalist.registry
    specialist = ForgetfulSpecialist(registry, quality=1.0)
    config = PipelineConfig(rounds=1, entropy_gate_from_round=1,
                            scans=4, organs=3, dims=(24, 24, 24))
    report, _ = pseudo_label_round(scans, predict_labels(scans, specialist), generalist,
                                   config, round_t=1)
    skipped = [e for e in report.entries if e.class_id == 3]
    assert skipped and all(e.decision == "skip" and e.reason == "no-prediction"
                           for e in skipped)


class FailingOnOneClass(GeneralistOracle):
    """Delegates to ``inner`` but cannot answer for ``class_id``."""

    def __init__(self, inner, class_id):
        self.inner, self.class_id = inner, class_id

    def segment(self, volume, prompts, region=None):
        if prompts.class_id == self.class_id:
            raise OracleUnavailableError(f"no answer for class {self.class_id}")
        return self.inner.segment(volume, prompts, region)


def test_generalist_failure_on_one_organ_skips_it_and_refines_the_rest(caplog):
    scans, specialist, generalist = phantom_world(quality=1.0, coop=1.0)
    config = PipelineConfig(rounds=1, entropy_gate_from_round=1,
                            scans=4, organs=3, dims=(24, 24, 24))
    failing = next(c for s in scans for c in sorted(s.supervision.unlabeled))
    with caplog.at_level(logging.WARNING, logger="promptseg.pipeline"):
        report, scans = pseudo_label_round(scans, predict_labels(scans, specialist),
                                           FailingOnOneClass(generalist, failing), config,
                                           round_t=1)
    skipped = [e for e in report.entries if e.class_id == failing]
    others = [e for e in report.entries if e.class_id != failing]
    assert skipped and all(e.decision == "skip" and e.reason == "oracle-error"
                           for e in skipped)
    assert len(caplog.records) == len(skipped)
    assert all("generalist failed" in r.getMessage() for r in caplog.records)
    assert others and all(e.decision == "accept" for e in others)
    for scan in scans:
        assert scan.supervision.pseudo == scan.supervision.unlabeled - {failing}


class OneBadAnswer(GeneralistOracle):
    """``generalist``'s answers, except that the answer to ``bad``, a (volume
    fingerprint, prompts text), has a mask of the wrong dims."""

    def __init__(self, generalist, bad):
        self.generalist, self.bad = generalist, bad

    def segment(self, volume, prompts, region=None):
        mask, probs = self.generalist.segment(volume, prompts, region)
        if (volume_fingerprint(volume), format_prompts(prompts)) == self.bad:
            mask = mask[:-1]
        return mask, probs


def test_a_bad_answer_mid_batch_skips_its_organ_and_refines_the_rest(tmp_path, serve):
    """The round's four requests are all on disk before the first answer is
    awaited; request 2's bad answer skips its organ alone."""
    config = PipelineConfig(rounds=1, entropy_gate_from_round=1,
                            scans=2, organs=3, dims=(24, 24, 24))
    ref_scans, ref_specialist, ref_generalist = phantom_world(n_scans=2, quality=1.0, coop=1.0)
    expected = pseudo_label_round(ref_scans, predict_labels(ref_scans, ref_specialist),
                                  ref_generalist, config, round_t=1)[0].entries
    scans, specialist, generalist = phantom_world(n_scans=2, quality=1.0, coop=1.0)
    predictions = predict_labels(scans, specialist)
    asks = [(scan, c) for scan in scans for c in sorted(scan.supervision.unlabeled)]
    assert len(asks) == 4 and all(e.decision == "accept" for e in expected)
    bad_scan, bad_class = asks[1]                                    # request 2 of 4
    prompts = make_box_prompts(predictions[bad_scan.scan_id], bad_class, config.box_padding)
    bad = (volume_fingerprint(bad_scan.volume), format_prompts(prompts))
    serve(Server(tmp_path, generalist=OneBadAnswer(generalist, bad)), batch=len(asks))
    report, scans = pseudo_label_round(scans, predictions, FileOracle(tmp_path, timeout=5.0),
                                       config, round_t=1)
    expected[1] = RoundEntry(bad_scan.scan_id, bad_class, "skip", "oracle-error", None, None)
    assert report.entries == expected
    bad_scan = next(s for s in scans if s.scan_id == bad_scan.scan_id)
    assert bad_scan.supervision.pseudo == bad_scan.supervision.unlabeled - {bad_class}
    assert all(scan.supervision.pseudo == scan.supervision.unlabeled for scan in scans[1:])


def test_pseudo_merge_never_overwrites_ground_truth():
    scans, specialist, generalist = phantom_world(quality=1.0, coop=0.4, keep=0.34)
    config = PipelineConfig(rounds=2, scans=4, organs=3, dims=(24, 24, 24))
    gt_voxels = {}
    for scan in scans:
        keep = np.isin(scan.supervision.target.labels.data,
                       sorted(scan.supervision.labeled))
        gt_voxels[scan.scan_id] = (keep, scan.supervision.target.labels.data[keep])
    for t in (1, 2):
        _, scans = pseudo_label_round(scans, predict_labels(scans, specialist), generalist,
                                      config, round_t=t)
    for scan in scans:
        keep, values = gt_voxels[scan.scan_id]
        assert np.array_equal(scan.supervision.target.labels.data[keep], values)
        assert scan.supervision.pseudo <= scan.supervision.unlabeled


def test_pseudo_set_grows_monotonically():
    scans, specialist, generalist = phantom_world(quality=1.0, coop=0.6)
    config = PipelineConfig(rounds=3, entropy_gate_from_round=2,
                            scans=4, organs=3, dims=(24, 24, 24))
    seen = {s.scan_id: set() for s in scans}
    for t in (1, 2, 3):
        _, scans = pseudo_label_round(scans, predict_labels(scans, specialist), generalist,
                                      config, round_t=t)
        for s in scans:
            assert seen[s.scan_id] <= s.supervision.pseudo
            seen[s.scan_id] = set(s.supervision.pseudo)


def state_content(state):
    """Everything an organ state holds, its arrays as bytes."""
    arrays = (state.current_pseudo, state.current_conf)
    return (state.class_id, state.box, state.mean_entropy, state.prompts, state.rejected,
            *(None if a is None else a.tobytes() for a in arrays))


def test_a_round_modifies_nothing_it_is_given():
    """A round is a function of the scans it is given: run twice on the same
    scans and predictions it gives equal reports and equal next states, and
    the given scans keep their states and target bytes."""
    scans, specialist, generalist = phantom_world(quality=0.5, coop=0.6)
    config = PipelineConfig(rounds=2, entropy_gate_from_round=2,
                            scans=4, organs=3, dims=(24, 24, 24))
    _, scans = pseudo_label_round(scans, predict_labels(scans, specialist), generalist, config,
                                  round_t=1)
    jittered = PhantomSpecialist(generalist.registry, quality=0.5, seed=1)
    predictions = predict_labels(scans, jittered)  # new prompts: the generalist is asked again
    states = [dict(s.supervision.states) for s in scans]
    targets = [s.supervision.target.labels.data.tobytes() for s in scans]
    first, after_first = pseudo_label_round(scans, predictions, generalist, config, round_t=2)
    second, after_second = pseudo_label_round(scans, predictions, generalist, config, round_t=2)
    assert first == second and first.requests() > 0
    for scan, a, b, given, target in zip(scans, after_first, after_second, states, targets):
        assert a.scan_id == b.scan_id == scan.scan_id
        assert a.supervision.states.keys() == b.supervision.states.keys() == given.keys()
        for c, state in given.items():
            assert state_content(a.supervision.states[c]) == state_content(b.supervision.states[c])
            assert scan.supervision.states[c] is state
        assert scan.supervision.target.labels.data.tobytes() == target
    assert any(a.supervision.states[c] is not state
               for a, given in zip(after_first, states) for c, state in given.items())


def test_pseudo_overlap_resolved_by_generalist_probability():
    dims = (6, 6, 6)
    labels = np.zeros(dims, dtype=np.uint8)
    labels[0, 0, 0] = 1  # ground-truth voxel for class 1
    partial = LabelMap(labels, 4)
    mask2 = np.zeros(dims, dtype=bool)
    mask2[2:4, 2:4, 2:4] = True
    conf2 = np.where(mask2, np.float32(0.7), np.float32(0.0))
    mask3 = np.zeros(dims, dtype=bool)
    mask3[3:5, 3:5, 3:5] = True
    mask3[0, 0, 0] = True  # tries to steal a ground-truth voxel
    conf3 = np.where(mask3, np.float32(0.8), np.float32(0.0))
    conf3[3, 3, 3] = 0.7  # exact tie at one contested voxel
    target = merged_target(partial, {2: holding(2, mask2, conf2[mask2]),
                                     3: holding(3, mask3, conf3[mask3])})
    out = target.labels.data
    assert out[0, 0, 0] == 1                       # ground truth untouched
    assert out[3, 3, 3] == 2                       # tie goes to the lower class
    contested = mask2 & mask3
    contested[3, 3, 3] = False
    contested[0, 0, 0] = False
    assert (out[contested] == 3).all()             # higher confidence wins
    assert (out[mask2 & ~mask3] == 2).all()
    assert target.pseudo_classes == frozenset({2, 3})


def voxels(*flags):
    """A 1x1xN mask from 0/1 flags."""
    return np.array(flags, dtype=bool).reshape(1, 1, -1)


def test_merged_target_shrinking_reaccept_returns_voxels_to_other_class():
    partial = LabelMap(np.zeros((1, 1, 4), dtype=np.uint8), 4)
    two = holding(2, voxels(0, 1, 1, 1), np.full(3, 0.6))
    before = merged_target(partial, {2: two, 3: holding(3, voxels(1, 1, 1, 0), np.full(3, 0.9))})
    assert before.labels.data.ravel().tolist() == [3, 3, 3, 2]
    after = merged_target(partial, {2: two, 3: holding(3, voxels(1, 0, 0, 0), np.full(1, 0.9))})
    assert after.labels.data.ravel().tolist() == [3, 2, 2, 2]


class FixedSpecialist(SpecialistOracle):
    """Predicts the label maps it is given in turn, one per predict, the last
    from then on; fits are no-ops."""

    def __init__(self, num_classes, *labels):
        self.labels = [LabelMap(data, num_classes) for data in labels]

    def predict(self, volume):
        return self.labels.pop(0) if len(self.labels) > 1 else self.labels[0]

    def fit(self, examples, supervision="full"):
        pass


class ScriptedGeneralist(GeneralistOracle):
    """Answers each organ's prompt with the (mask, probability) that
    ``script[class_id]`` names; the probability is 0.05 off the mask."""

    def __init__(self):
        self.script, self.asked = {}, []

    def segment(self, volume, prompts, region=None):
        self.asked.append(prompts.class_id)
        mask, p = self.script[prompts.class_id]
        fg = np.where(mask, np.float32(p), np.float32(0.05))[region or ...]
        return mask[region or ...], ProbVolume(np.stack([np.float32(1.0) - fg, fg]))


def run_scripted_rounds(*rounds):
    """Ungated pipeline rounds on one 1x1x4 scan with organs 2 and 3
    unlabeled; returns the target after the last round.  Organ 3 moves from
    slice 0 to slice 1 in round 2's prediction, so its prompts change and the
    generalist is asked again; organ 2's median slice stays 2, so its prompts
    repeat and it is re-gated on its stored pseudo-label."""
    sup = ScanSupervision.from_target(
        frozenset({1}), SupervisionTarget(LabelMap(np.zeros((1, 1, 4), np.uint8), 4)))
    scan = Scan("s", Volume(np.zeros((1, 1, 4), np.float32)), sup)
    specialist = FixedSpecialist(4, np.array([3, 2, 2, 2]).reshape(1, 1, 4),
                                 np.array([2, 3, 2, 2]).reshape(1, 1, 4))
    generalist = ScriptedGeneralist()
    config = PipelineConfig(rounds=3, entropy_gate_from_round=3)
    for round_t, script in enumerate(rounds, start=1):
        generalist.script = script
        generalist.asked = []
        report, (scan,) = pseudo_label_round([scan], predict_labels([scan], specialist),
                                             generalist, config, round_t)
        assert [e.decision for e in report.entries] == ["accept", "accept"]
        assert generalist.asked == ([2, 3] if round_t == 1 else [3])
        assert report.regated == (0 if round_t == 1 else 1)
    return scan.supervision.target.labels.data.ravel().tolist()


def test_round_rebuilds_target_when_a_pseudo_label_shrinks():
    first = {2: (voxels(0, 1, 1, 1), 0.6), 3: (voxels(1, 1, 1, 0), 0.9)}
    second = {2: (voxels(0, 1, 1, 1), 0.6), 3: (voxels(1, 0, 0, 0), 0.9)}
    assert run_scripted_rounds(first) == [3, 3, 3, 2]
    assert run_scripted_rounds(first, second) == [3, 2, 2, 2]


def test_reaccept_with_lower_probability_loses_the_voxels_it_won():
    first = {2: (voxels(1, 1, 0, 0), 0.6), 3: (voxels(0, 1, 1, 0), 0.9)}
    second = {2: (voxels(1, 1, 0, 0), 0.6), 3: (voxels(0, 1, 1, 0), 0.5)}
    assert run_scripted_rounds(first) == [2, 3, 3, 0]
    assert run_scripted_rounds(first, second) == [2, 2, 3, 0]


def accept(state, mask, field):
    """The state after accepting ``mask`` with generalist probability
    ``field`` into ``state`` through refinement, its prompts covering the
    whole volume."""
    H, W, D = mask.shape
    prompts = BoxPromptPair(state.class_id, Box2D("axial", 0, (0, 0), (H - 1, W - 1)),
                            Box2D("sagittal", 0, (0, 0), (H - 1, D - 1)))
    fg = np.where(mask, field, np.float32(0.05)).astype(np.float32)
    result = refine_pseudo_label(mask, ProbVolume(np.stack([1.0 - fg, fg])), prompts,
                                 RefinementConfig(), state)
    assert result.accepted and np.array_equal(paste_mask(result.mask, result.box, mask.shape), mask)
    return result.state


def brute_force_target(partial, final):
    """Per voxel: ground truth if any, else the highest probability among
    the final masks covering it (ties to the lower class), else 0."""
    out = np.array(partial)
    for v in np.ndindex(out.shape):
        if out[v] == 0:
            claims = [(-field[v], c) for c, (mask, field) in final.items() if mask[v]]
            out[v] = min(claims)[1] if claims else 0
    return out


def test_merged_target_is_order_independent_and_matches_brute_force():
    rng = np.random.default_rng(44)
    dims, C = (3, 4, 3), 6
    levels = np.array([0.5, 0.6, 0.7, 0.8], np.float32)  # few levels: exact ties
    for trial in range(30):
        gt = np.where(rng.random(dims) < 0.2, 1, 0).astype(np.uint8)
        events = {}
        for c in range(2, C):
            masks = [rng.random(dims) < 0.5]
            for _ in range(rng.integers(0, 3)):  # re-accepts, some shrinking
                shrink = rng.random() < 0.5
                masks.append(masks[-1] & (rng.random(dims) < 0.6) if shrink
                             else rng.random(dims) < 0.5)
            masks = [m if m.any() else gt == 1 if (gt == 1).any() else np.ones(dims, bool)
                     for m in masks]  # some masks cover ground truth only
            events[c] = [(m, rng.choice(levels, size=dims)) for m in masks]
        final = {c: ev[-1] for c, ev in events.items()}
        expected = brute_force_target(gt, final)
        for order in range(6):
            sup = ScanSupervision.from_target(frozenset({1}), SupervisionTarget(LabelMap(gt, C)))
            queue = [c for c, ev in events.items() for _ in ev]
            rng.shuffle(queue)  # an interleaving that keeps each organ's own order
            pending = {c: list(ev) for c, ev in events.items()}
            for c in queue:
                sup = replace(sup, states={**sup.states,
                                           c: accept(sup.states[c], *pending[c].pop(0))})
            pseudo = sup.accepted()
            shuffled = dict(sorted(pseudo.items(), key=lambda kv: rng.random()))
            assert np.array_equal(merged_target(sup.partial, shuffled).labels.data,
                                  sup.target.labels.data)
            assert np.array_equal(sup.target.labels.data, expected), (trial, order)
            assert sup.target.pseudo_classes == frozenset(range(2, C))


def test_retrain_without_pseudo_matches_initial_training():
    scans, _, _ = phantom_world()
    registry = PhantomRegistry()
    for s in scans:
        registry.register(s.volume, s.gt)
    a = PhantomSpecialist(registry)
    b = PhantomSpecialist(registry)
    initial_training(scans, a, supervision="partial")
    retrain(scans, b, None, supervision="partial")
    for c in range(1, 4):
        assert a.quality(c) == pytest.approx(b.quality(c))


def test_retrain_with_clean_pseudo_labels_is_vls_insensitive():
    scans, specialist, generalist = phantom_world(quality=1.0, coop=1.0)
    config = PipelineConfig(rounds=1, entropy_gate_from_round=1,
                            scans=4, organs=3, dims=(24, 24, 24))
    _, scans = pseudo_label_round(scans, predict_labels(scans, specialist), generalist, config,
                                  round_t=1)
    registry = specialist.registry
    a = PhantomSpecialist(registry, quality=1.0)
    b = PhantomSpecialist(registry, quality=1.0)
    retrain(scans, a, None, supervision="partial")
    retrain(scans, b, predict_labels(scans, b), supervision="partial")
    for c in range(1, 4):
        assert a.quality(c) == pytest.approx(b.quality(c))


def test_run_pipeline_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        config = PipelineConfig(rounds=2, entropy_gate_from_round=2, scans=4,
                                test_scans=2, organs=3, dims=(20, 20, 20),
                                keep_fraction=0.34, seed=5,
                                out_dir=str(tmp_path / name))
        result = run_pipeline(config)
        blob = {}
        for path in sorted(result.out_dir.rglob("*")):
            if path.suffix in (".csv", ".nii"):
                blob[path.relative_to(result.out_dir).as_posix()] = path.read_bytes()
        outputs.append(blob)
    assert outputs[0].keys() == outputs[1].keys()
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], key


def capture_phantom_world(monkeypatch):
    """Let ``run_pipeline`` build its phantom dataset as usual and keep its
    generalist and the training scans of the round now running (the
    initial ones before round 1) in the returned dict."""
    from promptseg import pipeline
    world = {}
    build, round_fn = pipeline._build_phantom_dataset, pipeline.pseudo_label_round

    def capturing(config):
        train, test, specialist, generalist = built = build(config)
        world.update(train=train, generalist=generalist)
        return built

    def capturing_round(scans, *args, **kwargs):
        world["train"] = scans
        return round_fn(scans, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_build_phantom_dataset", capturing)
    monkeypatch.setattr(pipeline, "pseudo_label_round", capturing_round)
    return world


def test_every_segment_call_asks_for_the_organ_roi_box(tmp_path, monkeypatch):
    from promptseg import pipeline
    world = capture_phantom_world(monkeypatch)
    calls, regated = [], []
    segment, stored = PhantomGeneralist.segment, pipeline.refine_stored

    def recording(self, volume, prompts, region=None, **kwargs):
        scan = next(s for s in world["train"] if s.volume is volume)
        state = scan.supervision.states[prompts.class_id]
        # never a request the stored label or the last rejected answer answers
        assert prompts != state.prompts
        assert state.rejected is None or prompts != state.rejected[0]
        calls.append((volume.dims, prompts, region))
        return segment(self, volume, prompts, region, **kwargs)

    def recording_stored(state, prompts, config):
        result = stored(state, prompts, config)
        if result is not None:
            regated.append(state)
        return result

    monkeypatch.setattr(PhantomGeneralist, "segment", recording)
    monkeypatch.setattr(pipeline, "refine_stored", recording_stored)
    config = PipelineConfig(seed=7, keep_fraction=0.33,  # the desk benchmark: 20+5 scans at 32^3
                            out_dir=str(tmp_path / "desk"))
    result = run_pipeline(config)
    prompted = [e for r in result.round_reports for e in r.entries if e.reason != "no-prediction"]
    # each prompted organ makes one call or repeats the prompts of its stored
    # pseudo-label (151) or of its last rejected answer (6)
    assert (len(calls), len(regated), len(prompted)) == (163, 157, 320)
    for dims, prompts, region in calls:
        assert region == roi_box(prompts, config.delta_roi, dims)
    assert any(region != tuple(slice(0, n) for n in dims) for dims, _, region in calls)


def test_a_desk_run_caches_signed_distances_at_2_bytes_a_voxel(tmp_path, monkeypatch):
    world = capture_phantom_world(monkeypatch)
    run_pipeline(PipelineConfig(seed=13, keep_fraction=0.33, out_dir=str(tmp_path / "desk")))
    cached = [field for scan in world["generalist"].registry._scans.values()
              for _, field in scan.sdist.values()]
    assert len(cached) > 100
    assert all(field.dtype == np.int16 for field in cached)


@pytest.mark.parametrize("seed,gate_from", [(7, 2), (13, 2), (7, 4)])
def test_regating_a_stored_pseudo_label_equals_asking_again(tmp_path, monkeypatch,
                                                            seed, gate_from):
    """Every re-gated organ gets what asking the generalist again and
    refining its answer would give: decision, reason, entropy, pseudo Dice
    and state content, whether it repeats the prompts of its stored
    pseudo-label or of its last rejected answer."""
    from promptseg import pipeline
    world = capture_phantom_world(monkeypatch)
    gated, replayed = [], []
    stored = pipeline.refine_stored

    def checked(state, prompts, config):
        result = stored(state, prompts, config)
        if result is None:
            return None
        scan = next(s for s in world["train"]
                    if s.supervision.states.get(state.class_id) is state)
        dims = scan.volume.dims
        region = roi_box(prompts, config.delta_roi, dims)
        mask, probs = world["generalist"].segment(scan.volume, prompts, region)
        candidate = np.zeros(dims, dtype=bool)
        candidate[region] = mask
        ref = refine_pseudo_label(candidate, probs, prompts, config, state)
        assert (result.accepted, result.reason) == (ref.accepted, ref.reason)
        assert result.mean_entropy == ref.mean_entropy
        if result.mask is None:  # a replayed rejection
            replayed.append(result.reason)
        else:
            assert result.mean_entropy == state.mean_entropy
            assert result.mask.tobytes() == ref.mask.tobytes() and result.box == ref.box
            gt = scan.gt.data == state.class_id
            assert (dice(paste_mask(result.mask, result.box, dims), gt)
                    == dice(paste_mask(ref.mask, ref.box, dims), gt))
        for got, want in ((result.state, ref.state), (result.state, state)):
            assert got.class_id == want.class_id and got.prompts == want.prompts
            if want.current_pseudo is not None:
                assert got.current_pseudo.tobytes() == want.current_pseudo.tobytes()
                assert got.current_conf.tobytes() == want.current_conf.tobytes()
            assert got.box == want.box and got.mean_entropy == want.mean_entropy
        gated.append(config.entropy_gate_active)
        return result

    monkeypatch.setattr(pipeline, "refine_stored", checked)
    run_pipeline(PipelineConfig(seed=seed, keep_fraction=0.33, entropy_gate_from_round=gate_from,
                                out_dir=str(tmp_path / "desk")))
    assert len(gated) > 100
    assert replayed or gate_from != 2  # gated from round 2, rejected answers are repeated
    # prompts first repeat in round 3, so gating from round 4 also re-gates ungated
    assert set(gated) == ({False, True} if gate_from == 4 else {True})


def test_round_log_line_counts_requests_and_regated_organs(tmp_path, monkeypatch, caplog):
    from promptseg import pipeline
    calls, per_round = [], []
    segment, round_fn = PhantomGeneralist.segment, pipeline.pseudo_label_round

    def counting(self, volume, prompts, region=None, **kwargs):
        calls.append(prompts)
        return segment(self, volume, prompts, region, **kwargs)

    def counted_round(*args, **kwargs):
        before = len(calls)
        report, scans = round_fn(*args, **kwargs)
        prompted = sum(e.reason != "no-prediction" for e in report.entries)
        per_round.append((len(calls) - before, prompted))
        return report, scans

    monkeypatch.setattr(PhantomGeneralist, "segment", counting)
    monkeypatch.setattr(pipeline, "pseudo_label_round", counted_round)
    config = PipelineConfig(rounds=3, entropy_gate_from_round=2, scans=4, test_scans=1,
                            organs=3, dims=(20, 20, 20), keep_fraction=0.34, seed=5,
                            out_dir=str(tmp_path / "out"))
    with caplog.at_level(logging.INFO, logger="promptseg.pipeline"):
        result = run_pipeline(config)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("round ")]
    expected = []
    for report, (sent, prompted) in zip(result.round_reports, per_round):
        assert report.requests() == sent and report.regated == prompted - sent
        expected.append(f"round {report.round_index}: {len(report.accepted())}/"
                        f"{len(report.entries)} organ updates accepted, {sent} generalist "
                        f"requests, {prompted - sent} re-gated on a stored answer")
    assert lines == expected
    assert per_round[0][0] == per_round[0][1] > 0  # round 1 asks for every prompted organ
    assert any(sent < prompted for sent, prompted in per_round[1:])
    assert (tmp_path / "out" / "run.log").read_text().count(" re-gated on ") == 3


def test_run_pipeline_r0_is_plain_baseline(tmp_path):
    config = PipelineConfig(rounds=0, scans=4, test_scans=2, organs=3,
                            dims=(20, 20, 20), keep_fraction=0.67, seed=2,
                            supervision="partial", out_dir=str(tmp_path / "r0"))
    result = run_pipeline(config)
    assert result.round_reports == []
    assert not list(result.out_dir.glob("round_*.csv"))
    assert result.mean_dsc is not None


def test_directional_ordering_small_suites(tmp_path):
    for keep in (0.67, 0.33):
        for seed in (0, 1, 2):
            common = dict(scans=8, test_scans=2, organs=4, dims=(24, 24, 24),
                          keep_fraction=keep, seed=seed,
                          generalist_cooperativeness=0.8)
            it = run_pipeline(PipelineConfig(
                rounds=3, entropy_gate_from_round=2,
                out_dir=str(tmp_path / f"i{keep}{seed}"), **common)).mean_dsc
            pb = run_pipeline(PipelineConfig(
                rounds=0, supervision="partial",
                out_dir=str(tmp_path / f"p{keep}{seed}"), **common)).mean_dsc
            fb = run_pipeline(PipelineConfig(
                rounds=0, supervision="full",
                out_dir=str(tmp_path / f"f{keep}{seed}"), **common)).mean_dsc
            assert it > pb > fb, (keep, seed, it, pb, fb)


def test_gate_entropy_sequences_strictly_decreasing(tmp_path):
    config = PipelineConfig(rounds=4, entropy_gate_from_round=2, scans=5,
                            test_scans=1, organs=3, dims=(24, 24, 24),
                            keep_fraction=0.34, seed=8,
                            generalist_cooperativeness=0.7,
                            out_dir=str(tmp_path / "gate"))
    result = run_pipeline(config)
    series: dict[tuple, list] = {}
    for report in result.round_reports:
        if report.round_index < config.entropy_gate_from_round:
            continue
        for e in report.accepted():
            series.setdefault((e.scan_id, e.class_id), []).append(e.mean_entropy)
    assert any(len(v) > 0 for v in series.values())
    for values in series.values():
        assert all(b < a for a, b in zip(values, values[1:]))


class GroundTruthModels(SpecialistOracle, GeneralistOracle):
    """Both models of a file-mode run: predicts the labels stored for the volume's
    fingerprint, and segments exactly the organ its prompts overlap most."""

    def __init__(self, labels):
        self.labels = labels  # fingerprint -> LabelMap

    def predict(self, volume):
        return self.labels[volume_fingerprint(volume)]

    def fit(self, examples, supervision="full"):
        pass

    def segment(self, volume, prompts, region=None):
        labels = self.labels[volume_fingerprint(volume)]
        roi = build_roi(prompts, 0, labels.dims)
        overlap = [int((roi & (labels.data == c)).sum()) for c in range(1, labels.num_classes)]
        mask = labels.data == 1 + int(np.argmax(overlap))
        p = np.where(mask, np.float32(0.95), np.float32(0.05))
        return mask, ProbVolume(np.stack([1.0 - p, p]))


def run_served(serve, tmp_path, labels, data, generalist=None, **config):
    """A file-mode run on ``data``, its models ``GroundTruthModels(labels)``
    (or ``generalist``) served from ``tmp_path``'s ``spec_xchg`` and ``gen_xchg``."""
    model = GroundTruthModels(labels)
    spec = serve(Server(tmp_path / "spec_xchg", specialist=model)).root
    gen = serve(Server(tmp_path / "gen_xchg", generalist=generalist or model)).root
    return run_pipeline(PipelineConfig(oracle="file", data_dir=str(data), oracle_timeout=30.0,
                                       specialist_exchange=str(spec), generalist_exchange=str(gen),
                                       out_dir=str(tmp_path / "out"), **config))


def test_file_mode_pipeline_end_to_end(tmp_path, serve):
    from promptseg import nifti_io
    suite = write_file_mode_data(tmp_path / "data", n=3, dims=(16, 16, 16), with_gt=True)
    result = run_served(serve, tmp_path, {volume_fingerprint(vol): gt for _, vol, gt in suite},
                        tmp_path / "data", rounds=1, entropy_gate_from_round=1)
    accepted = result.round_reports[0].accepted()
    assert {e.class_id for e in accepted} == {2}
    assert all(e.pseudo_dice == 1.0 for e in accepted)
    assert result.mean_dsc == 1.0  # the specialist predicts ground truth exactly
    for scan_id, _, _ in suite:
        man = nifti_io.read_manifest(tmp_path / "out" / "targets" / f"{scan_id}.manifest")
        assert man.statuses == {1: "labeled", 2: "pseudo"}


class DownOn(GroundTruthModels):
    """``GroundTruthModels`` whose generalist raises on the volume ``down``."""

    def __init__(self, labels, down):
        super().__init__(labels)
        self.down = volume_fingerprint(down)

    def segment(self, volume, prompts, region=None):
        if volume_fingerprint(volume) == self.down:
            raise RuntimeError("generalist down")
        return super().segment(volume, prompts, region)


def test_file_mode_skips_an_organ_whose_generalist_raised_at_once(tmp_path, serve):
    """The served generalist raises on one scan's request: that organ's row
    reads ``skip,oracle-error`` as soon as the error answer lands, long before
    the 30 s oracle timeout, and the other scans are accepted."""
    suite = write_file_mode_data(tmp_path / "data", n=3, dims=(16, 16, 16))
    labels = {volume_fingerprint(vol): gt for _, vol, gt in suite}
    down_id, down, _ = suite[1]
    start = time.monotonic()
    result = run_served(serve, tmp_path, labels, tmp_path / "data",
                        generalist=DownOn(labels, down), rounds=1, entropy_gate_from_round=1)
    assert time.monotonic() - start < 10.0
    rows = {row.split(",")[1]: row.split(",")[3:5] for row in
            (tmp_path / "out" / "round_1.csv").read_text().splitlines()[1:]}
    assert rows == {scan_id: ["accept", "accepted"] for scan_id, _, _ in suite} | {
        down_id: ["skip", "oracle-error"]}
    assert len(result.round_reports[0].accepted()) == 2


def test_file_mode_asks_once_while_the_stored_pseudo_label_answers(tmp_path, serve):
    """A specialist that predicts ground truth gives the same prompts in both
    rounds: each accepted organ's round-2 request is not sent, and the
    gated round re-gates it on its stored pseudo-label."""
    suite = write_file_mode_data(tmp_path / "data", n=2, dims=(12, 12, 12))
    result = run_served(serve, tmp_path, {volume_fingerprint(vol): gt for _, vol, gt in suite},
                        tmp_path / "data", rounds=2, entropy_gate_from_round=2)
    first, second = result.round_reports
    assert [(e.scan_id, e.decision) for e in first.entries] == [
        (scan_id, "accept") for scan_id, _, _ in suite]
    assert [(e.scan_id, e.decision, e.reason, e.mean_entropy) for e in second.entries] == [
        (e.scan_id, "reject", "entropy-not-decreased", e.mean_entropy) for e in first.entries]
    assert (first.requests(), second.requests(), second.regated) == (2, 0, 2)
    assert len(list(tmp_path.glob("gen_xchg/req_*.prompts"))) == len(suite)  # no second request
    assert len(list(tmp_path.glob("spec_xchg/req_*.nii"))) == 2 * len(suite)  # one predict a round


def test_file_mode_keeps_each_scans_spacing_and_orientation(tmp_path, serve):
    from promptseg import nifti_io
    from promptseg.metrics import hd95
    data, spacing = tmp_path / "data", (0.8, 1.5, 2.5)
    template = nifti_io.NiftiHeader(
        shape=(16, 16, 16), datatype=nifti_io.DT_FLOAT32, pixdim=spacing,
        vox_offset=nifti_io.VOX_OFFSET, qform_code=1, sform_code=2,
        quatern=(0.0, 0.0, 0.5, -12.0, 20.0, 31.5),
        srow=(0.0, -1.5, 0.0, 12.0, 0.8, 0.0, 0.0, -20.0, 0.0, 0.0, 2.5, 31.5), qfac=-1.0)
    suite = write_file_mode_data(data, n=3, dims=(16, 16, 16), with_gt=True, spacing=spacing,
                                 header=template)
    predicted = {volume_fingerprint(vol): LabelMap(np.roll(gt.data, 1, axis=2), gt.num_classes)
                 for _, vol, gt in suite}  # the specialist's answer: moved one slice in z
    result = run_served(serve, tmp_path, predicted, data, rounds=1, entropy_gate_from_round=1)
    for scan_id, vol, gt in suite:
        pred = predicted[volume_fingerprint(vol)].data
        for cm in result.evaluations[scan_id].per_class:
            pm, gm = pred == cm.class_id, gt.data == cm.class_id
            assert cm.hd95 == hd95(pm, gm, spacing)
            assert cm.hd95 != hd95(pm, gm)  # 1 mm would give another distance
        image_hdr, _ = nifti_io.read_nifti(data / f"{scan_id}.nii")
        target_hdr, _ = nifti_io.read_nifti(tmp_path / "out" / "targets" /
                                            f"{scan_id}.labels.nii")
        assert target_hdr.pixdim == image_hdr.pixdim
        for name in ("qform_code", "sform_code", "quatern", "srow", "qfac"):
            assert getattr(target_hdr, name) == getattr(image_hdr, name), name
    # the fit sets: every image, target and VLS mask at the scans' (0.8, 1.5, 2.5) mm
    image_hdr = nifti_io.read_nifti(data / f"{suite[0][0]}.nii")[0]
    image_pixdim = image_hdr.pixdim
    assert image_pixdim == tuple(float(np.float32(s)) for s in spacing)
    fit_files = sorted(tmp_path.glob("spec_xchg/fit_*/scan_*.nii"))
    assert {p.name.split(".", 1)[1] for p in fit_files} == {"nii", "target.nii", "mask.nii"}
    for path in fit_files:
        assert nifti_io.read_nifti(path)[0].pixdim == image_pixdim, path.name
    # and every exchange file, requests and answers included, on the image's spacing
    # and qform/sform
    requests = sorted(tmp_path.glob("*_xchg/req_*.nii"))
    assert len(requests) == 3 * len(suite)  # per scan: the round's and the evaluation's
                                            # predict, and one segment of organ 2
    answers = sorted(tmp_path.glob("*_xchg/resp_*.nii"))  # .prob.nii and segment masks
    assert len(answers) == len(requests) + len(suite)
    for path in requests + fit_files + answers:
        hdr = nifti_io.read_nifti(path)[0]
        for name in ("pixdim", "qform_code", "sform_code", "quatern", "srow", "qfac"):
            assert getattr(hdr, name) == getattr(image_hdr, name), (path.name, name)


def test_file_mode_writes_each_scan_image_once_per_exchange(tmp_path, serve, monkeypatch):
    """Every request and fit image of one scan in one exchange is one file
    under many names: written once, its bytes those of the scan on its own."""
    from promptseg import nifti_io
    data = tmp_path / "data"
    suite = write_file_mode_data(data, n=3, dims=(12, 12, 12), with_gt=True)
    scan_of = {volume_fingerprint(vol): scan_id for scan_id, vol, _ in suite}
    written, write = Counter(), nifti_io.write_volume

    def counting(path, grid, *args, **kwargs):
        if isinstance(grid, Volume):
            xchg = Path(path).relative_to(tmp_path).parts[0]
            written[xchg, scan_of[volume_fingerprint(grid)]] += 1
        return write(path, grid, *args, **kwargs)
    monkeypatch.setattr(nifti_io, "write_volume", counting)
    run_served(serve, tmp_path, {volume_fingerprint(vol): gt for _, vol, gt in suite},
               data, rounds=2, entropy_gate_from_round=2)
    monkeypatch.undo()
    images = {}
    for xchg in ("spec_xchg", "gen_xchg"):
        for path in [*tmp_path.glob(f"{xchg}/req_*.nii"),
                     *tmp_path.glob(f"{xchg}/fit_*/scan_????.nii")]:
            key = xchg, scan_of[volume_fingerprint(nifti_io.read_volume(path))]
            images.setdefault(key, []).append(path)
    assert written == Counter(dict.fromkeys(images, 1))    # one write per scan per exchange
    assert {scan_id for xchg, scan_id in images} == set(scan_of.values())
    for (xchg, scan_id), paths in images.items():
        assert len({p.stat().st_ino for p in paths}) == 1, (xchg, scan_id)
        nifti_io.write_volume(tmp_path / "fresh.nii", nifti_io.read_volume(data / f"{scan_id}.nii"))
        assert paths[0].read_bytes() == (tmp_path / "fresh.nii").read_bytes()
    # per scan: the initial fit's example, a predict and a fit example a round, and the
    # evaluation's predict
    assert {len(paths) for (xchg, _), paths in images.items() if xchg == "spec_xchg"} == {6}


def test_file_mode_outputs_do_not_depend_on_hard_links(tmp_path, serve, monkeypatch):
    """A run whose exchange cannot hard-link writes every image and leaves
    the same CSVs, targets and manifest as one that links them."""
    suite = write_file_mode_data(tmp_path / "data", n=3, dims=(12, 12, 12), with_gt=True)
    labels = {volume_fingerprint(vol): gt for _, vol, gt in suite}
    outputs, links = {}, {}

    def no_link(src, dst):
        raise OSError(errno.EPERM, "no hard links on this filesystem")
    for way in ("linked", "written"):
        root = tmp_path / way
        root.mkdir()
        if way == "written":
            monkeypatch.setattr(os, "link", no_link)
        run_served(serve, root, labels, tmp_path / "data", rounds=2, entropy_gate_from_round=2)
        out = root / "out"
        outputs[way] = {p.relative_to(out): p.read_bytes().replace(str(root).encode(), b"<root>")
                        for p in out.rglob("*") if p.is_file()}
        links[way] = max(p.stat().st_nlink for p in root.glob("spec_xchg/**/*.nii"))
    assert links == {"linked": 6, "written": 1}
    names = {str(p) for p in outputs["linked"]}
    assert "run_manifest.txt" in names and any(n.endswith(".csv") for n in names)
    assert any(n.startswith("targets/") for n in names)
    assert outputs["linked"] == outputs["written"]


def test_file_mode_pseudo_class_seeds_its_organ_state(tmp_path):
    from promptseg import nifti_io
    from promptseg.pipeline import _load_file_dataset
    data = tmp_path / "data"
    data.mkdir()
    labels = np.zeros((4, 4, 4), dtype=np.uint8)
    labels[0, :2] = 1      # ground truth
    labels[2:, 1:3] = 2    # an earlier pseudo-label
    nifti_io.write_volume(data / "s.nii", Volume(np.zeros((4, 4, 4), np.float32)))
    nifti_io.write_volume(data / "s.labels.nii", LabelMap(labels, 4))
    nifti_io.write_manifest(data / "s.manifest", nifti_io.ScanManifest(
        statuses={1: "labeled", 2: "pseudo", 3: "unlabeled"}))
    config = PipelineConfig(oracle="file", data_dir=str(data),
                            specialist_exchange=str(tmp_path / "spec"),
                            generalist_exchange=str(tmp_path / "gen"))
    (scan,), _, _, _ = _load_file_dataset(config)
    sup = scan.supervision
    state = sup.states[2]
    assert sup.pseudo == {2} and sup.target.pseudo_classes == {2}
    assert np.array_equal(paste_mask(state.current_pseudo, state.box, labels.shape), labels == 2)
    assert state.current_pseudo.shape == (2, 2, 4)  # on its box
    assert np.array_equal(state.current_conf, np.zeros(int((labels == 2).sum()), np.float32))
    assert np.array_equal(sup.partial.data, np.where(labels == 2, 0, labels))
    assert np.array_equal(merged_target(sup.partial, sup.accepted()).labels.data, labels)
    # a later organ wins every seeded voxel it claims, even at the lowest probability
    mask3 = np.zeros((4, 4, 4), dtype=bool)
    mask3[1:3, 1:3] = True
    sup = replace(sup, states={**sup.states, 3: accept(sup.states[3], mask3, np.float32(0.4))})
    merged = merged_target(sup.partial, sup.accepted()).labels.data
    assert (merged[mask3 & (labels == 2)] == 3).all()
    assert (merged[(labels == 2) & ~mask3] == 2).all()
    # the seeded voxels stay until the class is accepted again
    shrunk = labels == 2
    shrunk[3] = False
    sup = replace(sup, states={**sup.states, 2: accept(state, shrunk, np.float32(0.9))})
    again = merged_target(sup.partial, sup.accepted()).labels.data
    assert np.array_equal(again == 2, shrunk)
    assert (again[(labels == 2) & ~shrunk] == 0).all()


def test_phantom_volumes_carry_the_configured_spacing():
    from promptseg.pipeline import _build_phantom_dataset
    config = PipelineConfig(scans=2, test_scans=1, organs=2, dims=(16, 16, 16),
                            spacing=(2.0, 1.0, 0.5))
    train, test, _, _ = _build_phantom_dataset(config)
    assert {s.volume.spacing for s in train} | {v.spacing for _, v, _ in test} == {
        (2.0, 1.0, 0.5)}


def write_file_mode_data(data, n=2, dims=(12, 12, 12), seed=21, with_gt=False,
                         spacing=(1.0, 1.0, 1.0), header=None):
    """File-mode data: phantom scans, organ 2 unannotated, their images on
    ``header``'s orientation, ground truth if ``with_gt``; returns the suite."""
    from promptseg import nifti_io
    data.mkdir()
    suite = make_phantom_suite(n, 2, dims, seed=seed, spacing=spacing)
    for scan_id, vol, gt in suite:
        nifti_io.write_volume(data / f"{scan_id}.nii", Volume(vol.data, spacing, header=header))
        if with_gt:
            nifti_io.write_volume(data / f"{scan_id}.gt.nii", gt)
        partial = np.array(gt.data)
        partial[partial == 2] = 0
        nifti_io.write_volume(data / f"{scan_id}.labels.nii",
                              LabelMap(partial, gt.num_classes))
        nifti_io.write_manifest(data / f"{scan_id}.manifest",
                                nifti_io.ScanManifest(statuses={1: "labeled",
                                                                2: "unlabeled"}))
    return suite


def test_file_mode_takes_each_exchange_dir_from_its_key_only(tmp_path, monkeypatch):
    """A missing or empty exchange key is a config error naming it, raised
    before any directory exists; the environment never fills one in."""
    write_file_mode_data(tmp_path / "data")
    env_xchg, out = tmp_path / "env_xchg", tmp_path / "out"
    monkeypatch.setenv("PROMPTSEG_EXCHANGE", str(env_xchg))
    for missing in ("specialist_exchange", "generalist_exchange"):
        for value in (None, ""):
            exchanges = {"specialist_exchange": str(tmp_path / "sx"),
                         "generalist_exchange": str(tmp_path / "gx"), missing: value}
            config = PipelineConfig(oracle="file", data_dir=str(tmp_path / "data"),
                                    oracle_timeout=0.5, rounds=1, entropy_gate_from_round=1,
                                    out_dir=str(out), **exchanges)
            with pytest.raises(ConfigError, match=f"requires {missing}$"):
                run_pipeline(config)
            assert not any(p.exists() for p in (env_xchg, out, tmp_path / "sx", tmp_path / "gx"))


def test_file_mode_refuses_equal_exchange_paths(tmp_path, monkeypatch):
    monkeypatch.delenv("PROMPTSEG_EXCHANGE", raising=False)
    write_file_mode_data(tmp_path / "data")
    xchg = tmp_path / "xchg"
    config = PipelineConfig(oracle="file", data_dir=str(tmp_path / "data"),
                            specialist_exchange=str(xchg),
                            generalist_exchange=str(tmp_path / "." / "xchg"),
                            oracle_timeout=0.5, rounds=1, entropy_gate_from_round=1,
                            out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="share the exchange directory"):
        run_pipeline(config)
    assert not list(xchg.glob("req_*")) and not list(xchg.glob("fit_*"))


def test_file_mode_gt_that_is_not_a_label_image_is_a_config_error(tmp_path):
    from promptseg import nifti_io
    write_file_mode_data(tmp_path / "data")
    nifti_io.write_volume(tmp_path / "data" / "scan001.gt.nii",
                          Volume(np.zeros((12, 12, 12), np.float32)))
    spec, gen = tmp_path / "spec", tmp_path / "gen"
    config = PipelineConfig(oracle="file", data_dir=str(tmp_path / "data"),
                            specialist_exchange=str(spec), generalist_exchange=str(gen),
                            oracle_timeout=0.5, rounds=1, entropy_gate_from_round=1,
                            out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match=r"scan001: .*scan001\.gt\.nii: must be a uint8 label "
                                          r"image on dims \(12, 12, 12\), not a float32 3D image"):
        run_pipeline(config)
    assert not list(spec.glob("req_*")) and not list(spec.glob("fit_*"))


def test_phantom_run_is_byte_identical_with_and_without_the_helper(tmp_path, monkeypatch):
    """Phantom batches computed by the caller and a helper thread give the
    outputs of one thread: every CSV and every file under ``targets/``."""
    from promptseg import phantom
    outputs = []
    for cpus in (2, 1):
        monkeypatch.setattr(phantom, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        run_pipeline(PipelineConfig(keep_fraction=0.33, rounds=3, entropy_gate_from_round=2,
                                    scans=9, test_scans=3, organs=5, dims=(24, 22, 20),
                                    generalist_cooperativeness=0.6, seed=7, out_dir=str(out)))
        files = sorted(out.glob("*.csv")) + sorted((out / "targets").iterdir())
        outputs.append({f.relative_to(out).as_posix(): f.read_bytes() for f in files})
    assert len(outputs[0]) > 9 * 2 and outputs[0] == outputs[1]


@pytest.mark.parametrize("keep_fraction", [1.0, 0.5])
def test_run_predicts_each_scan_once_per_round(tmp_path, monkeypatch, keep_fraction):
    predicted = []
    real_predict = PhantomSpecialist.predict

    def counting_predict(self, volume, **kwargs):
        predicted.append(volume_fingerprint(volume))
        return real_predict(self, volume, **kwargs)

    monkeypatch.setattr(PhantomSpecialist, "predict", counting_predict)
    config = PipelineConfig(keep_fraction=keep_fraction, rounds=2, entropy_gate_from_round=1,
                            scans=4, test_scans=2, organs=3, dims=(16, 16, 16),
                            use_vls=True, seed=3, out_dir=str(tmp_path / "out"))
    result = run_pipeline(config)
    suite = make_phantom_suite(6, 3, (16, 16, 16), seed=3)
    unlabeled = [volume_fingerprint(vol) for scan_id, vol, gt in suite[:4]
                 if simulate_partial_labels(gt, 4, keep_fraction, 3, scan_id).unlabeled]
    test_fps = [volume_fingerprint(vol) for _, vol, _ in suite[4:]]
    assert len(unlabeled) == (0 if keep_fraction == 1.0 else 4)
    # per round: each training scan with an unlabeled organ once (prompts and
    # VLS masks read the same prediction), then the final evaluation
    assert predicted == unlabeled * config.rounds + test_fps
    assert all(bool(report.entries) == bool(unlabeled) for report in result.round_reports)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "rounds = 3\n"
        "entropy_gate_from_round = 2\n"
        "keep_fraction = 0.33\n"
        "use_vls = false\n"
        "dims = 20,20,20\n"
        "supervision = partial\n"
        "out_dir = runs/x\n")
    config = load_config(path)
    assert config.rounds == 3
    assert config.keep_fraction == 0.33
    assert config.use_vls is False
    assert config.dims == (20, 20, 20)
    assert config.out_dir == "runs/x"
    path.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("rounds 3\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(rounds=4, entropy_gate_from_round=5)
    with pytest.raises(ConfigError):
        PipelineConfig(keep_fraction=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(supervision="semi")
    with pytest.raises(ConfigError):
        PipelineConfig(oracle="magic")
    PipelineConfig(rounds=0, entropy_gate_from_round=2)  # vacuous when no rounds


def test_hd95_missing_policy_reaches_every_hd95_output(tmp_path):
    from promptseg.metrics import volume_diagonal
    diag = f"{volume_diagonal((32, 32, 32), (1.0, 1.0, 1.0)):.6f}"
    results, rows = {}, {}
    for policy in ("exclude", "max_diag"):
        results[policy] = run_pipeline(PipelineConfig(
            seed=7, rounds=0, keep_fraction=0.33, scans=3, test_scans=2, organs=6,
            hd95_missing_policy=policy, out_dir=str(tmp_path / policy)))
        rows[policy] = [line.split(",") for line in
                        (tmp_path / policy / "final_eval.csv").read_text().splitlines()[1:]]
    # an organ the specialist never saw is missing from the prediction
    missing = [i for i, row in enumerate(rows["exclude"]) if row[3] == ""]
    assert missing and all(rows["exclude"][i][2] == "0.000000" for i in missing)
    for i, (excluded, filled) in enumerate(zip(rows["exclude"], rows["max_diag"])):
        assert filled[:3] == excluded[:3]
        assert filled[3] == (diag if i in missing else excluded[3])
    overall = {policy: (tmp_path / policy / "final_summary.csv").read_text()
               .splitlines()[-1].split(",") for policy in rows}
    assert overall["exclude"][:2] == overall["max_diag"][:2]
    assert float(overall["max_diag"][2]) > float(overall["exclude"][2])
    for policy, result in results.items():
        assert overall[policy][2] == f"{result.mean_hd95:.6f}"
        assert overall[policy][1] == f"{result.mean_dsc:.6f}"
    assert results["max_diag"].mean_hd95 > results["exclude"].mean_hd95


def test_file_mode_bad_inputs_create_no_directories(tmp_path):
    from promptseg import nifti_io
    write_file_mode_data(tmp_path / "good")
    empty = tmp_path / "empty"
    empty.mkdir()
    contradicting = tmp_path / "contradicting"
    scan_id, _, gt = write_file_mode_data(contradicting)[1]
    assert scan_id == "scan001"  # its labels now hold organ 2, which its manifest leaves unlabeled
    nifti_io.write_volume(contradicting / "scan001.labels.nii", gt)
    stray = tmp_path / "stray"
    write_file_mode_data(stray, with_gt=True)
    stray_gt = nifti_io.read_volume(stray / "scan001.gt.nii").data.copy()
    stray_gt[0, 0, 0] = 5                   # a class past the manifest's and labels' 3
    nifti_io.write_volume(stray / "scan001.gt.nii", LabelMap(stray_gt, 6))
    out, sx, gx = tmp_path / "out", tmp_path / "sx", tmp_path / "gx"
    cases = [
        (dict(data_dir=None), "requires data_dir"),
        (dict(data_dir=str(empty)), "no \\*.manifest"),
        (dict(data_dir=str(tmp_path / "absent")), "no \\*.manifest"),
        (dict(data_dir=str(tmp_path / "good"), generalist_exchange=str(tmp_path / "sx")),
         "share the exchange directory"),
        (dict(data_dir=str(contradicting)),
         r"scan001: classes \[2\] have labels but are neither labeled nor pseudo"),
        (dict(data_dir=str(stray)), r"scan001: scan001\.gt\.nii: label 5 >= num_classes 3"),
    ]
    for overrides, message in cases:
        config = PipelineConfig(**{**dict(oracle="file", specialist_exchange=str(sx),
                                          generalist_exchange=str(gx), out_dir=str(out)),
                                   **overrides})
        with pytest.raises(ConfigError, match=message):
            run_pipeline(config)
        assert not out.exists() and not sx.exists() and not gx.exists(), overrides


@pytest.mark.parametrize("suffix", ["labels", "gt"])
def test_file_mode_label_images_off_the_image_grid_create_nothing(tmp_path, suffix):
    from promptseg import nifti_io
    write_file_mode_data(tmp_path / "data")
    nifti_io.write_volume(tmp_path / "data" / f"scan001.{suffix}.nii",  # image is 12^3
                          LabelMap(np.zeros((12, 12, 9), np.uint8), 3))
    out, sx, gx = tmp_path / "out", tmp_path / "sx", tmp_path / "gx"
    config = PipelineConfig(oracle="file", data_dir=str(tmp_path / "data"),
                            specialist_exchange=str(sx), generalist_exchange=str(gx),
                            oracle_timeout=0.5, rounds=1, entropy_gate_from_round=1,
                            out_dir=str(out))
    with pytest.raises(ConfigError, match=rf"scan001: .*scan001\.{suffix}\.nii: must be a uint8 "
                                          r"label image on dims \(12, 12, 12\), not a uint8 "
                                          r"label image on \(12, 12, 9\)"):
        run_pipeline(config)
    assert not out.exists() and not sx.exists() and not gx.exists()
    assert not list(tmp_path.rglob("req_*")) and not list(tmp_path.rglob("fit_*"))
