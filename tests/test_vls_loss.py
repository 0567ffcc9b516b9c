import itertools
import math

import numpy as np
import pytest

from promptseg.errors import RejectedInputError
from promptseg.vls_loss import (SupervisionTarget, masked_cross_entropy,
                                masked_soft_dice, vls_mask)
from promptseg.volgrid import (LabelMap, ProbVolume, argmax_labelmap,
                              softmax_from_logits)

DICE_EPS = 1e-5


def random_instance(rng, dims=(4, 4, 4), C=3, pseudo=(2,)):
    logits = rng.normal(0, 2, size=(C,) + dims).astype(np.float32)
    pred = softmax_from_logits(logits)
    labels = LabelMap(rng.integers(0, C, size=dims).astype(np.uint8), C)
    target = SupervisionTarget(labels, frozenset(pseudo))
    mask = rng.random(dims) < 0.7
    return pred, target, mask


def brute_force_vls(pred, target):
    # literal per-voxel evaluation of the selection rule
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


def test_vls_mask_all_ones_without_pseudo_classes():
    rng = np.random.default_rng(0)
    pred, target, _ = random_instance(rng, pseudo=())
    assert vls_mask(argmax_labelmap(pred), target).all()


def test_vls_mask_agreement_rule():
    probs = np.zeros((4, 1, 1, 1), dtype=np.float32)
    probs[3] = 1.0
    pred = ProbVolume(probs)
    labels = LabelMap(np.full((1, 1, 1), 3, dtype=np.uint8), 4)
    target = SupervisionTarget(labels, frozenset({3}))
    assert vls_mask(argmax_labelmap(pred), target)[0, 0, 0]
    probs2 = np.zeros((4, 1, 1, 1), dtype=np.float32)
    probs2[0] = 1.0
    assert not vls_mask(argmax_labelmap(ProbVolume(probs2)), target)[0, 0, 0]


def test_vls_mask_matches_brute_force_randomized():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pseudo = tuple(rng.choice([1, 2], size=rng.integers(0, 3), replace=False))
        pred, target, _ = random_instance(rng, dims=(3, 3, 3), pseudo=pseudo)
        assert np.array_equal(vls_mask(argmax_labelmap(pred), target),
                              brute_force_vls(pred, target))


def test_vls_mask_exhaustive_small_grid():
    # all 2x2x2 label maps for C=3 and all pseudo sets, vs the brute-force rule
    rng = np.random.default_rng(2)
    dims = (2, 2, 2)
    pseudo_sets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    count = 0
    for flat in itertools.product(range(3), repeat=8):
        labels = LabelMap(np.array(flat, dtype=np.uint8).reshape(dims), 3)
        pred = softmax_from_logits(rng.normal(0, 2, size=(3,) + dims).astype(np.float32))
        for ps in pseudo_sets:
            target = SupervisionTarget(labels, ps)
            assert np.array_equal(vls_mask(argmax_labelmap(pred), target),
                                  brute_force_vls(pred, target))
            count += 1
    assert count == 3 ** 8 * 4


def test_vls_monotone_under_pseudo_growth():
    rng = np.random.default_rng(3)
    pred, target, _ = random_instance(rng, pseudo=(1,))
    bigger = SupervisionTarget(target.labels, frozenset({1, 2}))
    m1 = vls_mask(argmax_labelmap(pred), target)
    m2 = vls_mask(argmax_labelmap(pred), bigger)
    assert not (m2 & ~m1).any()  # entries only ever flip 1 -> 0


def test_vls_mask_rejects_probabilities():
    rng = np.random.default_rng(4)
    pred, target, _ = random_instance(rng, pseudo=(1,))
    with pytest.raises(RejectedInputError, match="predicted labels"):
        vls_mask(pred, target)
    with pytest.raises(RejectedInputError):
        vls_mask(pred.data, target)


def test_cross_entropy_examples():
    onehot = np.zeros((2, 2, 2, 2), dtype=np.float32)
    onehot[1] = 1.0
    pred = ProbVolume(onehot)
    target = SupervisionTarget(LabelMap(np.ones((2, 2, 2), dtype=np.uint8), 2))
    full = np.ones((2, 2, 2), dtype=bool)
    loss, grad = masked_cross_entropy(pred, target, full)
    assert loss == 0.0
    inv_e = 1.0 / math.e
    pred1 = ProbVolume(np.array([1.0 - inv_e, inv_e], dtype=np.float32).reshape(2, 1, 1, 1))
    target1 = SupervisionTarget(LabelMap(np.ones((1, 1, 1), dtype=np.uint8), 2))
    loss1, grad1 = masked_cross_entropy(pred1, target1, np.ones((1, 1, 1), dtype=bool))
    assert loss1 == pytest.approx(1.0, abs=1e-6)
    assert grad1[1, 0, 0, 0] == pytest.approx(-math.e, rel=1e-6)
    assert grad1[0, 0, 0, 0] == 0.0
    loss0, grad0 = masked_cross_entropy(pred1, target1, np.zeros((1, 1, 1), dtype=bool))
    assert loss0 == 0.0 and not grad0.any()


def test_soft_dice_examples():
    rng = np.random.default_rng(4)
    dims = (4, 4, 4)
    labels = LabelMap(rng.integers(0, 3, size=dims).astype(np.uint8), 3)
    onehot = np.zeros((3,) + dims, dtype=np.float32)
    for c in range(3):
        onehot[c][labels.data == c] = 1.0
    target = SupervisionTarget(labels)
    full = np.ones(dims, dtype=bool)
    loss, _ = masked_soft_dice(ProbVolume(onehot), target, full)
    assert loss == pytest.approx(0.0, abs=1e-4)
    # prediction foreground disjoint from target foreground
    flipped = np.zeros((3,) + dims, dtype=np.float32)
    flipped[0][labels.data != 0] = 1.0
    flipped[1][labels.data == 0] = 1.0
    loss_disjoint, _ = masked_soft_dice(ProbVolume(flipped), target, full)
    assert loss_disjoint == pytest.approx(1.0, abs=1e-3)


def test_soft_dice_half_overlap_against_direct_formula():
    # oracle: re-evaluate the stated formula in 64-bit, independently
    rng = np.random.default_rng(5)
    pred, target, mask = random_instance(rng)
    loss, _ = masked_soft_dice(pred, target, mask)
    p = pred.data.astype(np.float64)
    y = target.labels.data
    m = mask.astype(np.float64)
    dices = []
    for c in range(1, 3):
        t = (y == c).astype(np.float64)
        if (m * t).sum() == 0:
            continue
        num = 2 * (m * p[c] * t).sum() + DICE_EPS
        den = (m * p[c]).sum() + (m * t).sum() + DICE_EPS
        dices.append(num / den)
    expected = 1.0 - np.mean(dices)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_no_foreground_under_mask_is_zero_loss():
    rng = np.random.default_rng(6)
    pred, _, _ = random_instance(rng)
    target = SupervisionTarget(LabelMap(np.zeros((4, 4, 4), dtype=np.uint8), 3))
    loss, grad = masked_soft_dice(pred, target, np.ones((4, 4, 4), dtype=bool))
    assert loss == 0.0 and not grad.any()


def _fd_check(loss_fn, pred, target, mask, rng, n_coords=10, tol=1e-4):
    _, grad = loss_fn(pred, target, mask)
    dims = pred.dims
    C = pred.num_classes
    base = pred.data
    for _ in range(n_coords):
        c = int(rng.integers(0, C))
        idx = tuple(int(rng.integers(0, d)) for d in dims)
        if not 1e-5 < float(base[(c,) + idx]) < 1.0 - 1e-5:
            continue  # keep the perturbed field a valid probability volume
        plus = np.array(base)
        minus = np.array(base)
        plus[(c,) + idx] += 1e-6
        minus[(c,) + idx] -= 1e-6
        step = float(plus[(c,) + idx]) - float(minus[(c,) + idx])
        lp, _ = loss_fn(ProbVolume(plus), target, mask)
        lm, _ = loss_fn(ProbVolume(minus), target, mask)
        fd = (lp - lm) / step
        an = float(grad[(c,) + idx])
        scale = max(abs(fd), abs(an))
        if scale > 1e-9:
            assert abs(fd - an) / scale < tol, (c, idx, fd, an)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pred, target, mask = random_instance(rng)
        _fd_check(masked_cross_entropy, pred, target, mask, rng)
        _fd_check(masked_soft_dice, pred, target, mask, rng)


def test_all_ones_mask_equals_unmasked_loss():
    rng = np.random.default_rng(8)
    pred, target, _ = random_instance(rng)
    full = np.ones(pred.dims, dtype=bool)
    ce_loss, _ = masked_cross_entropy(pred, target, full)
    # independent unmasked CE
    p = pred.data.astype(np.float64)
    y = target.labels.data.astype(np.int64)
    p_y = np.take_along_axis(p, y[None], axis=0)[0]
    expected_ce = float(np.mean(-np.log(np.maximum(p_y, 1e-12))))
    assert abs(ce_loss - expected_ce) < 1e-12
    dice_loss, _ = masked_soft_dice(pred, target, full)
    dices = []
    for c in range(1, 3):
        t = (y == c).astype(np.float64)
        if t.sum() == 0:
            continue
        num = 2 * (p[c] * t).sum() + DICE_EPS
        den = p[c].sum() + t.sum() + DICE_EPS
        dices.append(num / den)
    expected_dice = 1.0 - float(np.mean(dices))
    assert abs(dice_loss - expected_dice) < 1e-12


def test_losses_permutation_equivariant():
    rng = np.random.default_rng(9)
    pred, target, mask = random_instance(rng, C=4, pseudo=(2,))
    perm = np.array([0, 3, 1, 2])  # consistent relabeling, background fixed
    inv = np.argsort(perm)
    pred_p = ProbVolume(np.ascontiguousarray(pred.data[inv]))
    labels_p = LabelMap(perm[target.labels.data].astype(np.uint8), 4)
    target_p = SupervisionTarget(labels_p, frozenset(int(perm[c]) for c in target.pseudo_classes))
    for fn in (masked_cross_entropy, masked_soft_dice):
        l0, _ = fn(pred, target, mask)
        l1, _ = fn(pred_p, target_p, mask)
        assert l0 == pytest.approx(l1, rel=1e-12)


def test_pseudo_background_rejected():
    labels = LabelMap(np.zeros((2, 2, 2), dtype=np.uint8), 3)
    with pytest.raises(Exception):
        SupervisionTarget(labels, frozenset({0}))
