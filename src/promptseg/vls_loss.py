"""Voxel-level selection mask and the masked losses it modulates.

The selection mask keeps a pseudo-labeled voxel only when the model's current
predicted label agrees with it; voxels carrying ground truth are always kept.
Both losses and their analytic gradients are computed in 64-bit; gradients
are with respect to the probabilities (composing with a softmax Jacobian is
the caller's concern), which keeps this module framework-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError
from .volgrid import LabelMap, ProbVolume

CE_PROB_FLOOR = 1e-12
DICE_EPS = 1e-5


@dataclass(frozen=True)
class SupervisionTarget:
    """Per-scan training target: a label map mixing ground truth and pseudo-
    labels, plus the set of classes whose voxels originate from pseudo-labels
    (background is never pseudo)."""

    labels: LabelMap
    pseudo_classes: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "pseudo_classes", frozenset(int(c) for c in self.pseudo_classes))
        bad = [c for c in self.pseudo_classes if not 1 <= c < self.labels.num_classes]
        if bad:
            raise RejectedInputError(f"pseudo classes outside 1..C-1: {sorted(bad)}")


def _check_pred(pred: ProbVolume | LabelMap, target: SupervisionTarget,
                mask: np.ndarray | None):
    if pred.dims != target.labels.dims:
        raise RejectedInputError(f"prediction dims {pred.dims} vs target dims {target.labels.dims}")
    if pred.num_classes != target.labels.num_classes:
        raise RejectedInputError(
            f"prediction has {pred.num_classes} classes, target {target.labels.num_classes}")
    if mask is not None and mask.shape != target.labels.dims:
        raise RejectedInputError(f"mask dims {mask.shape} vs target dims {target.labels.dims}")


def vls_mask(pred: LabelMap, target: SupervisionTarget) -> np.ndarray:
    """Voxel selection mask: 1 where the target label is not pseudo, else the
    indicator that the specialist's predicted label equals the target label."""
    if not isinstance(pred, LabelMap):
        raise RejectedInputError(f"vls_mask takes predicted labels, got {type(pred).__name__}")
    _check_pred(pred, target, None)
    y = target.labels.data
    if not target.pseudo_classes:
        return np.ones(y.shape, dtype=bool)
    is_pseudo = np.isin(y, sorted(target.pseudo_classes))
    return np.where(is_pseudo, pred.data == y, True)


def masked_cross_entropy(pred: ProbVolume, target: SupervisionTarget,
                         mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean -ln p_y over selected voxels, normalized by the selected count.

    Returns (loss, gradient) with the gradient -m(v) / (N_m * p_y(v)) at the
    target class and 0 elsewhere.  An all-zero mask yields loss 0 and zero
    gradient (no supervised voxels).
    """
    _check_pred(pred, target, mask)
    p = pred.data.astype(np.float64)
    y = target.labels.data.astype(np.int64)[None]
    m = mask.astype(np.float64)
    n_sel = float(m.sum())
    denom = max(1.0, n_sel)
    p_y = np.maximum(np.take_along_axis(p, y, axis=0)[0], CE_PROB_FLOOR)
    loss = float((m * -np.log(p_y)).sum() / denom)
    grad = np.zeros_like(p)
    np.put_along_axis(grad, y, (-m / (denom * p_y))[None], axis=0)
    return loss, grad


def masked_soft_dice(pred: ProbVolume, target: SupervisionTarget,
                     mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft Dice over masked voxels, averaged across the foreground classes
    present in the masked target.

    Per class c: D_c = (2 sum(m p_c t_c) + eps) / (sum(m p_c) + sum(m t_c) + eps)
    with t_c the one-hot target and eps = 1e-5; loss = 1 - mean_c D_c.  The
    mask multiplies both prediction and one-hot target, zeroing unreliable
    voxels out of numerator and denominator symmetrically.  With no
    foreground class under the mask the loss is 0 by convention.
    """
    _check_pred(pred, target, mask)
    p = pred.data.astype(np.float64)
    y = target.labels.data
    m = mask.astype(np.float64)
    grad = np.zeros_like(p)
    dices = []
    included = []
    for c in range(1, pred.num_classes):
        t = (y == c).astype(np.float64)
        tm_sum = float((m * t).sum())
        if tm_sum == 0.0:
            continue
        pm = m * p[c]
        inter = float((pm * t).sum())
        num = 2.0 * inter + DICE_EPS
        den = float(pm.sum()) + tm_sum + DICE_EPS
        dices.append(num / den)
        included.append(c)
        grad[c] = m * (2.0 * t * den - num) / (den * den)
    if not included:
        return 0.0, np.zeros_like(p)
    k = float(len(included))
    loss = 1.0 - sum(dices) / k
    out = np.zeros_like(p)
    out[included] = grad[included] * (-1.0 / k)
    return float(loss), out
