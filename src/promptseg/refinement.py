"""Pseudo-label refinement: the three acceptance constraints for candidates.

A candidate mask survives (1) a class-probability threshold, (2) an ROI
constraint built from the organ's box-prompt pair, and (3) an entropy gate
comparing the candidate's mean voxel entropy against the last accepted
round's.  Filtering is contractive: the refined mask is always a subset of
the candidate, and the two voxel filters commute.  Refinement returns the
organ's next state and modifies nothing it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, RejectedInputError
from .prompting import BoxPromptPair
from .volgrid import ProbVolume, voxel_entropy

DEFAULT_TAU_CLS = 0.4
DEFAULT_DELTA_ROI = 3

ACCEPTED = "accepted"
REJECT_ENTROPY = "entropy-not-decreased"
REJECT_EMPTIED = "emptied"


@dataclass
class RefinementConfig:
    tau_cls: float = DEFAULT_TAU_CLS
    delta_roi: int = DEFAULT_DELTA_ROI
    entropy_gate_active: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau_cls < 1.0:
            raise RejectedInputError(f"tau_cls must lie in (0, 1), got {self.tau_cls}")
        if self.delta_roi < 0:
            raise RejectedInputError(f"delta_roi must be nonnegative, got {self.delta_roi}")


@dataclass(frozen=True)
class OrganRefinementState:
    """Per-(scan, organ) refinement memory: the stored pseudo-label, the
    generalist probability at its voxels (1-D, C order) and the mean entropy
    of the last accepted round, which the entropy gate compares against.
    States for different organs/scans are independent."""

    class_id: int
    current_pseudo: np.ndarray | None = None
    current_conf: np.ndarray | None = None
    mean_entropy: float | None = None


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of one refinement attempt.  ``mask`` is the filtered candidate
    and ``state`` the organ's state after the attempt: the accepted mask on
    accept, the given state itself on reject."""

    mask: np.ndarray
    accepted: bool
    reason: str
    mean_entropy: float | None
    state: OrganRefinementState


def _check_dims(a_shape, b_shape, what: str):
    if tuple(a_shape) != tuple(b_shape):
        raise RejectedInputError(f"{what}: dims {tuple(a_shape)} vs {tuple(b_shape)}")


def apply_class_threshold(candidate: np.ndarray, probs: ProbVolume, class_id: int,
                          tau_cls: float) -> np.ndarray:
    """Keep candidate voxels whose class probability is >= tau_cls."""
    _check_dims(candidate.shape, probs.dims, "candidate vs probabilities")
    return candidate & (probs.class_probs(class_id) >= tau_cls)


def roi_ranges(prompts: BoxPromptPair, delta_roi: int,
               dims: tuple[int, int, int]) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Inclusive (y, x, z) ranges of the 3D ROI implied by a prompt pair.

    The x-extent comes from the axial box, the z-extent from the sagittal
    box, and the y-extent is the union of the two boxes' y-extents (the
    permissive reading; a non-central median slice must not exclude true
    organ voxels).  Each range is then widened by delta_roi and clamped.
    """
    H, W, D = dims
    ax, sg = prompts.axial, prompts.sagittal
    if ax.hi[0] >= H or ax.hi[1] >= W or ax.slice_index >= D:
        raise RejectedInputError("axial box outside volume dims")
    if sg.hi[0] >= H or sg.hi[1] >= D or sg.slice_index >= W:
        raise RejectedInputError("sagittal box outside volume dims")
    y_lo = min(ax.lo[0], sg.lo[0]) - delta_roi
    y_hi = max(ax.hi[0], sg.hi[0]) + delta_roi
    x_lo, x_hi = ax.lo[1] - delta_roi, ax.hi[1] + delta_roi
    z_lo, z_hi = sg.lo[1] - delta_roi, sg.hi[1] + delta_roi
    return (
        (max(0, y_lo), min(H - 1, y_hi)),
        (max(0, x_lo), min(W - 1, x_hi)),
        (max(0, z_lo), min(D - 1, z_hi)),
    )


def build_roi(prompts: BoxPromptPair, delta_roi: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Binary 3D ROI from the two orthogonal prompt boxes plus dilation."""
    (y0, y1), (x0, x1), (z0, z1) = roi_ranges(prompts, delta_roi, dims)
    roi = np.zeros(dims, dtype=bool)
    roi[y0:y1 + 1, x0:x1 + 1, z0:z1 + 1] = True
    return roi


def apply_roi(candidate: np.ndarray, roi: np.ndarray) -> np.ndarray:
    """Zero candidate voxels outside the ROI (elementwise AND)."""
    _check_dims(candidate.shape, roi.shape, "candidate vs ROI")
    return candidate & roi


def mean_mask_entropy(mask: np.ndarray, entropy_field: np.ndarray) -> float:
    """Arithmetic mean of the entropy field over the mask's voxels."""
    _check_dims(mask.shape, entropy_field.shape, "mask vs entropy field")
    if not mask.any():
        raise EmptyMaskError("mean entropy over an empty mask is undefined")
    return float(entropy_field[mask].mean(dtype=np.float64))


def entropy_gate(prev: float | None, candidate_mean_entropy: float,
                 gate_active: bool) -> bool:
    """Accept unless the gate is active and the entropy failed to strictly
    decrease relative to ``prev``, the last *accepted* round's (``None``
    before the first accept)."""
    return not gate_active or prev is None or candidate_mean_entropy < prev


def refine_pseudo_label(candidate: np.ndarray, probs: ProbVolume, prompts: BoxPromptPair,
                        config: RefinementConfig, state: OrganRefinementState) -> RefinementResult:
    """Run all three constraints on a candidate pseudo-label.

    ``probs`` is the generalist's 2-class (background, organ) field; any
    other class count is a ``RejectedInputError``.  On accept the result's
    state holds the kept mask, the organ probability at its voxels and the
    mask's mean entropy; on reject it is ``state`` itself.  Nothing given is
    modified.  A candidate emptied by the voxel filters is a rejection, never
    an empty accepted pseudo-label.
    """
    if probs.num_classes != 2:
        raise RejectedInputError(
            f"refinement takes 2-class probabilities, got {probs.num_classes} classes")
    kept = apply_class_threshold(candidate, probs, 1, config.tau_cls)
    kept = apply_roi(kept, build_roi(prompts, config.delta_roi, candidate.shape))
    if not kept.any():
        return RefinementResult(kept, False, REJECT_EMPTIED, None, state)
    h = mean_mask_entropy(kept, voxel_entropy(probs))
    if not entropy_gate(state.mean_entropy, h, config.entropy_gate_active):
        return RefinementResult(kept, False, REJECT_ENTROPY, h, state)
    conf = probs.class_probs(1)[kept]
    kept.flags.writeable = conf.flags.writeable = False
    return RefinementResult(kept, True, ACCEPTED, h,
                            OrganRefinementState(state.class_id, kept, conf, h))
