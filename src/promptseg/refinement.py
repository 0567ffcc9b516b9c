"""Pseudo-label refinement: the three acceptance constraints for candidates.

A candidate mask survives (1) a class-probability threshold, (2) an ROI
constraint built from the organ's box-prompt pair, and (3) an entropy gate
comparing the candidate's mean voxel entropy against the last accepted
round's.  Filtering is contractive: the refined mask is always a subset of
the candidate, and the two voxel filters commute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class OrganRefinementState:
    """Per-(scan, organ) refinement memory: the stored pseudo-label, the
    generalist probability at its voxels (1-D, C order) and the mean
    entropies of accepted rounds.  Single-writer; states for different
    organs/scans are independent."""

    class_id: int
    current_pseudo: np.ndarray | None = None
    current_conf: np.ndarray | None = None
    mean_entropy_history: list[float] = field(default_factory=list)

    @property
    def last_accepted_entropy(self) -> float | None:
        return self.mean_entropy_history[-1] if self.mean_entropy_history else None


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of one refinement attempt.  ``mask`` is the filtered candidate;
    on rejection the state's previously stored pseudo-label is what remains
    in effect."""

    mask: np.ndarray
    accepted: bool
    reason: str
    mean_entropy: float | None


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


def entropy_gate(state: OrganRefinementState, candidate_mean_entropy: float,
                 gate_active: bool) -> bool:
    """Accept unless the gate is active and the entropy failed to strictly
    decrease relative to the last *accepted* round (a rejected round leaves
    the comparator unchanged).  The candidate entropy is appended to the
    state's history only on accept."""
    prev = state.last_accepted_entropy
    if gate_active and prev is not None and not candidate_mean_entropy < prev:
        return False
    state.mean_entropy_history.append(float(candidate_mean_entropy))
    return True


def refine_pseudo_label(candidate: np.ndarray, probs: ProbVolume, prompts: BoxPromptPair,
                        config: RefinementConfig, state: OrganRefinementState,
                        prob_class: int | None = None) -> RefinementResult:
    """Run all three constraints on a candidate pseudo-label.

    ``prob_class`` selects the class axis of ``probs`` carrying the organ's
    probability; it defaults to 1 for two-class (background/organ) fields and
    to ``prompts.class_id`` otherwise.  On accept the state's pseudo-label
    and its probabilities are replaced and its entropy history extended; on
    reject the state is left untouched.  A candidate emptied by the voxel
    filters is a rejection, never an empty accepted pseudo-label.
    """
    if prob_class is None:
        prob_class = 1 if probs.num_classes == 2 else prompts.class_id
    kept = apply_class_threshold(candidate, probs, prob_class, config.tau_cls)
    kept = apply_roi(kept, build_roi(prompts, config.delta_roi, candidate.shape))
    if not kept.any():
        return RefinementResult(kept, False, REJECT_EMPTIED, None)
    h = mean_mask_entropy(kept, voxel_entropy(probs))
    if not entropy_gate(state, h, config.entropy_gate_active):
        return RefinementResult(kept, False, REJECT_ENTROPY, h)
    conf = probs.class_probs(prob_class)[kept]
    kept.flags.writeable = conf.flags.writeable = False
    state.current_pseudo, state.current_conf = kept, conf
    return RefinementResult(kept, True, ACCEPTED, h)
