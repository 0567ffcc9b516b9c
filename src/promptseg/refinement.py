"""Pseudo-label refinement: the three acceptance constraints for candidates.

A candidate mask survives (1) a class-probability threshold, (2) an ROI
constraint built from the organ's box-prompt pair, and (3) an entropy gate
comparing the candidate's mean voxel entropy against the last accepted
round's.  Filtering is contractive: the refined mask is always a subset of
the candidate, and the two voxel filters commute.  Refinement returns the
organ's next state and modifies nothing it is given; a stored
pseudo-label is held on its tight box of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyMaskError, RejectedInputError
from .prompting import BoxPromptPair
from .volgrid import Box, ProbVolume, crop_mask, voxel_entropy

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
    """Per-(scan, organ) refinement memory.  States for different
    organs/scans are independent.

    - ``current_pseudo``: the stored pseudo-label cut to its tight ``box``
      of the scan's grid (``volgrid.crop_mask``), so it costs the box, not
      the grid; ``None`` before the first accept.
    - ``current_conf``: the generalist probability at its voxels, 1-D in C
      order, which on a sub-box is the whole grid's C order.
    - ``mean_entropy``: that of the last accepted round, which the entropy
      gate compares against.
    - ``prompts``: those whose generalist answer the pseudo-label was filtered
      from (``None`` before the first accept and for a given pseudo-label).
    - ``rejected``: the (prompts, reason, mean entropy) of the last answer
      refinement rejected, if no accept followed it.
    """

    class_id: int
    current_pseudo: np.ndarray | None = None
    box: Box | None = None
    current_conf: np.ndarray | None = None
    mean_entropy: float | None = None
    prompts: BoxPromptPair | None = None
    rejected: tuple[BoxPromptPair, str, float | None] | None = None


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of one refinement attempt.  ``mask`` is the filtered
    candidate cut to its tight ``box`` (shape (0, 0, 0) when emptied, and
    ``None`` when ``refine_stored`` replays a rejection), and ``state`` the
    organ's state after the attempt: the accepted mask on accept, the given
    state with the attempt as ``rejected`` on reject."""

    mask: np.ndarray | None
    box: Box | None
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


def roi_box(prompts: BoxPromptPair, delta_roi: int,
            dims: tuple[int, int, int]) -> tuple[slice, slice, slice]:
    """``roi_ranges`` as (y, x, z) slices: the box that ``build_roi`` fills."""
    return tuple(slice(lo, hi + 1) for lo, hi in roi_ranges(prompts, delta_roi, dims))


def build_roi(prompts: BoxPromptPair, delta_roi: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Binary 3D ROI from the two orthogonal prompt boxes plus dilation."""
    roi = np.zeros(dims, dtype=bool)
    roi[roi_box(prompts, delta_roi, dims)] = True
    return roi


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
    """Run all three constraints on a whole-grid candidate pseudo-label.

    ``probs`` is the generalist's 2-class (background, organ) field on the
    candidate's grid or on exactly its ROI box ``roi_box(prompts,
    config.delta_roi, candidate.shape)``, the only part read; other dims or
    class counts are a ``RejectedInputError``.  The kept voxels come back
    cut to their tight box.  On accept the result's state holds that mask
    and box, the organ probability at its voxels, the mask's mean entropy
    and ``prompts``; on reject it is ``state`` with the attempt recorded as
    ``rejected``.  Nothing given is modified.  A candidate emptied by the
    voxel filters is a rejection, never an empty accepted pseudo-label.
    """
    if probs.num_classes != 2:
        raise RejectedInputError(
            f"refinement takes 2-class probabilities, got {probs.num_classes} classes")
    box = roi_box(prompts, config.delta_roi, candidate.shape)
    if probs.dims == candidate.shape != candidate[box].shape:
        probs = probs.crop(box)
    inside = apply_class_threshold(candidate[box], probs, 1, config.tau_cls)
    kept, kept_box = crop_mask(inside, [s.start for s in box])
    kept.flags.writeable = False
    if not kept.size:
        return RefinementResult(kept, kept_box, False, REJECT_EMPTIED, None,
                                replace(state, rejected=(prompts, REJECT_EMPTIED, None)))
    h = mean_mask_entropy(inside, voxel_entropy(probs))
    if not entropy_gate(state.mean_entropy, h, config.entropy_gate_active):
        return RefinementResult(kept, kept_box, False, REJECT_ENTROPY, h,
                                replace(state, rejected=(prompts, REJECT_ENTROPY, h)))
    conf = probs.class_probs(1)[inside]
    conf.flags.writeable = False
    return RefinementResult(kept, kept_box, True, ACCEPTED, h,
                            OrganRefinementState(state.class_id, kept, kept_box, conf, h, prompts))


def refine_stored(state: OrganRefinementState, prompts: BoxPromptPair,
                  config: RefinementConfig) -> RefinementResult | None:
    """What ``refine_pseudo_label`` returns for the answer to ``prompts``
    when ``state`` already holds it, else ``None``: the generalist must be
    asked.  A frozen generalist answers equal prompts and their ROI box as
    before, and ``tau_cls`` and ``delta_roi`` are fixed for a run, so:

    - prompts equal to ``state.prompts`` give back the stored mask and its
      mean entropy, which the gate then compares with itself: an active gate
      rejects, an inactive one accepts, and the state stays as it is;
    - prompts equal to those ``state.rejected`` holds are rejected again for
      the same reason at the same entropy: no accept has moved the gate's
      comparator since, and the gate only ever switches on.  Such a result
      carries no mask.
    """
    if prompts == state.prompts:
        h = state.mean_entropy
        accepted = entropy_gate(h, h, config.entropy_gate_active)
        return RefinementResult(state.current_pseudo, state.box, accepted,
                                ACCEPTED if accepted else REJECT_ENTROPY, h, state)
    if state.rejected is not None and prompts == state.rejected[0]:
        _, reason, h = state.rejected
        return RefinementResult(None, None, False, reason, h, state)
    return None
