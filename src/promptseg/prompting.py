"""Box-prompt construction from predicted class masks.

A prompt pair for one organ consists of two padded 2D bounding boxes: one on
the axial median slice (fixed z) and one on the sagittal median slice
(fixed x) of the organ's predicted mask.  In-plane coordinates follow the
slice array's axes: rows are y in both planes; columns are x on axial slices
and z on sagittal slices.  Padding is measured in voxels; spacing-aware
callers convert millimeters themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoForegroundError, NoPredictionError, RejectedInputError
from .volgrid import LabelMap, class_mask

AXIAL = "axial"      # fixed z; slice array mask[:, :, z], axes (y, x)
SAGITTAL = "sagittal"  # fixed x; slice array mask[:, x, :], axes (y, z)

DEFAULT_PADDING = 6


@dataclass(frozen=True)
class Box2D:
    """Inclusive in-plane bounding box on one slice of a volume."""

    axis: str
    slice_index: int
    lo: tuple[int, int]
    hi: tuple[int, int]

    def __post_init__(self):
        if self.axis not in (AXIAL, SAGITTAL):
            raise RejectedInputError(f"unknown box axis {self.axis!r}")
        if self.slice_index < 0:
            raise RejectedInputError("slice index must be nonnegative")
        if any(l < 0 for l in self.lo) or any(l > h for l, h in zip(self.lo, self.hi)):
            raise RejectedInputError(f"box bounds must satisfy 0 <= lo <= hi, got {self.lo}..{self.hi}")


@dataclass(frozen=True)
class BoxPromptPair:
    """The axial/sagittal box pair prompting one organ."""

    class_id: int
    axial: Box2D
    sagittal: Box2D

    def __post_init__(self):
        if self.axial.axis != AXIAL or self.sagittal.axis != SAGITTAL:
            raise RejectedInputError("BoxPromptPair requires one axial and one sagittal box")


def _occupied_slices(mask: np.ndarray, axis: str) -> np.ndarray:
    if axis == AXIAL:
        return np.flatnonzero(mask.any(axis=(0, 1)))
    if axis == SAGITTAL:
        return np.flatnonzero(mask.any(axis=(0, 2)))
    raise RejectedInputError(f"unknown axis {axis!r}")


def median_foreground_slice(mask: np.ndarray, axis: str) -> int:
    """Median of the sorted slice indices that contain foreground.

    For an even count the lower median is returned.  Duplicating foreground
    within already-occupied slices does not change the result.
    """
    occ = _occupied_slices(mask, axis)
    if occ.size == 0:
        raise NoForegroundError(f"mask has no foreground along the {axis} axis")
    return int(occ[(occ.size - 1) // 2])


def bbox_2d(mask_slice: np.ndarray) -> tuple[tuple[int, int], tuple[int, int]]:
    """Tight inclusive (lo, hi) bounds over the foreground of a 2D slice."""
    rows, cols = np.nonzero(mask_slice)
    if rows.size == 0:
        raise NoForegroundError("slice contains no foreground")
    return (int(rows.min()), int(cols.min())), (int(rows.max()), int(cols.max()))


def pad_box(box: Box2D, p: int, dims: tuple[int, int]) -> Box2D:
    """Expand a box by ``p`` voxels per side, clamped to [0, dim-1]."""
    if p < 0:
        raise RejectedInputError("padding must be nonnegative")
    lo = (max(0, box.lo[0] - p), max(0, box.lo[1] - p))
    hi = (min(dims[0] - 1, box.hi[0] + p), min(dims[1] - 1, box.hi[1] + p))
    return Box2D(box.axis, box.slice_index, lo, hi)


def _slice_box(mask: np.ndarray, axis: str, index: int, p: int) -> Box2D:
    if axis == AXIAL:
        sl, dims = mask[:, :, index], (mask.shape[0], mask.shape[1])
    else:
        sl, dims = mask[:, index, :], (mask.shape[0], mask.shape[2])
    lo, hi = bbox_2d(sl)
    return pad_box(Box2D(axis, index, lo, hi), p, dims)


def make_box_prompts(pred: LabelMap, class_id: int, padding: int = DEFAULT_PADDING) -> BoxPromptPair:
    """Padded axial/sagittal median-slice boxes for one predicted class.

    Raises NoPredictionError when the class is absent from the prediction
    (the pipeline records the organ as skipped for the round).
    """
    mask = class_mask(pred, class_id)
    if not mask.any():
        raise NoPredictionError(f"class {class_id} absent from prediction")
    z_med = median_foreground_slice(mask, AXIAL)
    x_med = median_foreground_slice(mask, SAGITTAL)
    return BoxPromptPair(
        class_id=class_id,
        axial=_slice_box(mask, AXIAL, z_med, padding),
        sagittal=_slice_box(mask, SAGITTAL, x_med, padding),
    )


def format_prompts(prompts: BoxPromptPair) -> str:
    """Wire format: one line per box, ``axis slice a_min b_min a_max b_max``."""
    lines = []
    for box in (prompts.axial, prompts.sagittal):
        lines.append(f"{box.axis} {box.slice_index} {box.lo[0]} {box.lo[1]} {box.hi[0]} {box.hi[1]}")
    return "\n".join(lines) + "\n"


def parse_prompts(text: str, class_id: int = 1) -> BoxPromptPair:
    """Parse the wire format back into a BoxPromptPair."""
    boxes: dict[str, Box2D] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise RejectedInputError(f"malformed prompt line: {raw!r}")
        axis = parts[0]
        try:
            idx, a0, b0, a1, b1 = (int(v) for v in parts[1:])
        except ValueError as exc:
            raise RejectedInputError(f"malformed prompt line: {raw!r}") from exc
        if axis in boxes:
            raise RejectedInputError(f"duplicate {axis} box in prompt file")
        boxes[axis] = Box2D(axis, idx, (a0, b0), (a1, b1))
    if set(boxes) != {AXIAL, SAGITTAL}:
        raise RejectedInputError("prompt file must contain exactly one axial and one sagittal box")
    return BoxPromptPair(class_id=class_id, axial=boxes[AXIAL], sagittal=boxes[SAGITTAL])
