"""Evaluation metrics: Dice similarity and 95th-percentile Hausdorff distance.

HD95 convention, stated exactly so results reproduce bit-for-bit: boundary
voxels are foreground voxels with at least one six-connected background or
out-of-bounds neighbor (volume faces count as background); voxel coordinates
are scaled by the spacing *before* distances are taken; directed
boundary-to-boundary distances from both sides are pooled and the 95th
percentile is read off with linear interpolation.

``evaluate_scan`` works on each class's box: the union of the class's
bounding boxes in the two maps, from one ``ndimage.find_objects`` pass per
map, padded by one voxel and clipped to the grid.  Every voxel of the class
lies in that box, and so does each of its neighbors that is on the grid, so
the boundary voxels, their C order once shifted back to grid indices, and
every distance equal the whole-grid ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import EmptyMaskError, RejectedInputError
from .volgrid import LabelMap, union_box

HD95_PERCENTILE = 95.0

#: What evaluate_scan reports for a class whose HD95 is undefined (the
#: class is empty in either map): "exclude" reports None, which leaves the
#: averages; "max_diag" reports the spacing-scaled volume diagonal.
HD95_MISSING_POLICIES = ("exclude", "max_diag")


@dataclass(frozen=True)
class ClassMetrics:
    class_id: int
    dsc: float
    hd95: float | None  # None when undefined under the "exclude" policy


@dataclass(frozen=True)
class ScanEvaluation:
    per_class: tuple[ClassMetrics, ...]


@dataclass(frozen=True)
class SummaryRow:
    """Means over ``count`` (scan, class) entries of one class, or of all when
    ``class_id`` is "overall"; HD95 over the entries that have one, if any."""

    class_id: int | str
    mean_dsc: float
    mean_hd95: float | None
    count: int


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A∩B| / (|A|+|B|); 1.0 when both masks are empty, 0.0 when exactly one is."""
    if a.shape != b.shape:
        raise RejectedInputError(f"mask dims differ: {a.shape} vs {b.shape}")
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    inter = int(np.count_nonzero(a & b))
    return 2.0 * inter / (na + nb)


def boundary_voxels(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a six-connected background or out-of-bounds neighbor."""
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1] & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1] & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2] & padded[1:-1, 1:-1, 2:]
    )
    return mask & ~interior


def scaled_boundary_coords(mask: np.ndarray, spacing, origin=(0, 0, 0)) -> np.ndarray:
    """Boundary voxel coordinates scaled to millimeters, for a ``mask`` whose
    first voxel has grid index ``origin``.

    Index axes are (y, x, z), so the scale vector is (sy, sx, sz).
    """
    sx, sy, sz = (float(s) for s in spacing)
    coords = (np.argwhere(boundary_voxels(mask)) + np.asarray(origin)).astype(np.float64)
    return coords * np.array([sy, sx, sz])


def _pooled_hd95(pa: np.ndarray, pb: np.ndarray) -> float:
    d_ab = cKDTree(pb).query(pa, k=1)[0]
    d_ba = cKDTree(pa).query(pb, k=1)[0]
    return float(np.percentile(np.concatenate([d_ab, d_ba]), HD95_PERCENTILE))


def hd95(a: np.ndarray, b: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> float:
    """95th percentile of the pooled directed boundary distances, in mm."""
    if a.shape != b.shape:
        raise RejectedInputError(f"mask dims differ: {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        raise EmptyMaskError("hd95 is undefined when either mask is empty")
    return _pooled_hd95(scaled_boundary_coords(a, spacing), scaled_boundary_coords(b, spacing))


def volume_diagonal(dims, spacing) -> float:
    sx, sy, sz = (float(s) for s in spacing)
    H, W, D = dims
    return float(np.sqrt(((H - 1) * sy) ** 2 + ((W - 1) * sx) ** 2 + ((D - 1) * sz) ** 2))


def _class_box(boxes, dims) -> tuple[slice, ...]:
    """The union of the boxes that are not None, padded by one voxel and
    clipped to the grid."""
    return tuple(slice(max(s.start - 1, 0), min(s.stop + 1, n))
                 for s, n in zip(union_box(b for b in boxes if b is not None), dims))


def evaluate_scan(pred: LabelMap, gt: LabelMap, spacing=(1.0, 1.0, 1.0),
                  hd95_missing: str = "exclude") -> ScanEvaluation:
    """Per-class Dice and HD95 for the foreground classes.

    An undefined HD95 (a class empty in either map) is reported as
    ``hd95_missing`` says; Dice is always defined.  ``summarize`` averages.
    Each class is read on its box (see the module docstring); a class empty
    in both maps is not read at all.
    """
    if pred.dims != gt.dims:
        raise RejectedInputError(f"prediction dims {pred.dims} vs ground truth dims {gt.dims}")
    if hd95_missing not in HD95_MISSING_POLICIES:
        raise RejectedInputError(f"unknown hd95_missing policy {hd95_missing!r}")
    missing = volume_diagonal(gt.dims, spacing) if hd95_missing == "max_diag" else None
    last = gt.num_classes - 1
    per_class = []
    for c, pb, gb in zip(range(1, last + 1), ndimage.find_objects(pred.data, max_label=last),
                         ndimage.find_objects(gt.data, max_label=last)):
        if pb is None and gb is None:
            per_class.append(ClassMetrics(c, 1.0, missing))
            continue
        box = _class_box((pb, gb), gt.dims)
        pm = pred.data[box] == c
        gm = gt.data[box] == c
        h = missing
        if pb is not None and gb is not None:
            origin = [s.start for s in box]
            h = _pooled_hd95(scaled_boundary_coords(pm, spacing, origin),
                             scaled_boundary_coords(gm, spacing, origin))
        per_class.append(ClassMetrics(c, dice(pm, gm), h))
    return ScanEvaluation(tuple(per_class))


def _summary_row(class_id: int | str, entries: list[ClassMetrics]) -> SummaryRow:
    hds = [cm.hd95 for cm in entries if cm.hd95 is not None]
    return SummaryRow(class_id, float(np.mean([cm.dsc for cm in entries])),
                      float(np.mean(hds)) if hds else None, len(entries))


def summarize(evaluations: dict[str, ScanEvaluation]) -> list[SummaryRow]:
    """One row per class, ascending, then the "overall" row, over a non-empty
    ``evaluations``; entries are taken class-major, scans in ``evaluations``
    order.  This is the only place metrics are averaged."""
    by_class: dict[int, list[ClassMetrics]] = {}
    for ev in evaluations.values():
        for cm in ev.per_class:
            by_class.setdefault(cm.class_id, []).append(cm)
    rows = [_summary_row(c, by_class[c]) for c in sorted(by_class)]
    return [*rows, _summary_row("overall", [cm for c in sorted(by_class) for cm in by_class[c]])]
