"""Evaluation metrics: Dice similarity and 95th-percentile Hausdorff distance.

HD95 convention, stated exactly so results reproduce bit-for-bit: boundary
voxels are foreground voxels with at least one six-connected background or
out-of-bounds neighbor (volume faces count as background); voxel coordinates
are scaled by the spacing *before* distances are taken; directed
boundary-to-boundary distances from both sides are pooled and the 95th
percentile is read off with linear interpolation.

Each nearest distance is the all-pairs one, ``sqrt(min(sum((p - q) ** 2)))``
over the scaled coordinates, bit for bit.  A voxel on both boundaries is 0.
For any other, scipy's exact EDT (Maurer et al., sampled at the spacing)
names a nearest voxel, and only offsets whose real length ties with its
within ``TIE_MARGIN`` can round to a smaller sum, so only those are tried.
The EDT spans where the searched voxels' box and the other boundary's box,
each grown by ``HALO``, overlap (per tile if over ``EDT_VOXELS`` voxels); a
voxel with no other voxel within ``HALO`` finest spacings tries every one.

``evaluate_scan`` works on the union of the class's bounding boxes in the
two maps, from one ``ndimage.find_objects`` pass per map.  Both masks are
background outside it, as at its faces, so boundaries, C order and
distances are the grid's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyMaskError, RejectedInputError
from .volgrid import LabelMap, union_box

HD95_PERCENTILE = 95.0
#: Real lengths this close, relatively, are ties (float rounding is ~1e-16);
#: one EDT covers at most EDT_VOXELS voxels (12 MB of int32 indices).
TIE_MARGIN, EDT_VOXELS, HALO = 1e-9, 1 << 20, 16
_SIGNS = 1 - 2 * np.indices((2, 2, 2)).reshape(3, 8).T

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


def _ties(u: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each offset (a column) whose real length ties with a column of ``u`` >= 0,
    grouped by and paired with that column's index: (ty, tx) >= 0, tz solved, signs."""
    l2 = ((u * s[:, None]) ** 2).sum(axis=0)
    ry, rx = (np.sqrt(l2 * (1 + TIE_MARGIN)) // s[:2, None]).astype(np.intp) + 1
    col = np.repeat(np.arange(l2.size), ry * rx)
    ty, tx = np.divmod(np.arange(col.size) - np.repeat(np.cumsum(ry * rx) - ry * rx, ry * rx),
                       rx[col])
    tz = np.rint(np.sqrt(np.maximum(l2[col] - (ty * s[0]) ** 2 - (tx * s[1]) ** 2, 0.0)) / s[2])
    t = np.stack([ty, tx, tz.astype(np.intp)], axis=1)
    keep = np.abs(((t * s) ** 2).sum(axis=1) - l2[col]) <= TIE_MARGIN * l2[col]
    t = t[keep, None, :] * _SIGNS
    ok = ~((t == 0) & (_SIGNS < 0)).any(axis=2)                     # -0 is 0
    return t[ok].T, np.repeat(col[keep], ok.sum(axis=1))


def _nearest_distances(src: np.ndarray, dst: np.ndarray, scale: np.ndarray, origin) -> np.ndarray:
    """The distance from each voxel of ``src``, in C order, to the nearest of
    ``dst``: masks on one box from grid index ``origin``, scaled by ``scale``."""
    at = [(np.arange(k) + o) * s for k, o, s in zip(dst.shape, origin, scale)]

    def sum2(p, r):                     # the all-pairs sum, in its order
        return ((at[0][p[0]] - at[0][r[0]]) ** 2 + (at[1][p[1]] - at[1][r[1]]) ** 2
                + (at[2][p[2]] - at[2][r[2]]) ** 2)

    best = np.zeros(np.count_nonzero(src))  # each voxel's least all-pairs sum
    off = np.flatnonzero(~dst[src])     # a voxel on both boundaries is 0
    if off.size == 0:
        return best
    q, shape = np.array(np.nonzero(src))[:, off], np.array(dst.shape)[:, None]
    dv = np.array(np.nonzero(dst))
    dlo, dhi = np.maximum(dv.min(1, keepdims=True) - HALO, 0), dv.max(1, keepdims=True) + HALO + 1
    u = np.full_like(q, HALO + 1)       # each voxel's offset to its nearest, once found
    tile = shape if dst.size <= EDT_VOXELS else int(EDT_VOXELS ** (1 / 3)) - 2 * HALO
    key = np.ravel_multi_index(q // tile, (-(-shape // tile)).ravel())
    for mine in (np.flatnonzero(key == k) for k in np.unique(key)):
        lo = np.maximum(q[:, mine].min(axis=1, keepdims=True) - HALO, dlo)
        hi = np.minimum(q[:, mine].max(axis=1, keepdims=True) + HALO + 1, dhi)
        mine = mine[np.all((q[:, mine] >= lo) & (q[:, mine] < hi), axis=0)]
        win = ~dst[tuple(map(slice, lo[:, 0], hi[:, 0]))]
        if not win.all():
            ft = ndimage.distance_transform_edt(win, sampling=scale, return_distances=False,
                                                return_indices=True)
            u[:, mine] = np.abs(ft[(slice(None), *(q[:, mine] - lo))] + lo - q[:, mine])
    close = ((u * scale[:, None]) ** 2).sum(axis=0) <= (HALO * scale.min()) ** 2
    near, far = np.flatnonzero(close), np.flatnonzero(~close)
    found, group = np.unique(np.ravel_multi_index(u[:, near], dst.shape), return_inverse=True)
    ties, col = _ties(np.array(np.unravel_index(found, dst.shape)), scale)
    sizes = np.bincount(col, minlength=found.size)
    count = sizes[group]
    j = np.repeat(near, count)
    # a voxel's k-th candidate is column (its ties' start) + k of ``ties``
    cand = q[:, j] + ties[:, np.arange(j.size) + np.repeat(
        (np.cumsum(sizes) - sizes)[group] - np.cumsum(count) + count, count)]
    hit = np.all((cand >= 0) & (cand < shape), axis=0) & dst[tuple(np.clip(cand, 0, shape - 1))]
    j, cand = j[hit], cand[:, hit]
    best[off[near]] = np.minimum.reduceat(sum2(q[:, j], cand), np.searchsorted(j, near))
    for f in np.array_split(far, far.size * dv.shape[1] * 4 // EDT_VOXELS + 1):
        best[off[f]] = sum2(q[:, f, None], dv).min(axis=1)
    return np.sqrt(best)


def _pooled_hd95(a: np.ndarray, b: np.ndarray, spacing, origin) -> float:
    """HD95 of masks on a box from grid index ``origin``, outside which both are background."""
    scale = np.asarray(spacing, dtype=np.float64)[[1, 0, 2]]  # index axes are (y, x, z)
    ba, bb = boundary_voxels(a), boundary_voxels(b)
    d = [_nearest_distances(src, dst, scale, origin) for src, dst in ((ba, bb), (bb, ba))]
    return float(np.percentile(np.concatenate(d), HD95_PERCENTILE))


def hd95(a: np.ndarray, b: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> float:
    """95th percentile of the pooled directed boundary distances, in mm."""
    if a.shape != b.shape:
        raise RejectedInputError(f"mask dims differ: {a.shape} vs {b.shape}")
    if not a.any() or not b.any():
        raise EmptyMaskError("hd95 is undefined when either mask is empty")
    return _pooled_hd95(a, b, spacing, (0, 0, 0))


def volume_diagonal(dims, spacing) -> float:
    sx, sy, sz = (float(s) for s in spacing)
    H, W, D = dims
    return float(np.sqrt(((H - 1) * sy) ** 2 + ((W - 1) * sx) ** 2 + ((D - 1) * sz) ** 2))


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
        box = union_box(b for b in (pb, gb) if b is not None)
        pm = pred.data[box] == c
        gm = gt.data[box] == c
        h = missing
        if pb is not None and gb is not None:
            h = _pooled_hd95(pm, gm, spacing, [s.start for s in box])
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
