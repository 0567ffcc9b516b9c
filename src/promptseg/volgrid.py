"""Core voxel-grid types and the elementwise operations shared by all modules.

Grid conventions used across the package:

- Scalar fields are numpy arrays of shape ``(H, W, D)`` indexed ``[y, x, z]``.
- Class-indexed fields prepend the class axis: shape ``(C, H, W, D)``.
- Binary masks are plain boolean arrays of shape ``(H, W, D)``.
- An axial slice fixes z (``field[:, :, z]``, in-plane axes y, x); a sagittal
  slice fixes x (``field[:, x, :]``, in-plane axes y, z).
- The canonical flat voxel order (used bit-exactly by file I/O) runs
  x fastest, then y, then z, with the class axis slowest.

All probability math is 32-bit float.  Constructors take ownership of the
array they are given and mark it read-only; operations are pure functions, so
everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import RejectedInputError

if TYPE_CHECKING:
    from .nifti_io import NiftiHeader

PROB_SUM_TOL = 1e-5
MAX_CLASSES = 256  # labels are stored as uint8
LABEL_BLOCK = 1 << 16  # voxels in one block of y-planes that label_boxes reads at a time

Box = tuple[slice, slice, slice]  # (y, x, z) slices with explicit, in-grid bounds
EMPTY_BOX: Box = (slice(0, 0),) * 3


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def valid_spacing(spacing: tuple[float, ...]) -> bool:
    """Whether ``spacing`` is 3 values that stay positive and finite as
    float32, the type NIfTI stores them in."""
    with np.errstate(over="ignore"):
        sp = np.array(spacing, dtype=np.float32)
    return sp.shape == (3,) and bool(np.all(np.isfinite(sp) & (sp > 0.0)))


def _as_grid(data, dtype, ndim, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.ndim != ndim:
        raise RejectedInputError(f"{what} must be {ndim}D, got shape {arr.shape}")
    if any(n < 1 for n in arr.shape):
        raise RejectedInputError(f"{what} has an empty dimension: {arr.shape}")
    return _freeze(arr)


@dataclass
class Volume:
    """3D scalar intensity grid with voxel spacing (sx, sy, sz) in mm, and the
    NIfTI ``header`` it was read from, if any (see ``nifti_io.write_volume``)."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    header: NiftiHeader | None = None

    def __post_init__(self):
        self.data = _as_grid(self.data, np.float32, 3, "volume data")
        sp = tuple(float(s) for s in self.spacing)
        if not valid_spacing(sp):
            raise RejectedInputError(f"spacing must be 3 positive finite float32 values, "
                                     f"got {self.spacing}")
        self.spacing = sp

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass
class ProbVolume:
    """Per-class probability field of shape (C, H, W, D).

    Entries lie in [0, 1] (so none is NaN) and sum to 1 over the class axis
    at every voxel (within PROB_SUM_TOL).
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = _as_grid(self.data, np.float32, 4, "probability data")
        if self.data.shape[0] < 2:
            raise RejectedInputError("ProbVolume needs at least 2 classes")
        if self.data.shape[0] > MAX_CLASSES:
            raise RejectedInputError(f"ProbVolume supports at most {MAX_CLASSES} classes")
        lo = float(self.data.min())  # nan if any entry is nan
        hi = float(self.data.max())
        if not 0.0 <= lo <= hi <= 1.0:
            raise RejectedInputError(f"probabilities not all in [0, 1]: min={lo}, max={hi}")
        sums = self.data[0].astype(np.float64)  # one float64 plane, summed in place
        for plane in self.data[1:]:
            sums += plane
        sums -= 1.0
        err = float(np.abs(sums, out=sums).max())
        if err > PROB_SUM_TOL:
            raise RejectedInputError(f"per-voxel probabilities sum to 1 off by {err}")

    @property
    def num_classes(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]

    def class_probs(self, class_id: int) -> np.ndarray:
        if not 0 <= class_id < self.num_classes:
            raise RejectedInputError(f"class {class_id} out of range [0, {self.num_classes})")
        return self.data[class_id]

    def crop(self, region: tuple[slice, slice, slice]) -> ProbVolume:
        """The field on ``region`` (three non-empty in-grid slices) as a
        contiguous read-only copy.  Every voxel of it was checked with this
        field, so it is not checked again."""
        out = object.__new__(ProbVolume)
        out.data = _freeze(self.data[(slice(None), *region)].copy())
        return out


@dataclass
class LabelMap:
    """Integer label grid with values in {0, ..., num_classes-1}; 0 = background.
    It is made from bool data or integers in [0, 255], which uint8 holds exactly."""

    data: np.ndarray
    num_classes: int

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype.kind not in "biu":
            raise RejectedInputError(f"label data must be bool or integers, got {data.dtype}")
        if data.dtype.kind in "iu" and data.dtype != np.uint8 and data.size:
            lo, hi = data.min(), data.max()
            if not 0 <= lo <= hi <= 255:
                raise RejectedInputError(f"label data must be integers in [0, 255], "
                                         f"got {data.dtype} from {lo} to {hi}")
        self.data = _as_grid(data, np.uint8, 3, "label data")
        self.num_classes = int(self.num_classes)
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise RejectedInputError(f"num_classes must be in [2, {MAX_CLASSES}], got {self.num_classes}")
        hi = int(self.data.max())
        if hi >= self.num_classes:
            raise RejectedInputError(f"label {hi} >= num_classes {self.num_classes}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


def crop_mask(mask: np.ndarray, origin=(0, 0, 0)) -> tuple[np.ndarray, Box]:
    """A 3D bool ``mask`` cut to the tight box of its set voxels, as a new
    array, and that box on a grid where ``mask[0, 0, 0]`` sits at ``origin``.
    An empty mask gives shape (0, 0, 0) and ``EMPTY_BOX``."""
    ys = np.flatnonzero(mask.any(axis=(1, 2)))
    if not ys.size:
        return np.zeros((0, 0, 0), dtype=bool), EMPTY_BOX
    xz = mask[ys[0]:ys[-1] + 1].any(axis=0)  # the rest of the box, on its y-extent
    tight = tuple(slice(int(n[0]), int(n[-1]) + 1)
                  for n in (ys, np.flatnonzero(xz.any(axis=1)), np.flatnonzero(xz.any(axis=0))))
    return mask[tight].copy(), tuple(slice(t.start + o, t.stop + o)
                                      for t, o in zip(tight, origin))


def label_boxes(data: np.ndarray, last: int) -> list[Box | None]:
    """Per label 1..``last``, the tight box of its voxels in the 3D grid of integers
    ``data`` (up to 255), or None: ``scipy.ndimage.find_objects(data, max_label=last)``.
    Each block of y-planes counts its nonzero voxels' (label, coordinate) pairs per axis."""
    dims, planes = data.shape, data.reshape(data.shape[0], -1)
    counts = [np.zeros((last + 1) * n, dtype=np.intp) for n in dims]  # [label * n + coord]
    step = max(1, LABEL_BLOCK // planes.shape[1])
    for y0 in range(0, dims[0], step):
        rows = planes[y0:y0 + step]
        at = np.flatnonzero(rows != 0)
        label = rows.reshape(-1)[at].astype(np.intp)
        y, x, z = np.unravel_index(at, (len(rows),) + dims[1:])
        for count, n, coord in zip(counts, dims, (y + y0, x, z)):
            count += np.bincount(label * n + coord, minlength=count.size)[:count.size]
    seen = [count.reshape(last + 1, n)[1:] > 0 for count, n in zip(counts, dims)]
    ends = [(s.argmax(axis=1), n - s[:, ::-1].argmax(axis=1)) for s, n in zip(seen, dims)]
    return [tuple(slice(int(a[c]), int(b[c])) for a, b in ends) if seen[0][c].any() else None
            for c in range(last)]


def paste_mask(mask: np.ndarray, box: Box, dims) -> np.ndarray:
    """The bool grid of ``dims`` that is ``mask`` on ``box`` and False elsewhere."""
    out = np.zeros(dims, dtype=bool)
    out[box] = mask
    return out


def union_box(boxes) -> Box:
    """The smallest box holding every box of ``boxes`` (at least one)."""
    boxes = list(boxes)
    return tuple(slice(min(b[i].start for b in boxes), max(b[i].stop for b in boxes))
                 for i in range(3))


def mask_to_labels(mask: np.ndarray) -> LabelMap:
    """Wrap a binary mask as a 2-class LabelMap (for file interchange)."""
    return LabelMap(np.ascontiguousarray(mask, dtype=np.uint8), 2)


def softmax_from_logits(logits) -> ProbVolume:
    """Per-voxel softmax over the leading class axis, with max-subtraction.

    Rejects non-finite logits; the subtraction keeps exp() from overflowing
    for any finite float32 input.
    """
    arr = np.asarray(logits, dtype=np.float32)
    if arr.ndim != 4 or arr.shape[0] < 2:
        raise RejectedInputError(f"logits must be (C>=2, H, W, D), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise RejectedInputError("logits contain non-finite values")
    shifted = arr - arr.max(axis=0, keepdims=True)
    ex = np.exp(shifted)
    ex /= ex.sum(axis=0, keepdims=True)
    return ProbVolume(ex)


def argmax_labelmap(p: ProbVolume) -> LabelMap:
    """Voxel-wise argmax; ties break to the smallest class index."""
    return LabelMap(np.argmax(p.data, axis=0).astype(np.uint8), p.num_classes)


def class_mask(labels: LabelMap, class_id: int) -> np.ndarray:
    """Binary mask of the voxels assigned to ``class_id``."""
    if not 0 <= class_id < labels.num_classes:
        raise RejectedInputError(f"class {class_id} out of range [0, {labels.num_classes})")
    return labels.data == class_id


def classes_mask(labels: LabelMap, classes) -> np.ndarray:
    """``np.isin(labels.data, classes)`` from a table of every uint8 label: 1 byte a voxel."""
    table = np.zeros(MAX_CLASSES, dtype=bool)
    table[list(classes)] = True
    return table[labels.data]


def voxel_entropy(p: ProbVolume) -> np.ndarray:
    """Per-voxel entropy -sum_c p_c ln p_c, with the convention 0 ln 0 = 0.

    Values lie in [0, ln C]: 0 at one-hot voxels, ln C at uniform ones.
    Invariant under permutation of the class axis.
    """
    pd = p.data
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(pd > 0.0, pd * np.log(pd), np.float32(0.0))
    return _freeze(-contrib.sum(axis=0, dtype=np.float32))
