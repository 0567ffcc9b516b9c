"""Pluggable segmentation backends behind the pipeline.

Two oracle surfaces exist: a *specialist* (trainable; ``predict`` -> labels,
``fit``) and a *generalist* (frozen, promptable; ``segment``).  The phantom
implementations below run the whole pipeline at desk scale against synthetic
ellipsoid scans with exact ground truth, while ``FileOracle`` bridges to real
external models as the client half of ``exchange``.  Each FileOracle is
given its exchange directory; nothing else names one.
Phantom oracles are bitwise deterministic given (seed, quality, inputs):
every stochastic field is drawn from an RNG keyed on the oracle seed, a
fingerprint of the input volume, and the class (plus the prompt bytes for
the generalist), never from mutable RNG state.
A phantom batch (``PhantomSpecialist.predict_all``,
``PhantomGeneralist.segment_all``) thus has pure items, and on more than one
CPU a helper thread computes item 2j + 1 while the caller computes item 2j.
Each item still goes through one public call on the caller's thread, in batch
order, which returns a helper item's result, or raises its exception, when
called with that item's very arguments.  The caches both threads fill are keyed
per (scan, class) and hold the same bytes whichever thread fills them, so no
output depends on the helper.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import itertools
import math
import operator
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import ndimage

from . import exchange, nifti_io
from .errors import (ConfigError, CorruptFileError, NiftiError,
                     OracleProtocolError, OracleUnavailableError,
                     PromptsegError, RejectedInputError, UnknownVolumeError)
from .prompting import DEFAULT_PADDING, BoxPromptPair, format_prompts
from .refinement import roi_ranges
from .vls_loss import SupervisionTarget
from .volgrid import LabelMap, ProbVolume, Volume


Region = tuple[slice, slice, slice]
Answer = tuple[np.ndarray, ProbVolume]


def _checked_region(region, dims: tuple[int, int, int]) -> Region:
    """``region`` as integer slices, the whole grid for ``None``; anything but
    three non-empty in-grid slices is a ``RejectedInputError``."""
    if region is None:
        return tuple(slice(0, n) for n in dims)
    try:
        if len(region) == 3 and all(
                s.step in (None, 1) and 0 <= operator.index(s.start) < operator.index(s.stop) <= n
                for s, n in zip(region, dims)):
            return tuple(slice(int(s.start), int(s.stop)) for s in region)
    except (TypeError, AttributeError):
        pass
    raise RejectedInputError(f"region {region!r} is not three non-empty slices in {dims}")


def _each_answer(segment, requests: Iterable[tuple]) -> Iterator[Answer | PromptsegError]:
    """``segment(*request)`` for each request, called as its item is taken:
    the answer, or the ``PromptsegError`` it raised."""
    for request in requests:
        try:
            yield segment(*request)
        except PromptsegError as exc:
            yield exc


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _overlapped(work, items: Iterable) -> Iterator[tuple[object, Future | None]]:
    """Each item, in order, with ``None`` (the caller computes it) or with a
    helper thread's ``Future`` of ``work(item)``: on more than one CPU, item
    2j + 1 goes to the helper as item 2j is taken; on one, no thread starts."""
    items = iter(items)
    if _cpus() < 2:
        yield from ((item, None) for item in items)
        return
    with ThreadPoolExecutor(1, thread_name_prefix="promptseg-helper") as helper:
        for item in items:
            ahead = [(nxt, helper.submit(work, nxt)) for nxt in itertools.islice(items, 1)]
            yield item, None
            yield from ahead    # if the caller stops first, the helper's item is dropped


class _HandOff:
    """A helper's item goes through its public call, which takes the helper's
    result from ``_handoff``, (key, ``Future``), only on the thread and with
    the very arguments the key names: (thread id, each argument's ``id``)."""

    _handoff: tuple[tuple, Future | None] = ((), None)

    def _handed(self, ahead: Future | None, call, *args):
        """``call(*args)``, with ``ahead`` on hand for its public call."""
        self._handoff = (threading.get_ident(), *map(id, args)), ahead
        try:
            return call(*args)
        finally:
            self._handoff = (), None

    def _take(self, work, *args):
        """The result on hand for this thread and ``args``, or else ``work(*args)``."""
        key, ahead = self._handoff
        if ahead is None or key != (threading.get_ident(), *map(id, args)):
            return work(*args)
        self._handoff = (), None
        return ahead.result()


@dataclass(frozen=True)
class TrainingExample:
    """One scan's contribution to a specialist fit: image, merged supervision
    target, the classes carrying real annotations, and an optional voxel
    weight mask (nonzero = use the voxel)."""

    volume: Volume
    target: SupervisionTarget
    labeled_classes: frozenset[int]
    weight_mask: np.ndarray | None = None


class SpecialistOracle(abc.ABC):
    """Trainable task model: predict() -> labels; fit() is exclusive (no predict during it)."""

    @abc.abstractmethod
    def predict(self, volume: Volume) -> LabelMap: ...

    def predict_all(self, volumes: Sequence[Volume]) -> list[LabelMap]:
        """``predict`` of each volume, in order."""
        return [self.predict(v) for v in volumes]

    @abc.abstractmethod
    def fit(self, examples: Iterable[TrainingExample], supervision: str = "full") -> None:
        """Train on ``examples``, any iterable, consumed once: the pipeline
        passes a generator that builds each scan's target and mask only as
        it is taken, so a fit need not hold the whole set at once."""


class GeneralistOracle(abc.ABC):
    """Frozen promptable model: box prompts in, candidate mask + 2-class
    (background, organ) probabilities out, both on ``region`` (the pipeline
    passes the refinement ROI box; ``None`` is the whole grid).  Equal
    volume, prompts and region give an equal answer, so the pipeline asks
    once: while an organ's stored pseudo-label answers its prompts, it is
    re-gated on that label instead."""

    @abc.abstractmethod
    def segment(self, volume: Volume, prompts: BoxPromptPair,
                region: Region | None = None) -> Answer: ...

    def segment_all(self, requests: Sequence[tuple[Volume, BoxPromptPair, Region | None]]
                    ) -> Iterator[Answer | PromptsegError]:
        """The answers to ``(volume, prompts, region)`` requests, in order,
        each item the answer or the ``PromptsegError`` its request raised.
        Here each request is asked only as its item is taken."""
        return _each_answer(self.segment, requests)


# --- synthetic phantoms -----------------------------------------------------

@dataclass(frozen=True)
class Ellipsoid:
    """Axis lengths are semi-axes in voxels along (y, x, z) before rotation;
    the rotation turns by ``angles[i]`` radians about the fixed array axis
    ``2 - i``, in that order (scipy's extrinsic ``from_euler("zyx", angles)``)."""

    center: tuple[float, float, float]
    radii: tuple[float, float, float]
    angles: tuple[float, float, float] = (0.0, 0.0, 0.0)
    intensity: float = 1.0


#: Standard deviation of the Gaussian noise added to phantom intensities.
IMAGE_SIGMA = 0.05
#: An organ's semi-axes are drawn from this range of fractions of the grid's shortest side.
RADIUS_FRACTIONS = (0.11, 0.17)
#: Values in one block of y-planes of a whole-grid draw taken block by block.
DRAW_BLOCK = 1 << 16
#: Voxels an organ's center keeps, beyond its largest semi-axis, from each grid face.
CENTER_MARGIN = 1.5
#: The shortest side on which any organ's center has room: side s has room
#: iff s - 1 >= 2 * (RADIUS_FRACTIONS[1] * s + CENTER_MARGIN).
MIN_PHANTOM_SIDE = math.ceil((1 + 2 * CENTER_MARGIN) / (1 - 2 * RADIUS_FRACTIONS[1]))


def check_phantom_dims(dims: tuple[int, int, int]) -> None:
    """A ``ConfigError`` unless every side of ``dims`` has room for any organ
    ``random_phantom_spec`` may draw."""
    if min(dims) < MIN_PHANTOM_SIDE:
        raise ConfigError(f"dims must be >= {MIN_PHANTOM_SIDE} on every side for a phantom, "
                          f"got {tuple(dims)}")


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    organs: tuple[Ellipsoid, ...]

    @property
    def num_classes(self) -> int:
        return len(self.organs) + 1


def _rotation_matrix(angles: tuple[float, float, float]) -> np.ndarray:
    """``Rotation.from_euler("zyx", angles).as_matrix()``, bit for bit: scipy's
    extrinsic composition of the three elementary quaternions, then its
    quaternion-to-matrix formulas, in the same operation order."""
    q = None
    for axis, angle in zip((2, 1, 0), angles):
        p = [0.0, 0.0, 0.0, math.cos(angle / 2)]
        p[axis] = math.sin(angle / 2)
        if q is None:
            q = p
            continue
        cross = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
        q = [p[3] * q[i] + q[3] * p[i] + cross[i] for i in range(3)] + [
            p[3] * q[3] - p[0] * q[0] - p[1] * q[1] - p[2] * q[2]]
    x, y, z, w = q
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def _ellipsoid_on_box(dims: tuple[int, int, int],
                      ell: Ellipsoid) -> tuple[tuple[slice, ...], np.ndarray]:
    """The box ``center +- max(radii)``, padded by one voxel and clipped to the
    grid, and the ellipsoid's mask on it (empty when the ball misses the grid).
    The ellipsoid lies inside that ball, and every voxel in the box gets the
    same arithmetic as on the full grid."""
    center = np.asarray(ell.center, dtype=np.float64)
    reach = float(np.abs(ell.radii).max()) + 1.0
    lo = np.maximum(np.floor(center - reach).astype(np.int64), 0)
    hi = np.minimum(np.ceil(center + reach).astype(np.int64) + 1, dims)  # exclusive
    if np.any(hi <= lo):
        return (slice(0, 0),) * 3, np.zeros((0, 0, 0), dtype=bool)
    coords = np.indices(hi - lo, dtype=np.float64) + lo.reshape(3, 1, 1, 1)  # axes (y, x, z)
    offs = coords - center.reshape(3, 1, 1, 1)
    rot = _rotation_matrix(ell.angles)
    local = np.einsum("ji,j...->i...", rot, offs)            # R^T (p - c)
    radii = np.asarray(ell.radii, dtype=np.float64).reshape(3, 1, 1, 1)
    box = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
    return box, ((local / radii) ** 2).sum(axis=0) <= 1.0


def ellipsoid_mask(dims: tuple[int, int, int], ell: Ellipsoid) -> np.ndarray:
    """Voxels p with |R^T (p - c) / radii| <= 1, evaluated on the ellipsoid's
    box only."""
    mask = np.zeros(dims, dtype=bool)
    box, inside = _ellipsoid_on_box(dims, ell)
    mask[box] = inside
    return mask


def _plane_blocks(dims: tuple[int, int, int]) -> list[tuple[int, int]]:
    """``[y0, y1)`` blocks of about ``DRAW_BLOCK`` values that tile the y-planes
    in order.  A ``Generator`` draws the same values in consecutive pieces as
    in one call, and leaves the same state."""
    step = max(1, DRAW_BLOCK // max(1, dims[1] * dims[2]))
    return [(y, min(y + step, dims[0])) for y in range(0, dims[0], step)]


def generate_phantom(spec: PhantomSpec, seed, spacing=(1.0, 1.0, 1.0)) -> tuple[Volume, LabelMap]:
    """Rasterize a phantom: exact label map plus a noisy intensity image.

    Deterministic for a fixed seed.  Overlapping ellipsoids are resolved by
    organ-index priority: earlier organs keep contested voxels.  Each organ is
    written on its ellipsoid's box; the image is built by blocks of y-planes.
    """
    labels = np.zeros(spec.dims, dtype=np.uint8)
    for idx, ell in enumerate(spec.organs, start=1):
        box, inside = _ellipsoid_on_box(spec.dims, ell)
        sub = labels[box]
        sub[inside & (sub == 0)] = idx
    intensity = np.array([0.0] + [ell.intensity for ell in spec.organs], dtype=np.float64)
    image = np.empty(spec.dims, dtype=np.float32)
    rng = np.random.default_rng(seed)
    for y0, y1 in _plane_blocks(spec.dims):
        image[y0:y1] = intensity[labels[y0:y1]] + rng.normal(
            0.0, IMAGE_SIGMA, size=(y1 - y0,) + tuple(spec.dims[1:]))
    return Volume(image, spacing), LabelMap(labels, max(2, spec.num_classes))


def random_phantom_spec(dims: tuple[int, int, int], num_organs: int, rng) -> PhantomSpec:
    """Random non-crowded ellipsoid layout; rejection-samples centers so
    organs rarely touch (residual overlaps fall back to rasterization
    priority).  Dims too small for that are a ``ConfigError`` before any draw."""
    check_phantom_dims(dims)
    side = min(dims)
    r_lo, r_hi = (f * side for f in RADIUS_FRACTIONS)
    organs = []
    centers: list[np.ndarray] = []
    radii_max: list[float] = []
    for _ in range(num_organs):
        radii = rng.uniform(r_lo, r_hi, size=3)
        rmax = float(radii.max())
        margin = rmax + CENTER_MARGIN
        center = None
        for attempt in range(400):
            cand = np.array([rng.uniform(margin, d - 1 - margin) for d in dims])
            slack = 1.0 if attempt < 200 else 0.75
            if all(np.linalg.norm(cand - c) >= slack * (rmax + rm)
                   for c, rm in zip(centers, radii_max)):
                center = cand
                break
        if center is None:
            center = np.array([rng.uniform(margin, d - 1 - margin) for d in dims])
        centers.append(center)
        radii_max.append(rmax)
        organs.append(Ellipsoid(
            center=tuple(center),
            radii=tuple(radii),
            angles=tuple(rng.uniform(0.0, np.pi, size=3)),
            intensity=float(rng.uniform(0.4, 1.0)),
        ))
    return PhantomSpec(dims=tuple(dims), organs=tuple(organs))


def make_phantom_suite(n_scans: int, num_organs: int, dims: tuple[int, int, int], seed: int,
                       spacing=(1.0, 1.0, 1.0)) -> list[tuple[str, Volume, LabelMap]]:
    """Deterministic list of (scan_id, image, ground truth) phantoms; the
    images have voxel spacing ``spacing``."""
    scans = []
    for idx in range(n_scans):
        rng = np.random.default_rng((seed, 1000 + idx))
        spec = random_phantom_spec(dims, num_organs, rng)
        vol, gt = generate_phantom(spec, (seed, 2000 + idx), spacing)
        counts = np.bincount(gt.data.ravel(), minlength=spec.num_classes)
        empty = np.flatnonzero(counts[1:] == 0) + 1
        if empty.size:
            raise ConfigError(f"phantom organ {empty[0]} rasterized empty; dims too small")
        scans.append((f"scan{idx:03d}", vol, gt))
    return scans


def volume_fingerprint(volume: Volume) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(volume.dims, dtype=np.int64).tobytes())
    h.update(volume.data)          # Volume data is C-contiguous
    return h.hexdigest()[:16]


def _grow(lo: np.ndarray, hi: np.ndarray, by: int, dims: tuple[int, int, int]) -> Region:
    """The inclusive box ``[lo, hi]`` grown by ``by`` voxels, clipped to the grid."""
    return tuple(slice(max(int(a) - by, 0), min(int(b) + by + 1, n))
                 for a, b, n in zip(lo, hi, dims))


def _within(inner: Region, outer: Region) -> Region | None:
    """``inner`` in the coordinates of ``outer``, or None if it sticks out."""
    if any(i.start < o.start or i.stop > o.stop for i, o in zip(inner, outer)):
        return None
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=8)
def _signed_roots(dims: tuple[int, int, int]) -> np.ndarray:
    """The float32 table that decodes a signed distance code on a grid of
    ``dims``: entry ``k`` is ``sqrt(k)`` and entry ``-k`` (counted from the
    end) is ``-sqrt(k)``, for every ``k`` up to the grid's largest squared
    distance ``sum((n - 1) ** 2)``.  ``sqrt`` is taken in float64 and rounded
    once, as scipy's EDT and then a float32 cast would."""
    roots = np.sqrt(np.arange(sum((n - 1) ** 2 for n in dims) + 1.0)).astype(np.float32)
    return _read_only(np.concatenate([roots, -roots[:0:-1]]))


def _squared_edt(image: np.ndarray) -> np.ndarray:
    """Each voxel's integer squared distance to its nearest zero voxel, int32,
    from scipy's exact feature transform: its EDT squares these very offsets,
    sums them in float64 and takes the root."""
    ft = ndimage.distance_transform_edt(image, return_distances=False, return_indices=True)
    for axis, nearest in enumerate(ft):
        nearest -= np.arange(nearest.shape[axis], dtype=ft.dtype).reshape(
            [-1 if a == axis else 1 for a in range(3)])
        nearest *= nearest
    return ft.sum(axis=0, dtype=np.int32)


@dataclass
class _PhantomScan:
    gt: LabelMap
    # class -> (region, field): signed int16/int32 distance codes, or the decoded
    # float32 field once the whole grid has been asked for
    sdist: dict[int, tuple[Region, np.ndarray]] = field(default_factory=dict)

    @cached_property
    def counts(self) -> np.ndarray:
        """Voxels per class of the ground truth."""
        return np.bincount(self.gt.data.ravel(), minlength=self.gt.num_classes)

    @cached_property
    def corners(self) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """Per class from 1, the read-only inclusive int64 corners ``(lo, hi)``
        of its voxels (``None`` if it has none), from one ``find_objects`` pass."""
        return [None if box is None else
                (_read_only(np.array([s.start for s in box], dtype=np.int64)),
                 _read_only(np.array([s.stop - 1 for s in box], dtype=np.int64)))
                for box in ndimage.find_objects(self.gt.data)]


class PhantomRegistry:
    """Ground truth lookup for phantom oracles, keyed by volume fingerprint.

    Per scan it keeps every organ's tight bounding box, from one
    ``ndimage.find_objects`` pass, and per organ one signed distance field
    (positive inside, in voxels) together with the region it covers.  The
    field on a region equals the full-grid field there, byte for byte:

    - the outside distance is an exact EDT (Maurer et al., TPAMI 2003) of a
      region that holds every organ voxel, so each voxel's nearest organ
      voxel is inside it;
    - the inside distance is taken on the organ's box grown by one voxel
      (clipped to the grid), which every region is widened to hold: clamping
      an organ voxel's nearest background voxel into that box moves it no
      farther, and lands it on the box's face, which is background or the
      grid border.

    Every such distance is ``sqrt(k)`` for an integer squared distance ``k``,
    so the field is kept as signed codes ``+k`` inside and ``-k`` outside:
    int16, 2 bytes a voxel, unless the region's own ``sum((extent - 1) ** 2)``
    (the largest ``k`` a voxel and its nearest feature, both inside the
    region, can have) exceeds int16, then int32.  A read gathers the float32
    values from a per-grid table of ``+-sqrt(k)``.  A whole-grid request
    keeps the float32 field instead, so later requests are views of it.

    It also remembers each registered volume's read-only data array: a
    lookup that passes that very array, still read-only, takes its
    fingerprint from the registration, and any other array is hashed.
    """

    def __init__(self):
        self._scans: dict[str, _PhantomScan] = {}
        self._registered: dict[int, tuple[np.ndarray, str]] = {}  # id(data) -> (data, fp)

    def register(self, volume: Volume, gt: LabelMap) -> str:
        if volume.dims != gt.dims:
            raise RejectedInputError(f"volume dims {volume.dims} vs gt dims {gt.dims}")
        fp = volume_fingerprint(volume)
        self._scans[fp] = _PhantomScan(gt=gt)
        self._registered[id(volume.data)] = (volume.data, fp)
        return fp

    def lookup(self, volume: Volume) -> tuple[str, _PhantomScan]:
        data, fp = self._registered.get(id(volume.data), (None, None))
        if data is not volume.data or volume.data.flags.writeable:
            fp = volume_fingerprint(volume)
        scan = self._scans.get(fp)
        if scan is None:
            raise UnknownVolumeError("volume was not generated by the registered phantom suite")
        return fp, scan

    def signed_distance(self, fp: str, class_id: int,
                        region: Region | None = None) -> np.ndarray:
        """The class's signed distance on ``region`` (in-grid slices with
        integer bounds; default: the whole grid), float32 and read-only.  A
        region inside the cached one is decoded from its codes; once the whole
        grid has been asked for, it is that very array each time and every
        region is a view of it.  Any other region is computed afresh and
        replaces the cache."""
        scan = self._scans[fp]
        whole = tuple(slice(0, n) for n in scan.gt.dims)
        want = region or whole
        at, sd = scan.sdist.get(class_id, (None, None))
        if want == whole and (sd is None or sd.dtype != np.float32):
            at, sd = scan.sdist[class_id] = self._field(fp, class_id, whole, squared=False)
        elif at is None or _within(want, at) is None:
            at, sd = scan.sdist[class_id] = self._field(fp, class_id, want, squared=True)
        part = sd if at == want else sd[_within(want, at)]
        return part if part.dtype == np.float32 else _read_only(
            _signed_roots(scan.gt.dims)[part])

    def _field(self, fp: str, class_id: int, want: Region,
               squared: bool) -> tuple[Region, np.ndarray]:
        """The signed field on ``want`` widened to hold the organ's box grown
        by one voxel, and that region: int16/int32 codes if ``squared``, else
        float32 distances from scipy's EDT, the same values.  The whole grid
        is not decoded from codes: the EDT's larger temporaries raise glibc's
        dynamic heap trim threshold, and below it a process that serves
        whole-grid answers returns and re-faults their pages on every answer."""
        scan = self._scans[fp]
        grown = _grow(*self.organ_bbox(fp, class_id), 1, scan.gt.dims)
        at = tuple(slice(min(w.start, g.start), max(w.stop, g.stop)) for w, g in zip(want, grown))
        mask = scan.gt.data[at] == class_id
        edt = _squared_edt if squared else ndimage.distance_transform_edt
        sd = -edt(~mask)
        inner = _within(grown, at)
        sd[inner] += edt(mask[inner])      # edt(mask) is 0 off the mask, edt(~mask) on it
        if not squared:
            dtype = np.float32
        elif sum((s.stop - s.start - 1) ** 2 for s in at) <= np.iinfo(np.int16).max:
            dtype = np.int16
        else:
            dtype = np.int32
        return at, _read_only(sd.astype(dtype))

    def organ_bbox(self, fp: str, class_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only inclusive int64 corners ``(lo, hi)`` of the class's voxels."""
        corners = self._scans[fp].corners
        if not 1 <= class_id <= len(corners) or corners[class_id - 1] is None:
            raise RejectedInputError(f"phantom class {class_id} is empty or not an organ")
        return corners[class_id - 1]


def _rng_for(*key_parts) -> np.random.Generator:
    h = hashlib.sha256()
    for part in key_parts:
        h.update(str(part).encode())
        h.update(b"\x00")
    return np.random.default_rng(int.from_bytes(h.digest()[:8], "little"))


class PhantomSpecialist(_HandOff, SpecialistOracle):
    """Closed-form stand-in for a trainable segmentation network.

    ``predict`` returns labels: the registered ground truth corrupted by the
    per-class prediction quality q in [0, 1], with boundary jitter scaled by
    (1 - q), and classes with q = 0 dropped (never-supervised organs stay
    invisible; unfitted, every organ is).  Each class is predicted
    ``sd + (1 - q) * JITTER_SIGMA * noise > 0`` with a standard normal
    ``noise`` field, and its labels are written on the organ's box only:

    - every voxel has ``|sd| >= 1``, so where ``scale * max|noise| < 1/2``
      the prediction is the organ mask itself and no signed distance field
      is computed for that class.  This holds at q = 1, and otherwise once
      the class's field has been drawn: its noise is keyed on (seed, volume,
      class) alone, so the largest ``|noise|`` of each draw is kept as one
      float, and a later predict at a high enough q skips the draw;
    - otherwise the noise is drawn over the whole grid, so the RNG stream and
      the values on the box do not depend on the box.  With
      ``reach = ceil(scale * max(noise))``, a voxel outside the organ's box
      grown by ``reach`` is at least ``reach + 1`` voxels from the organ, so
      its ``sd + scale * noise`` is at most -1 (a margin that float32
      rounding cannot cross) and it stays unlabeled.  The signed distance,
      the float32 noise and the comparison are taken on that grown box alone.

    fit() is a closed-form quality update, not gradient descent: each
    supervised class's q moves toward a target derived from how much of the
    class's ground truth the supervision supports versus contradicts,

        target_q = clip((support - cw * contradiction) / gt_voxels, 0, 1)

    aggregated over the fit set, counting only voxels with a nonzero
    ``weight_mask``; the counts come from one joint ``np.bincount`` of the
    used voxels' (ground truth, target) pairs per example, plus, when a mask
    is given, the scan's ground truth count, taken once per scan.  Examples
    are counted as they are taken, and an empty fit set is rejected.  Each fit
    sets q to target_q, which models training to convergence, so quality is
    proportional to the labeled voxel coverage and repeated fits on identical
    data are idempotent.
    Under "full" supervision every voxel of every class is supervised (absent
    organs read as background and contradict); under "partial" supervision
    only channels in labeled/pseudo sets are trained and absent organs are
    simply ignored.
    """

    JITTER_SIGMA = 2.0   # boundary jitter scale at q = 0, voxels

    def __init__(self, registry: PhantomRegistry, quality: float = 0.0,
                 contradiction_weight: float = 0.5, seed: int = 0):
        if not 0.0 <= quality <= 1.0:
            raise RejectedInputError("quality must lie in [0, 1]")
        self.registry = registry
        self.contradiction_weight = float(contradiction_weight)
        self.seed = int(seed)
        self._base_quality = float(quality)
        self._quality: dict[int, float] = {}
        self._noise_peak: dict[tuple[str, int], float] = {}  # max |noise| per (fp, class)

    def quality(self, class_id: int) -> float:
        return self._quality.get(class_id, self._base_quality)

    def predict(self, volume: Volume) -> LabelMap:
        return self._take(self._predict, volume)

    def predict_all(self, volumes: Sequence[Volume]) -> list[LabelMap]:
        """``predict`` of each volume, in order, as a phantom batch."""
        return [self._handed(ahead, self.predict, volume)
                for volume, ahead in _overlapped(self._predict, volumes)]

    def _predict(self, volume: Volume) -> LabelMap:
        fp, scan = self.registry.lookup(volume)
        C = scan.gt.num_classes
        dims = scan.gt.dims
        labels = np.zeros(dims, dtype=np.uint8)
        for c in range(1, C):
            q = self.quality(c)
            if q <= 0.0:
                continue  # organ invisible to the model
            lo, hi = self.registry.organ_bbox(fp, c)  # rejects an empty class
            scale = (1.0 - q) * self.JITTER_SIGMA   # one scalar before the float32 noise
            peak = self._noise_peak.get((fp, c))
            noise = None
            if scale > 0.0 and (peak is None or scale * peak >= 0.5):
                noise = _rng_for(self.seed, fp, c).standard_normal(dims)
                peak = self._noise_peak[fp, c] = max(float(noise.max()), -float(noise.min()))
            if noise is None or scale * peak < 0.5:
                box = _grow(lo, hi, 0, dims)
                corrupted = scan.gt.data[box] == c    # == signed_distance(fp, c) > 0
            else:
                reach = int(np.ceil(scale * max(float(noise.max()), 0.0)))
                box = _grow(lo, hi, reach, dims)
                sd = self.registry.signed_distance(fp, c, box)
                corrupted = sd + scale * noise[box].astype(np.float32) > 0.0
            sub = labels[box]
            sub[(sub == 0) & corrupted] = c
        return LabelMap(labels, C)

    def fit(self, examples: Iterable[TrainingExample], supervision: str = "full") -> None:
        if supervision not in ("full", "partial"):
            raise RejectedInputError(f"unknown supervision mode {supervision!r}")
        support: dict[int, float] = {}
        contra: dict[int, float] = {}
        gt_total: dict[int, float] = {}
        seen = 0
        for seen, ex in enumerate(examples, start=1):
            _, scan = self.registry.lookup(ex.volume)
            C = scan.gt.num_classes
            K = max(C, ex.target.labels.num_classes)        # every label is below K
            code = scan.gt.data.astype(np.uint16).ravel()
            code *= K
            code += ex.target.labels.data.ravel()
            if ex.weight_mask is not None:
                code = code[ex.weight_mask.ravel() != 0]
            joint = np.bincount(code, minlength=K * K).reshape(K, K)  # |gt=r & y=s & w|
            gt_w, y_w, both = joint.sum(axis=1), joint.sum(axis=0), joint.diagonal()
            gt_count = gt_w if ex.weight_mask is None else scan.counts
            if supervision == "full":
                supervised = frozenset(range(1, C))
            else:
                supervised = frozenset(ex.labeled_classes) | ex.target.pseudo_classes
            for c in range(1, C):
                gt_total[c] = gt_total.get(c, 0.0) + float(gt_count[c])
                if c not in supervised:
                    continue
                support[c] = support.get(c, 0.0) + float(both[c])
                contra[c] = contra.get(c, 0.0) + float(gt_w[c] + y_w[c] - 2 * both[c])
            del ex, code        # before the next example is built
        if not seen:
            raise RejectedInputError("fit requires at least one example")
        for c, total in gt_total.items():
            if total == 0.0 or (c not in support and c not in contra):
                continue
            target_q = (support.get(c, 0.0)
                        - self.contradiction_weight * contra.get(c, 0.0)) / total
            self._quality[c] = min(1.0, max(0.0, target_q))


class PhantomGeneralist(_HandOff, GeneralistOracle):
    """Closed-form stand-in for a frozen promptable segmentation model.

    The organ whose padded bounding box best overlaps the prompt-derived ROI
    is returned, degraded as a function of prompt quality: below
    ``MATCH_THRESHOLD`` IoU the output is shifted toward the prompts, eroded
    and low-confidence.  Boundary noise and the odds of false-positive blobs
    near the organ both scale with (1 - cooperativeness), so uncooperative
    settings yield genuinely corrupted pseudo-label candidates.  Per-voxel
    organ probability is sigmoid(slope * signed_distance), so the candidate
    mask is exactly the voxel set with probability above 1/2, and sharper
    slopes (better prompts, higher cooperativeness) mean lower entropy.
    Prompts overlapping no organ yield an empty mask with uniform
    probabilities.
    """

    KAPPA = 3.0            # probability slope at perfect prompts and cooperativeness
    NOISE_SIGMA = 1.5      # boundary noise scale at cooperativeness 0, voxels
    BLOB_COUNT = 3         # candidate false-positive blobs per segment call
    BLOB_RADIUS = 2.5      # voxels
    MATCH_THRESHOLD = 0.25  # prompt/organ box IoU below which output degrades

    def __init__(self, registry: PhantomRegistry, cooperativeness: float = 1.0,
                 assumed_padding: int = DEFAULT_PADDING, seed: int = 0):
        if not 0.0 <= cooperativeness <= 1.0:
            raise RejectedInputError("cooperativeness must lie in [0, 1]")
        self.registry = registry
        self.g = float(cooperativeness)
        self.assumed_padding = int(assumed_padding)
        self.seed = int(seed)

    def _match(self, fp: str, scan: _PhantomScan,
               prompts: BoxPromptPair) -> tuple[int | None, float, np.ndarray]:
        """The first organ of highest padded-box/ROI IoU (``None`` if no box
        overlaps), that IoU and the ROI's offset from the box's center."""
        dims = np.asarray(scan.gt.dims)
        roi_lo, roi_hi = np.array(roi_ranges(prompts, 0, scan.gt.dims), dtype=np.float64).T
        lo, hi = np.array([self.registry.organ_bbox(fp, c)
                           for c in range(1, scan.gt.num_classes)]).transpose(1, 0, 2)
        plo = np.maximum(lo - self.assumed_padding, 0)
        phi = np.minimum(hi + self.assumed_padding, dims - 1)
        side = np.minimum(roi_hi, phi) - np.maximum(roi_lo, plo) + 1
        inter = np.prod(np.maximum(side, 0.0), axis=1)
        vol_box = np.prod(phi - plo + 1, axis=1)
        iou = inter / (np.prod(roi_hi - roi_lo + 1) + vol_box - inter)
        best = int(np.argmax(iou))
        roi_center = (roi_lo + roi_hi) / 2.0
        if iou[best] <= 0.0:
            return None, 0.0, roi_center
        return best + 1, float(iou[best]), roi_center - (plo[best] + phi[best]) / 2.0

    def segment(self, volume: Volume, prompts: BoxPromptPair,
                region: Region | None = None) -> Answer:
        """The whole-grid answer sliced to ``region``, byte for byte."""
        return self._take(self._segment, volume, prompts, region)

    def segment_all(self, requests: Sequence[tuple[Volume, BoxPromptPair, Region | None]]
                    ) -> Iterator[Answer | PromptsegError]:
        """``GeneralistOracle.segment_all`` as a phantom batch."""
        pairs = _overlapped(lambda req: self._segment(*req), requests)
        return _each_answer(lambda req, ahead: self._handed(ahead, self.segment, *req), pairs)

    def _segment(self, volume: Volume, prompts: BoxPromptPair,
                 region: Region | None = None) -> Answer:
        """The noise is drawn on the whole grid, a block of y-planes at a time, as
        the blob draws follow it in the RNG stream; only its rows of ``region``
        are kept, and every other field is taken on the region alone."""
        fp, scan = self.registry.lookup(volume)
        dims = scan.gt.dims
        region = _checked_region(region, dims)
        shape = tuple(s.stop - s.start for s in region)
        c, iou, offset = self._match(fp, scan, prompts)
        if c is None:
            return np.zeros(shape, dtype=bool), ProbVolume(np.full((2,) + shape, np.float32(0.5)))
        if iou < self.MATCH_THRESHOLD:
            # shifted field: voxel p reads p - shift, or -max(dims) off the grid
            shift = np.clip(np.round(offset).astype(int), -8, 8).tolist()
            src = tuple(slice(max(r.start - d, 0), min(r.stop - d, n))
                        for r, d, n in zip(region, shift, dims))
            sd = np.full(shape, -float(max(dims)))
            if all(s.start < s.stop for s in src):
                dst = tuple(slice(s.start + d - r.start, s.stop + d - r.start)
                            for s, d, r in zip(src, shift, region))
                sd[dst] = self.registry.signed_distance(fp, c, src)
            sd -= 1.0 + 2.0 * (self.MATCH_THRESHOLD - iou) / self.MATCH_THRESHOLD  # erode
        else:
            sd = self.registry.signed_distance(fp, c, region).astype(np.float64)
        rng = _rng_for(self.seed, fp, c, format_prompts(prompts))
        scale = (1.0 - self.g) * self.NOISE_SIGMA
        rows, cols, deps = region
        buf = np.empty((_plane_blocks(dims)[0][1],) + dims[1:])
        for y0, y1 in _plane_blocks(dims):
            noise = rng.standard_normal(out=buf[:y1 - y0])
            a, b = max(y0, rows.start), min(y1, rows.stop)       # the block's rows in region
            if a < b:
                sd[a - rows.start:b - rows.start] += scale * noise[a - y0:b - y0, cols, deps]
        lo, hi = self.registry.organ_bbox(fp, c)
        spread = (np.asarray(hi) - lo) / 2.0 + self.assumed_padding
        organ_center = (np.asarray(lo) + hi) / 2.0
        for _ in range(self.BLOB_COUNT):
            blob_center = organ_center + rng.uniform(-spread, spread)
            if rng.uniform() >= 1.0 - self.g:
                continue
            sd = np.maximum(sd, self.BLOB_RADIUS - _distance_from(region, blob_center))
        slope = self.KAPPA * (0.2 + 0.8 * self.g * min(1.0, iou))
        p_fg = (1.0 / (1.0 + np.exp(-slope * sd))).astype(np.float32)
        return sd > 0.0, ProbVolume(np.stack([np.float32(1.0) - p_fg, p_fg]))


def _distance_from(region: Region, center: np.ndarray) -> np.ndarray:
    """Euclidean distance of every voxel of ``region`` from ``center``, from
    three broadcast 1-D squared offsets."""
    sq = [(np.arange(s.start, s.stop, dtype=np.float64) - float(c)) ** 2
          for s, c in zip(region, center)]
    return np.sqrt(sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :])


# --- directory-exchange oracle ----------------------------------------------

POLL_INTERVAL_S = 0.05


class FileOracle(SpecialistOracle, GeneralistOracle):
    """Client half of ``exchange``: responses are read with retry until the
    deadline, so responders need not write atomically.  ``exchange_dir`` is
    created if it does not exist."""

    def __init__(self, exchange_dir, timeout: float = 60.0):
        self.root = Path(exchange_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.timeout = float(timeout)

    def _await_file(self, path: Path, deadline: float, decode: bool = True):
        """Poll for ``path``; the pause starts at 1 ms and doubles to ``POLL_INTERVAL_S``."""
        pause = 0.001
        while True:
            corrupt = None
            if path.exists():
                try:  # read_volume is looked up per call, so a wrapper around it sees every read
                    return nifti_io.read_volume(path) if decode else None
                except CorruptFileError as exc:
                    corrupt = exc  # mid-write; retry
                except (NiftiError, RejectedInputError) as exc:
                    raise OracleProtocolError(f"{path}: {exc}") from exc
            if time.monotonic() > deadline:
                if corrupt is not None:
                    raise OracleProtocolError(
                        f"response at {path} still corrupt after {self.timeout}s: "
                        f"{corrupt}") from corrupt
                raise OracleUnavailableError(f"no response at {path} within {self.timeout}s")
            time.sleep(pause)
            pause = min(2 * pause, POLL_INTERVAL_S)

    def predict(self, volume: Volume, *, sent: str | None = None) -> LabelMap:
        """``sent`` is the uid of a request already written for ``volume``."""
        uid = sent or exchange.send(self.root, volume)
        deadline = time.monotonic() + self.timeout
        resp = self._await_file(exchange.path(self.root, "probs", uid), deadline)
        return exchange.predict_labels(resp, volume.dims)

    def predict_all(self, volumes: Sequence[Volume]) -> list[LabelMap]:
        """Every request is written before the first answer is awaited."""
        uids = [exchange.send(self.root, v) for v in volumes]
        return [self.predict(v, sent=uid) for v, uid in zip(volumes, uids)]

    def segment(self, volume: Volume, prompts: BoxPromptPair,
                region: Region | None = None, *, sent: str | None = None) -> Answer:
        """The checked whole-grid answer, cropped; ``sent`` as for ``predict``."""
        region = _checked_region(region, volume.dims)
        uid = sent or exchange.send(self.root, volume, prompts)
        deadline = time.monotonic() + self.timeout
        mask = self._await_file(exchange.path(self.root, "mask", uid), deadline)
        probs = self._await_file(exchange.path(self.root, "probs", uid), deadline)
        exchange.check_segment(mask, probs, volume.dims)
        return mask.data[region] > 0, probs.crop(region)

    def segment_all(self, requests: Sequence[tuple[Volume, BoxPromptPair, Region | None]]
                    ) -> Iterator[Answer | PromptsegError]:
        """Every region is checked before any request is written, and every
        request before this returns; each answer is awaited as it is taken."""
        checked = [(v, p, _checked_region(r, v.dims)) for v, p, r in requests]
        sent = [(v, p, r, exchange.send(self.root, v, p)) for v, p, r in checked]
        return _each_answer(lambda v, p, r, uid: self.segment(v, p, r, sent=uid), sent)

    def fit(self, examples: Iterable[TrainingExample], supervision: str = "full") -> None:
        """Each example is written as it is taken; if taking one raises, no trainer starts."""
        uid = exchange.send_fit(self.root, examples, supervision)
        deadline = time.monotonic() + self.timeout
        self._await_file(exchange.path(self.root, "done", uid), deadline, decode=False)
