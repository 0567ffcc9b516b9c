"""The phantom testbed: synthetic ellipsoid scans with exact ground truth, and
closed-form stand-ins for both oracles over them, so the whole pipeline runs
at desk scale without a model.

Phantom oracles are bitwise deterministic given (seed, quality, inputs):
every stochastic field is drawn from an RNG keyed on the oracle seed, a
fingerprint of the input volume, and the class (plus the prompt bytes for
the generalist), never from mutable RNG state.
A phantom batch (``PhantomSpecialist.predict_all``,
``PhantomGeneralist.segment_all``) thus has pure items, and on more than one
CPU a helper thread computes item 2j + 1 while the caller computes item 2j.
Each item still goes through one public call on the caller's thread, in batch
order; the batch passes a helper item's ``Future`` to that call as ``ahead``,
and the call returns its result, or raises its exception.  The caches both
threads fill are keyed per (scan, class) and hold the same bytes whichever
thread fills them, so no output depends on the helper.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, PromptsegError, RejectedInputError, UnknownVolumeError
from .oracles import (Answer, GeneralistOracle, SpecialistOracle, TrainingExample,
                      _checked_region, _each_answer)
from .prompting import DEFAULT_PADDING, BoxPromptPair, format_prompts
from .refinement import roi_ranges
from .volgrid import Box, LabelMap, ProbVolume, Volume, _freeze, label_boxes, union_box


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


@dataclass(frozen=True)
class Ellipsoid:
    """Axis lengths are semi-axes in voxels along (y, x, z) before rotation;
    the rotation turns by ``angles[i]`` radians about the fixed array axis
    ``2 - i``, in that order (scipy's extrinsic ``from_euler("zyx", angles)``).
    ``_rotation_matrix`` makes it with scipy's quaternion float operations in
    scipy's order: bit for bit scipy's ``as_matrix()``, without ``scipy.spatial``."""

    center: tuple[float, float, float]
    radii: tuple[float, float, float]
    angles: tuple[float, float, float] = (0.0, 0.0, 0.0)
    intensity: float = 1.0


#: Standard deviation of the Gaussian noise added to phantom intensities.
IMAGE_SIGMA = 0.05
#: An organ's semi-axes are drawn from this range of fractions of the grid's shortest side.
RADIUS_FRACTIONS = (0.11, 0.17)
#: Values in one block of a whole-grid draw (a block of y-planes) or count.
DRAW_BLOCK = 1 << 16
#: Values in one block of ``_min_plus``'s sums.
MIN_PLUS_BLOCK = 1 << 17
#: A standard normal exceeds this with probability about 1e-9 (see ``PhantomSpecialist``).
NOISE_BOUND = 6.0
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
    """The ``Ellipsoid`` rotation: quaternions (scalar last) composed extrinsically."""
    def compose(p, q):      # the product p q
        return [p[3] * q[0] + q[3] * p[0] + (p[1] * q[2] - p[2] * q[1]),
                p[3] * q[1] + q[3] * p[1] + (p[2] * q[0] - p[0] * q[2]),
                p[3] * q[2] + q[3] * p[2] + (p[0] * q[1] - p[1] * q[0]),
                p[3] * q[3] - p[0] * q[0] - p[1] * q[1] - p[2] * q[2]]

    (cz, sz), (cy, sy), (cx, sx) = ((math.cos(a / 2), math.sin(a / 2)) for a in angles)
    x, y, z, w = compose([sx, 0.0, 0.0, cx], compose([0.0, sy, 0.0, cy], [0.0, 0.0, sz, cz]))
    return np.array([[x * x - y * y - z * z + w * w, 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), -x * x - y * y + z * z + w * w]])


def _ellipsoid_on_box(dims: tuple[int, int, int],
                      ell: Ellipsoid) -> tuple[tuple[slice, ...], np.ndarray]:
    """The box ``center +- max(radii)``, padded by one voxel and clipped to the
    grid, and the ellipsoid's mask on it (empty when the ball misses the grid).
    The ellipsoid lies inside that ball, and every voxel in the box gets the
    same arithmetic as on the full grid, from each axis's 1-D offsets."""
    center = np.asarray(ell.center, dtype=np.float64)
    reach = float(np.abs(ell.radii).max()) + 1.0
    lo = np.maximum(np.floor(center - reach).astype(np.int64), 0)
    hi = np.minimum(np.ceil(center + reach).astype(np.int64) + 1, dims)  # exclusive
    if np.any(hi <= lo):
        return (slice(0, 0),) * 3, np.zeros((0, 0, 0), dtype=bool)
    oy, ox, oz = (np.arange(a, b, dtype=np.float64).reshape(shape) - c for a, b, c, shape
                  in zip(lo, hi, center, ((-1, 1, 1), (1, -1, 1), (1, 1, -1))))
    rot = _rotation_matrix(ell.angles)      # local coordinate i is (R^T (p - c))_i
    total = sum(((rot[0, i] * oy + rot[1, i] * ox + rot[2, i] * oz) / ell.radii[i]) ** 2
                for i in range(3))
    return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi)), total <= 1.0


def _plane_blocks(dims: tuple[int, int, int]) -> list[tuple[int, int]]:
    """``[y0, y1)`` blocks of about ``DRAW_BLOCK`` values that tile the y-planes
    in order.  A ``Generator`` draws the same values in consecutive pieces as
    in one call, and leaves the same state."""
    step = max(1, DRAW_BLOCK // max(1, dims[1] * dims[2]))
    return [(y, min(y + step, dims[0])) for y in range(0, dims[0], step)]


def _block_counts(codes, size: int, minlength: int) -> np.ndarray:
    """The intp sum of ``np.bincount(codes(at), minlength=minlength)`` over the
    slices ``at`` of ``DRAW_BLOCK`` values that tile ``range(size)``: one
    whole-grid count without a whole-grid intp copy of the codes."""
    total = np.zeros(minlength, dtype=np.intp)
    for i in range(0, size, DRAW_BLOCK):
        total += np.bincount(codes(slice(i, i + DRAW_BLOCK)), minlength=minlength)
    return total


def _noise_blocks(rng: np.random.Generator, dims: tuple[int, int, int],
                  box: Box) -> Iterator[tuple[np.ndarray, slice, np.ndarray]]:
    """``rng.standard_normal(dims)``, one ``_plane_blocks`` block at a time in one
    reused buffer: each block, the rows of ``box`` it holds (from the box's first
    row; maybe none) and its values on ``box`` there."""
    rows, cols, deps = box
    buf = np.empty((_plane_blocks(dims)[0][1],) + tuple(dims[1:]))
    for y0, y1 in _plane_blocks(dims):
        block = rng.standard_normal(out=buf[:y1 - y0])
        a, b = (min(max(r, y0), y1) for r in (rows.start, rows.stop))
        yield block, slice(a - rows.start, b - rows.start), block[a - y0:b - y0, cols, deps]


def _noise_on(rng: np.random.Generator, dims: tuple[int, int, int],
              box: Box) -> tuple[float, float, np.ndarray]:
    """The max and min of ``rng.standard_normal(dims)``, and its float32 values on ``box``."""
    top, bottom = -math.inf, math.inf
    noise = np.empty(tuple(s.stop - s.start for s in box), dtype=np.float32)
    for block, at, part in _noise_blocks(rng, dims, box):
        top, bottom = max(top, float(block.max())), min(bottom, float(block.min()))
        noise[at] = part
    return top, bottom, noise


def generate_phantom(spec: PhantomSpec, seed, spacing=(1.0, 1.0, 1.0)) -> tuple[Volume, LabelMap]:
    """Rasterize a phantom: exact label map plus a noisy intensity image.

    Deterministic for a fixed seed.  Overlapping ellipsoids are resolved by
    organ-index priority: earlier organs keep contested voxels.  Each organ is
    written on its ellipsoid's box; the image is built by blocks of y-planes.
    """
    return _rasterized(spec, seed, spacing)[:2]


def _rasterized(spec: PhantomSpec, seed, spacing) -> tuple[Volume, LabelMap, list[int]]:
    """``generate_phantom``'s scan, and the organs that wrote no voxel on their box."""
    labels = np.zeros(spec.dims, dtype=np.uint8)
    empty = []
    for idx, ell in enumerate(spec.organs, start=1):
        box, inside = _ellipsoid_on_box(spec.dims, ell)
        sub = labels[box]
        inside &= sub == 0
        sub[inside] = idx
        if not inside.any():
            empty.append(idx)
    intensity = np.array([0.0] + [ell.intensity for ell in spec.organs], dtype=np.float64)
    image = np.empty(spec.dims, dtype=np.float32)
    whole = tuple(slice(0, n) for n in spec.dims)
    for _, at, noise in _noise_blocks(np.random.default_rng(seed), spec.dims, whole):
        image[at] = intensity[labels[at]] + IMAGE_SIGMA * noise
    return Volume(image, spacing), LabelMap(labels, max(2, spec.num_classes)), empty


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
        vol, gt, empty = _rasterized(spec, (seed, 2000 + idx), spacing)
        if empty:
            raise ConfigError(f"phantom organ {empty[0]} rasterized empty; dims too small")
        scans.append((f"scan{idx:03d}", vol, gt))
    return scans


def volume_fingerprint(volume: Volume) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(volume.dims, dtype=np.int64).tobytes())
    h.update(volume.data)          # Volume data is C-contiguous
    return h.hexdigest()[:16]


def _grow(lo: np.ndarray, hi: np.ndarray, by: int, dims: tuple[int, int, int]) -> Box:
    """The inclusive box ``[lo, hi]`` grown by ``by`` voxels, clipped to the grid."""
    return tuple(slice(max(int(a) - by, 0), min(int(b) + by + 1, n))
                 for a, b, n in zip(lo, hi, dims))


def _within(inner: Box, outer: Box) -> Box | None:
    """``inner`` in the coordinates of ``outer``, or None if it sticks out."""
    if any(i.start < o.start or i.stop > o.stop for i, o in zip(inner, outer)):
        return None
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


@lru_cache(maxsize=8)
def _signed_roots(dims: tuple[int, int, int]) -> np.ndarray:
    """The float32 table that decodes a signed distance code on a grid of
    ``dims``: entry ``k`` is ``sqrt(k)`` and entry ``-k`` (counted from the
    end) is ``-sqrt(k)``, for every ``k`` up to the grid's largest squared
    distance ``sum((n - 1) ** 2)``.  ``sqrt`` is taken in float64 and rounded
    once, as a float64 EDT and then a float32 cast would."""
    roots = np.sqrt(np.arange(sum((n - 1) ** 2 for n in dims) + 1.0)).astype(np.float32)
    return _freeze(np.concatenate([roots, -roots[:0:-1]]))


def _squared_edt(image: np.ndarray) -> np.ndarray:
    """Each voxel's exact squared distance to its nearest zero voxel (there is one): from
    ``big`` off the zeros, each axis takes the min-plus ``g[i] = min_j f[j] + (i - j) ** 2``
    along its lines (Saito & Toriwaki, Pattern Recognition 1994).  A line that no zero
    reaches yet holds only values ``>= big``: pass k runs the lines whose coordinates on
    the later axes lie in the zeros' box, and takes its sources j on axis k in that box,
    as no other j can win on a line that holds a value below ``big``.  Every sum stays
    below ``2 * big``, so int16 while that fits."""
    big = sum((n - 1) ** 2 for n in image.shape) + 1
    dtype = np.int16 if 2 * big <= np.iinfo(np.int16).max else np.int32
    f = np.where(image, dtype(big), dtype(0))
    planes = [np.flatnonzero(~image.all(axis=tuple(b for b in range(image.ndim) if b != a)))
              for a in range(image.ndim)]               # the planes of each axis with a zero
    box = tuple(slice(int(p[0]), int(p[-1]) + 1) if p.size else slice(0, 0) for p in planes)
    for axis in range(image.ndim):
        lines = np.moveaxis(f[(slice(None),) * (axis + 1) + box[axis + 1:]], axis, 0)
        g = _min_plus(np.ascontiguousarray(lines).reshape(len(lines), -1), box[axis])
        lines[...] = g.reshape(lines.shape)
    return f


def _min_plus(f: np.ndarray, sources: slice) -> np.ndarray:
    """The min-plus along axis 0 of ``f`` (n, lines) over ``j`` in ``sources`` and ``j = i``,
    by blocks of lines and of ``j`` whose sums hold about ``MIN_PLUS_BLOCK`` values."""
    n, lines = f.shape
    square = (np.arange(n, dtype=f.dtype)[:, None] - np.arange(n, dtype=f.dtype)) ** 2
    width = max(1, MIN_PLUS_BLOCK // n)             # lines in one block
    step = max(1, width // max(1, lines))           # sources in one block
    g = f.copy()
    for a in range(0, lines, width):
        part = g[:, a:a + width]
        for j in range(sources.start, sources.stop, step):
            k = min(j + step, sources.stop)
            sums = f[None, j:k, a:a + width] + square[:, j:k, None]
            np.minimum(part, sums.min(axis=1) if step > 1 else sums[:, 0], out=part)
    return g


@dataclass
class _PhantomScan:
    gt: LabelMap
    # class -> (region, field): signed int16/int32 distance codes, or the decoded
    # float32 field once the whole grid has been asked for
    sdist: dict[int, tuple[Box, np.ndarray]] = field(default_factory=dict)

    @cached_property
    def counts(self) -> np.ndarray:
        """Voxels per class of the ground truth, counted a block at a time."""
        flat = self.gt.data.ravel()
        return _block_counts(lambda at: flat[at], flat.size, self.gt.num_classes)

    @cached_property
    def corners(self) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """Per class from 1, the read-only inclusive int64 corners ``(lo, hi)``
        of its voxels (``None`` if it has none), from one ``label_boxes`` pass."""
        return [None if box is None else
                (_freeze(np.array([s.start for s in box], dtype=np.int64)),
                 _freeze(np.array([s.stop - 1 for s in box], dtype=np.int64)))
                for box in label_boxes(self.gt.data, self.gt.num_classes - 1)]


class PhantomRegistry:
    """Ground truth lookup for phantom oracles, keyed by volume fingerprint.

    Per scan it keeps every organ's tight bounding box, from one
    ``label_boxes`` pass, and per organ one signed distance field (positive
    inside, in voxels) together with the region it covers.  The field on a
    region equals the full-grid field there, byte for byte:

    - the outside distance is an exact EDT (``_squared_edt``) of a region
      that holds every organ voxel, so each voxel's nearest organ voxel is
      inside it; since the EDT's passes take their sources in the organ's box,
      it costs about the region's voxels times the organ's extent per axis;
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
    values, those of scipy's EDT cast to float32, from a per-grid table of
    ``+-sqrt(k)``; a whole-grid request keeps them, so later ones are views.
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
        """The fingerprint and scan of ``volume``.  A registered volume's data
        array, passed again and still read-only, is not hashed: the array itself
        names the image.  So an array the package has made read-only must not be
        made writable and changed; any other array is hashed."""
        data, fp = self._registered.get(id(volume.data), (None, None))
        if data is not volume.data or volume.data.flags.writeable:
            fp = volume_fingerprint(volume)
        scan = self._scans.get(fp)
        if scan is None:
            raise UnknownVolumeError("volume was not generated by the registered phantom suite")
        return fp, scan

    def signed_distance(self, fp: str, class_id: int,
                        region: Box | None = None) -> np.ndarray:
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
        if at is None or _within(want, at) is None:
            at, sd = scan.sdist[class_id] = self._field(fp, class_id, want)
        part = sd if at == want else sd[_within(want, at)]
        if part.dtype != np.float32:
            part = _freeze(_signed_roots(scan.gt.dims)[part])
            if want == whole:
                scan.sdist[class_id] = at, part
        return part

    def _field(self, fp: str, class_id: int, want: Box) -> tuple[Box, np.ndarray]:
        """The signed field's codes on ``want`` widened to hold the organ's box
        grown by one voxel, and that region."""
        scan = self._scans[fp]
        grown = _grow(*self.organ_bbox(fp, class_id), 1, scan.gt.dims)
        at = union_box((want, grown))
        mask = scan.gt.data[at] == class_id
        sd = -_squared_edt(~mask)
        inner = _within(grown, at)
        sd[inner] += _squared_edt(mask[inner])  # 0 off the mask, as the outside one is on it
        small = sum((s.stop - s.start - 1) ** 2 for s in at) <= np.iinfo(np.int16).max
        return at, _freeze(sd.astype(np.int16 if small else np.int32))

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


class PhantomSpecialist(SpecialistOracle):
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
    - otherwise the noise is drawn over the whole grid, a block of y-planes at
      a time, so the RNG stream and the values on the box do not depend on the
      box.  With ``reach = ceil(scale * max(noise))``, a voxel outside the
      organ's box grown by ``reach`` is at least ``reach + 1`` voxels from the
      organ, so its ``sd + scale * noise`` is at most -1 (a margin that float32
      rounding cannot cross) and it stays unlabeled.  The signed distance, the
      float32 noise and the comparison are taken on that grown box alone.  The
      draw keeps its max and min and the noise on the organ's box grown by
      ``ceil(scale * NOISE_BOUND)``; in the rare case that ``reach`` passes
      that, the same key draws the same field again and keeps the reach box.

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

    def predict(self, volume: Volume, *, ahead: Future | None = None) -> LabelMap:
        """``ahead`` is a batch's ``Future`` of this very prediction."""
        return self._predict(volume) if ahead is None else ahead.result()

    def predict_all(self, volumes: Sequence[Volume]) -> list[LabelMap]:
        """``predict`` of each volume, in order, as a phantom batch."""
        return [self.predict(volume, ahead=ahead)
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
                kept = _grow(lo, hi, math.ceil(scale * NOISE_BOUND), dims)
                top, bottom, noise = _noise_on(_rng_for(self.seed, fp, c), dims, kept)
                peak = self._noise_peak[fp, c] = max(top, -bottom)
            if noise is None or scale * peak < 0.5:
                box = _grow(lo, hi, 0, dims)
                corrupted = scan.gt.data[box] == c    # == signed_distance(fp, c) > 0
            else:
                box = _grow(lo, hi, math.ceil(scale * max(top, 0.0)), dims)
                if _within(box, kept) is None:    # past NOISE_BOUND: the same draw again
                    kept, (_, _, noise) = box, _noise_on(_rng_for(self.seed, fp, c), dims, box)
                sd = self.registry.signed_distance(fp, c, box)
                corrupted = sd + scale * noise[_within(box, kept)] > 0.0
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
            gt, y = scan.gt.data.ravel(), ex.target.labels.data.reshape(scan.gt.data.size)
            w = None if ex.weight_mask is None else ex.weight_mask.reshape(gt.size)

            def pairs(at):      # the code r * K + s of each used voxel with gt = r, y = s
                code = gt[at] * np.uint16(K) + y[at]
                return code if w is None else code[w[at] != 0]
            joint = _block_counts(pairs, gt.size, K * K).reshape(K, K)   # |gt=r & y=s & w|
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
            del ex, y, w  # before the next example is built
        if not seen:
            raise RejectedInputError("fit requires at least one example")
        for c, total in gt_total.items():
            if total == 0.0 or (c not in support and c not in contra):
                continue
            target_q = (support.get(c, 0.0)
                        - self.contradiction_weight * contra.get(c, 0.0)) / total
            self._quality[c] = min(1.0, max(0.0, target_q))


class PhantomGeneralist(GeneralistOracle):
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

    def segment(self, volume: Volume, prompts: BoxPromptPair, region: Box | None = None,
                *, ahead: Future | None = None) -> Answer:
        """The whole-grid answer sliced to ``region``, byte for byte; ``ahead``
        is a batch's ``Future`` of this very answer."""
        return self._segment(volume, prompts, region) if ahead is None else ahead.result()

    def segment_all(self, requests: Sequence[tuple[Volume, BoxPromptPair, Box | None]]
                    ) -> Iterator[Answer | PromptsegError]:
        """``GeneralistOracle.segment_all`` as a phantom batch."""
        pairs = _overlapped(lambda req: self._segment(*req), requests)
        return _each_answer(lambda req, ahead: self.segment(*req, ahead=ahead), pairs)

    def _segment(self, volume: Volume, prompts: BoxPromptPair,
                 region: Box | None = None) -> Answer:
        """The noise is drawn on the whole grid by ``_noise_blocks``, as the blob
        draws follow it in the RNG stream; only its values on ``region`` are
        added, and every other field is taken on the region alone."""
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
        for _, at, part in _noise_blocks(rng, dims, region):
            sd[at] += scale * part
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


def _distance_from(region: Box, center: np.ndarray) -> np.ndarray:
    """Euclidean distance of every voxel of ``region`` from ``center``, from
    three broadcast 1-D squared offsets."""
    sq = [(np.arange(s.start, s.stop, dtype=np.float64) - float(c)) ** 2
          for s, c in zip(region, center)]
    return np.sqrt(sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :])
