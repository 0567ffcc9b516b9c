"""Pluggable segmentation backends behind the pipeline.

Two oracle surfaces exist: a *specialist* (trainable; ``predict`` -> labels,
``fit``) and a *generalist* (frozen, promptable; ``segment``).  The phantom
implementations below run the whole pipeline at desk scale against synthetic
ellipsoid scans with exact ground truth, while ``FileOracle`` bridges to real
external models through a directory exchange:

    req_<uid>.nii        request volume (written atomically)
    req_<uid>.prompts    box prompts, one line per box (segment only)
    resp_<uid>.nii       uint8 mask response (segment only)
    resp_<uid>.prob.nii  float32 probabilities (predict, segment) or uint8 labels (predict)
    fit_<uid>/ + fit_<uid>.req / fit_<uid>.done   training handshake

The exchange root defaults to the PROMPTSEG_EXCHANGE environment variable.
Phantom oracles are bitwise deterministic given (seed, quality, inputs):
every stochastic field is drawn from an RNG keyed on the oracle seed, a
fingerprint of the input volume, and the class (plus the prompt bytes for
the generalist), never from mutable RNG state.
"""

from __future__ import annotations

import abc
import hashlib
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import ndimage
from scipy.spatial.transform import Rotation

from . import nifti_io
from .errors import (ConfigError, CorruptFileError, NiftiError,
                     OracleProtocolError, OracleUnavailableError,
                     RejectedInputError, UnknownVolumeError)
from .prompting import DEFAULT_PADDING, BoxPromptPair, format_prompts
from .refinement import roi_ranges
from .vls_loss import SupervisionTarget
from .volgrid import LabelMap, ProbVolume, Volume, argmax_labelmap, mask_to_labels


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

    @abc.abstractmethod
    def fit(self, examples: Sequence[TrainingExample], supervision: str = "full") -> None: ...


class GeneralistOracle(abc.ABC):
    """Frozen promptable model: box prompts in, candidate mask + 2-class
    (background, organ) probabilities out."""

    @abc.abstractmethod
    def segment(self, volume: Volume,
                prompts: BoxPromptPair) -> tuple[np.ndarray, ProbVolume]: ...


# --- synthetic phantoms -----------------------------------------------------

@dataclass(frozen=True)
class Ellipsoid:
    """Axis lengths are semi-axes in voxels along (y, x, z) before rotation;
    angles are intrinsic z-y-x Euler angles in radians."""

    center: tuple[float, float, float]
    radii: tuple[float, float, float]
    angles: tuple[float, float, float] = (0.0, 0.0, 0.0)
    intensity: float = 1.0


#: Standard deviation of the Gaussian noise added to phantom intensities.
IMAGE_SIGMA = 0.05


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    organs: tuple[Ellipsoid, ...]

    @property
    def num_classes(self) -> int:
        return len(self.organs) + 1


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
    rot = Rotation.from_euler("zyx", ell.angles).as_matrix()
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


def generate_phantom(spec: PhantomSpec, seed, spacing=(1.0, 1.0, 1.0)) -> tuple[Volume, LabelMap]:
    """Rasterize a phantom: exact label map plus a noisy intensity image.

    Deterministic for a fixed seed.  Overlapping ellipsoids are resolved by
    organ-index priority: earlier organs keep contested voxels.  Each organ is
    written on its ellipsoid's box.
    """
    labels = np.zeros(spec.dims, dtype=np.uint8)
    image = np.zeros(spec.dims, dtype=np.float64)
    for idx, ell in enumerate(spec.organs, start=1):
        box, inside = _ellipsoid_on_box(spec.dims, ell)
        sub = labels[box]
        new = inside & (sub == 0)
        sub[new] = idx
        image[box][new] = ell.intensity
    rng = np.random.default_rng(seed)
    image += rng.normal(0.0, IMAGE_SIGMA, size=spec.dims)
    return Volume(image.astype(np.float32), spacing), LabelMap(labels, max(2, spec.num_classes))


def random_phantom_spec(dims: tuple[int, int, int], num_organs: int, rng) -> PhantomSpec:
    """Random non-crowded ellipsoid layout; rejection-samples centers so
    organs rarely touch (residual overlaps fall back to rasterization
    priority)."""
    side = min(dims)
    r_lo, r_hi = 0.11 * side, 0.17 * side
    organs = []
    centers: list[np.ndarray] = []
    radii_max: list[float] = []
    for _ in range(num_organs):
        radii = rng.uniform(r_lo, r_hi, size=3)
        rmax = float(radii.max())
        margin = rmax + 1.5
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
    h.update(volume.data.tobytes())
    return h.hexdigest()[:16]


Region = tuple[slice, slice, slice]


def _grow(lo: np.ndarray, hi: np.ndarray, by: int, dims: tuple[int, int, int]) -> Region:
    """The inclusive box ``[lo, hi]`` grown by ``by`` voxels, clipped to the grid."""
    return tuple(slice(max(int(a) - by, 0), min(int(b) + by + 1, n))
                 for a, b, n in zip(lo, hi, dims))


def _within(inner: Region, outer: Region) -> Region | None:
    """``inner`` in the coordinates of ``outer``, or None if it sticks out."""
    if any(i.start < o.start or i.stop > o.stop for i, o in zip(inner, outer)):
        return None
    return tuple(slice(i.start - o.start, i.stop - o.start) for i, o in zip(inner, outer))


@dataclass
class _PhantomScan:
    gt: LabelMap
    sdist: dict[int, tuple[Region, np.ndarray]] = field(default_factory=dict)
    objects: list | None = None    # ndimage.find_objects(gt), taken on first use


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
    """

    def __init__(self):
        self._scans: dict[str, _PhantomScan] = {}

    def register(self, volume: Volume, gt: LabelMap) -> str:
        if volume.dims != gt.dims:
            raise RejectedInputError(f"volume dims {volume.dims} vs gt dims {gt.dims}")
        fp = volume_fingerprint(volume)
        self._scans[fp] = _PhantomScan(gt=gt)
        return fp

    def lookup(self, volume: Volume) -> tuple[str, _PhantomScan]:
        fp = volume_fingerprint(volume)
        scan = self._scans.get(fp)
        if scan is None:
            raise UnknownVolumeError("volume was not generated by the registered phantom suite")
        return fp, scan

    def signed_distance(self, fp: str, class_id: int,
                        region: Region | None = None) -> np.ndarray:
        """The class's signed distance on ``region`` (in-grid slices with
        integer bounds; default: the whole grid), read-only.  A region inside
        the cached one is a view of the cached field, and the whole grid, once
        computed, is that very array; any other region is computed afresh and
        replaces the cache."""
        scan = self._scans[fp]
        want = region or tuple(slice(0, n) for n in scan.gt.dims)
        cached = scan.sdist.get(class_id)
        if cached is None or _within(want, cached[0]) is None:
            lo, hi = self.organ_bbox(fp, class_id)
            grown = _grow(lo, hi, 1, scan.gt.dims)
            at = tuple(slice(min(w.start, g.start), max(w.stop, g.stop))
                       for w, g in zip(want, grown))
            mask = scan.gt.data[at] == class_id
            sd = -ndimage.distance_transform_edt(~mask)
            inner = _within(grown, at)
            sd[inner] += ndimage.distance_transform_edt(mask[inner])
            sd = sd.astype(np.float32)
            sd.flags.writeable = False
            cached = scan.sdist[class_id] = (at, sd)
        at, sd = cached
        return sd if at == want else sd[_within(want, at)]

    def organ_bbox(self, fp: str, class_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive int64 corners ``(lo, hi)`` of the class's voxels."""
        scan = self._scans[fp]
        if scan.objects is None:
            scan.objects = ndimage.find_objects(scan.gt.data)
        if not 1 <= class_id <= len(scan.objects) or scan.objects[class_id - 1] is None:
            raise RejectedInputError(f"phantom class {class_id} is empty or not an organ")
        box = scan.objects[class_id - 1]
        return (np.array([s.start for s in box], dtype=np.int64),
                np.array([s.stop - 1 for s in box], dtype=np.int64))


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

    - at q = 1 the prediction is the organ mask itself, so no signed distance
      field is computed for that class;
    - at 0 < q < 1 the noise is still drawn over the whole grid, so the RNG
      stream and the values on the box do not depend on the box.  With
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
    ``weight_mask``; the counts come from a few ``np.bincount`` calls per
    example.  Each fit sets q to target_q, which models training to
    convergence, so quality is proportional to the labeled voxel coverage and
    repeated fits on identical data are idempotent.
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

    def quality(self, class_id: int) -> float:
        return self._quality.get(class_id, self._base_quality)

    def predict(self, volume: Volume) -> LabelMap:
        fp, scan = self.registry.lookup(volume)
        C = scan.gt.num_classes
        dims = scan.gt.dims
        labels = np.zeros(dims, dtype=np.uint8)
        for c in range(1, C):
            q = self.quality(c)
            if q <= 0.0:
                continue  # organ invisible to the model
            lo, hi = self.registry.organ_bbox(fp, c)  # rejects an empty class
            if q >= 1.0:
                box = _grow(lo, hi, 0, dims)
                corrupted = scan.gt.data[box] == c    # == signed_distance(fp, c) > 0
            else:
                noise = _rng_for(self.seed, fp, c).standard_normal(dims)
                scale = (1.0 - q) * self.JITTER_SIGMA   # one scalar before the float32 noise
                reach = int(np.ceil(scale * max(float(noise.max()), 0.0)))
                box = _grow(lo, hi, reach, dims)
                sd = self.registry.signed_distance(fp, c, box)
                corrupted = sd + scale * noise[box].astype(np.float32) > 0.0
            sub = labels[box]
            sub[(sub == 0) & corrupted] = c
        return LabelMap(labels, C)

    def fit(self, examples: Sequence[TrainingExample], supervision: str = "full") -> None:
        if supervision not in ("full", "partial"):
            raise RejectedInputError(f"unknown supervision mode {supervision!r}")
        if not examples:
            raise RejectedInputError("fit requires at least one example")
        support: dict[int, float] = {}
        contra: dict[int, float] = {}
        gt_total: dict[int, float] = {}
        for ex in examples:
            _, scan = self.registry.lookup(ex.volume)
            C = scan.gt.num_classes
            gt = scan.gt.data.ravel()
            y = ex.target.labels.data.ravel()
            gt_count = np.bincount(gt, minlength=C)
            if ex.weight_mask is not None:
                w = ex.weight_mask.ravel() != 0
                gt, y = gt[w], y[w]
            gt_w = np.bincount(gt, minlength=C)             # |gt=c & w|
            y_w = np.bincount(y, minlength=C)               # |y=c & w|
            both = np.bincount(gt[gt == y], minlength=C)    # |gt=c & y=c & w|
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
        dims = scan.gt.dims
        ranges = roi_ranges(prompts, 0, dims)
        roi_lo = np.array([r[0] for r in ranges], dtype=np.float64)
        roi_hi = np.array([r[1] for r in ranges], dtype=np.float64)
        best_c, best_iou = None, 0.0
        best_center = np.zeros(3)
        for c in range(1, scan.gt.num_classes):
            lo, hi = self.registry.organ_bbox(fp, c)
            plo = np.maximum(lo - self.assumed_padding, 0)
            phi = np.minimum(hi + self.assumed_padding, np.asarray(dims) - 1)
            ilo = np.maximum(roi_lo, plo)
            ihi = np.minimum(roi_hi, phi)
            if np.any(ihi < ilo):
                continue
            inter = float(np.prod(ihi - ilo + 1))
            vol_roi = float(np.prod(roi_hi - roi_lo + 1))
            vol_box = float(np.prod(phi - plo + 1))
            iou = inter / (vol_roi + vol_box - inter)
            if iou > best_iou:
                best_c, best_iou = c, iou
                best_center = (plo + phi) / 2.0
        roi_center = (roi_lo + roi_hi) / 2.0
        return best_c, best_iou, roi_center - best_center

    def segment(self, volume: Volume, prompts: BoxPromptPair) -> tuple[np.ndarray, ProbVolume]:
        fp, scan = self.registry.lookup(volume)
        dims = scan.gt.dims
        c, iou, offset = self._match(fp, scan, prompts)
        if c is None:
            probs = ProbVolume(np.full((2,) + dims, np.float32(0.5)))
            return np.zeros(dims, dtype=bool), probs
        sd = self.registry.signed_distance(fp, c).astype(np.float64)
        if iou < self.MATCH_THRESHOLD:
            shift = np.clip(np.round(offset).astype(int), -8, 8)
            sd = _shift_field(sd, shift, fill=-float(max(dims)))
            sd -= 1.0 + 2.0 * (self.MATCH_THRESHOLD - iou) / self.MATCH_THRESHOLD  # erode
        rng = _rng_for(self.seed, fp, c, format_prompts(prompts))
        noise = rng.standard_normal(dims)
        sd = sd + (1.0 - self.g) * self.NOISE_SIGMA * noise
        lo, hi = self.registry.organ_bbox(fp, c)
        spread = (np.asarray(hi) - lo) / 2.0 + self.assumed_padding
        organ_center = (np.asarray(lo) + hi) / 2.0
        for _ in range(self.BLOB_COUNT):
            blob_center = organ_center + rng.uniform(-spread, spread)
            if rng.uniform() >= 1.0 - self.g:
                continue
            bump = self.BLOB_RADIUS - _distance_from(dims, blob_center)
            sd = np.maximum(sd, bump)
        slope = self.KAPPA * (0.2 + 0.8 * self.g * min(1.0, iou))
        p_fg = 1.0 / (1.0 + np.exp(-slope * sd))
        p_fg = p_fg.astype(np.float32)
        probs = ProbVolume(np.stack([np.float32(1.0) - p_fg, p_fg]))
        return sd > 0.0, probs


def _distance_from(dims: tuple[int, int, int], center: np.ndarray) -> np.ndarray:
    """Euclidean distance of every voxel from ``center``, from three
    broadcast 1-D squared offsets."""
    sq = [(np.arange(n, dtype=np.float64) - float(c)) ** 2 for n, c in zip(dims, center)]
    return np.sqrt(sq[0][:, None, None] + sq[1][None, :, None] + sq[2][None, None, :])


def _shift_field(field_arr: np.ndarray, shift: np.ndarray, fill: float) -> np.ndarray:
    out = np.full_like(field_arr, fill)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    for ax, s in enumerate(shift):
        n = field_arr.shape[ax]
        if abs(s) >= n:
            return out
        if s >= 0:
            dst[ax], src[ax] = slice(s, n), slice(0, n - s)
        else:
            dst[ax], src[ax] = slice(0, n + s), slice(-s, n)
    out[tuple(dst)] = field_arr[tuple(src)]
    return out


# --- directory-exchange oracle ----------------------------------------------

EXCHANGE_ENV = "PROMPTSEG_EXCHANGE"
POLL_INTERVAL_S = 0.05


class FileOracle(SpecialistOracle, GeneralistOracle):
    """Bridge to external model processes through a polled exchange directory.

    Requests are written atomically (temp file + rename); responses are read
    with retry until the deadline, so responders need not write atomically.
    One FileOracle instance serializes its own requests; run separate
    exchange directories for separate models.
    """

    def __init__(self, exchange_dir=None, timeout: float = 60.0):
        self.root = self.exchange_root(exchange_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.timeout = float(timeout)

    @staticmethod
    def exchange_root(exchange_dir=None) -> Path:
        """The exchange directory an instance would use, without creating it."""
        root = exchange_dir or os.environ.get(EXCHANGE_ENV)
        if not root:
            raise ConfigError(f"no exchange dir given and {EXCHANGE_ENV} is unset")
        return Path(root)

    def _write_atomic(self, path: Path, writer) -> None:
        tmp = path.with_name(path.name + ".tmp")
        writer(tmp)
        tmp.rename(path)

    def _await_file(self, path: Path, deadline: float, decode: bool = True):
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
            time.sleep(POLL_INTERVAL_S)

    def predict(self, volume: Volume) -> LabelMap:
        """A probability response is decoded to its argmax; a uint8 label
        image is taken as it is, with ``num_classes = max label + 1``."""
        uid = uuid.uuid4().hex
        deadline = time.monotonic() + self.timeout
        self._write_atomic(self.root / f"req_{uid}.nii",
                           lambda p: nifti_io.write_volume(p, volume))
        resp = self._await_file(self.root / f"resp_{uid}.prob.nii", deadline)
        if isinstance(resp, ProbVolume):
            resp = argmax_labelmap(resp)
        elif not isinstance(resp, LabelMap):
            raise OracleProtocolError("predict response is neither probabilities nor labels")
        if resp.dims != volume.dims:
            raise OracleProtocolError(
                f"predict response dims {resp.dims} != request dims {volume.dims}")
        return resp

    def segment(self, volume: Volume, prompts: BoxPromptPair) -> tuple[np.ndarray, ProbVolume]:
        uid = uuid.uuid4().hex
        deadline = time.monotonic() + self.timeout
        self._write_atomic(self.root / f"req_{uid}.nii",
                           lambda p: nifti_io.write_volume(p, volume))
        self._write_atomic(self.root / f"req_{uid}.prompts",
                           lambda p: p.write_text(format_prompts(prompts)))
        mask_img = self._await_file(self.root / f"resp_{uid}.nii", deadline)
        probs = self._await_file(self.root / f"resp_{uid}.prob.nii", deadline)
        if not isinstance(mask_img, LabelMap):
            raise OracleProtocolError("segment mask response is not a uint8 label image")
        if mask_img.dims != volume.dims:
            raise OracleProtocolError(
                f"segment response dims {mask_img.dims} != request dims {volume.dims}")
        if int(mask_img.data.max()) > 1:
            raise OracleProtocolError("segment mask response is not binary")
        if not isinstance(probs, ProbVolume) or probs.num_classes != 2:
            raise OracleProtocolError("segment probability response must be 2-class")
        if probs.dims != volume.dims:
            raise OracleProtocolError(
                f"segment probability dims {probs.dims} != request dims {volume.dims}")
        return mask_img.data > 0, probs

    def fit(self, examples: Sequence[TrainingExample], supervision: str = "full") -> None:
        uid = uuid.uuid4().hex
        deadline = time.monotonic() + self.timeout
        fit_dir = self.root / f"fit_{uid}"
        fit_dir.mkdir()
        for idx, ex in enumerate(examples):
            stem = fit_dir / f"scan_{idx:04d}"
            nifti_io.write_volume(stem.with_suffix(".nii"), ex.volume)
            nifti_io.write_volume(Path(str(stem) + ".target.nii"), ex.target.labels,
                                  template=ex.volume)
            if ex.weight_mask is not None:
                nifti_io.write_volume(Path(str(stem) + ".mask.nii"),
                                      mask_to_labels(ex.weight_mask), template=ex.volume)
            man = nifti_io.status_manifest(ex.target.labels.num_classes,
                                           ex.labeled_classes, ex.target.pseudo_classes)
            nifti_io.write_manifest(Path(str(stem) + ".manifest"), man)
        self._write_atomic(self.root / f"fit_{uid}.req",
                           lambda p: p.write_text(f"supervision={supervision}\n"))
        self._await_file(self.root / f"fit_{uid}.done", deadline, decode=False)
