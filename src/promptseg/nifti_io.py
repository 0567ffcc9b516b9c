"""Reader/writer for a NIfTI-1 single-file subset, plus sidecar manifests.

Supported subset: magic ``n+1\\0``, datatype uint8 (code 2) or float32
(code 16), 3 or 4 dims, and no intensity scaling (``scl_slope`` 0, or 1
with ``scl_inter`` 0).  Files are written little-endian with
``vox_offset = 352`` (348-byte header + 4 zero extension-flag bytes); the
reader detects byte order from the ``sizeof_hdr`` pattern and swaps on read.
The header is stated once, in ``LAYOUT``: its 348 bytes in order, each field
read or written named with its struct format.  The payload runs x fastest,
then y, then z, channels slowest (the package's canonical flat layout, so
round-trips are bit-exact), and one axis rule maps it: the file dims
reversed are the payload's C-order shape ([c,] z, y, x), whose z axis moved
last gives the grid's [c,] y, x, z; a write makes the inverse move.

``read_as`` reads every file from outside the package: the grid of the kind
and dims its caller asks for, or a ``PromptsegError`` naming the file.  A
payload its grid type refuses is a ``RejectedInputError``, not the
``CorruptFileError`` that a reader may retry as a file still being written.

Orientation metadata (qform/sform) is never interpreted, only carried: a
float32 image read here keeps its header on its ``Volume``, and a grid
written with that image as ``template`` takes the image's spacing and
qform/sform.  NIfTI cannot carry class names or labeled/unlabeled sets, so
those travel in a plain-text ``<scan_id>.manifest`` sidecar with lines
``class.<id>.name=`` and ``class.<id>.status=labeled|unlabeled|pseudo``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import (CorruptFileError, NotNiftiError, RejectedInputError,
                     UnsupportedFormatError)
from .volgrid import MAX_CLASSES, LabelMap, ProbVolume, Volume, valid_spacing

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"
DT_UINT8 = 2
DT_FLOAT32 = 16
_BITPIX = {DT_UINT8: 8, DT_FLOAT32: 32}
_DTYPES = {DT_UINT8: "u1", DT_FLOAT32: "f4"}

# The 348-byte NIfTI-1 header in order: each field this module reads or
# writes with its struct format, and the bytes between them as padding (None).
# ``quatern`` is quatern_b/c/d then qoffset_x/y/z, and ``srow`` srow_x/y/z.
LAYOUT = (
    ("sizeof_hdr", "i"), (None, "34x"), ("regular", "c"), (None, "x"),
    ("dim", "8h"), (None, "14x"), ("datatype", "h"), ("bitpix", "h"), (None, "2x"),
    ("pixdim", "8f"), ("vox_offset", "f"), ("scl_slope", "f"), ("scl_inter", "f"),
    (None, "3x"), ("xyzt_units", "B"), (None, "24x"), ("descrip", "80s"), (None, "24x"),
    ("qform_code", "h"), ("sform_code", "h"), ("quatern", "6f"), ("srow", "12f"),
    (None, "16x"), ("magic", "4s"))
_FORMAT = "".join(fmt for _, fmt in LAYOUT)
# each named field's number of values: a string is one, "8h" is eight
_COUNTS = [(name, 1 if fmt.endswith("s") else int(fmt[:-1] or 1))
           for name, fmt in LAYOUT if name]

_DESCRIP = b"promptseg"


@dataclass
class NiftiHeader:
    """Parsed subset of a NIfTI-1 header.

    ``shape`` holds the stored dims in file order (nx, ny, nz[, nc]);
    ``pixdim`` is (sx, sy, sz).  The orientation fields travel on the
    ``Volume`` read with them, and ``write_volume`` copies them verbatim.
    A header is also the ``template`` of the grids written on its image.
    """

    shape: tuple[int, ...]
    datatype: int
    pixdim: tuple[float, float, float]
    vox_offset: int
    qform_code: int = 0
    sform_code: int = 1
    quatern: tuple[float, ...] = (0.0,) * 6
    srow: tuple[float, ...] = field(default_factory=lambda: (0.0,) * 12)
    qfac: float = 1.0

    @property
    def dims(self) -> tuple[int, int, int]:
        """The dims (ny, nx, nz) of the grid this header describes."""
        return self.shape[1], self.shape[0], self.shape[2]

    @property
    def spacing(self) -> tuple[float, float, float]:
        """The spacing of the ``Volume`` read with this header: 1 mm for a
        nonpositive or non-finite pixdim, as foreign files may leave it."""
        return tuple(float(p) if np.isfinite(p) and p > 0.0 else 1.0 for p in self.pixdim)


def _parse_header(raw: bytes, path) -> tuple[NiftiHeader, str]:
    if len(raw) < HEADER_SIZE:
        raise CorruptFileError(f"{path}: file shorter than a NIfTI-1 header")
    for bo in "<>":
        values = iter(struct.unpack_from(bo + _FORMAT, raw))
        f = {name: next(values) if n == 1 else tuple(islice(values, n)) for name, n in _COUNTS}
        if f["sizeof_hdr"] == HEADER_SIZE:
            break
    else:
        raise NotNiftiError(f"{path}: sizeof_hdr is not 348 in either byte order")
    if f["magic"] != MAGIC:
        raise NotNiftiError(f"{path}: magic is not 'n+1\\0'")
    ndim = f["dim"][0]
    if ndim not in (3, 4):
        raise UnsupportedFormatError(f"{path}: {ndim}-dimensional images are not supported")
    shape = f["dim"][1:1 + ndim]
    if any(n < 1 for n in shape):
        raise CorruptFileError(f"{path}: nonpositive dim entries {shape}")
    datatype = f["datatype"]
    if datatype not in _DTYPES:
        raise UnsupportedFormatError(f"{path}: datatype code {datatype} not in supported subset")
    if f["bitpix"] != _BITPIX[datatype]:
        raise CorruptFileError(f"{path}: bitpix {f['bitpix']} disagrees with datatype {datatype}")
    vox_offset = f["vox_offset"]
    if not (vox_offset >= HEADER_SIZE and vox_offset.is_integer()):     # NaN, inf fail too
        raise CorruptFileError(f"{path}: bad vox_offset {vox_offset}")
    slope, inter = f["scl_slope"], f["scl_inter"]
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        raise UnsupportedFormatError(f"{path}: scl_slope {slope}, scl_inter {inter} not supported")
    hdr = NiftiHeader(shape=shape, datatype=datatype, pixdim=f["pixdim"][1:4],
                      vox_offset=int(vox_offset), qform_code=f["qform_code"],
                      sform_code=f["sform_code"], quatern=f["quatern"], srow=f["srow"],
                      qfac=f["pixdim"][0])
    return hdr, bo


def read_nifti(path) -> tuple[NiftiHeader, Volume | LabelMap | ProbVolume]:
    """Read a supported NIfTI file, returning header and decoded grid.

    uint8 3D -> LabelMap (num_classes = max label + 1), float32 3D -> Volume
    holding this header, float32 4D -> ProbVolume (invariants enforced).
    """
    path = Path(path)
    raw = path.read_bytes()
    hdr, bo = _parse_header(raw, path)
    dtype = np.dtype(_DTYPES[hdr.datatype]).newbyteorder(bo)
    expected = int(np.prod(hdr.shape)) * dtype.itemsize
    size = max(len(raw) - hdr.vox_offset, 0)
    if size != expected:
        raise CorruptFileError(f"{path}: payload is {size} bytes, header declares {expected}")
    if len(hdr.shape) == 4 and hdr.datatype != DT_FLOAT32:
        raise UnsupportedFormatError(f"{path}: 4D images must be float32")
    if len(hdr.shape) == 4 and hdr.shape[3] < 2:
        raise CorruptFileError(f"{path}: 4D image with {hdr.shape[3]} channel(s)")
    flat = np.frombuffer(raw, dtype=dtype, offset=hdr.vox_offset)  # no copy of the payload
    if bo == ">":
        flat = flat.astype(dtype.newbyteorder("<"))
    # file axes (x, y, z[, c]) reversed are C order; then z goes after y, x
    arr = np.ascontiguousarray(np.moveaxis(flat.reshape(hdr.shape[::-1]), -3, -1))
    try:    # a payload its grid type refuses, probabilities off [0, 1] say
        if len(hdr.shape) == 4:
            return hdr, ProbVolume(arr)
        if hdr.datatype == DT_UINT8:
            return hdr, LabelMap(arr, max(2, int(arr.max()) + 1))
        return hdr, Volume(arr, hdr.spacing, header=hdr)
    except RejectedInputError as exc:
        raise RejectedInputError(f"{path}: {exc}") from None


def read_header(path) -> NiftiHeader:
    """The header of the NIfTI file at ``path``, checked as ``read_nifti`` checks it."""
    with open(path, "rb") as fh:
        return _parse_header(fh.read(HEADER_SIZE), path)[0]


def read_volume(path) -> Volume | LabelMap | ProbVolume:
    """Decode a supported NIfTI file; see read_nifti for the type mapping."""
    return read_nifti(path)[1]


_KIND_NAMES = {Volume: "a float32 3D image", LabelMap: "a uint8 label image",
               ProbVolume: "a float32 4D probability image"}


def read_as(path, kind, dims=None):
    """The grid in the file at ``path`` if it is a ``kind`` (a grid type or a
    tuple of them) on ``dims`` (any, for ``None``), else a ``RejectedInputError``
    naming the file, what it must be and what it is.  ``read_volume`` is looked
    up per call, so a wrapper around it sees every read."""
    grid = read_volume(path)
    if not isinstance(grid, kind) or (dims is not None and grid.dims != dims):
        must = " or ".join(_KIND_NAMES[k] for k in (kind if isinstance(kind, tuple) else (kind,)))
        on = "" if dims is None else f" on dims {dims}"
        raise RejectedInputError(f"{path}: must be {must}{on}, "
                                 f"not {_KIND_NAMES[type(grid)]} on {grid.dims}")
    return grid


def _encode_header(shape, datatype, pixdim, orientation: NiftiHeader | None) -> bytes:
    if orientation is None:  # no template: a diagonal sform at the given spacing
        orientation = NiftiHeader(shape, datatype, pixdim, VOX_OFFSET, srow=(
            pixdim[0], 0, 0, 0, 0, pixdim[1], 0, 0, 0, 0, pixdim[2], 0))
    fields = dict(
        sizeof_hdr=HEADER_SIZE, regular=b"r", datatype=datatype, bitpix=_BITPIX[datatype],
        dim=(len(shape), *shape) + (1,) * (7 - len(shape)),
        pixdim=(orientation.qfac, *pixdim, float(len(shape) == 4), 0.0, 0.0, 0.0),
        vox_offset=float(VOX_OFFSET), scl_slope=1.0, scl_inter=0.0,
        xyzt_units=2,  # spatial units: mm
        descrip=_DESCRIP, qform_code=orientation.qform_code, sform_code=orientation.sform_code,
        quatern=orientation.quatern, srow=orientation.srow, magic=MAGIC)
    return struct.pack("<" + _FORMAT, *chain.from_iterable(
        fields[name] if n > 1 else (fields[name],) for name, n in _COUNTS))


def write_volume(path, grid: Volume | LabelMap | ProbVolume,
                 spacing: tuple[float, float, float] | None = None,
                 template: Volume | NiftiHeader | None = None) -> None:
    """Write a grid as a little-endian single-file NIfTI at ``path``.

    The kind follows the grid's type: Volume -> float32 3D, LabelMap ->
    uint8 3D, ProbVolume -> float32 4D.  ``template`` is the image the grid
    lies on, or the header read with it, and a Volume is its own: the file
    takes the template's spacing and, if it was read from a file, its
    header's qform/sform.  Without a template the file gets ``spacing`` (1 mm
    isotropic by default) and a diagonal sform; an explicit ``spacing`` that
    is not 3 positive finite float32 values is a ``RejectedInputError``
    before the file is opened.
    """
    path = Path(path)
    if isinstance(grid, Volume):
        template = template or grid
    elif not isinstance(grid, (LabelMap, ProbVolume)):
        raise RejectedInputError(f"cannot write object of type {type(grid).__name__}")
    if template is not None:
        if spacing is not None or template.dims != grid.dims:
            raise RejectedInputError(f"{path}: a grid on a template takes its spacing and "
                                     f"dims {template.dims}, got {spacing} and {grid.dims}")
        spacing = template.spacing
    elif spacing is not None and not valid_spacing(spacing):
        raise RejectedInputError(f"{path}: spacing must be 3 positive finite float32 values, "
                                 f"got {spacing}")
    data = np.moveaxis(grid.data, -1, -3)  # [c,] z, y, x: x fastest, as the file stores it
    datatype = DT_UINT8 if isinstance(grid, LabelMap) else DT_FLOAT32
    header = _encode_header(data.shape[::-1], datatype,
                            tuple(float(s) for s in spacing or (1, 1, 1)),
                            template.header if isinstance(template, Volume) else template)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(b"\x00\x00\x00\x00")  # extension flag: none
            fh.write(np.ascontiguousarray(data))  # its buffer: no second copy
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


# --- sidecar manifests ------------------------------------------------------

CLASS_STATUSES = ("labeled", "unlabeled", "pseudo")


@dataclass
class ScanManifest:
    """Class names and supervision statuses for one scan."""

    names: dict[int, str] = field(default_factory=dict)
    statuses: dict[int, str] = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        ids = set(self.names) | set(self.statuses)
        return (max(ids) + 1) if ids else 2

    def classes_with_status(self, status: str) -> frozenset[int]:
        return frozenset(c for c, s in self.statuses.items() if s == status)


def status_manifest(num_classes: int, labeled, pseudo=()) -> ScanManifest:
    """A manifest giving each foreground class 1..num_classes-1 its status:
    labeled if in ``labeled``, else pseudo if in ``pseudo``, else unlabeled."""
    labeled, pseudo = frozenset(labeled), frozenset(pseudo)
    return ScanManifest(statuses={
        c: "labeled" if c in labeled else "pseudo" if c in pseudo else "unlabeled"
        for c in range(1, num_classes)})


def read_manifest(path) -> ScanManifest:
    """Parse a sidecar manifest; a key set twice or a class id outside
    ``0..MAX_CLASSES - 1`` is a ``CorruptFileError``, as is any unknown line."""
    man, set_on = ScanManifest(), {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorruptFileError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "class":
            raise CorruptFileError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cid = int(parts[1])
        except ValueError as exc:
            raise CorruptFileError(f"{path}:{lineno}: bad class id in {key!r}") from exc
        if not 0 <= cid < MAX_CLASSES:
            raise CorruptFileError(f"{path}:{lineno}: class id in {key!r} must lie in "
                                   f"[0, {MAX_CLASSES - 1}]")
        if (cid, parts[2]) in set_on:
            raise CorruptFileError(f"{path}:{lineno}: {key} is already set on line "
                                   f"{set_on[cid, parts[2]]}")
        set_on[cid, parts[2]] = lineno
        if parts[2] == "name":
            man.names[cid] = value
        elif parts[2] == "status":
            if value not in CLASS_STATUSES:
                raise CorruptFileError(f"{path}:{lineno}: unknown status {value!r}")
            man.statuses[cid] = value
        else:
            raise CorruptFileError(f"{path}:{lineno}: unknown key {key!r}")
    return man


def write_manifest(path, manifest: ScanManifest) -> None:
    lines = []
    for cid in sorted(set(manifest.names) | set(manifest.statuses)):
        if cid in manifest.names:
            lines.append(f"class.{cid}.name={manifest.names[cid]}")
        if cid in manifest.statuses:
            lines.append(f"class.{cid}.status={manifest.statuses[cid]}")
    Path(path).write_text("\n".join(lines) + "\n")
