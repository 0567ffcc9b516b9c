"""Reader/writer for a NIfTI-1 single-file subset, plus sidecar manifests.

Supported subset: magic ``n+1\\0``, datatype uint8 (code 2) or float32
(code 16), 3 or 4 dims, and no intensity scaling (``scl_slope`` 0, or 1
with ``scl_inter`` 0).  Files are written little-endian with
``vox_offset = 352`` (348-byte header + 4 zero extension-flag bytes); the
reader detects byte order from the ``sizeof_hdr`` pattern and swaps on read.
The payload order is the standard NIfTI one - x fastest, then y, then z,
channels slowest - which is exactly the package's canonical flat layout, so
round-trips are bit-exact on the payload.

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

# field offsets within the 348-byte header
_OFF_SIZEOF_HDR = 0
_OFF_REGULAR = 38
_OFF_DIM = 40
_OFF_DATATYPE = 70
_OFF_BITPIX = 72
_OFF_PIXDIM = 76
_OFF_VOX_OFFSET = 108
_OFF_SCL_SLOPE = 112
_OFF_XYZT_UNITS = 123
_OFF_DESCRIP = 148
_OFF_QFORM_CODE = 252
_OFF_SFORM_CODE = 254
_OFF_QUATERN = 256      # quatern_b/c/d + qoffset_x/y/z, 6 floats
_OFF_SROW = 280         # srow_x/y/z, 12 floats
_OFF_MAGIC = 344

_DESCRIP = b"promptseg"


def sane_spacing(pixdim) -> tuple[float, float, float]:
    """Replace nonpositive or non-finite pixdim entries with 1 mm; foreign
    files sometimes leave pixdim at zero."""
    return tuple(float(p) if np.isfinite(p) and p > 0.0 else 1.0 for p in pixdim)


@dataclass
class NiftiHeader:
    """Parsed subset of a NIfTI-1 header.

    ``shape`` holds the stored dims in file order (nx, ny, nz[, nc]);
    ``pixdim`` is (sx, sy, sz).  The orientation fields travel on the
    ``Volume`` read with them, and ``write_volume`` copies them verbatim.
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


def _unpack(fmt, buf, off):
    vals = struct.unpack_from(fmt, buf, off)
    return vals[0] if len(vals) == 1 else vals


def _parse_header(raw: bytes, path) -> tuple[NiftiHeader, str]:
    if len(raw) < HEADER_SIZE:
        raise CorruptFileError(f"{path}: file shorter than a NIfTI-1 header")
    if struct.unpack_from("<i", raw, _OFF_SIZEOF_HDR)[0] == HEADER_SIZE:
        bo = "<"
    elif struct.unpack_from(">i", raw, _OFF_SIZEOF_HDR)[0] == HEADER_SIZE:
        bo = ">"
    else:
        raise NotNiftiError(f"{path}: sizeof_hdr is not 348 in either byte order")
    if raw[_OFF_MAGIC:_OFF_MAGIC + 4] != MAGIC:
        raise NotNiftiError(f"{path}: magic is not 'n+1\\0'")
    dim = _unpack(bo + "8h", raw, _OFF_DIM)
    ndim = dim[0]
    if ndim not in (3, 4):
        raise UnsupportedFormatError(f"{path}: {ndim}-dimensional images are not supported")
    shape = tuple(int(n) for n in dim[1:1 + ndim])
    if any(n < 1 for n in shape):
        raise CorruptFileError(f"{path}: nonpositive dim entries {shape}")
    datatype = _unpack(bo + "h", raw, _OFF_DATATYPE)
    if datatype not in _DTYPES:
        raise UnsupportedFormatError(f"{path}: datatype code {datatype} not in supported subset")
    bitpix = _unpack(bo + "h", raw, _OFF_BITPIX)
    if bitpix != _BITPIX[datatype]:
        raise CorruptFileError(f"{path}: bitpix {bitpix} disagrees with datatype {datatype}")
    pixdim = _unpack(bo + "8f", raw, _OFF_PIXDIM)
    vox_offset = float(_unpack(bo + "f", raw, _OFF_VOX_OFFSET))
    if vox_offset < HEADER_SIZE or vox_offset != int(vox_offset):
        raise CorruptFileError(f"{path}: bad vox_offset {vox_offset}")
    slope, inter = _unpack(bo + "2f", raw, _OFF_SCL_SLOPE)
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        raise UnsupportedFormatError(f"{path}: scl_slope {slope}, scl_inter {inter} not supported")
    hdr = NiftiHeader(
        shape=shape,
        datatype=int(datatype),
        pixdim=tuple(float(p) for p in pixdim[1:4]),
        vox_offset=int(vox_offset),
        qform_code=int(_unpack(bo + "h", raw, _OFF_QFORM_CODE)),
        sform_code=int(_unpack(bo + "h", raw, _OFF_SFORM_CODE)),
        quatern=tuple(float(v) for v in _unpack(bo + "6f", raw, _OFF_QUATERN)),
        srow=tuple(float(v) for v in _unpack(bo + "12f", raw, _OFF_SROW)),
        qfac=float(pixdim[0]),
    )
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
    flat = np.frombuffer(raw, dtype=dtype, offset=hdr.vox_offset)  # no copy of the payload
    if bo == ">":
        flat = flat.astype(dtype.newbyteorder("<"))
    if len(hdr.shape) == 3:
        nx, ny, nz = hdr.shape
        arr = flat.reshape(nz, ny, nx).transpose(1, 2, 0)  # -> [y, x, z]
        if hdr.datatype == DT_UINT8:
            return hdr, LabelMap(np.ascontiguousarray(arr), max(2, int(arr.max()) + 1))
        return hdr, Volume(np.ascontiguousarray(arr), sane_spacing(hdr.pixdim), header=hdr)
    nx, ny, nz, nc = hdr.shape
    if hdr.datatype != DT_FLOAT32:
        raise UnsupportedFormatError(f"{path}: 4D images must be float32")
    if nc < 2:
        raise CorruptFileError(f"{path}: 4D image with {nc} channel(s)")
    arr = flat.reshape(nc, nz, ny, nx).transpose(0, 2, 3, 1)  # -> [c, y, x, z]
    return hdr, ProbVolume(np.ascontiguousarray(arr))


def read_volume(path) -> Volume | LabelMap | ProbVolume:
    """Decode a supported NIfTI file; see read_nifti for the type mapping."""
    return read_nifti(path)[1]


def _encode_header(shape, datatype, pixdim, orientation: NiftiHeader | None) -> bytes:
    if orientation is None:  # no template: a diagonal sform at the given spacing
        orientation = NiftiHeader(shape, datatype, pixdim, VOX_OFFSET, srow=(
            pixdim[0], 0, 0, 0, 0, pixdim[1], 0, 0, 0, 0, pixdim[2], 0))
    buf = bytearray(HEADER_SIZE)
    struct.pack_into("<i", buf, _OFF_SIZEOF_HDR, HEADER_SIZE)
    struct.pack_into("<c", buf, _OFF_REGULAR, b"r")
    dim = [len(shape), 1, 1, 1, 1, 1, 1, 1]
    dim[1:1 + len(shape)] = shape
    struct.pack_into("<8h", buf, _OFF_DIM, *dim)
    struct.pack_into("<h", buf, _OFF_DATATYPE, datatype)
    struct.pack_into("<h", buf, _OFF_BITPIX, _BITPIX[datatype])
    pd = [orientation.qfac, pixdim[0], pixdim[1], pixdim[2], 0.0, 0.0, 0.0, 0.0]
    if len(shape) == 4:
        pd[4] = 1.0
    struct.pack_into("<f", buf, _OFF_VOX_OFFSET, float(VOX_OFFSET))
    struct.pack_into("<f", buf, _OFF_SCL_SLOPE, 1.0)
    struct.pack_into("<B", buf, _OFF_XYZT_UNITS, 2)  # spatial units: mm
    struct.pack_into("<80s", buf, _OFF_DESCRIP, _DESCRIP)
    struct.pack_into("<h", buf, _OFF_QFORM_CODE, orientation.qform_code)
    struct.pack_into("<h", buf, _OFF_SFORM_CODE, orientation.sform_code)
    struct.pack_into("<6f", buf, _OFF_QUATERN, *orientation.quatern)
    struct.pack_into("<12f", buf, _OFF_SROW, *orientation.srow)
    struct.pack_into("<8f", buf, _OFF_PIXDIM, *pd)
    struct.pack_into("<4s", buf, _OFF_MAGIC, MAGIC)
    return bytes(buf)


def write_volume(path, grid: Volume | LabelMap | ProbVolume,
                 spacing: tuple[float, float, float] | None = None,
                 template: Volume | None = None) -> None:
    """Write a grid as a little-endian single-file NIfTI at ``path``.

    The kind follows the grid's type: Volume -> float32 3D, LabelMap ->
    uint8 3D, ProbVolume -> float32 4D.  ``template`` is the image the grid
    lies on, and a Volume is its own: the file takes the template's spacing
    and, if it was read from a file, its header's qform/sform.  Without a
    template the file gets ``spacing`` (1 mm isotropic by default) and a
    diagonal sform; an explicit ``spacing`` that is not 3 positive finite
    float32 values is a ``RejectedInputError`` before the file is opened.
    """
    path = Path(path)
    if isinstance(grid, Volume):
        data, datatype, channels = grid.data.transpose(2, 0, 1), DT_FLOAT32, ()  # -> [z,y,x]
        template = template or grid
    elif isinstance(grid, LabelMap):
        data, datatype, channels = grid.data.transpose(2, 0, 1), DT_UINT8, ()
    elif isinstance(grid, ProbVolume):
        data, datatype = grid.data.transpose(0, 3, 1, 2), DT_FLOAT32  # -> [c,z,y,x]
        channels = (grid.num_classes,)
    else:
        raise RejectedInputError(f"cannot write object of type {type(grid).__name__}")
    if template is not None:
        if spacing is not None or template.dims != grid.dims:
            raise RejectedInputError(f"{path}: a grid on a template takes its spacing and "
                                     f"dims {template.dims}, got {spacing} and {grid.dims}")
        spacing = template.spacing
    elif spacing is not None and not valid_spacing(spacing):
        raise RejectedInputError(f"{path}: spacing must be 3 positive finite float32 values, "
                                 f"got {spacing}")
    shape = (grid.dims[1], grid.dims[0], grid.dims[2]) + channels
    header = _encode_header(shape, datatype, tuple(float(s) for s in spacing or (1, 1, 1)),
                            template.header if template is not None else None)
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
