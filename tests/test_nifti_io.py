import re
import struct

import numpy as np
import pytest

from promptseg.errors import (CorruptFileError, NotNiftiError, PromptsegError,
                              RejectedInputError, UnsupportedFormatError)
from promptseg.nifti_io import (LAYOUT, MAGIC, NiftiHeader, ScanManifest, read_manifest,
                                read_nifti, read_volume, status_manifest,
                                write_manifest, write_volume)
from promptseg.volgrid import LabelMap, ProbVolume, Volume


def test_volume_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    vol = Volume(rng.normal(0, 1, size=(5, 6, 7)).astype(np.float32),
                 spacing=(0.8, 1.25, 3.0))
    path = tmp_path / "vol.nii"
    write_volume(path, vol)
    back = read_volume(path)
    assert isinstance(back, Volume)
    assert back.data.tobytes() == vol.data.tobytes()
    assert back.dims == vol.dims
    assert back.spacing == pytest.approx(vol.spacing)  # float32 representation


def test_labelmap_round_trip_and_size(tmp_path):
    labels = LabelMap(np.arange(8, dtype=np.uint8).reshape(2, 2, 2), 8)
    path = tmp_path / "labels.nii"
    write_volume(path, labels)
    back = read_volume(path)
    assert isinstance(back, LabelMap)
    assert np.array_equal(back.data, labels.data)
    zeros = LabelMap(np.zeros((3, 3, 3), dtype=np.uint8), 2)
    path2 = tmp_path / "zeros.nii"
    write_volume(path2, zeros)
    assert path2.stat().st_size == 352 + 27


def test_probvolume_round_trip_and_size(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.random((2, 2, 2, 2)).astype(np.float32)
    raw /= raw.sum(axis=0, keepdims=True)
    probs = ProbVolume(raw)
    path = tmp_path / "probs.nii"
    write_volume(path, probs)
    assert path.stat().st_size == 352 + 2 * 8 * 4
    back = read_volume(path)
    assert isinstance(back, ProbVolume)
    assert back.data.tobytes() == probs.data.tobytes()


def test_payload_byte_order_is_x_fastest(tmp_path):
    # dims (H=1, W=3, D=2): flat layout must run x fastest, then y, then z
    data = np.arange(6, dtype=np.uint8).reshape(1, 3, 2)  # [y, x, z]
    labels = LabelMap(data, 7)
    path = tmp_path / "order.nii"
    write_volume(path, labels)
    payload = path.read_bytes()[352:]
    expected = bytes(data[0, x, z] for z in range(2) for x in range(3))
    assert payload == expected


def test_unsupported_datatype_rejected(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    path = tmp_path / "int16.nii"
    write_volume(path, vol)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 70, 4)   # datatype: int16
    struct.pack_into("<h", raw, 72, 16)  # bitpix to match
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormatError):
        read_volume(path)


def test_intensity_scaling_rejected(tmp_path):
    """A float32 image stored as 3.0 with slope 2 and inter 10 means 16.0;
    the reader refuses it rather than read 3.0.  Slope 0 means no scaling."""
    path = tmp_path / "scaled.nii"
    for slope, inter, ok in ((2.0, 10.0, False), (1.0, 10.0, False), (2.0, 0.0, False),
                             (0.0, 10.0, True), (1.0, 0.0, True)):
        write_volume(path, Volume(np.full((2, 2, 2), 3.0, dtype=np.float32)))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<2f", raw, 112, slope, inter)  # scl_slope, scl_inter
        path.write_bytes(bytes(raw))
        if ok:
            assert (read_volume(path).data == 3.0).all()
        else:
            with pytest.raises(UnsupportedFormatError, match="scl_slope"):
                read_volume(path)


def test_magic_mismatch_is_not_nifti(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    path = tmp_path / "bad_magic.nii"
    write_volume(path, vol)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"ni1\x00"  # two-file form is outside the subset
    path.write_bytes(bytes(raw))
    with pytest.raises(NotNiftiError):
        read_volume(path)
    raw[0:4] = struct.pack("<i", 999)
    path.write_bytes(bytes(raw))
    with pytest.raises(NotNiftiError):
        read_volume(path)


def test_truncated_payload_rejected(tmp_path):
    vol = Volume(np.ones((4, 4, 4), dtype=np.float32))
    path = tmp_path / "trunc.nii"
    write_volume(path, vol)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CorruptFileError):
        read_volume(path)
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(CorruptFileError):
        read_volume(path)


@pytest.mark.parametrize("grid", [
    Volume(np.ones((4, 3, 2), dtype=np.float32)),
    LabelMap(np.ones((4, 3, 2), dtype=np.uint8), 2),
    ProbVolume(np.full((2, 4, 3, 2), np.float32(0.5)))], ids=["volume", "labels", "probs"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_payload_one_byte_off_is_corrupt(tmp_path, grid, delta):
    path = tmp_path / "off.nii"
    write_volume(path, grid)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1] if delta < 0 else blob + b"\x00")
    with pytest.raises(CorruptFileError, match="payload is"):
        read_volume(path)


def test_a_payload_its_grid_type_refuses_is_refused_naming_the_file(tmp_path):
    """A 2-class file whose first voxel reads 0.9 and 0.5 is a
    ``RejectedInputError`` naming the file: not corrupt, so not retried."""
    data = np.full((2, 4, 3, 2), np.float32(0.5))
    data[0, 0, 0, 0] = 0.9
    probs = object.__new__(ProbVolume)   # unchecked, to write what the reader refuses
    probs.data = data
    path = tmp_path / "probs.nii"
    write_volume(path, probs)
    with pytest.raises(RejectedInputError,
                       match=rf"^{re.escape(str(path))}: per-voxel probabilities sum to 1 off by"):
        read_volume(path)


def test_mutated_headers_read_or_raise_an_error_naming_the_file(tmp_path):
    """4,000 headers of a float32, a uint8 and a 4D file, given random bytes
    in a named ``LAYOUT`` field, a non-finite or extreme value in a float
    field, odd ``dim`` entries, or truncated, each either read or raise a
    ``PromptsegError`` whose message names the file."""
    rng = np.random.default_rng(32)
    fields, at = {}, 0
    for name, fmt in LAYOUT:
        size = struct.calcsize("<" + fmt)
        if name:
            fields[name] = (at, size)
        at += size
    names = sorted(fields)
    floats = [name for name, fmt in LAYOUT if name and fmt.endswith("f")]
    odd_floats = [np.nan, np.inf, -np.inf, 3.4e38, -1.0, 0.0, 348.5, 1e-45]
    p = rng.random((4, 3, 2), dtype=np.float32)
    path = tmp_path / "mutated.nii"
    outcomes = {"read": 0, "refused": 0}
    for grid in (Volume(rng.normal(size=(4, 3, 2)).astype(np.float32)),
                 LabelMap(rng.integers(0, 3, (4, 3, 2)).astype(np.uint8), 3),
                 ProbVolume(np.stack([p, 1 - p]))):
        write_volume(path, grid)
        base = path.read_bytes()
        for trial in range(1334):
            raw = bytearray(base)
            if trial % 4 == 0:          # random bytes in part of one named field
                offset, size = fields[names[rng.integers(len(names))]]
                lo = int(rng.integers(size))
                hi = int(rng.integers(lo + 1, size + 1))
                raw[offset + lo:offset + hi] = rng.bytes(hi - lo)
            elif trial % 4 == 1:        # an odd value in one entry of a float field
                offset, size = fields[floats[rng.integers(len(floats))]]
                struct.pack_into("<f", raw, offset + 4 * int(rng.integers(size // 4)),
                                 odd_floats[rng.integers(len(odd_floats))])
            elif trial % 4 == 2:        # truncated anywhere
                del raw[rng.integers(len(raw)):]
            else:                       # an odd dim entry, dim[0] (the rank) included
                offset, _ = fields["dim"]
                dim = list(struct.unpack_from("<8h", raw, offset))
                dim[rng.integers(8)] = (rng.integers(-3, 10) if rng.random() < 0.5
                                        else rng.integers(-32768, 32768))
                struct.pack_into("<8h", raw, offset, *dim)
            path.write_bytes(bytes(raw))
            try:
                read_volume(path)
                outcomes["read"] += 1
            except PromptsegError as exc:
                assert str(path) in str(exc), (trial, exc)
                outcomes["refused"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_big_endian_file_is_byte_swapped(tmp_path):
    # hand-build a big-endian file the reader must decode identically
    data = np.arange(24, dtype=">f4").reshape(2, 3, 4)  # file order [z, y, x]
    buf = bytearray(348)
    struct.pack_into(">i", buf, 0, 348)
    struct.pack_into(">8h", buf, 40, 3, 4, 3, 2, 1, 1, 1, 1)  # nx=4, ny=3, nz=2
    struct.pack_into(">h", buf, 70, 16)
    struct.pack_into(">h", buf, 72, 32)
    struct.pack_into(">8f", buf, 76, 1.0, 2.0, 0.5, 1.5, 0, 0, 0, 0)
    struct.pack_into(">f", buf, 108, 352.0)
    buf[344:348] = b"n+1\x00"
    path = tmp_path / "be.nii"
    path.write_bytes(bytes(buf) + b"\x00" * 4 + data.tobytes())
    vol = read_volume(path)
    assert isinstance(vol, Volume)
    assert vol.dims == (3, 4, 2)
    assert vol.spacing == (2.0, 0.5, 1.5)
    assert np.array_equal(vol.data, data.astype("<f4").transpose(1, 2, 0))


# where the NIfTI-1 standard (nifti1.h) puts each field the layout names;
# ``quatern`` starts at quatern_b and ``srow`` at srow_x
STANDARD_OFFSETS = {"sizeof_hdr": 0, "regular": 38, "dim": 40, "datatype": 70, "bitpix": 72,
                    "pixdim": 76, "vox_offset": 108, "scl_slope": 112, "scl_inter": 116,
                    "xyzt_units": 123, "descrip": 148, "qform_code": 252, "sform_code": 254,
                    "quatern": 256, "srow": 280, "magic": 344}


def test_header_layout_is_the_nifti1_header():
    offsets, end = {}, 0
    for name, fmt in LAYOUT:
        if name is not None:
            offsets[name] = end
        end += struct.calcsize("<" + fmt)
    assert end == 348
    assert offsets == STANDARD_OFFSETS


@pytest.mark.parametrize("byte_order", ["<", ">"])
def test_every_header_field_round_trips_in_either_byte_order(tmp_path, byte_order):
    """Each named field is written where the standard puts it, and reads back
    the same from the file and from its big-endian twin (header swapped field
    by field, payload swapped voxel by voxel)."""
    header = NiftiHeader(shape=(4, 3, 5), datatype=16, pixdim=(0.5, 2.0, 3.0), vox_offset=352,
                         qform_code=1, sform_code=4, quatern=(0.5, -0.25, 0.125, -7.0, 8.0, 9.5),
                         srow=tuple(i / 4 - 1.0 for i in range(12)), qfac=-1.0)
    image = Volume(np.arange(60, dtype=np.float32).reshape(3, 4, 5), (0.5, 2.0, 3.0),
                   header=header)
    p = image.data / 100
    labels = LabelMap(image.data.astype(np.uint8), 60)
    for grid, shape, datatype, bitpix in ((image, (4, 3, 5), 16, 32), (labels, (4, 3, 5), 2, 8),
                                          (ProbVolume(np.stack([p, 1 - p])), (4, 3, 5, 2), 16, 32)):
        path = tmp_path / "grid.nii"
        write_volume(path, grid, template=None if grid is image else image)
        blob = path.read_bytes()
        written = {name: struct.unpack_from("<" + fmt, blob, STANDARD_OFFSETS[name])
                   for name, fmt in LAYOUT if name is not None}
        dim = (len(shape), *shape) + (1,) * (7 - len(shape))
        assert written == {
            "sizeof_hdr": (348,), "regular": (b"r",), "dim": dim, "datatype": (datatype,),
            "bitpix": (bitpix,), "pixdim": (-1.0, 0.5, 2.0, 3.0, float(len(shape) == 4), 0, 0, 0),
            "vox_offset": (352.0,), "scl_slope": (1.0,), "scl_inter": (0.0,), "xyzt_units": (2,),
            "descrip": (b"promptseg".ljust(80, b"\0"),), "qform_code": (1,), "sform_code": (4,),
            "quatern": header.quatern, "srow": header.srow, "magic": (MAGIC,)}
        if byte_order == ">":
            table = "".join(fmt for _, fmt in LAYOUT)
            itemsize = 1 if datatype == 2 else 4
            payload = np.frombuffer(blob, f"<u{itemsize}", offset=352).astype(f">u{itemsize}")
            blob = (struct.pack(">" + table, *struct.unpack_from("<" + table, blob))
                    + blob[348:352] + payload.tobytes())
            path.write_bytes(blob)
        hdr, back = read_nifti(path)
        assert hdr == NiftiHeader(shape, datatype, header.pixdim, 352, header.qform_code,
                                  header.sform_code, header.quatern, header.srow, header.qfac)
        assert type(back) is type(grid) and back.data.tobytes() == grid.data.tobytes()


def test_header_fields_and_template_preservation(tmp_path):
    vol = Volume(np.zeros((3, 4, 5), dtype=np.float32), spacing=(1.0, 2.0, 3.0))
    path = tmp_path / "hdr.nii"
    template = NiftiHeader(shape=(4, 3, 5), datatype=16, pixdim=(1.0, 2.0, 3.0),
                           vox_offset=352, qform_code=1, sform_code=2,
                           quatern=(0.1, 0.2, 0.3, 4.0, 5.0, 6.0),
                           srow=tuple(float(i) for i in range(12)), qfac=-1.0)
    write_volume(path, Volume(vol.data, vol.spacing, header=template))
    hdr, back = read_nifti(path)
    assert hdr.shape == (4, 3, 5)  # stored as (nx, ny, nz)
    assert hdr.datatype == 16
    assert hdr.vox_offset == 352
    assert hdr.pixdim == pytest.approx((1.0, 2.0, 3.0))
    assert hdr.qform_code == 1 and hdr.sform_code == 2
    assert hdr.quatern == pytest.approx(template.quatern)
    assert hdr.srow == pytest.approx(template.srow)
    assert hdr.qfac == -1.0
    assert np.array_equal(back.data, vol.data)


def test_grids_written_on_a_read_image_keep_its_geometry(tmp_path):
    template = NiftiHeader(shape=(4, 3, 5), datatype=16, pixdim=(0.5, 2.0, 3.0),
                           vox_offset=352, qform_code=2, sform_code=1,
                           quatern=(0.0, 0.6, 0.0, -7.0, 8.0, 9.5),
                           srow=tuple(float(i) - 5.0 for i in range(12)), qfac=-1.0)
    write_volume(tmp_path / "img.nii", Volume(np.ones((3, 4, 5), np.float32),
                                              (0.5, 2.0, 3.0), header=template))
    img_hdr, image = read_nifti(tmp_path / "img.nii")
    assert image.header == img_hdr and image.spacing == (0.5, 2.0, 3.0)
    labels = LabelMap(np.zeros((3, 4, 5), np.uint8), 2)
    write_volume(tmp_path / "lab.nii", labels, template=image)
    write_volume(tmp_path / "copy.nii", image)  # a Volume is its own template
    for name in ("lab.nii", "copy.nii"):
        hdr = read_nifti(tmp_path / name)[0]
        for key in ("pixdim", "qform_code", "sform_code", "quatern", "srow", "qfac"):
            assert getattr(hdr, key) == getattr(img_hdr, key), (name, key)
    # with no template: the given spacing and a diagonal sform
    write_volume(tmp_path / "bare.nii", labels, spacing=(2.0, 1.0, 4.0))
    hdr = read_nifti(tmp_path / "bare.nii")[0]
    assert (hdr.pixdim, hdr.qform_code, hdr.sform_code, hdr.qfac) == ((2.0, 1.0, 4.0), 0, 1, 1.0)
    assert hdr.srow == (2.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 4.0, 0)
    with pytest.raises(RejectedInputError, match=r"got \(1\.0, 1\.0, 1\.0\) and \(3, 4, 5\)"):
        write_volume(tmp_path / "x.nii", labels, spacing=(1.0, 1.0, 1.0), template=image)
    with pytest.raises(RejectedInputError, match=r"dims \(3, 4, 5\), got None and \(3, 4, 4\)"):
        write_volume(tmp_path / "x.nii", LabelMap(np.zeros((3, 4, 4), np.uint8), 2),
                     template=image)
    assert not (tmp_path / "x.nii").exists()


def test_zero_pixdim_defaults_to_unit_spacing(tmp_path):
    vol = Volume(np.ones((3, 3, 3), dtype=np.float32))
    path = tmp_path / "nopix.nii"
    write_volume(path, vol)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8f", raw, 76, 1.0, 0.0, 0.0, 0.0, 0, 0, 0, 0)
    path.write_bytes(bytes(raw))
    back = read_volume(path)
    assert back.spacing == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("spacing", [(1e39, 1, 1), (0, 1, 1), (1e-50, 1, 1), (1, 1)])
def test_explicit_spacing_float32_cannot_hold_is_rejected_before_writing(tmp_path, spacing):
    path = tmp_path / "labels.nii"
    with pytest.raises(RejectedInputError, match="spacing must be 3 positive finite"):
        write_volume(path, LabelMap(np.ones((2, 2, 2), dtype=np.uint8), 2), spacing=spacing)
    assert not path.exists()


def test_explicit_spacing_round_trips_bit_exactly(tmp_path):
    labels = LabelMap(np.arange(24, dtype=np.uint8).reshape(2, 3, 4) % 5, 5)
    spacing = (0.8, 1.25, 3.0)
    path = tmp_path / "labels.nii"
    write_volume(path, labels, spacing=spacing)
    hdr, back = read_nifti(path)
    assert back.data.tobytes() == labels.data.tobytes()
    assert np.array(hdr.pixdim, np.float32).tobytes() == np.array(spacing, np.float32).tobytes()


def test_read_rejects_unknown_dimensionality(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    path = tmp_path / "ndim.nii"
    write_volume(path, vol)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 2, 2, 2, 1, 1, 1, 1, 1)  # declare 2D
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormatError):
        read_volume(path)


def test_manifest_round_trip(tmp_path):
    man = ScanManifest(names={1: "spleen", 2: "liver", 3: "kidney"},
                       statuses={1: "labeled", 2: "unlabeled", 3: "pseudo"})
    path = tmp_path / "scan.manifest"
    write_manifest(path, man)
    back = read_manifest(path)
    assert back.names == man.names
    assert back.statuses == man.statuses
    assert back.num_classes == 4
    assert back.classes_with_status("labeled") == frozenset({1})
    assert back.classes_with_status("pseudo") == frozenset({3})


def test_status_manifest_covers_every_class_labeled_first():
    man = status_manifest(5, labeled={1, 2}, pseudo={2, 3})
    assert man.statuses == {1: "labeled", 2: "labeled", 3: "pseudo", 4: "unlabeled"}
    assert man.names == {}


def test_manifest_errors(tmp_path):
    path = tmp_path / "bad.manifest"
    path.write_text("class.1.status=supervised\n")
    with pytest.raises(CorruptFileError):
        read_manifest(path)
    path.write_text("organ.1.status=labeled\n")
    with pytest.raises(CorruptFileError):
        read_manifest(path)
    path.write_text("no equals sign\n")
    with pytest.raises(CorruptFileError):
        read_manifest(path)
    for text, line in (("class.1.status=labeled\nclass.2.name=x\nclass.01.status=pseudo\n", 3),
                       ("class.999.status=unlabeled\n", 1),
                       ("class.1.status=labeled\nclass.-1.status=labeled\n", 2)):
        path.write_text(text)
        with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}:{line}: "):
            read_manifest(path)
    path.write_text("class.0.name=background\nclass.255.status=unlabeled\n")
    assert read_manifest(path).num_classes == 256
    path.write_text("# comment only\n\nclass.2.name=liver\n")
    man = read_manifest(path)
    assert man.names == {2: "liver"}
