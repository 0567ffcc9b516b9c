"""The file exchange: the one module that names, writes and decodes the
files by which ``FileOracle`` (the client half) and ``Server`` (the server
half) talk through a directory, and the protocol's one description.

    req_<uid>.nii        request image (float32, with its scan's geometry)
    req_<uid>.prompts    segment only: box prompts, one line per box,
                         "axis slice a_min b_min a_max b_max"
    resp_<uid>.prob.nii  predict: C-class float32 probabilities or a uint8
                         label image; segment: 2-class float32 probabilities
    resp_<uid>.nii       segment only: the uint8 0/1 mask
    fit_<uid>/           training set: per example i (4 digits) scan_<i>.nii,
                         .target.nii, .manifest and any VLS weights, .mask.nii
    fit_<uid>.req        fit request: "supervision=full|partial"
    fit_<uid>.done       the trainer's answer: the fit is over
    resp_<uid>.err       a failed answer, one line: "<ExceptionType>: <message>"

Images are whole-grid, and ``Server`` writes each answer on its request
image's spacing and qform/sform.  Each file is committed: written under its
name plus ``.tmp``, then renamed, or, for a request or fit image whose very
array this exchange has already written, hard-linked to that first file; a
link commits at once, as a rename does.  So a request's image may share its
inode with an earlier file of the same exchange, and a server must never
write to a request file.  A request's image is committed before its prompts,
so a predict request is complete once its ``.nii`` exists, a segment request
once its ``.prompts`` exists (the two share a name: a directory serves one
model), and a fit once ``.req`` exists, which is committed after the last
example (a failed build leaves none).  A segment answer's probabilities are
committed before its mask, which the client awaits first.  The directory is
the one record: a complete request is pending, to any server, until its last
answer file (``.prob.nii``, the mask, ``.done``) or ``.err`` exists.  A batch
writes every request before it awaits the first answer.  A uid starts with a
zero-padded per-process sequence number, so one client's uids sort in commit
order, and ``Server`` takes pending requests in uid order, the first awaited
first.  While it awaits an answer the client pauses an eighth of the time
waited so far, at least 1 ms and at most 50 ms, so it sees an answer at most
about 1/8 of its wait after it lands.  It gives each answer ``timeout``
seconds from when it starts to await it, once its request or batch is
committed; a missing answer is an ``OracleUnavailableError``, raised at
once if ``.err`` is committed, one still unreadable an ``OracleProtocolError``.
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
import uuid
from pathlib import Path

from . import nifti_io
from .errors import ConfigError, OracleProtocolError, RejectedInputError
from .prompting import BoxPromptPair, format_prompts, parse_prompts
from .vls_loss import SupervisionTarget
from .volgrid import LabelMap, ProbVolume, Volume, argmax_labelmap, mask_to_labels

log = logging.getLogger("promptseg.exchange")
_sequence = itertools.count()

_NAMES = {"image": "req_{}.nii", "prompts": "req_{}.prompts", "probs": "resp_{}.prob.nii",
          "mask": "resp_{}.nii", "examples": "fit_{}", "fit": "fit_{}.req", "done": "fit_{}.done",
          "error": "resp_{}.err"}
# kind: (the name whose commit completes a request, the name of its last answer file)
_KINDS = {"predict": ("image", "probs"), "segment": ("prompts", "mask"), "fit": ("fit", "done")}


def path(root, name: str, uid: str) -> Path:
    """File ``name`` (a key of ``_NAMES``) of request ``uid`` under ``root``."""
    return Path(root) / _NAMES[name].format(uid)


def commit(dest: Path, content, template: Volume | None = None) -> None:
    """Write ``content`` (text, or a grid on the image ``template``, as for
    ``write_volume``) to ``dest`` by way of a temporary name."""
    tmp = dest.with_name(dest.name + ".tmp")
    if isinstance(content, str):
        tmp.write_text(content)
    else:   # write_volume is looked up per call, so a wrapper around it sees every write
        nifti_io.write_volume(tmp, content, template=template)
    tmp.rename(dest)


def commit_image(dest: Path, volume: Volume, copies: dict | None) -> None:
    """Commit ``volume`` at ``dest`` as a hard link to the first file that
    ``copies`` holds for its very array, spacing and header, while that array
    is read-only; else write it, and a read-only one's file becomes the first.
    ``copies`` maps ``id(data)`` to ``(data, spacing, header, first path)``;
    without it the image is written.  The array itself names the image, so an
    array the package has made read-only must not be made writable and changed."""
    data, copies = volume.data, {} if copies is None else copies
    held, spacing, header, first = copies.get(id(data), (None,) * 4)
    if data.flags.writeable:
        copies.pop(id(data), None)
    elif held is data and (spacing, header) == (volume.spacing, volume.header):
        try:
            return os.link(first, dest)
        except OSError:     # no hard links here, or the first copy is gone
            pass
    commit(dest, volume)
    if not data.flags.writeable:
        copies[id(data)] = (data, volume.spacing, volume.header, dest)


def _example_paths(fit_dir: Path, idx: int) -> list[Path]:
    """Example ``idx``'s image, target, mask and manifest in ``fit_dir``."""
    return [fit_dir / f"scan_{idx:04d}{suffix}"
            for suffix in (".nii", ".target.nii", ".mask.nii", ".manifest")]


def _new_uid() -> str:
    """A uid that sorts after every earlier one of this process."""
    return f"{next(_sequence):012d}{uuid.uuid4().hex}"


def send(root, volume: Volume, prompts: BoxPromptPair | None = None, *,
         copies: dict | None = None) -> str:
    """Commit one request, its image (by way of ``copies``, as for
    ``commit_image``) and then any prompts; returns its uid."""
    uid = _new_uid()
    commit_image(path(root, "image", uid), volume, copies)
    if prompts is not None:
        commit(path(root, "prompts", uid), format_prompts(prompts))
    return uid


def send_fit(root, examples, supervision: str, *, copies: dict | None = None) -> str:
    """Write each example as it is taken, its image by way of ``copies`` as
    for ``send``, then commit the request; returns its uid."""
    uid = _new_uid()
    fit_dir = path(root, "examples", uid)
    fit_dir.mkdir()
    for idx, ex in enumerate(examples):
        image, target, mask, manifest = _example_paths(fit_dir, idx)
        commit_image(image, ex.volume, copies)
        nifti_io.write_volume(target, ex.target.labels, template=ex.volume)
        if ex.weight_mask is not None:
            nifti_io.write_volume(mask, mask_to_labels(ex.weight_mask), template=ex.volume)
        nifti_io.write_manifest(manifest, nifti_io.status_manifest(
            ex.target.labels.num_classes, ex.labeled_classes, ex.target.pseudo_classes))
    commit(path(root, "fit", uid), f"supervision={supervision}\n")
    return uid


def predict_labels(answer, dims) -> LabelMap:
    """A decoded predict answer as labels: probabilities reduced to their
    argmax, a uint8 label image taken as it is (``num_classes`` = max + 1)."""
    if isinstance(answer, ProbVolume):
        answer = argmax_labelmap(answer)
    elif not isinstance(answer, LabelMap):
        raise OracleProtocolError("predict response is neither probabilities nor labels")
    if answer.dims != dims:
        raise OracleProtocolError(f"predict response dims {answer.dims} != request dims {dims}")
    return answer


def check_segment(mask, probs, dims) -> None:
    """An ``OracleProtocolError`` unless the decoded segment answer is a 0/1
    uint8 mask and 2-class probabilities, both on ``dims``."""
    if not isinstance(mask, LabelMap):
        raise OracleProtocolError("segment mask response is not a uint8 label image")
    if mask.dims != dims:
        raise OracleProtocolError(f"segment response dims {mask.dims} != request dims {dims}")
    if int(mask.data.max()) > 1:
        raise OracleProtocolError("segment mask response is not binary")
    if not isinstance(probs, ProbVolume) or probs.num_classes != 2:
        raise OracleProtocolError("segment probability response must be 2-class")
    if probs.dims != dims:
        raise OracleProtocolError(f"segment probability dims {probs.dims} != request dims {dims}")


def _read_labels(path: Path, dims):
    """The data of a fit target or mask: a uint8 label image on its image's ``dims``."""
    grid = nifti_io.read_volume(path)
    if not isinstance(grid, LabelMap) or grid.dims != dims:
        raise RejectedInputError(f"{path}: must be a uint8 label image on its image's dims {dims}, "
                                 f"not a {type(grid).__name__} on {grid.dims}")
    return grid.data


def read_examples(fit_dir: Path):
    """The ``TrainingExample``s in ``fit_dir``, each read as it is taken."""
    from .oracles import TrainingExample        # oracles imports this module
    for idx in itertools.count():
        image, target, mask, manifest = _example_paths(fit_dir, idx)
        if not manifest.exists():
            return
        man, volume = nifti_io.read_manifest(manifest), nifti_io.read_volume(image)
        labels = LabelMap(_read_labels(target, volume.dims), man.num_classes)
        yield TrainingExample(
            volume, SupervisionTarget(labels, man.classes_with_status("pseudo")),
            man.classes_with_status("labeled"),
            _read_labels(mask, volume.dims) > 0 if mask.exists() else None)


class Server:
    """Serves a ``SpecialistOracle`` (predict, fit) or a ``GeneralistOracle``
    (segment, on the whole grid) over one exchange directory, answering each
    request once, on its image's spacing and qform/sform: one whose model
    raises is logged and answered ``.err``."""

    def __init__(self, root, specialist=None, generalist=None):
        if (specialist is None) == (generalist is None):
            raise ConfigError("serve a specialist or a generalist: their requests share a name")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.specialist, self.generalist = specialist, generalist

    def pending(self) -> list[tuple[str, str]]:
        """``(kind, uid)`` of every complete request not answered yet, in uid order."""
        names, found = set(os.listdir(self.root)), []
        for kind in ("segment",) if self.generalist is not None else ("predict", "fit"):
            request, last = _KINDS[kind]
            prefix, suffix = _NAMES[request].split("{}")
            for name in names:
                uid = name[len(prefix):-len(suffix)]
                if (name.startswith(prefix) and name.endswith(suffix)
                        and _NAMES[last].format(uid) not in names
                        and _NAMES["error"].format(uid) not in names):
                    found.append((kind, uid))
        return sorted(found, key=lambda request: request[1])

    def answer(self, kind: str, uid: str) -> None:
        """Answer one complete request of ``kind`` predict, segment or fit."""
        if kind == "fit":
            text = path(self.root, "fit", uid).read_text()
            supervision = dict(line.split("=", 1) for line in text.split())["supervision"]
            self.specialist.fit(read_examples(path(self.root, "examples", uid)), supervision)
            return commit(path(self.root, "done", uid), "ok\n")
        volume = nifti_io.read_volume(path(self.root, "image", uid))
        if kind == "predict":
            return self._commit_answer(path(self.root, "probs", uid),
                                       self.specialist.predict(volume), volume)
        prompts = parse_prompts(path(self.root, "prompts", uid).read_text())
        mask, probs = self.generalist.segment(volume, prompts)
        self._commit_answer(path(self.root, "probs", uid), probs, volume)
        self._commit_answer(path(self.root, "mask", uid), mask_to_labels(mask), volume)

    @staticmethod
    def _commit_answer(dest: Path, grid, volume: Volume) -> None:
        """Commit ``grid`` on the request image ``volume``; a grid on other
        dims is committed as it is, at 1 mm, for the client to refuse."""
        commit(dest, grid, volume if getattr(grid, "dims", None) == volume.dims else None)

    def serve_once(self) -> int:
        """Answer every complete request not answered yet; returns how many."""
        todo = self.pending()
        for kind, uid in todo:
            try:
                self.answer(kind, uid)
            except Exception as exc:    # a failing model must not stop the server
                log.exception("%s request %s in %s failed", kind, uid, self.root)
                line = " ".join(f"{type(exc).__name__}: {exc}".split())
                commit(path(self.root, "error", uid), line + "\n")
        return len(todo)

    def serve(self, stop: threading.Event) -> None:
        """``serve_once`` until ``stop`` is set, pausing 5 ms after each call
        that found nothing."""
        while not stop.is_set():
            if not self.serve_once():
                stop.wait(0.005)
