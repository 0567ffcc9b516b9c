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

Images are whole-grid.  Each file is committed: written under its name plus
``.tmp``, then renamed.  A request's image is committed before its prompts,
so a predict request is complete once its ``.nii`` exists, a segment request
once its ``.prompts`` exists (the two share a name: a directory serves one
model), and a fit once ``.req`` exists, which is committed after the last
example (a failed build leaves none).  A segment answer's probabilities are
committed before its mask, which the client awaits first.  A batch writes
every request before it awaits the first answer.  A uid starts with a
zero-padded per-process sequence number, so one client's uids sort in commit
order, and ``Server`` takes pending requests in uid order, the first awaited
first.  The client polls after 1 ms, doubling to 50 ms, and gives each answer
``timeout`` seconds from when it starts to await it, once its request or
batch is committed; a missing answer is an ``OracleUnavailableError``, one
still unreadable an ``OracleProtocolError``.
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
import uuid
from pathlib import Path

from . import nifti_io
from .errors import ConfigError, OracleProtocolError
from .prompting import BoxPromptPair, format_prompts, parse_prompts
from .vls_loss import SupervisionTarget
from .volgrid import LabelMap, ProbVolume, Volume, argmax_labelmap, mask_to_labels

log = logging.getLogger("promptseg.exchange")
_sequence = itertools.count()

_NAMES = {"image": "req_{}.nii", "prompts": "req_{}.prompts", "probs": "resp_{}.prob.nii",
          "mask": "resp_{}.nii", "examples": "fit_{}", "fit": "fit_{}.req", "done": "fit_{}.done"}


def path(root, name: str, uid: str) -> Path:
    """File ``name`` (a key of ``_NAMES``) of request ``uid`` under ``root``."""
    return Path(root) / _NAMES[name].format(uid)


def commit(dest: Path, content) -> None:
    """Write ``content`` (text or a grid) to ``dest`` by way of a temporary name."""
    tmp = dest.with_name(dest.name + ".tmp")
    if isinstance(content, str):
        tmp.write_text(content)
    else:   # write_volume is looked up per call, so a wrapper around it sees every write
        nifti_io.write_volume(tmp, content)
    tmp.rename(dest)


def _example_paths(fit_dir: Path, idx: int) -> list[Path]:
    """Example ``idx``'s image, target, mask and manifest in ``fit_dir``."""
    return [fit_dir / f"scan_{idx:04d}{suffix}"
            for suffix in (".nii", ".target.nii", ".mask.nii", ".manifest")]


def _new_uid() -> str:
    """A uid that sorts after every earlier one of this process."""
    return f"{next(_sequence):012d}{uuid.uuid4().hex}"


def send(root, volume: Volume, prompts: BoxPromptPair | None = None) -> str:
    """Commit one request, its image and then any prompts; returns its uid."""
    uid = _new_uid()
    commit(path(root, "image", uid), volume)
    if prompts is not None:
        commit(path(root, "prompts", uid), format_prompts(prompts))
    return uid


def send_fit(root, examples, supervision: str) -> str:
    """Write each example as it is taken, then commit the request; returns its uid."""
    uid = _new_uid()
    fit_dir = path(root, "examples", uid)
    fit_dir.mkdir()
    for idx, ex in enumerate(examples):
        image, target, mask, manifest = _example_paths(fit_dir, idx)
        nifti_io.write_volume(image, ex.volume)
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


def read_examples(fit_dir: Path):
    """The ``TrainingExample``s in ``fit_dir``, each read as it is taken."""
    from .oracles import TrainingExample        # oracles imports this module
    for idx in itertools.count():
        image, target, mask, manifest = _example_paths(fit_dir, idx)
        if not manifest.exists():
            return
        man = nifti_io.read_manifest(manifest)
        labels = LabelMap(nifti_io.read_volume(target).data, man.num_classes)
        yield TrainingExample(
            nifti_io.read_volume(image),
            SupervisionTarget(labels, man.classes_with_status("pseudo")),
            man.classes_with_status("labeled"),
            nifti_io.read_volume(mask).data > 0 if mask.exists() else None)


class Server:
    """Serves a ``SpecialistOracle`` (predict, fit) or a ``GeneralistOracle``
    (segment, on the whole grid) over one exchange directory, taking each
    request once: one whose answer raises is logged and left unanswered."""

    def __init__(self, root, specialist=None, generalist=None):
        if (specialist is None) == (generalist is None):
            raise ConfigError("serve a specialist or a generalist: their requests share a name")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.specialist, self.generalist = specialist, generalist
        self.taken: set[str] = set()

    def pending(self) -> list[tuple[str, str]]:
        """``(kind, uid)`` of every complete request not taken yet, in uid order."""
        kinds = ({"prompts": "segment"} if self.generalist is not None
                 else {"image": "predict", "fit": "fit"})
        found = []
        for name, (key, kind) in itertools.product(os.listdir(self.root), kinds.items()):
            prefix, suffix = _NAMES[key].split("{}")
            uid = name[len(prefix):-len(suffix)]
            if name.startswith(prefix) and name.endswith(suffix) and uid not in self.taken:
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
            return commit(path(self.root, "probs", uid), self.specialist.predict(volume))
        prompts = parse_prompts(path(self.root, "prompts", uid).read_text())
        mask, probs = self.generalist.segment(volume, prompts)
        commit(path(self.root, "probs", uid), probs)
        commit(path(self.root, "mask", uid), mask_to_labels(mask))

    def serve_once(self) -> int:
        """Answer every complete request not taken yet; returns how many."""
        todo = self.pending()
        for kind, uid in todo:
            self.taken.add(uid)
            try:
                self.answer(kind, uid)
            except Exception:       # a failing model must not stop the server
                log.exception("%s request %s in %s failed", kind, uid, self.root)
        return len(todo)

    def serve(self, stop: threading.Event) -> None:
        """``serve_once`` until ``stop`` is set, pausing 5 ms after each call
        that found nothing."""
        while not stop.is_set():
            if not self.serve_once():
                stop.wait(0.005)
