"""Pluggable segmentation backends behind the pipeline.

Two oracle surfaces exist: a *specialist* (trainable; ``predict`` -> labels,
``fit``) and a *generalist* (frozen, promptable; ``segment``).  ``FileOracle``
bridges to real external models as the client half of ``exchange``.  Each
FileOracle is given its exchange directory; nothing else names one.  The
phantom testbed that stands in for both models is ``phantom``.
"""

from __future__ import annotations

import abc
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import exchange, nifti_io
from .errors import (CorruptFileError, NiftiError, OracleProtocolError,
                     OracleUnavailableError, PromptsegError, RejectedInputError)
from .prompting import BoxPromptPair
from .vls_loss import SupervisionTarget
from .volgrid import Box, LabelMap, ProbVolume, Volume, argmax_labelmap


Answer = tuple[np.ndarray, ProbVolume]


def _checked_region(region, dims: tuple[int, int, int]) -> Box:
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
                region: Box | None = None) -> Answer: ...

    def segment_all(self, requests: Sequence[tuple[Volume, BoxPromptPair, Box | None]]
                    ) -> Iterator[Answer | PromptsegError]:
        """The answers to ``(volume, prompts, region)`` requests, in order,
        each item the answer or the ``PromptsegError`` its request raised.
        Here each request is asked only as its item is taken."""
        return _each_answer(self.segment, requests)


POLL_INTERVAL_S = 0.05


class FileOracle(SpecialistOracle, GeneralistOracle):
    """Client half of ``exchange``: responses are read with retry until the
    deadline, so responders need not write atomically.  ``exchange_dir`` is
    created if it does not exist.  Each image goes to the exchange once: the
    oracle keeps its first copy of each (``exchange.commit_image``) for as
    long as it lives."""

    def __init__(self, exchange_dir, timeout: float = 60.0):
        self.root = Path(exchange_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.timeout = float(timeout)
        self._copies: dict = {}

    def _await_file(self, path: Path, deadline: float, kind=None, dims=None, error=None):
        """Poll for ``path`` until ``deadline`` and read it as a ``kind`` on ``dims``
        (``nifti_io.read_as``), or not at all for ``None``.  Each pause is an eighth of
        the time waited so far, at least 1 ms and at most ``POLL_INTERVAL_S``.  A file
        missing once ``error`` exists, or missing or unreadable at the first look past
        the deadline, raises."""
        start = time.monotonic()
        while True:
            corrupt = None
            if path.exists():
                try:
                    return None if kind is None else nifti_io.read_as(path, kind, dims)
                except CorruptFileError as exc:
                    corrupt = exc  # mid-write; retry
                except (NiftiError, RejectedInputError) as exc:    # each names the file
                    raise OracleProtocolError(str(exc)) from exc
            elif error is not None and error.exists():
                raise OracleUnavailableError(f"error answer {error}: {error.read_text()}".strip())
            now = time.monotonic()
            if now > deadline:
                if corrupt is not None:
                    raise OracleProtocolError(
                        f"response at {path} still corrupt after {self.timeout}s: "
                        f"{corrupt}") from corrupt
                raise OracleUnavailableError(f"no response at {path} within {self.timeout}s")
            time.sleep(min(max(0.001, (now - start) / 8), POLL_INTERVAL_S))

    def predict(self, volume: Volume, *, sent: str | None = None) -> LabelMap:
        """``sent`` is the uid of a request already written for ``volume``."""
        uid = sent or exchange.send(self.root, volume, copies=self._copies)
        deadline = time.monotonic() + self.timeout
        answer = self._await_file(exchange.path(self.root, "probs", uid), deadline,
                                  (ProbVolume, LabelMap), volume.dims,
                                  error=exchange.path(self.root, "error", uid))
        return argmax_labelmap(answer) if isinstance(answer, ProbVolume) else answer

    def predict_all(self, volumes: Sequence[Volume]) -> list[LabelMap]:
        """Every request is written before the first answer is awaited."""
        uids = [exchange.send(self.root, v, copies=self._copies) for v in volumes]
        return [self.predict(v, sent=uid) for v, uid in zip(volumes, uids)]

    def segment(self, volume: Volume, prompts: BoxPromptPair,
                region: Box | None = None, *, sent: str | None = None) -> Answer:
        """The checked whole-grid answer, cropped; ``sent`` as for ``predict``."""
        region = _checked_region(region, volume.dims)
        uid = sent or exchange.send(self.root, volume, prompts, copies=self._copies)
        deadline = time.monotonic() + self.timeout
        mask, probs = (self._await_file(exchange.path(self.root, name, uid), deadline,
                                        kind, volume.dims,
                                        error=exchange.path(self.root, "error", uid))
                       for name, kind in (("mask", LabelMap), ("probs", ProbVolume)))
        exchange.check_segment(mask, probs)
        return mask.data[region] > 0, probs.crop(region)

    def segment_all(self, requests: Sequence[tuple[Volume, BoxPromptPair, Box | None]]
                    ) -> Iterator[Answer | PromptsegError]:
        """Every region is checked before any request is written, and every
        request before this returns; each answer is awaited as it is taken."""
        checked = [(v, p, _checked_region(r, v.dims)) for v, p, r in requests]
        sent = [(v, p, r, exchange.send(self.root, v, p, copies=self._copies))
                for v, p, r in checked]
        return _each_answer(lambda v, p, r, uid: self.segment(v, p, r, sent=uid), sent)

    def fit(self, examples: Iterable[TrainingExample], supervision: str = "full") -> None:
        """Each example is written as it is taken; if taking one raises, no trainer starts."""
        uid = exchange.send_fit(self.root, examples, supervision, copies=self._copies)
        deadline = time.monotonic() + self.timeout
        self._await_file(exchange.path(self.root, "done", uid), deadline,
                         error=exchange.path(self.root, "error", uid))


# perfbench/ imports these four testbed names from here; the benchmark's next change
# drops this re-export.  They resolve on use, as ``phantom`` imports this module.
def __getattr__(name: str):
    if name in ("PhantomGeneralist", "PhantomRegistry", "PhantomSpecialist", "make_phantom_suite"):
        from . import phantom
        return getattr(phantom, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
