"""What the benchmark wraps inside promptseg, and the per-layer metrics it
derives from the spans.

``pipeline`` imports its collaborators by name, so the probes wrap
``promptseg.pipeline.<name>``; wrapping the defining module would miss those
calls.  Methods are wrapped on their class, which every instance sees.

Two probe sets exist.  ``BOUNDARY`` wraps only the oracle calls and the
phantom suite, a few hundred calls per run: untraced runs use it to split
``run_s`` into oracle time and ``host_s``.  ``LAYERS`` wraps every layer for
the traced run.
"""

from __future__ import annotations

import hashlib
import os
import statistics

import numpy as np
from promptseg import nifti_io, oracles, pipeline, refinement, volgrid
from promptseg.errors import (CorruptFileError, NoPredictionError,
                              OracleUnavailableError)

from tracing import Probe, Tracer, outermost, percentile, self_times

RUN = "pipeline.run"
BOUNDARY_NAMES = frozenset({
    "oracles.phantom_suite", "oracles.predict", "oracles.segment", "oracles.fit",
    "file_oracle.predict", "file_oracle.segment", "file_oracle.fit",
})
NIFTI_NAMES = frozenset({"nifti_io.read", "nifti_io.write"})
FILE_ORACLE_NAMES = frozenset({"file_oracle.predict", "file_oracle.segment",
                               "file_oracle.fit"})


def _on_predict(tracer: Tracer, args, kwargs, result, exc) -> None:
    volume = args[1] if len(args) > 1 else kwargs["volume"]
    tracer.notes["predicted"].append((tracer.counts["fit_epoch"], volume.data))


def _on_fit(tracer: Tracer, args, kwargs, result, exc) -> None:
    tracer.counts["fit_epoch"] += 1


def _on_file_call(tracer: Tracer, args, kwargs, result, exc) -> None:
    if isinstance(exc, OracleUnavailableError):
        tracer.counts["timeouts"] += 1


def _on_file_predict(tracer: Tracer, args, kwargs, result, exc) -> None:
    _on_predict(tracer, args, kwargs, result, exc)
    _on_file_call(tracer, args, kwargs, result, exc)


def _on_file_fit(tracer: Tracer, args, kwargs, result, exc) -> None:
    _on_fit(tracer, args, kwargs, result, exc)
    _on_file_call(tracer, args, kwargs, result, exc)


def _on_box_prompts(tracer: Tracer, args, kwargs, result, exc) -> None:
    if isinstance(exc, NoPredictionError):
        tracer.counts["skips"] += 1


def _on_refine(tracer: Tracer, args, kwargs, result, exc) -> None:
    if result is None:
        return
    candidate, _, prompts, config = args[:4]
    tracer.counts["accepts"] += bool(result.accepted)
    tracer.notes["rois"].append((prompts, config.delta_roi, candidate.shape))


def _on_vls_mask(tracer: Tracer, args, kwargs, result, exc) -> None:
    if result is not None:
        tracer.notes["vls"].append((result, args[1]))


def _on_read(tracer: Tracer, args, kwargs, result, exc) -> None:
    if isinstance(exc, CorruptFileError):
        tracer.counts["corrupt_reads"] += 1
    elif exc is None:
        tracer.counts["read_bytes"] += os.path.getsize(args[0])


def _on_write(tracer: Tracer, args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.counts["write_bytes"] += os.path.getsize(args[0])


_ORACLE_PROBES = [
    Probe(pipeline, "make_phantom_suite", "oracles.phantom_suite"),
    Probe(oracles.PhantomSpecialist, "predict", "oracles.predict", _on_predict),
    Probe(oracles.PhantomSpecialist, "fit", "oracles.fit", _on_fit),
    Probe(oracles.PhantomGeneralist, "segment", "oracles.segment"),
    Probe(oracles.FileOracle, "predict", "file_oracle.predict", _on_file_predict),
    Probe(oracles.FileOracle, "fit", "file_oracle.fit", _on_file_fit),
    Probe(oracles.FileOracle, "segment", "file_oracle.segment", _on_file_call),
]

BOUNDARY = [Probe(p.owner, p.attr, p.name) for p in _ORACLE_PROBES]

LAYERS = _ORACLE_PROBES + [
    Probe(oracles.PhantomRegistry, "signed_distance", "oracles.signed_distance"),
    Probe(volgrid.ProbVolume, "__post_init__", "volgrid.probvolume"),
    Probe(pipeline, "argmax_labelmap", "volgrid.argmax"),
    Probe(refinement, "voxel_entropy", "volgrid.entropy"),
    Probe(pipeline, "make_box_prompts", "prompting.box_prompts", _on_box_prompts),
    Probe(pipeline, "refine_pseudo_label", "refinement.refine", _on_refine),
    Probe(pipeline, "vls_mask", "vls_loss.vls_mask", _on_vls_mask),
    Probe(pipeline, "evaluate_scan", "metrics.evaluate_scan"),
    Probe(pipeline, "dice", "metrics.dice"),
    Probe(pipeline, "pseudo_label_round", "pipeline.round"),
    Probe(pipeline, "initial_training", "pipeline.initial_training"),
    Probe(pipeline, "retrain", "pipeline.retrain"),
    Probe(pipeline, "simulate_partial_labels", "pipeline.simulate_partial"),
    Probe(nifti_io, "read_volume", "nifti_io.read", _on_read),
    Probe(nifti_io, "write_volume", "nifti_io.write", _on_write),
]


def run_and_host_s(tracer: Tracer) -> tuple[float, float]:
    """Wall time of the run span, and that time minus the outermost oracle
    and phantom-suite spans inside it."""
    spans = tracer.spans
    (root,) = [s for s in spans if s[0] == RUN]
    run_ns = root[2] - root[1]
    oracle_ns = sum(spans[i][2] - spans[i][1] for i in outermost(spans, BOUNDARY_NAMES))
    return run_ns / 1e9, (run_ns - oracle_ns) / 1e9


def _repeat_ratio(predicted) -> float:
    """Share of predicts whose input volume was already predicted on since
    the last fit.  Volumes are fingerprinted by content."""
    digests: dict[int, str] = {}
    seen = set()
    repeats = 0
    for epoch, data in predicted:
        fp = digests.get(id(data))
        if fp is None:
            fp = digests[id(data)] = hashlib.sha256(data.tobytes()).hexdigest()
        repeats += (epoch, fp) in seen
        seen.add((epoch, fp))
    return repeats / len(predicted) if predicted else 0.0


def _roi_voxel_fraction(rois) -> float:
    fractions = []
    for prompts, delta_roi, dims in rois:
        ranges = refinement.roi_ranges(prompts, delta_roi, dims)
        box = 1
        for lo, hi in ranges:
            box *= hi - lo + 1
        fractions.append(box / (dims[0] * dims[1] * dims[2]))
    return statistics.fmean(fractions) if fractions else 0.0


def _pseudo_kept_fraction(vls) -> float:
    kept = total = 0
    for mask, target in vls:
        if not target.pseudo_classes:
            continue
        pseudo = np.isin(target.labels.data, sorted(target.pseudo_classes))
        total += int(pseudo.sum())
        kept += int((pseudo & mask).sum())
    return kept / total if total else 0.0


def layer_metrics(tracer: Tracer, responder_busy_ms: float = 0.0) -> dict[str, float]:
    """Every per-layer metric of one traced run.  ``_ms`` values are self
    times summed over the run unless the name says ``_p50``/``_p90``; rtt
    and fit latencies of the file oracle are whole call durations."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ms: dict[str, list[float]] = {}
    dur_ms: dict[str, list[float]] = {}
    for (name, start, end, _), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_ms.setdefault(name, []).append(s / 1e6)
        dur_ms.setdefault(name, []).append((end - start) / 1e6)

    def total(*names):
        return sum(sum(self_ms.get(n, ())) for n in names)

    def n(name):
        return calls.get(name, 0)

    nifti_in_calls = sum(spans[i][2] - spans[i][1]
                         for i in outermost(spans, NIFTI_NAMES)
                         if _has_ancestor(spans, i, FILE_ORACLE_NAMES)) / 1e6
    rtt_total = sum(sum(dur_ms.get(nm, ())) for nm in FILE_ORACLE_NAMES)
    refines = n("refinement.refine")
    c = tracer.counts
    return {
        "oracles.phantom_suite_ms": total("oracles.phantom_suite"),
        "oracles.signed_distance_ms": total("oracles.signed_distance"),
        "oracles.predict_calls": n("oracles.predict"),
        "oracles.predict_ms": total("oracles.predict"),
        "oracles.predict_repeat_ratio": _repeat_ratio(tracer.notes["predicted"]),
        "oracles.segment_calls": n("oracles.segment"),
        "oracles.segment_ms": total("oracles.segment"),
        "oracles.fit_calls": n("oracles.fit"),
        "oracles.fit_ms": total("oracles.fit"),
        "file_oracle.predict_rtt_ms_p50": percentile(dur_ms.get("file_oracle.predict", ()), 50),
        "file_oracle.predict_rtt_ms_p90": percentile(dur_ms.get("file_oracle.predict", ()), 90),
        "file_oracle.segment_rtt_ms_p50": percentile(dur_ms.get("file_oracle.segment", ()), 50),
        "file_oracle.segment_rtt_ms_p90": percentile(dur_ms.get("file_oracle.segment", ()), 90),
        "file_oracle.fit_ms_p50": percentile(dur_ms.get("file_oracle.fit", ()), 50),
        "file_oracle.requests": n("file_oracle.predict") + n("file_oracle.segment"),
        "file_oracle.corrupt_retries": c["corrupt_reads"],
        "file_oracle.timeouts": c["timeouts"],
        "file_oracle.wait_ms": (rtt_total - nifti_in_calls - responder_busy_ms
                                if rtt_total else 0.0),
        "responder.busy_ms": responder_busy_ms,
        "volgrid.probvolume_calls": n("volgrid.probvolume"),
        "volgrid.probvolume_ms": total("volgrid.probvolume"),
        "volgrid.argmax_ms": total("volgrid.argmax"),
        "volgrid.entropy_ms": total("volgrid.entropy"),
        "prompting.box_prompts_ms": total("prompting.box_prompts"),
        "prompting.skips": c["skips"],
        "refinement.refine_calls": refines,
        "refinement.refine_ms_p50": percentile(self_ms.get("refinement.refine", ()), 50),
        "refinement.accept_ratio": c["accepts"] / refines if refines else 0.0,
        "refinement.roi_voxel_fraction": _roi_voxel_fraction(tracer.notes["rois"]),
        "vls_loss.vls_mask_ms": total("vls_loss.vls_mask"),
        "vls_loss.pseudo_kept_fraction": _pseudo_kept_fraction(tracer.notes["vls"]),
        "metrics.evaluate_scan_ms": total("metrics.evaluate_scan"),
        "metrics.dice_ms": total("metrics.dice"),
        "pipeline.run_self_ms": total(RUN),
        "pipeline.round_self_ms": total("pipeline.round"),
        "pipeline.retrain_self_ms": total("pipeline.retrain", "pipeline.initial_training"),
        "pipeline.simulate_partial_ms": total("pipeline.simulate_partial"),
        "nifti_io.read_calls": n("nifti_io.read"),
        "nifti_io.read_ms": total("nifti_io.read"),
        "nifti_io.read_mb": c["read_bytes"] / 1e6,
        "nifti_io.write_calls": n("nifti_io.write"),
        "nifti_io.write_ms": total("nifti_io.write"),
        "nifti_io.write_mb": c["write_bytes"] / 1e6,
    }


def _has_ancestor(spans, idx: int, names: frozenset[str]) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


LAYER_UNITS = {
    "_calls": "count", "_ratio": "ratio", "_fraction": "ratio", "_mb": "MB",
    "_ms": "ms", "_p50": "ms", "_p90": "ms", ".requests": "count",
    ".corrupt_retries": "count", ".timeouts": "count", ".skips": "count",
    "_pct": "%", "_s": "s",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
