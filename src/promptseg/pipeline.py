"""The four-stage iterative scheme: partial-label simulation, initial
training, prompt -> generalist -> refine rounds, supervision merging, and
re-training.

Scans are independent within a round and rounds are a global barrier;
specialist fits are exclusive.  With phantom oracles the whole pipeline is a
pure function of (dataset, config, seed): per-scan randomness is keyed on
the scan id, all reports use fixed number formatting, and no timestamps are
written, so repeated runs produce byte-identical CSV and NIfTI outputs.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import nifti_io
from .errors import (ConfigError, NoPredictionError, PromptsegError,
                     RejectedInputError)
from .metrics import HD95_MISSING_POLICIES, ScanEvaluation, dice, evaluate_scan, summarize
from .oracles import (FileOracle, GeneralistOracle, PhantomGeneralist,
                      PhantomRegistry, PhantomSpecialist, SpecialistOracle,
                      TrainingExample, make_phantom_suite)
from .prompting import DEFAULT_PADDING, make_box_prompts
from .refinement import (DEFAULT_DELTA_ROI, DEFAULT_TAU_CLS, OrganRefinementState,
                         RefinementConfig, refine_pseudo_label)
from .vls_loss import SupervisionTarget, vls_mask
# unused here: the traced benchmark probes wrap promptseg.pipeline.argmax_labelmap
from .volgrid import MAX_CLASSES, LabelMap, Volume, argmax_labelmap, class_mask

log = logging.getLogger("promptseg.pipeline")

SUPERVISION_MODES = ("full", "partial")
ORACLE_KINDS = ("phantom", "file")


@dataclass
class ScanSupervision:
    """A scan's supervision: the ``labeled`` ground-truth classes, the target
    as ``given``, and the organ states that hold the accepted pseudo-labels.
    Pseudo classes of ``given`` seed their states at conf 0, and each round
    stores the state refinement returns; everything else is derived, and
    ``target`` merges ``partial`` with what is accepted now."""

    scan_id: str
    labeled: frozenset[int]
    given: SupervisionTarget
    organ_states: dict[int, OrganRefinementState] = field(init=False)
    partial: LabelMap = field(init=False)

    def __post_init__(self):
        if not self.labeled <= frozenset(range(1, self.num_classes)):
            raise RejectedInputError(f"labeled classes must lie in 1..{self.num_classes - 1}, "
                                     f"got {sorted(self.labeled)}")
        seeded, labels = self.given.pseudo_classes, self.given.labels
        if seeded & self.labeled:
            raise RejectedInputError("pseudo classes must be unlabeled")
        self.organ_states = {c: OrganRefinementState(class_id=c) for c in self.unlabeled}
        for c in seeded:
            mask = labels.data == c
            self.organ_states[c] = OrganRefinementState(
                c, mask, np.zeros(np.count_nonzero(mask), np.float32))
        self.partial = LabelMap(np.where(np.isin(labels.data, sorted(seeded)), 0, labels.data),
                                labels.num_classes)

    @property
    def num_classes(self) -> int:
        return self.given.labels.num_classes

    @property
    def unlabeled(self) -> frozenset[int]:
        return frozenset(range(1, self.num_classes)) - self.labeled

    def accepted(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{class: (mask, conf)} of every organ state holding a pseudo-label."""
        return {c: (s.current_pseudo, s.current_conf)
                for c, s in self.organ_states.items() if s.current_pseudo is not None}

    @property
    def pseudo(self) -> frozenset[int]:
        return frozenset(self.accepted())

    @property
    def target(self) -> SupervisionTarget:
        return merged_target(self.partial, self.accepted())


@dataclass
class Scan:
    scan_id: str
    volume: Volume
    supervision: ScanSupervision
    gt: LabelMap | None = None  # held for evaluation only, never for training


@dataclass
class PipelineConfig:
    """Every setting of a run.  Config files and the ``run`` subcommand take
    their keys, flags and value types from these fields, and
    ``__post_init__`` rejects bad values before any work starts."""

    # loop shape
    rounds: int = 4
    entropy_gate_from_round: int = 2
    supervision: str = "partial"   # base loss semantics: "full" | "partial"
    use_vls: bool = True
    keep_fraction: float = 0.67
    seed: int = 0
    # prompting / refinement
    box_padding: int = DEFAULT_PADDING
    tau_cls: float = DEFAULT_TAU_CLS
    delta_roi: int = DEFAULT_DELTA_ROI
    # oracle selection
    oracle: str = "phantom"
    specialist_exchange: str | None = None
    generalist_exchange: str | None = None
    oracle_timeout: float = 60.0
    # phantom suite
    scans: int = 20
    test_scans: int = 5
    organs: int = 6
    dims: tuple[int, int, int] = (32, 32, 32)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    generalist_cooperativeness: float = 0.9
    specialist_contradiction_weight: float = 0.5
    # data (file-oracle mode)
    data_dir: str | None = None
    # outputs
    out_dir: str = "runs/latest"
    hd95_missing_policy: str = "exclude"

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing = tuple(float(s) for s in self.spacing)
        problems = [
            (self.rounds < 0, "rounds must be >= 0"),
            (self.rounds >= 1 and not 1 <= self.entropy_gate_from_round <= self.rounds,
             "entropy_gate_from_round must lie in [1, rounds]"),
            (not 0.0 < self.keep_fraction <= 1.0, "keep_fraction must lie in (0, 1]"),
            (self.supervision not in SUPERVISION_MODES,
             f"supervision must be one of {SUPERVISION_MODES}"),
            (self.oracle not in ORACLE_KINDS, f"oracle must be one of {ORACLE_KINDS}"),
            (self.scans < 1 or self.test_scans < 0, "scans must be >= 1, test_scans >= 0"),
            (not 1 <= self.organs <= MAX_CLASSES - 1,
             f"organs must lie in [1, {MAX_CLASSES - 1}], got {self.organs}"),
            (self.seed < 0, f"seed must be >= 0, got {self.seed}"),
            (self.oracle == "phantom" and 0.0 < self.keep_fraction <= 1.0
             and _round_half_up(self.keep_fraction * self.organs) == 0,
             f"keep_fraction {self.keep_fraction} keeps 0 of {self.organs} organs"),
            (not 0.0 < self.tau_cls < 1.0, f"tau_cls must lie in (0, 1), got {self.tau_cls}"),
            (self.delta_roi < 0, f"delta_roi must be >= 0, got {self.delta_roi}"),
            (self.box_padding < 0, f"box_padding must be >= 0, got {self.box_padding}"),
            (not 0.0 <= self.generalist_cooperativeness <= 1.0,
             "generalist_cooperativeness must lie in [0, 1], "
             f"got {self.generalist_cooperativeness}"),
            (not self.oracle_timeout > 0.0,
             f"oracle_timeout must be > 0, got {self.oracle_timeout}"),
            (len(self.dims) != 3 or min(self.dims) < 1,
             f"dims must be 3 positive integers, got {self.dims}"),
            (len(self.spacing) != 3
             or not all(np.isfinite(s) and s > 0.0 for s in self.spacing),
             f"spacing must be 3 positive finite numbers, got {self.spacing}"),
            (not 0.0 <= self.specialist_contradiction_weight < np.inf,  # also rejects nan
             "specialist_contradiction_weight must be finite and >= 0, "
             f"got {self.specialist_contradiction_weight}"),
            (self.hd95_missing_policy not in HD95_MISSING_POLICIES,
             f"hd95_missing_policy must be one of {HD95_MISSING_POLICIES}"),
        ]
        for bad, message in problems:
            if bad:
                raise ConfigError(message)

    def refinement_config(self, round_t: int) -> RefinementConfig:
        return RefinementConfig(
            tau_cls=self.tau_cls,
            delta_roi=self.delta_roi,
            entropy_gate_active=round_t >= self.entropy_gate_from_round,
        )


_FIELD_TYPES = get_type_hints(PipelineConfig)
_BOOL_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def _parse_scalar(kind: type, text: str):
    return _BOOL_VALUES[text.lower()] if kind is bool else kind(text)


def parse_value(name: str, raw: str):
    """Parse the text form of config field ``name``, as written in a config
    file or on the ``run`` command line, into the field's type.  Tuples are
    comma-separated; booleans are true/false, yes/no or 1/0."""
    hint = _FIELD_TYPES.get(name)
    if hint is None:
        raise ConfigError(f"unknown key {name!r}")
    is_tuple = get_origin(hint) is tuple
    kind = next(a for a in get_args(hint) or (hint,) if a is not type(None))
    parts = raw.split(",") if is_tuple else [raw]
    try:
        values = [_parse_scalar(kind, part.strip()) for part in parts]
    except (KeyError, ValueError):
        what = f"comma-separated {kind.__name__}s" if is_tuple else kind.__name__
        raise ConfigError(f"{name}: expected {what}, got {raw!r}") from None
    return tuple(values) if is_tuple else values[0]


def load_config(path) -> PipelineConfig:
    """Parse a key=value config file (``#`` starts a comment line)."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            values[key] = parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return PipelineConfig(**values)


def format_value(value) -> str:
    """The text form of a config value that ``parse_value`` reads back."""
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def config_lines(config: PipelineConfig) -> list[str]:
    """The config echoed back in the documented key=value form."""
    return [f"{f.name}={format_value(getattr(config, f.name))}"
            for f in fields(PipelineConfig) if getattr(config, f.name) is not None]


# --- stage 1: partial-label simulation ---------------------------------------

def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def simulate_partial_labels(gt: LabelMap, num_classes: int, keep_fraction: float,
                            seed: int, scan_id: str = "scan") -> ScanSupervision:
    """Randomly keep ``round(keep_fraction * (C-1))`` organ annotations.

    Sampling is uniform without replacement and deterministic per
    (scan_id, seed); voxels of removed organs are relabeled to background in
    the supervision target.  Rounding is half-up.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    if gt.num_classes != num_classes:
        raise RejectedInputError(f"gt has {gt.num_classes} classes, expected {num_classes}")
    n_organs = num_classes - 1
    n_keep = _round_half_up(keep_fraction * n_organs)
    if n_keep == 0:
        raise ConfigError(
            f"keep_fraction {keep_fraction} keeps 0 of {n_organs} organs: no supervision")
    rng = np.random.default_rng((seed, zlib.crc32(scan_id.encode())))
    labeled = frozenset(int(c) for c in rng.choice(np.arange(1, num_classes),
                                                   size=n_keep, replace=False))
    data = np.where(np.isin(gt.data, sorted(labeled)), gt.data, 0)
    return ScanSupervision(scan_id, labeled, SupervisionTarget(LabelMap(data, num_classes)))


# --- stage 2: initial training ------------------------------------------------

def _training_examples(scans: list[Scan],
                       predictions: dict[str, LabelMap] | None) -> list[TrainingExample]:
    examples = []
    for scan in scans:
        target = scan.supervision.target
        mask = None
        if predictions is not None:
            mask = (vls_mask(predictions[scan.scan_id], target) if target.pseudo_classes
                    else np.ones(target.labels.dims, dtype=bool))  # no pseudo voxel to drop
        examples.append(TrainingExample(
            volume=scan.volume,
            target=target,
            labeled_classes=scan.supervision.labeled,
            weight_mask=mask,
        ))
    return examples


def initial_training(scans: list[Scan], specialist: SpecialistOracle,
                     supervision: str = "partial") -> None:
    """Fit the specialist on the as-given partial annotations (no pseudo-labels
    yet).  "full" treats unannotated organs as background; "partial" trains
    per-organ channels for the labeled classes only."""
    if not scans:
        raise ConfigError("initial training requires at least one scan")
    for scan in scans:
        if not scan.supervision.labeled:
            raise ConfigError(f"{scan.scan_id}: no labeled organs")
    specialist.fit(_training_examples(scans, None), supervision=supervision)


# --- stage 3: pseudo-label generation + refinement ----------------------------

@dataclass(frozen=True)
class RoundEntry:
    scan_id: str
    class_id: int
    decision: str          # "accept" | "reject" | "skip"
    reason: str
    mean_entropy: float | None
    pseudo_dice: float | None


@dataclass
class RoundReport:
    round_index: int
    entries: list[RoundEntry] = field(default_factory=list)

    def accepted(self) -> list[RoundEntry]:
        return [e for e in self.entries if e.decision == "accept"]


def merged_target(partial_gt: LabelMap,
                  pseudo: dict[int, tuple[np.ndarray, np.ndarray]]) -> SupervisionTarget:
    """Merge ground truth and the accepted pseudo-labels ``{class: (mask,
    conf)}``, ``conf`` the generalist probability at the mask's voxels in C
    order.  Ground truth always wins; a voxel several pseudo-labels claim
    goes to the higher probability, ties to the lower class."""
    labels = np.array(partial_gt.data)
    flat = labels.reshape(-1)
    best = np.where(flat == 0, np.float32(-np.inf), np.float32(np.inf))
    for c in sorted(pseudo):  # ascending, strict >: ties stay with the lower class
        mask, conf = pseudo[c]
        idx = np.flatnonzero(mask)
        win = conf > best[idx]
        flat[idx[win]] = c
        best[idx[win]] = conf[win]
    return SupervisionTarget(LabelMap(labels, partial_gt.num_classes), frozenset(pseudo))


def _predict(specialist: SpecialistOracle, volume: Volume, num_classes: int) -> LabelMap:
    """The specialist's labels as a ``num_classes``-class map; a label >=
    num_classes (say, from an external model) is a ``RejectedInputError``."""
    return LabelMap(specialist.predict(volume).data, num_classes)


def predict_labels(scans: list[Scan], specialist: SpecialistOracle) -> dict[str, LabelMap]:
    """The specialist's predicted labels for every scan with an unlabeled
    organ: one predict per scan per round, read by the round's prompts and
    by the VLS masks of the refit that follows it."""
    return {scan.scan_id: _predict(specialist, scan.volume, scan.supervision.num_classes)
            for scan in scans if scan.supervision.unlabeled}


def pseudo_label_round(scans: list[Scan], predictions: dict[str, LabelMap],
                       generalist: GeneralistOracle, config: PipelineConfig,
                       round_t: int) -> RoundReport:
    """One prompt -> segment -> refine pass over every unlabeled organ, the
    prompts drawn from ``predictions`` (see ``predict_labels``).

    Candidates are regenerated from scratch each round; the entropy gate
    (active from ``entropy_gate_from_round``) decides whether the stored
    pseudo-label is replaced, which is all a scan's target derives from.
    Per-organ oracle failures skip that organ and never abort the round.
    """
    report = RoundReport(round_index=round_t)
    for scan in scans:
        sup = scan.supervision
        if not sup.unlabeled:
            continue
        pred = predictions[scan.scan_id]
        for class_id in sorted(sup.unlabeled):
            try:
                prompts = make_box_prompts(pred, class_id, config.box_padding)
            except NoPredictionError:
                report.entries.append(RoundEntry(scan.scan_id, class_id,
                                                 "skip", "no-prediction", None, None))
                continue
            try:
                candidate, gprobs = generalist.segment(scan.volume, prompts)
            except PromptsegError as exc:
                log.warning("%s organ %d: generalist failed: %s", scan.scan_id, class_id, exc)
                report.entries.append(RoundEntry(scan.scan_id, class_id,
                                                 "skip", "oracle-error", None, None))
                continue
            result = refine_pseudo_label(candidate, gprobs, prompts,
                                         config.refinement_config(round_t),
                                         sup.organ_states[class_id])
            sup.organ_states[class_id] = result.state
            if result.accepted:
                pdice = (dice(result.mask, class_mask(scan.gt, class_id))
                         if scan.gt is not None else None)
                report.entries.append(RoundEntry(scan.scan_id, class_id,
                                                 "accept", "accepted",
                                                 result.mean_entropy, pdice))
            else:
                report.entries.append(RoundEntry(scan.scan_id, class_id,
                                                 "reject", result.reason,
                                                 result.mean_entropy, None))
    return report


# --- stage 4: re-training ------------------------------------------------------

def retrain(scans: list[Scan], specialist: SpecialistOracle,
            predictions: dict[str, LabelMap] | None,
            supervision: str = "partial") -> None:
    """Fit the specialist on the merged (ground truth + pseudo) targets.

    Given the round's ``predictions`` (VLS on), a selection mask built from
    them accompanies each target; the phantom specialist weights its quality
    update by it and the file oracle ships it as an extra NIfTI.  ``None``
    fits without masks.
    """
    if not any(scan.supervision.labeled or scan.supervision.pseudo for scan in scans):
        raise ConfigError("retraining requires at least one supervised scan")
    specialist.fit(_training_examples(scans, predictions), supervision=supervision)


# --- full pipeline -------------------------------------------------------------

@dataclass
class RunResult:
    out_dir: Path
    mean_dsc: float | None
    mean_hd95: float | None
    round_reports: list[RoundReport]
    evaluations: dict[str, ScanEvaluation]


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _build_phantom_dataset(config: PipelineConfig):
    suite = make_phantom_suite(config.scans + config.test_scans, config.organs,
                               config.dims, seed=config.seed, spacing=config.spacing)
    registry = PhantomRegistry()
    train, test = [], []
    num_classes = config.organs + 1
    for idx, (scan_id, vol, gt) in enumerate(suite):
        registry.register(vol, gt)
        if idx < config.scans:
            sup = simulate_partial_labels(gt, num_classes, config.keep_fraction,
                                          config.seed, scan_id)
            train.append(Scan(scan_id, vol, sup, gt=gt))
        else:
            test.append((scan_id, vol, gt))
    specialist = PhantomSpecialist(
        registry,
        contradiction_weight=config.specialist_contradiction_weight,
        seed=config.seed)
    generalist = PhantomGeneralist(
        registry,
        cooperativeness=config.generalist_cooperativeness,
        assumed_padding=config.box_padding,
        seed=config.seed)
    return train, test, specialist, generalist


def _load_file_dataset(config: PipelineConfig):
    """Read the file-mode scans, then open both exchanges: bad inputs create no directory."""
    if not config.data_dir:
        raise ConfigError("file oracle mode requires data_dir")
    spec_root = FileOracle.exchange_root(config.specialist_exchange)
    gen_root = FileOracle.exchange_root(config.generalist_exchange)
    if spec_root.resolve() == gen_root.resolve():
        # predict and segment requests share the req_<uid>.nii pattern
        raise ConfigError(f"specialist and generalist share the exchange directory "
                          f"{spec_root}; give each its own")
    root = Path(config.data_dir)
    manifests = sorted(root.glob("*.manifest"))
    if not manifests:
        raise ConfigError(f"no *.manifest scans found under {root}")
    train, test = [], []
    for man_path in manifests:
        scan_id = man_path.stem
        man = nifti_io.read_manifest(man_path)
        vol = nifti_io.read_volume(root / f"{scan_id}.nii")
        labels = nifti_io.read_volume(root / f"{scan_id}.labels.nii")
        if not isinstance(vol, Volume) or not isinstance(labels, LabelMap):
            raise ConfigError(f"{scan_id}: expected float32 image and uint8 labels")
        gt_path = root / f"{scan_id}.gt.nii"
        gt = nifti_io.read_volume(gt_path) if gt_path.exists() else None
        if gt is not None and not isinstance(gt, LabelMap):
            raise ConfigError(f"{scan_id}: expected uint8 labels in {gt_path.name}")
        for name, img in ((f"{scan_id}.labels.nii", labels), (gt_path.name, gt)):
            if img is not None and img.dims != vol.dims:
                raise ConfigError(f"{scan_id}: {name} dims {img.dims} differ from "
                                  f"the image's {vol.dims}")
        num_classes = max(man.num_classes, labels.num_classes)
        labels = LabelMap(np.array(labels.data), num_classes)
        if gt is not None:
            gt = LabelMap(np.array(gt.data), num_classes)
        sup = ScanSupervision(scan_id, man.classes_with_status("labeled"),
                              SupervisionTarget(labels, man.classes_with_status("pseudo")))
        train.append(Scan(scan_id, vol, sup, gt=gt))
        if gt is not None:
            test.append((scan_id, vol, gt))
    specialist = FileOracle(spec_root, timeout=config.oracle_timeout)
    generalist = FileOracle(gen_root, timeout=config.oracle_timeout)
    return train, test, specialist, generalist


def _input_hash(train, test) -> str:
    h = hashlib.sha256()
    for scan in train:
        h.update(scan.scan_id.encode())
        h.update(scan.volume.data.tobytes())
        h.update(scan.supervision.given.labels.data.tobytes())
    for scan_id, vol, gt in test:
        h.update(scan_id.encode())
        h.update(vol.data.tobytes())
        h.update(gt.data.tobytes())
    return h.hexdigest()


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute stage 1 then (2 -> 3 -> 4) x rounds, then the final evaluation.

    Writes round_<t>.csv, final_eval.csv, final_summary.csv, per-scan target
    NIfTIs + manifests, a run manifest and run.log (the ``promptseg``
    records) under ``config.out_dir``, which is made only once the inputs
    pass their checks; partial artifacts stay on disk if an oracle fails
    mid-run.
    """
    if config.oracle == "phantom":
        train, test, specialist, generalist = _build_phantom_dataset(config)
    else:
        train, test, specialist, generalist = _load_file_dataset(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    handler = logging.FileHandler(out / "run.log", mode="w")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.getLogger("promptseg").addHandler(handler)
    try:
        return _run_stages(config, out, train, test, specialist, generalist)
    finally:
        logging.getLogger("promptseg").removeHandler(handler)
        handler.close()


def _run_stages(config: PipelineConfig, out: Path, train: list[Scan], test,
                specialist: SpecialistOracle, generalist: GeneralistOracle) -> RunResult:
    manifest_lines = ["# promptseg run manifest", *config_lines(config),
                      f"input_hash={_input_hash(train, test)}"]
    (out / "run_manifest.txt").write_text("\n".join(manifest_lines) + "\n")

    log.info("initial training on %d scans (%s supervision)", len(train), config.supervision)
    initial_training(train, specialist, supervision=config.supervision)
    reports: list[RoundReport] = []
    for round_t in range(1, config.rounds + 1):
        predictions = predict_labels(train, specialist)
        report = pseudo_label_round(train, predictions, generalist, config, round_t)
        reports.append(report)
        _write_csv(out / f"round_{round_t}.csv", ["round", "scan_id", "class_id", "decision",
                                                  "reason", "mean_entropy", "pseudo_dice"],
                   ([round_t, e.scan_id, e.class_id, e.decision, e.reason,
                     _fmt(e.mean_entropy), _fmt(e.pseudo_dice)] for e in report.entries))
        n_accept = len(report.accepted())
        log.info("round %d: %d/%d organ updates accepted", round_t, n_accept,
                 len(report.entries))
        retrain(train, specialist, predictions if config.use_vls else None,
                supervision=config.supervision)

    targets_dir = out / "targets"
    targets_dir.mkdir(exist_ok=True)
    for scan in train:
        sup = scan.supervision
        nifti_io.write_volume(targets_dir / f"{scan.scan_id}.labels.nii", sup.target.labels,
                              template=scan.volume)
        nifti_io.write_manifest(targets_dir / f"{scan.scan_id}.manifest",
                                nifti_io.status_manifest(sup.num_classes, sup.labeled,
                                                         sup.pseudo))

    evaluations: dict[str, ScanEvaluation] = {}
    for scan_id, vol, gt in test:
        pred = _predict(specialist, vol, gt.num_classes)
        evaluations[scan_id] = evaluate_scan(pred, gt, vol.spacing,
                                             hd95_missing=config.hd95_missing_policy)
    mean_dsc = mean_hd95 = None
    if evaluations:
        summary = summarize(evaluations)
        _write_csv(out / "final_eval.csv", ["scan_id", "class_id", "dsc", "hd95"],
                   ([scan_id, cm.class_id, _fmt(cm.dsc), _fmt(cm.hd95)]
                    for scan_id in sorted(evaluations) for cm in evaluations[scan_id].per_class))
        _write_csv(out / "final_summary.csv", ["class_id", "mean_dsc", "mean_hd95", "scans"],
                   ([r.class_id, _fmt(r.mean_dsc), _fmt(r.mean_hd95), r.count] for r in summary))
        mean_dsc, mean_hd95 = summary[-1].mean_dsc, summary[-1].mean_hd95
        log.info("final evaluation: mean DSC %.4f over %d scans", mean_dsc, len(evaluations))
    return RunResult(out_dir=out, mean_dsc=mean_dsc, mean_hd95=mean_hd95,
                     round_reports=reports, evaluations=evaluations)
