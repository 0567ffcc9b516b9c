"""The four-stage iterative scheme: partial-label simulation, initial
training, prompt -> generalist -> refine rounds, supervision merging, and
re-training.

Scans are independent within a round and rounds are a global barrier;
specialist fits are exclusive.  A scan and its supervision are frozen
values, and a round returns the next scans, so each round is a function of
the supervision it is given.  With phantom oracles the whole pipeline is a
pure function of (dataset, config, seed): per-scan randomness is keyed on
the scan id, all reports use fixed number formatting, and no timestamps are
written, so repeated runs produce byte-identical CSV and NIfTI outputs.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import numbers
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from . import nifti_io
from .errors import (ConfigError, NoPredictionError, PromptsegError,
                     RejectedInputError)
# dice is unused here: the traced benchmark probes wrap promptseg.pipeline.dice
from .metrics import HD95_MISSING_POLICIES, ScanEvaluation, dice, evaluate_scan, summarize
from .oracles import FileOracle, GeneralistOracle, SpecialistOracle, TrainingExample
from .phantom import (PhantomGeneralist, PhantomRegistry, PhantomSpecialist,
                      check_phantom_dims, make_phantom_suite)
from .prompting import DEFAULT_PADDING, make_box_prompts
from .refinement import (DEFAULT_DELTA_ROI, DEFAULT_TAU_CLS, OrganRefinementState,
                         RefinementConfig, RefinementResult, refine_pseudo_label,
                         refine_stored, roi_box)
from .vls_loss import SupervisionTarget, vls_mask
# unused here: the traced benchmark probes wrap promptseg.pipeline.argmax_labelmap
from .volgrid import (EMPTY_BOX, MAX_CLASSES, LabelMap, Volume, argmax_labelmap,
                      classes_mask, label_boxes, union_box, valid_spacing)

log = logging.getLogger("promptseg.pipeline")

SUPERVISION_MODES = ("full", "partial")
ORACLE_KINDS = ("phantom", "file")


@dataclass(frozen=True)
class ScanSupervision:
    """A scan's supervision, a frozen value: the ``labeled`` ground-truth
    classes, their labels as ``partial``, and ``states``, a read-only map of
    one organ state per unlabeled class, each pseudo-label on its own box.
    ``from_target`` builds it; a round returns the next one, and ``target``
    merges ``partial`` with what is accepted now."""

    labeled: frozenset[int]
    partial: LabelMap
    states: Mapping[int, OrganRefinementState]

    def __post_init__(self):
        object.__setattr__(self, "states", MappingProxyType(dict(self.states)))

    @classmethod
    def from_target(cls, labeled: frozenset[int], given: SupervisionTarget) -> ScanSupervision:
        """The supervision of labels as given: ground truth for ``labeled``,
        each pseudo class seeding its state at conf 0, and no other class."""
        labels = given.labels
        if not labeled <= frozenset(range(1, labels.num_classes)):
            raise RejectedInputError(f"labeled classes must lie in 1..{labels.num_classes - 1}, "
                                     f"got {sorted(labeled)}")
        if given.pseudo_classes & labeled:
            raise RejectedInputError("pseudo classes must be unlabeled")
        boxes = label_boxes(labels.data, labels.num_classes - 1)
        stray = {c for c, box in enumerate(boxes, 1) if box} - labeled - given.pseudo_classes
        if stray:
            raise RejectedInputError(f"classes {sorted(stray)} have labels but are neither "
                                     "labeled nor pseudo")
        states = {c: OrganRefinementState(c) for c in range(1, labels.num_classes)
                  if c not in labeled}
        data = np.array(labels.data) if given.pseudo_classes else labels.data
        for c in sorted(given.pseudo_classes):
            box = boxes[c - 1] or EMPTY_BOX
            mask = data[box] == c
            data[box][mask] = 0
            mask.flags.writeable = False
            states[c] = OrganRefinementState(
                c, mask, box, np.zeros(np.count_nonzero(mask), np.float32))
        return cls(frozenset(labeled), LabelMap(data, labels.num_classes), states)

    @property
    def num_classes(self) -> int:
        return self.partial.num_classes

    @property
    def unlabeled(self) -> frozenset[int]:
        return frozenset(self.states)

    def accepted(self) -> dict[int, OrganRefinementState]:
        """{class: state} of every organ state holding a pseudo-label."""
        return {c: s for c, s in self.states.items() if s.current_pseudo is not None}

    @property
    def pseudo(self) -> frozenset[int]:
        return frozenset(self.accepted())

    @property
    def target(self) -> SupervisionTarget:
        return merged_target(self.partial, self.accepted())


@dataclass(frozen=True)
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_field_type(f.name, value):
                hint = _FIELD_TYPES[f.name]
                what = hint.__name__ if type(hint) is type else hint  # int, not <class 'int'>
                raise ConfigError(f"{f.name}: expected {what}, got {value!r}")
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
            (not valid_spacing(self.spacing),
             f"spacing must be 3 positive finite float32 values, got {self.spacing}"),
            (not 0.0 <= self.specialist_contradiction_weight < np.inf,  # also rejects nan
             "specialist_contradiction_weight must be finite and >= 0, "
             f"got {self.specialist_contradiction_weight}"),
            (self.hd95_missing_policy not in HD95_MISSING_POLICIES,
             f"hd95_missing_policy must be one of {HD95_MISSING_POLICIES}"),
        ]
        for bad, message in problems:
            if bad:
                raise ConfigError(message)
        if self.oracle == "phantom":
            check_phantom_dims(self.dims)

    def refinement_config(self, round_t: int) -> RefinementConfig:
        return RefinementConfig(
            tau_cls=self.tau_cls,
            delta_roi=self.delta_roi,
            entropy_gate_active=round_t >= self.entropy_gate_from_round,
        )


_FIELD_TYPES = get_type_hints(PipelineConfig)
_BOOL_VALUES = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def _field_kind(name: str) -> tuple[type, bool, bool]:
    """(scalar type, is a tuple, may be None) of config field ``name``."""
    hint = _FIELD_TYPES.get(name)
    if hint is None:
        raise ConfigError(f"unknown key {name!r}")
    args = get_args(hint)
    kind = next(a for a in args or (hint,) if a is not type(None))
    return kind, get_origin(hint) is tuple, type(None) in args


def _is_kind(kind: type, value) -> bool:
    """Whether ``value`` passes as ``kind``: a bool is no number, an int
    field takes no float, and a float field takes an int."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, kind)


def _has_field_type(name: str, value) -> bool:
    kind, is_tuple, optional = _field_kind(name)
    if value is None:
        return optional
    if is_tuple:
        return isinstance(value, (tuple, list)) and all(_is_kind(kind, v) for v in value)
    return _is_kind(kind, value)


def _parse_scalar(kind: type, text: str):
    return _BOOL_VALUES[text.lower()] if kind is bool else kind(text)


def parse_value(name: str, raw: str):
    """Parse the text form of config field ``name``, as written in a config
    file or on the ``run`` command line, into the field's type.  Tuples are
    comma-separated; booleans are true/false, yes/no or 1/0."""
    kind, is_tuple, _ = _field_kind(name)
    parts = raw.split(",") if is_tuple else [raw]
    try:
        values = [_parse_scalar(kind, part.strip()) for part in parts]
    except (KeyError, ValueError):
        what = f"comma-separated {kind.__name__}s" if is_tuple else kind.__name__
        raise ConfigError(f"{name}: expected {what}, got {raw!r}") from None
    return tuple(values) if is_tuple else values[0]


def load_config(path) -> PipelineConfig:
    """Parse a key=value config file (``#`` starts a comment line); setting
    a key twice is a ``ConfigError``."""
    values, set_on = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
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
    data = np.where(classes_mask(gt, labeled), gt.data, 0)
    return ScanSupervision.from_target(labeled, SupervisionTarget(LabelMap(data, num_classes)))


# --- stage 2: initial training ------------------------------------------------

def _training_examples(scans: list[Scan],
                       predictions: dict[str, LabelMap] | None) -> Iterator[TrainingExample]:
    """Each scan's example, its merged target and VLS mask built only as it
    is taken, so a fit holds one scan's at a time, not the set's."""
    for scan in scans:
        target = scan.supervision.target
        yield TrainingExample(
            volume=scan.volume,
            target=target,
            labeled_classes=scan.supervision.labeled,
            weight_mask=(None if predictions is None
                         else vls_mask(predictions[scan.scan_id], target) if target.pseudo_classes
                         else np.ones(target.labels.dims, dtype=bool)),  # no pseudo voxel to drop
        )


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
    regated: int = 0  # prompted organs re-gated on a stored answer (refine_stored)

    def accepted(self) -> list[RoundEntry]:
        return [e for e in self.entries if e.decision == "accept"]

    def requests(self) -> int:
        """Generalist requests sent: every prompted organ not re-gated."""
        return sum(e.reason != "no-prediction" for e in self.entries) - self.regated


def merged_target(partial_gt: LabelMap,
                  accepted: dict[int, OrganRefinementState]) -> SupervisionTarget:
    """Merge ground truth and the accepted pseudo-labels ``{class: state}``,
    each state's mask on its box with its probabilities in C order.  Ground
    truth always wins; a voxel several pseudo-labels claim goes to the
    higher probability, ties to the lower class.  Only the union of the
    boxes is read."""
    labels = np.array(partial_gt.data)
    held = {c: s for c, s in accepted.items() if s.current_pseudo.size}
    if held:
        outer = union_box(s.box for s in held.values())
        claimed = labels[outer].copy()
        flat = claimed.reshape(-1)
        best = np.where(flat == 0, np.float32(-np.inf), np.float32(np.inf))
        for c in sorted(held):  # ascending, strict >: ties stay with the lower class
            state = held[c]
            at = np.ravel_multi_index(  # C order, as the probabilities
                [i + b.start - o.start
                 for i, b, o in zip(np.nonzero(state.current_pseudo), state.box, outer)],
                claimed.shape)
            win = state.current_conf > best[at]
            flat[at[win]] = c
            best[at[win]] = state.current_conf[win]
        labels[outer] = claimed
    return SupervisionTarget(LabelMap(labels, partial_gt.num_classes), frozenset(accepted))


def predict_labels(scans: list[Scan], specialist: SpecialistOracle) -> dict[str, LabelMap]:
    """The specialist's predicted labels for every scan with an unlabeled
    organ, from one ``predict_all``: one predict per scan per round, read by
    the round's prompts and by the VLS masks of the refit that follows it.
    A label >= the scan's class count (say, from an external model) is a
    ``RejectedInputError`` naming the scan."""
    todo = [scan for scan in scans if scan.supervision.unlabeled]
    predictions = {}
    for scan, pred in zip(todo, specialist.predict_all([scan.volume for scan in todo])):
        try:
            predictions[scan.scan_id] = LabelMap(pred.data, scan.supervision.num_classes)
        except RejectedInputError as exc:
            raise RejectedInputError(f"{scan.scan_id}: predicted {exc}") from None
    return predictions


def pseudo_label_round(scans: list[Scan], predictions: dict[str, LabelMap],
                       generalist: GeneralistOracle, config: PipelineConfig,
                       round_t: int) -> tuple[RoundReport, list[Scan]]:
    """One prompt -> segment -> refine pass over every unlabeled organ, the
    prompts drawn from ``predictions`` (see ``predict_labels``).  The
    generalist answers on the ROI box, the only part refinement reads.
    Returns the round's report and the next scans, each organ holding the
    state refinement returned; nothing given is modified.

    The generalist is frozen, so it is asked only for an organ whose prompts
    differ from those behind its stored pseudo-label and from those of its
    last rejected answer; an organ whose prompts repeat either is re-gated on
    what its state holds (``refine_stored``).  The entropy gate (active from
    ``entropy_gate_from_round``) decides whether the stored pseudo-label is
    replaced, which is all a scan's target derives from.  Per-organ oracle
    failures skip that organ and never abort the round.

    A first pass plans every organ (no prediction, re-gate, or ask on its
    ROI box) and sends every request through one ``segment_all``; a second
    pass refines the answers as they are taken, in plan order.  Each organ is
    planned once, so both passes read the state it was given.
    """
    report = RoundReport(round_index=round_t)
    refine_config = config.refinement_config(round_t)
    plan = []      # (next states, scan, class_id, prompts or None, stored result or region)
    asks = []
    next_states = [dict(scan.supervision.states) for scan in scans]
    for scan, states in zip(scans, next_states):
        for class_id in sorted(states):
            try:
                prompts = make_box_prompts(predictions[scan.scan_id], class_id,
                                           config.box_padding)
            except NoPredictionError:
                plan.append((states, scan, class_id, None, None))
                continue
            known = refine_stored(states[class_id], prompts, refine_config)
            if known is None:
                known = roi_box(prompts, config.delta_roi, scan.volume.dims)
                asks.append((scan.volume, prompts, known))
            plan.append((states, scan, class_id, prompts, known))
    answers = generalist.segment_all(asks)
    for states, scan, class_id, prompts, known in plan:
        if prompts is None:
            report.entries.append(RoundEntry(scan.scan_id, class_id,
                                             "skip", "no-prediction", None, None))
            continue
        if isinstance(known, RefinementResult):
            result = known
            report.regated += 1
        else:
            answer = next(answers)
            if isinstance(answer, PromptsegError):
                log.warning("%s organ %d: generalist failed: %s", scan.scan_id, class_id, answer)
                report.entries.append(RoundEntry(scan.scan_id, class_id,
                                                 "skip", "oracle-error", None, None))
                continue
            mask, gprobs = answer
            candidate = np.zeros(scan.volume.dims, dtype=bool)
            if np.shape(mask) != candidate[known].shape:
                raise RejectedInputError(f"generalist mask dims {np.shape(mask)} off {known}")
            candidate[known] = mask
            result = refine_pseudo_label(candidate, gprobs, prompts, refine_config,
                                         states[class_id])
        states[class_id] = result.state
        report.entries.append(RoundEntry(
            scan.scan_id, class_id, "accept" if result.accepted else "reject", result.reason,
            result.mean_entropy, _pseudo_dice(scan, class_id, result) if result.accepted else None))
    return report, [replace(scan, supervision=replace(scan.supervision, states=states))
                    for scan, states in zip(scans, next_states)]


def _pseudo_dice(scan: Scan, class_id: int, result: RefinementResult) -> float | None:
    """``dice`` of an accepted mask, never empty, with the ground truth if
    the scan has it.  The overlap is counted on the mask's box and the
    class's voxels on the grid: the integer counts, and so the value, are
    the whole-grid ones."""
    if scan.gt is None:
        return None
    overlap = np.count_nonzero(result.mask & (scan.gt.data[result.box] == class_id))
    return 2.0 * overlap / (np.count_nonzero(result.mask)
                            + np.count_nonzero(scan.gt.data == class_id))


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
    for key in ("data_dir", "specialist_exchange", "generalist_exchange"):
        if not getattr(config, key):
            raise ConfigError(f"file oracle mode requires {key}")
    spec_root, gen_root = Path(config.specialist_exchange), Path(config.generalist_exchange)
    if spec_root.resolve() == gen_root.resolve():
        # predict and segment requests share one file name (see exchange)
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
        gt_path = root / f"{scan_id}.gt.nii"
        try:
            vol = nifti_io.read_as(root / f"{scan_id}.nii", Volume)
            labels = nifti_io.read_as(root / f"{scan_id}.labels.nii", LabelMap, vol.dims)
            gt = nifti_io.read_as(gt_path, LabelMap, vol.dims) if gt_path.exists() else None
            num_classes = max(man.num_classes, labels.num_classes)
            labels = LabelMap(labels.data, num_classes)  # frozen arrays: shared, not copied
            sup = ScanSupervision.from_target(man.classes_with_status("labeled"), SupervisionTarget(
                labels, man.classes_with_status("pseudo")))
        except RejectedInputError as exc:
            raise ConfigError(f"{scan_id}: {exc}") from None
        try:
            gt = None if gt is None else LabelMap(gt.data, num_classes)
        except RejectedInputError as exc:
            raise ConfigError(f"{scan_id}: {gt_path.name}: {exc}") from None
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
        h.update(scan.volume.data)
        h.update(scan.supervision.target.labels.data)
    for scan_id, vol, gt in test:
        h.update(scan_id.encode())
        h.update(vol.data)
        h.update(gt.data)
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
        report, train = pseudo_label_round(train, predictions, generalist, config, round_t)
        reports.append(report)
        _write_csv(out / f"round_{round_t}.csv", ["round", "scan_id", "class_id", "decision",
                                                  "reason", "mean_entropy", "pseudo_dice"],
                   ([round_t, e.scan_id, e.class_id, e.decision, e.reason,
                     _fmt(e.mean_entropy), _fmt(e.pseudo_dice)] for e in report.entries))
        n_accept = len(report.accepted())
        log.info("round %d: %d/%d organ updates accepted, %d generalist requests, "
                 "%d re-gated on a stored answer", round_t, n_accept,
                 len(report.entries), report.requests(), report.regated)
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
    preds = specialist.predict_all([vol for _, vol, _ in test])
    for (scan_id, vol, gt), pred in zip(test, preds):
        evaluations[scan_id] = evaluate_scan(LabelMap(pred.data, gt.num_classes), gt,
                                             vol.spacing, hd95_missing=config.hd95_missing_policy)
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
