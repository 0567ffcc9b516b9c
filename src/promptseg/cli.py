"""Command-line interface.

Subcommands: phantom-gen, simulate-partial, prompt, refine, vls-mask,
metrics, run.  Every ``PipelineConfig`` field is exactly one ``run`` flag,
its ``--key-name``, and flags override config-file values.  No parser
accepts a prefix of a flag.  The label image that simulate-partial, refine
or vls-mask writes takes the spacing and qform/sform of the label image it
is made from: ``--gt``, ``--candidate`` or ``--target``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import nifti_io, pipeline
from .errors import PromptsegError
from .metrics import HD95_MISSING_POLICIES, evaluate_scan, summarize
from .phantom import make_phantom_suite
from .prompting import (DEFAULT_PADDING, format_prompts, make_box_prompts,
                        parse_prompts)
from .refinement import (DEFAULT_DELTA_ROI, DEFAULT_TAU_CLS, OrganRefinementState,
                         RefinementConfig, refine_pseudo_label)
from .vls_loss import SupervisionTarget, vls_mask
from .volgrid import LabelMap, ProbVolume, argmax_labelmap, mask_to_labels, paste_mask

log = logging.getLogger("promptseg.cli")


def _config_value(name: str, text: str):
    """``text`` parsed and checked as the value of config field ``name``."""
    return getattr(pipeline.PipelineConfig(**{name: pipeline.parse_value(name, text)}), name)


def cmd_phantom_gen(args) -> int:
    scans, organs, dims, seed = (_config_value(name, getattr(args, name))
                                 for name in ("scans", "organs", "dims", "seed"))
    suite = make_phantom_suite(scans, organs, dims, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scan_id, vol, gt in suite:
        nifti_io.write_volume(out / f"{scan_id}.nii", vol)
        nifti_io.write_volume(out / f"{scan_id}.gt.nii", gt)
        man = nifti_io.status_manifest(gt.num_classes, labeled=range(1, gt.num_classes))
        man.names.update((c, f"organ{c}") for c in man.statuses)
        nifti_io.write_manifest(out / f"{scan_id}.manifest", man)
    print(f"wrote {len(suite)} phantom scans ({organs} organs, dims {dims}) to {out}")
    return 0


def cmd_simulate_partial(args) -> int:
    seed = _config_value("seed", args.seed)
    gt = nifti_io.read_as(args.gt, LabelMap)
    num_classes = args.classes or gt.num_classes
    if num_classes != gt.num_classes:
        gt = LabelMap(gt.data, num_classes)
    sup = pipeline.simulate_partial_labels(gt, num_classes, args.keep_fraction,
                                           seed, args.scan_id)
    nifti_io.write_volume(args.out_labels, sup.target.labels,
                          template=nifti_io.read_header(args.gt))
    nifti_io.write_manifest(args.out_manifest,
                            nifti_io.status_manifest(num_classes, sup.labeled))
    print(f"kept {len(sup.labeled)}/{num_classes - 1} organs: {sorted(sup.labeled)}")
    return 0


def cmd_prompt(args) -> int:
    pred = nifti_io.read_as(args.pred, LabelMap)
    prompts = make_box_prompts(pred, args.class_id, args.padding)
    text = format_prompts(prompts)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_refine(args) -> int:
    candidate = nifti_io.read_as(args.candidate, LabelMap).data > 0
    probs = nifti_io.read_as(args.probs, ProbVolume, candidate.shape)
    prompts = parse_prompts(Path(args.prompts).read_text(), class_id=args.class_id)
    config = RefinementConfig(tau_cls=args.tau_cls, delta_roi=args.delta_roi,
                              entropy_gate_active=args.gate_active)
    state = OrganRefinementState(args.class_id, mean_entropy=args.prev_entropy)
    result = refine_pseudo_label(candidate, probs, prompts, config, state)
    kept = paste_mask(result.mask, result.box, candidate.shape)
    nifti_io.write_volume(args.out, mask_to_labels(kept),
                          template=nifti_io.read_header(args.candidate))
    entropy = "" if result.mean_entropy is None else f" mean_entropy={result.mean_entropy:.6f}"
    print(f"{'accept' if result.accepted else 'reject'} reason={result.reason}"
          f" voxels={np.count_nonzero(kept)}{entropy}")
    return 0


def cmd_vls_mask(args) -> int:
    probs = nifti_io.read_as(args.probs, ProbVolume)
    labels = nifti_io.read_as(args.target, LabelMap, probs.dims)
    man = nifti_io.read_manifest(args.manifest)
    num_classes = max(labels.num_classes, man.num_classes, probs.num_classes)
    target = SupervisionTarget(LabelMap(labels.data, num_classes),
                               man.classes_with_status("pseudo"))
    mask = vls_mask(LabelMap(argmax_labelmap(probs).data, num_classes), target)
    nifti_io.write_volume(args.out, mask_to_labels(mask),
                          template=nifti_io.read_header(args.target))
    print(f"selected {int(mask.sum())}/{mask.size} voxels")
    return 0


def cmd_metrics(args) -> int:
    pred = nifti_io.read_as(args.pred, LabelMap)
    gt = nifti_io.read_as(args.gt, LabelMap, pred.dims)
    num_classes = max(pred.num_classes, gt.num_classes)
    pred = LabelMap(pred.data, num_classes)
    gt = LabelMap(gt.data, num_classes)
    spacing = (_config_value("spacing", args.spacing) if args.spacing
               else nifti_io.read_header(args.pred).spacing)
    names = {}
    if args.manifest:
        names = nifti_io.read_manifest(args.manifest).names
    ev = evaluate_scan(pred, gt, spacing, hd95_missing=args.hd95_missing)
    rows = [("class", "name", "dsc", "hd95")]
    for r in summarize({args.pred: ev}):  # one scan: each class's own values, then the mean
        label = "mean" if r.class_id == "overall" else str(r.class_id)
        rows.append((label, names.get(r.class_id, ""), f"{r.mean_dsc:.4f}",
                     "" if r.mean_hd95 is None else f"{r.mean_hd95:.4f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("class,dsc,hd95\n")
            for cm in ev.per_class:
                hd = "" if cm.hd95 is None else f"{cm.hd95:.6f}"
                fh.write(f"{cm.class_id},{cm.dsc:.6f},{hd}\n")
    return 0


def cmd_run(args) -> int:
    config = pipeline.load_config(args.config) if args.config else pipeline.PipelineConfig()
    overrides = {}
    for f in fields(config):
        value = getattr(args, f.name)
        if isinstance(value, str):
            overrides[f.name] = pipeline.parse_value(f.name, value)
        elif value is not None:
            overrides[f.name] = value
    result = pipeline.run_pipeline(replace(config, **overrides))
    if result.mean_dsc is not None:
        hd = "n/a" if result.mean_hd95 is None else f"{result.mean_hd95:.3f} mm"
        print(f"mean DSC {result.mean_dsc:.4f}, mean HD95 {hd}  ->  {result.out_dir}")
    else:
        print(f"run complete (no evaluation scans)  ->  {result.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptseg", allow_abbrev=False,
        description="Box-prompted pseudo-label refinement for partially labeled 3D segmentation")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)  # not inherited by sub-parsers
        p.set_defaults(parser=p)
        return p

    p = add_parser("phantom-gen", help="generate a synthetic phantom suite")
    p.add_argument("--out", required=True)
    p.add_argument("--scans", default="1")
    p.add_argument("--organs", default="3")
    p.add_argument("--dims", default="32,32,32")
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_phantom_gen)

    p = add_parser("simulate-partial", help="randomly drop organ annotations")
    p.add_argument("--gt", required=True)
    p.add_argument("--keep-fraction", type=float, required=True, dest="keep_fraction")
    p.add_argument("--seed", default="0")
    p.add_argument("--scan-id", default="scan", dest="scan_id")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--out-labels", required=True, dest="out_labels")
    p.add_argument("--out-manifest", required=True, dest="out_manifest")
    p.set_defaults(func=cmd_simulate_partial)

    p = add_parser("prompt", help="box prompts for one predicted class")
    p.add_argument("--pred", required=True)
    p.add_argument("--class-id", type=int, required=True, dest="class_id")
    p.add_argument("--padding", type=int, default=DEFAULT_PADDING)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prompt)

    p = add_parser("refine", help="filter a candidate pseudo-label")
    p.add_argument("--candidate", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--class-id", type=int, default=1, dest="class_id")
    p.add_argument("--tau-cls", type=float, default=DEFAULT_TAU_CLS, dest="tau_cls")
    p.add_argument("--delta-roi", type=int, default=DEFAULT_DELTA_ROI, dest="delta_roi")
    p.add_argument("--gate-active", action="store_true", dest="gate_active")
    p.add_argument("--prev-entropy", type=float, default=None, dest="prev_entropy")
    p.set_defaults(func=cmd_refine)

    p = add_parser("vls-mask", help="voxel selection mask from predictions")
    p.add_argument("--probs", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vls_mask)

    p = add_parser("metrics", help="Dice/HD95 between two label maps")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--spacing", default=None)
    p.add_argument("--hd95-missing", default="exclude", choices=HD95_MISSING_POLICIES,
                   dest="hd95_missing")
    p.set_defaults(func=cmd_metrics)

    p = add_parser("run", help="run the full pipeline",
                   description="Each config key is exactly one flag: the key with dashes "
                               "for underscores.  Flags override the config file.")
    p.add_argument("--config", default=None)
    for f in fields(pipeline.PipelineConfig):
        action = argparse.BooleanOptionalAction if isinstance(f.default, bool) else "store"
        help_text = None if f.default is None else f"default: {pipeline.format_value(f.default)}"
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, action=action,
                       default=None, help=help_text)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported with the sub-command's usage, not the top-level list
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except PromptsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
