"""The benchmark's workloads and the set-up that makes their inputs.

Every workload is one closed-loop client: a single ``run_pipeline`` call
that waits for each oracle reply before it goes on.  Inputs come from the
benchmark seed through the package's own phantom suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from promptseg import nifti_io
from promptseg.oracles import make_phantom_suite
from promptseg.pipeline import PipelineConfig, simulate_partial_labels

from responder import ResponderProcess

COMMON = {"entropy_gate_from_round": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict

    @property
    def file_exchange(self) -> bool:
        return self.config.get("oracle") == "file"

    def largest_array_mb(self) -> float:
        """Size of the C-class ProbVolume, the largest array a run holds."""
        return (self.config["organs"] + 1) * math.prod(self.config["dims"]) * 4 / 1e6


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk",
        "many small calls at 32^3: per-call overhead, orchestration, repeated "
        "predicts; rounds 1-2 mostly accept and rounds 3-4 mostly reject at the gate",
        {"dims": (32, 32, 32), "organs": 6, "scans": 20, "test_scans": 5, "rounds": 4,
         "keep_fraction": 0.33}),
    Workload(
        "ct",
        "few large arrays: 16-class ProbVolumes at 80x80x56, full-volume passes "
        "for one small organ per scan, ProbVolume validation, memory and peak RSS",
        # keep_fraction 0.93 leaves one organ unlabeled per scan.  With four
        # training scans every organ is then supervised somewhere for all but
        # 1 in 3000 seeds, so the work does not swing with the seed as it does
        # at 0.33 with two (or at 0.93 with three, 1 seed in 200 of which
        # accepts no pseudo-label at all).
        {"dims": (80, 80, 56), "organs": 15, "scans": 4, "test_scans": 1, "rounds": 2,
         "keep_fraction": 0.93}),
    Workload(
        "file-exchange",
        "FileOracle and NIfTI I/O against a phantom responder in a second "
        "process: request writes, fit-set writes, response reads, poll latency",
        # In file mode the pipeline trains on all scans+test_scans files and
        # evaluates the test_scans of them that carry a .gt.nii.  At 48^3 the
        # responder answers well inside one 50 ms client poll.  At keep 0.67
        # every organ is labelled in some scan; at 0.33 a fifth of the seeds
        # leave one organ unseen, which moves run_s and mean_dsc.
        {"oracle": "file", "dims": (48, 48, 48), "organs": 6, "scans": 6,
         "test_scans": 2, "rounds": 2, "keep_fraction": 0.67, "oracle_timeout": 30.0}),
)}


def write_file_inputs(config: PipelineConfig, data_dir: Path, oracle_dir: Path) -> None:
    """Write the file-mode ``data_dir`` (image, partial labels, manifest, and
    ground truth for the last ``test_scans`` scans) and, for the responder,
    every scan's ground truth."""
    data_dir.mkdir(parents=True)
    oracle_dir.mkdir(parents=True)
    num_classes = config.organs + 1
    n_scans = config.scans + config.test_scans
    suite = make_phantom_suite(n_scans, config.organs, config.dims, seed=config.seed)
    for idx, (scan_id, volume, gt) in enumerate(suite):
        sup = simulate_partial_labels(gt, num_classes, config.keep_fraction,
                                      config.seed, scan_id)
        nifti_io.write_volume(data_dir / f"{scan_id}.nii", volume)
        nifti_io.write_volume(data_dir / f"{scan_id}.labels.nii", sup.target.labels)
        man = nifti_io.ScanManifest()
        for c in range(1, num_classes):
            man.names[c] = f"organ{c}"
            man.statuses[c] = "labeled" if c in sup.labeled else "unlabeled"
        nifti_io.write_manifest(data_dir / f"{scan_id}.manifest", man)
        if idx >= config.scans:
            nifti_io.write_volume(data_dir / f"{scan_id}.gt.nii", gt)
        nifti_io.write_volume(oracle_dir / f"{scan_id}.gt.nii", gt)


class Session:
    """One workload's inputs, ready to run: the pipeline config and, for
    file-exchange, the data directory and a warm responder process."""

    def __init__(self, workload: Workload, seed: int, work: Path, src: Path):
        self.workload = workload
        self.work = work
        self.config = PipelineConfig(**COMMON, **workload.config, seed=seed,
                                     out_dir=str(work / "out"))
        self.responder = None
        work.mkdir(parents=True)
        if workload.file_exchange:
            data_dir, oracle_dir = work / "data", work / "oracle"
            write_file_inputs(self.config, data_dir, oracle_dir)
            self.config = replace(self.config, data_dir=str(data_dir))
            self.responder = ResponderProcess(
                src, data_dir, oracle_dir, seed,
                contradiction_weight=self.config.specialist_contradiction_weight,
                cooperativeness=self.config.generalist_cooperativeness,
                padding=self.config.box_padding)

    @property
    def train_ids(self) -> list[str]:
        n = self.config.scans + (self.config.test_scans if self.workload.file_exchange else 0)
        return [f"scan{i:03d}" for i in range(n)]

    @property
    def test_count(self) -> int:
        return self.config.test_scans

    def start_run(self, run_dir: Path) -> PipelineConfig:
        """Config for one run writing under ``run_dir``; file-exchange runs
        get fresh exchange directories that the responder starts serving."""
        run_dir.mkdir(parents=True)
        config = replace(self.config, out_dir=str(run_dir / "out"))
        if self.responder is not None:
            spec_dir, gen_dir = run_dir / "specialist", run_dir / "generalist"
            spec_dir.mkdir()
            gen_dir.mkdir()
            self.responder.serve(spec_dir, gen_dir)
            config = replace(config, specialist_exchange=str(spec_dir),
                             generalist_exchange=str(gen_dir))
        return config

    def finish_run(self) -> dict:
        """The responder's report on the run just ended ({} without one)."""
        return self.responder.end() if self.responder is not None else {}

    def close(self) -> None:
        if self.responder is not None:
            self.responder.close()
