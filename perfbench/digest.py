"""Output digest of one pipeline run and the structural checks on its files.

The digest covers the round reports, the final evaluation, the written
targets and the run manifest.  The manifest echoes ``out_dir`` and the
file-mode paths, which differ between runs by design, so those lines are
dropped before hashing; the config, the input hash and every other byte
stay in.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

ECHOED_PATH_KEYS = ("out_dir", "data_dir", "specialist_exchange", "generalist_exchange")
MANIFEST = "run_manifest.txt"


def artifacts(out_dir) -> list[str]:
    """Relative paths of the files the digest covers, in a fixed order."""
    out = Path(out_dir)
    names = [p for pattern in ("round_*.csv", "final_*.csv", MANIFEST)
             for p in out.glob(pattern)]
    names += [p for p in (out / "targets").rglob("*") if p.is_file()]
    return sorted(p.relative_to(out).as_posix() for p in names)


def normalised_manifest(text: str) -> str:
    keep = [line for line in text.splitlines()
            if line.split("=", 1)[0] not in ECHOED_PATH_KEYS]
    return "\n".join(keep) + "\n"


def output_digest(out_dir) -> str:
    out = Path(out_dir)
    h = hashlib.sha256()
    for rel in artifacts(out):
        data = (out / rel).read_bytes()
        if rel == MANIFEST:
            data = normalised_manifest(data.decode()).encode()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_outputs(out_dir, result, train_ids, n_unlabeled: int, n_test: int,
                  organs: int, rounds: int) -> list[str]:
    """Problems with one run's files, judged against the run's own result
    and the shape of its inputs; empty when every check passes."""
    out = Path(out_dir)
    problems = []
    if len(result.round_reports) != rounds:
        problems.append(f"{len(result.round_reports)} round reports, expected {rounds}")
    for report in result.round_reports:
        path = out / f"round_{report.round_index}.csv"
        expected = len(train_ids) * n_unlabeled
        rows = _csv_rows(path) if path.exists() else None
        if rows is None or len(rows) != len(report.entries) or len(rows) != expected:
            problems.append(f"{path.name}: expected {expected} decisions")
        elif {r[3] for r in rows} - {"accept", "reject", "skip"}:
            problems.append(f"{path.name}: unknown decision")
    for scan_id in train_ids:
        for suffix in (".labels.nii", ".manifest"):
            if not (out / "targets" / f"{scan_id}{suffix}").is_file():
                problems.append(f"targets/{scan_id}{suffix} missing")
    if n_test:
        rows = (_csv_rows(out / "final_eval.csv")
                if (out / "final_eval.csv").exists() else [])
        if len(rows) != n_test * organs:
            problems.append(f"final_eval.csv: expected {n_test * organs} rows")
        if result.mean_dsc is None or not 0.0 <= result.mean_dsc <= 1.0:
            problems.append(f"mean DSC {result.mean_dsc} outside [0, 1]")
    return problems
