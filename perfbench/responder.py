"""Phantom-backed responder for promptseg's file-exchange oracle.

Plays both external models of a file-mode pipeline run, in a process of its
own: the specialist (predict + fit) on one exchange directory and the
generalist (segment) on the other, both answered by the package's phantom
oracles over the ground truth the benchmark set-up wrote.

Protocol rules it keeps:

- a segment request is answered only once ``req_<uid>.prompts`` exists,
  because the client writes ``req_<uid>.nii`` first;
- every response is written to a temporary name and renamed, and a segment's
  probabilities are committed before its mask, which the client waits on
  first;
- each run gets a fresh ``PhantomSpecialist`` and fresh exchange
  directories, while the ``PhantomRegistry`` and its signed-distance caches
  live for the whole process (``warm()`` fills them before the first run).

The parent drives it with JSON lines on stdin and gets JSON lines back:
``{"serve": [spec_dir, gen_dir]}`` starts a run, ``{"end": true}`` ends it
and returns the run's busy time and request counts; closing stdin stops the
process.  ``ResponderProcess`` is that parent side.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from promptseg import nifti_io
from promptseg.oracles import (PhantomGeneralist, PhantomRegistry,
                               PhantomSpecialist, TrainingExample)
from promptseg.prompting import parse_prompts
from promptseg.vls_loss import SupervisionTarget
from promptseg.volgrid import LabelMap, mask_to_labels

POLL_S = 0.002
REPLY_TIMEOUT_S = 120.0


class Responder:
    """Answers the requests found in one pair of exchange directories."""

    def __init__(self, registry, scans, seed: int, contradiction_weight: float,
                 cooperativeness: float, padding: int):
        self.registry = registry
        self.scans = scans
        self.seed = seed
        self.contradiction_weight = contradiction_weight
        self.generalist = PhantomGeneralist(registry, cooperativeness=cooperativeness,
                                            assumed_padding=padding, seed=seed)
        self.specialist = None
        self.spec_dir = self.gen_dir = None

    def warm(self) -> None:
        """Fill the registry's signed-distance and bounding-box caches."""
        for fp, num_classes in self.scans:
            for c in range(1, num_classes):
                self.registry.signed_distance(fp, c)
                self.registry.organ_bbox(fp, c)

    def begin_run(self, spec_dir, gen_dir) -> None:
        self.specialist = PhantomSpecialist(self.registry,
                                            contradiction_weight=self.contradiction_weight,
                                            seed=self.seed)
        self.spec_dir, self.gen_dir = Path(spec_dir), Path(gen_dir)
        self.seen: set[str] = set()
        self.busy_ns = 0
        self.counts: Counter = Counter()

    def end_run(self) -> dict:
        stats = {"busy_ms": self.busy_ns / 1e6, **self.counts}
        self.spec_dir = self.gen_dir = None
        return stats

    @property
    def serving(self) -> bool:
        return self.spec_dir is not None

    def serve_once(self) -> int:
        """Answer every complete request not yet answered; returns how many."""
        todo = []
        for name in os.listdir(self.spec_dir):
            if name.startswith("req_") and name.endswith(".nii"):
                todo.append(("predict", name[4:-4]))
            elif name.startswith("fit_") and name.endswith(".req"):
                todo.append(("fit", name[4:-4]))
        for name in os.listdir(self.gen_dir):
            if name.startswith("req_") and name.endswith(".prompts"):
                todo.append(("segment", name[4:-8]))
        handled = 0
        for kind, uid in todo:
            if uid in self.seen:
                continue
            self.seen.add(uid)
            start = time.perf_counter_ns()
            try:
                getattr(self, "_" + kind)(uid)
                self.counts[kind] += 1
            except Exception:  # keep serving; the parent checks the count
                traceback.print_exc()
                self.counts["errors"] += 1
            self.busy_ns += time.perf_counter_ns() - start
            handled += 1
        return handled

    def _predict(self, uid: str) -> None:
        volume = nifti_io.read_volume(self.spec_dir / f"req_{uid}.nii")
        _commit(self.spec_dir / f"resp_{uid}.prob.nii", self.specialist.predict(volume))

    def _segment(self, uid: str) -> None:
        volume = nifti_io.read_volume(self.gen_dir / f"req_{uid}.nii")
        prompts = parse_prompts((self.gen_dir / f"req_{uid}.prompts").read_text())
        mask, probs = self.generalist.segment(volume, prompts)
        _commit(self.gen_dir / f"resp_{uid}.prob.nii", probs)
        _commit(self.gen_dir / f"resp_{uid}.nii", mask_to_labels(mask))

    def _fit(self, uid: str) -> None:
        fit_dir = self.spec_dir / f"fit_{uid}"
        examples = []
        for man_path in sorted(fit_dir.glob("scan_*.manifest")):
            stem = fit_dir / man_path.stem
            volume = nifti_io.read_volume(stem.with_suffix(".nii"))
            _, scan = self.registry.lookup(volume)
            target = nifti_io.read_volume(Path(f"{stem}.target.nii"))
            labels = LabelMap(target.data, scan.gt.num_classes)
            man = nifti_io.read_manifest(man_path)
            mask_path = Path(f"{stem}.mask.nii")
            weight = nifti_io.read_volume(mask_path).data > 0 if mask_path.exists() else None
            examples.append(TrainingExample(
                volume=volume,
                target=SupervisionTarget(labels, man.classes_with_status("pseudo")),
                labeled_classes=man.classes_with_status("labeled"),
                weight_mask=weight))
        request = (self.spec_dir / f"fit_{uid}.req").read_text()
        supervision = dict(line.split("=", 1) for line in request.split())["supervision"]
        self.specialist.fit(examples, supervision=supervision)
        done = self.spec_dir / f"fit_{uid}.done"
        tmp = done.with_name(done.name + ".tmp")
        tmp.write_text("ok\n")
        os.replace(tmp, done)


def _commit(path: Path, grid) -> None:
    tmp = path.with_name(path.name + ".tmp")
    nifti_io.write_volume(tmp, grid)
    os.replace(tmp, path)


def load_registry(data_dir, oracle_dir):
    """Register every ``<id>.nii`` of ``data_dir`` with its ground truth
    ``<id>.gt.nii`` from ``oracle_dir``; returns the registry and the
    (fingerprint, class count) of each scan."""
    registry = PhantomRegistry()
    scans = []
    for man_path in sorted(Path(data_dir).glob("*.manifest")):
        scan_id = man_path.stem
        num_classes = nifti_io.read_manifest(man_path).num_classes
        volume = nifti_io.read_volume(Path(data_dir) / f"{scan_id}.nii")
        gt = nifti_io.read_volume(Path(oracle_dir) / f"{scan_id}.gt.nii")
        scans.append((registry.register(volume, LabelMap(gt.data, num_classes)), num_classes))
    return registry, scans


def _reply(msg: dict) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", required=True, help="file-mode data_dir of the run")
    ap.add_argument("--oracle-gt", required=True, help="ground truth of every scan")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--contradiction-weight", type=float, required=True)
    ap.add_argument("--cooperativeness", type=float, required=True)
    ap.add_argument("--padding", type=int, required=True)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    responder = Responder(*load_registry(args.data, args.oracle_gt), args.seed,
                          args.contradiction_weight, args.cooperativeness, args.padding)
    responder.warm()
    _reply({"ready": True, "warm_s": time.perf_counter() - start})
    fd = sys.stdin.fileno()
    pending = b""
    while True:
        handled = responder.serve_once() if responder.serving else 0
        readable, _, _ = select.select([fd], [], [], 0 if handled else POLL_S)
        if not readable:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            return 0
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            msg = json.loads(line)
            if "serve" in msg:
                responder.begin_run(*msg["serve"])
                _reply({"serving": True})
            elif "end" in msg:
                _reply(responder.end_run())


class ResponderProcess:
    """Parent side: starts ``responder.py``, waits for its warm-up, and
    brackets each pipeline run with serve/end."""

    def __init__(self, src, data_dir, oracle_dir, seed: int,
                 contradiction_weight: float, cooperativeness: float, padding: int):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--data", str(data_dir), "--oracle-gt", str(oracle_dir),
               "--seed", str(seed), "--contradiction-weight", str(contradiction_weight),
               "--cooperativeness", str(cooperativeness), "--padding", str(padding)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env)
        self._pending = b""
        try:
            self.ready = self._await_reply()
        except BaseException:
            self.close()
            raise

    def _await_reply(self) -> dict:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            readable, _, _ = select.select([fd], [], [], max(0.0, left))
            if not readable:
                raise TimeoutError("responder did not reply")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"responder exited with code {self.proc.wait()}")
            self._pending += chunk
        line, self._pending = self._pending.split(b"\n", 1)
        return json.loads(line)

    def _ask(self, msg: dict) -> dict:
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()
        return self._await_reply()

    def serve(self, spec_dir, gen_dir) -> None:
        self._ask({"serve": [str(spec_dir), str(gen_dir)]})

    def end(self) -> dict:
        return self._ask({"end": True})

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
