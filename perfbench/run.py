"""promptseg benchmark: end-to-end and per-layer metrics of ``run_pipeline``.

Run from the repository root:

    python3 perfbench/run.py                              # every workload
    python3 perfbench/run.py --workload desk --seed 7 --seconds 30 --trace 0

Each workload runs in its own process.  With ``--trace 0`` the process runs
the pipeline untraced, back to back, until ``--seconds`` would be exceeded
(at least once), and prints the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced runs and prints the per-layer metrics of the
traced ones.  Every run's outputs are checked and digested; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from digest import check_outputs, output_digest  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

WORKLOAD_NAMES = ("desk", "ct", "file-exchange")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import promptseg; "
                "print(time.perf_counter() - t)")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "mean_dsc": "dsc", "pseudo_dice": "dsc"}


def _child_import_s(src: Path) -> float:
    """``import promptseg`` timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Bench:
    """One workload in this process: set-up, the measured runs, the report."""

    def __init__(self, args, src: Path, import_s: float):
        # Imported here, after run_workload has timed `import promptseg`.
        import probes
        from promptseg.pipeline import run_pipeline
        from workloads import WORKLOADS, Session
        self.probes, self.run_pipeline, self.Session = probes, run_pipeline, Session
        self.args = args
        self.src = src
        self.workload = WORKLOADS[args.workload]
        self.work = HERE.parent / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.import_s = import_s
        self.runs: list[dict] = []
        self.session = None

    def set_up(self) -> list[float]:
        """Set up ``SETUP_REPEATS`` times, keep the last; the import of the
        earlier repeats is timed in a fresh interpreter."""
        times = []
        for k in range(SETUP_REPEATS):
            import_s = self.import_s if k == SETUP_REPEATS - 1 else _child_import_s(self.src)
            start = time.perf_counter()
            session = self.Session(self.workload, self.args.seed, self.work / f"setup{k}",
                                   self.src)
            times.append(import_s + time.perf_counter() - start)
            if k < SETUP_REPEATS - 1:
                session.close()
                shutil.rmtree(session.work)
        self.session = session
        return times

    def run_once(self, traced: bool) -> dict:
        s = self.session
        run_dir = self.work / "runs" / str(len(self.runs))
        config = s.start_run(run_dir)
        tracer = Tracer()
        result = error = None
        gc.collect()
        with patched(tracer, self.probes.LAYERS if traced else self.probes.BOUNDARY):
            idx = tracer.begin(self.probes.RUN)
            try:
                result = self.run_pipeline(config)
            except Exception:  # a failed run is counted, not fatal
                error = traceback.format_exc()
            finally:
                tracer.end(idx)
        stats = s.finish_run()
        rec = {"traced": traced, "error": error, "responder": stats}
        rec["run_s"], rec["host_s"] = self.probes.run_and_host_s(tracer)
        if result is not None:
            organs = s.config.organs
            n_unlabeled = organs - int(organs * s.config.keep_fraction + 0.5)
            problems = check_outputs(config.out_dir, result, s.train_ids, n_unlabeled,
                                     s.test_count, organs, s.config.rounds)
            if stats:
                problems += self._responder_problems(tracer, stats)
            pdice = [e.pseudo_dice for r in result.round_reports for e in r.accepted()
                     if e.pseudo_dice is not None]
            rec.update(
                digest=output_digest(config.out_dir), problems=problems,
                mean_dsc=result.mean_dsc, mean_hd95=result.mean_hd95,
                pseudo_dice=statistics.fmean(pdice) if pdice else 0.0,
                decisions=[_decision_counts(r) for r in result.round_reports])
            if traced:
                rec["layers"] = self.probes.layer_metrics(tracer, stats.get("busy_ms", 0.0))
        shutil.rmtree(run_dir)
        self.runs.append(rec)
        return rec

    @staticmethod
    def _responder_problems(tracer: Tracer, stats: dict) -> list[str]:
        sent = {kind: sum(1 for sp in tracer.spans if sp[0] == f"file_oracle.{kind}")
                for kind in ("predict", "segment", "fit")}
        answered = {kind: stats.get(kind, 0) for kind in sent}
        problems = []
        if sent != answered:
            problems.append(f"responder answered {answered}, pipeline sent {sent}")
        if stats.get("errors"):
            problems.append(f"responder failed {stats['errors']} requests")
        return problems

    def measure(self) -> None:
        """Run until the next run (or traced pair) would overrun ``--seconds``.

        With tracing, an untraced warm-up run comes first and stays out of
        the traced-vs-untraced comparison: a process's first run is slower.
        """
        deadline = time.perf_counter() + self.args.seconds
        try:
            if self.args.trace:
                self.run_once(traced=False)["warmup"] = True
            while True:
                self.run_once(traced=False)
                if self.args.trace:
                    self.run_once(traced=True)
                per_step = (statistics.median(r["run_s"] for r in self.runs)
                            * (1 + self.args.trace))
                if time.perf_counter() + per_step > deadline:
                    break
        except Exception:  # set-up broke mid-measurement (say, the responder died)
            self.runs.append({"traced": False, "error": traceback.format_exc(),
                              "run_s": 0.0, "host_s": 0.0})

    def failed(self) -> list[dict]:
        first = next((r["digest"] for r in self.runs if "digest" in r), None)
        return [r for r in self.runs
                if r["error"] or r.get("problems") or r.get("digest") != first]

    def report(self, setups: list[float]) -> dict:
        w, args = self.workload, self.args
        import numpy
        import scipy
        print(f"workload {w.name}: {w.why}")
        print(f"config {json.dumps({**w.config, 'seed': args.seed})}; closed loop, one client")
        print(f"env python {platform.python_version()} numpy {numpy.__version__} "
              f"scipy {scipy.__version__} nproc {os.cpu_count()}; "
              f"largest array {w.largest_array_mb():.2f} MB")
        failed = self.failed()
        for rec in failed:
            print(f"FAILED run: {rec['error'] or rec.get('problems') or 'digest differs'}",
                  file=sys.stderr)
        ok = [r for r in self.runs if r not in failed]
        digests = sorted({r["digest"] for r in self.runs if "digest" in r})
        print(f"digest {' '.join(digests) or 'none'}")
        print(f"failed_runs {len(failed)}/{len(self.runs)}")
        if ok:
            first = ok[0]
            print(f"decisions per round (accept, reject, skip) {first['decisions']}")
            print(f"mean_hd95_mm {first['mean_hd95']} (not a metric: 0 when quality saturates)")
        plain = [r for r in ok if not r["traced"] and not r.get("warmup")]
        if args.trace:
            metrics = self._layer_report(ok, plain)
        else:
            metrics = self._end_to_end_report(ok, plain, setups)
        return {"correct": not failed and bool(ok), "attempted": len(self.runs),
                "failed": len(failed), "metrics": metrics}

    def _end_to_end_report(self, ok, plain, setups) -> dict:
        values = {"run_s": [r["run_s"] for r in plain],
                  "host_s": [r["host_s"] for r in plain],
                  "setup_s": setups}
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = _quartiles(vals) if vals else (0.0, 0.0, 0.0)
            if name in END_TO_END_UNITS:
                metrics[name] = med
            print(f"{name} median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(vals)}  "
                  f"[{' '.join(f'{v:.3f}' for v in vals)}]")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["mean_dsc"] = ok[0]["mean_dsc"] if ok else 0.0
        metrics["pseudo_dice"] = ok[0]["pseudo_dice"] if ok else 0.0
        for name in ("peak_rss_mb", "mean_dsc", "pseudo_dice"):
            print(f"{name} {metrics[name]:.6f} {END_TO_END_UNITS[name]}")
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    def _layer_report(self, ok, plain) -> dict:
        traced = [r for r in ok if r["traced"]]
        metrics = {}
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
        plain_run = statistics.median(r["run_s"] for r in plain) if plain else 0.0
        traced_run = statistics.median(r["run_s"] for r in traced) if traced else 0.0
        traced_host = statistics.median(r["host_s"] for r in traced) if traced else 0.0
        plain_host = statistics.median(r["host_s"] for r in plain) if plain else 0.0
        metrics["trace.overhead_pct"] = (100.0 * (traced_run / plain_run - 1.0)
                                         if plain_run else 0.0)
        metrics["pipeline.host_s"] = plain_host
        metrics["trace.host_s"] = traced_host
        print(f"untraced run_s {plain_run:.4f} host_s {plain_host:.4f}; "
              f"traced run_s {traced_run:.4f} host_s {traced_host:.4f}")
        out = {}
        for name, value in metrics.items():
            unit = self.probes.layer_unit(name)
            print(f"{name} {value:.6g} {unit}")
            out[name] = {"value": value, "unit": unit}
        return out

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        shutil.rmtree(self.work, ignore_errors=True)


def _decision_counts(report) -> tuple[int, int, int]:
    kinds = [e.decision for e in report.entries]
    return kinds.count("accept"), kinds.count("reject"), kinds.count("skip")


def run_workload(args, src: Path) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import promptseg
    import_s = time.perf_counter() - start
    if Path(promptseg.__file__).resolve().parent != (src / "promptseg").resolve():
        print(f"perfbench: imported promptseg from {promptseg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    bench = Bench(args, src, import_s)
    try:
        setups = bench.set_up()
        bench.measure()
        result = bench.report(setups)
    finally:
        bench.close()
    _remove_if_empty(HERE.parent / ".bench_work")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {out.returncode}",
                  file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print()
    print(json.dumps(combined))
    return 0


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="promptseg benchmark")
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = HERE.parent / "src"
    if not (src / "promptseg" / "__init__.py").is_file():
        print(f"perfbench: no promptseg package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, src)


if __name__ == "__main__":
    sys.exit(main())
