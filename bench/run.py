"""Benchmark command for logstruct: discovery and extraction workloads.

    python3 bench/run.py --workload discover_small --seed 1 --seconds 20 --trace 0

Runs from any directory; the program is imported from ``src/`` next to this
directory.  Inputs are generated from the seed once, in their own process,
into ``bench/.cache/`` (generation is in no metric).  Every measurement then
runs in a fresh worker process (``worker.py``) that loads the inputs, times
the workload's operations and checks every output against the generator's
ground truth.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median over
several worker starts, the others come from one measuring worker.
``--trace 1`` runs the workload untraced and then traced, prints the
per-layer metrics of the traced run with its overhead, and writes its spans
to ``bench/.out/spans/``.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import SCALES, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(BENCH, ".cache")
OUT = os.path.join(BENCH, ".out")
SETUP_PROBES = 4  # set-up-only worker starts, besides the measuring one
GENERATE_TIMEOUT_S = 600
WORKER_TIMEOUT_S = 170

# name -> unit, in the order printed
END_TO_END = {"setup_s": "s", "MBps": "MB/s", "file_s.p50": "s",
              "peak_rss_MB": "MB", "plan_bits_per_byte": "bits/B"}
PER_LAYER = {
    "corpus.load_s": "s",
    "generation.search_s": "s", "generation.subsets": "count",
    "generation.candidates": "count",
    "pruning.prune_s": "s", "pruning.kept": "count",
    "scoring.score_s": "s", "scoring.calls": "count", "scoring.MB_parsed": "MB",
    "scoring.parse_s": "s",
    "refinement.refine_s": "s", "refinement.shift_s": "s",
    "refinement.self_s": "s",
    "templates.compile_s": "s", "templates.compiles": "count",
    "templates.compiles_per_template": "ratio",
    "pipeline.rounds": "count", "pipeline.self_s": "s",
    "extraction.extract_s": "s", "extraction.write_s": "s",
    "extraction.records": "count", "extraction.rows": "count",
    "extraction.MB_written": "MB", "extraction.extract_rss_MB": "MB",
    "extraction.write_rss_MB": "MB",
    "trace.MBps": "MB/s", "trace.untraced_MBps": "MB/s", "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


def ensure_inputs(workload: str, seed: int, scale: str) -> str:
    """Directory of the workload's generated inputs, generating them once.

    The directory name carries a digest of workloads.py, so a changed
    workload definition never reuses inputs made by an older one."""
    with open(os.path.join(BENCH, "workloads.py"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:12]
    directory = os.path.join(CACHE, scale, workload, f"seed{seed}-{digest}")
    if os.path.exists(os.path.join(directory, "manifest.json")):
        return directory
    tmp = f"{directory}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--src", SRC, "--out", tmp]
    try:
        proc = subprocess.run(cmd, timeout=GENERATE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"input generation exited with {proc.returncode}")
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(tmp, directory)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return directory


def run_worker(inputs: str, out_dir: str, mode: str, extra: list[str]) -> dict:
    """Start one worker process and return the JSON of its last line."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--cache", inputs, "--src", SRC,
           "--out", out_dir, "--mode", mode, *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--spawn-time", repr(started)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker ({mode}) printed no result")
    return json.loads(lines[-1])


def mbps(doc: dict) -> float:
    """Input MB per second over all the run's timed rounds."""
    rounds = doc["round_times"]
    return doc["round_bytes"] * len(rounds) / 1e6 / sum(rounds)


def consistent(doc: dict) -> bool:
    """Every timed operation was checked and the plan was measured."""
    return (doc["attempted"] == len(doc["op_times"]) >= 1
            and doc["plan_bits_per_byte"] > 0)


def measure(args, inputs: str, out_dir: str) -> dict:
    """Run the workers of one invocation and build its result object."""
    run_extra = ["--seconds", str(args.seconds)]
    if args.corrupt:
        run_extra += ["--corrupt", args.corrupt]
    if not args.trace:
        setups = [run_worker(inputs, out_dir, "setup", run_extra)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        doc = run_worker(inputs, out_dir, "run", run_extra)
        setups.append(doc["setup_s"])
        metrics = {"setup_s": statistics.median(setups),
                   "MBps": mbps(doc),
                   "file_s.p50": statistics.median(doc["op_times"]),
                   "peak_rss_MB": doc["peak_rss_MB"],
                   "plan_bits_per_byte": doc["plan_bits_per_byte"]}
        units = END_TO_END
        docs = [doc]
    else:
        plain = run_worker(inputs, out_dir, "run", run_extra)
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.scale}-{args.workload}-seed{args.seed}.jsonl")
        traced = run_worker(inputs, out_dir, "run",
                            run_extra + ["--trace", "1", "--spans", spans])
        metrics = dict(traced["layers"])
        metrics["trace.MBps"] = mbps(traced)
        metrics["trace.untraced_MBps"] = mbps(plain)
        metrics["trace.overhead_pct"] = 100.0 * (mbps(plain) / mbps(traced) - 1.0)
        units = PER_LAYER
        docs = [plain, traced]
    return {"correct": all(consistent(d) for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="summed operation time a run measures at least")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="input sizes; 'tiny' is for the self-test")
    ap.add_argument("--corrupt", choices=("row", "noise"),
                    help="self-test only: damage every output before its check")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logstruct", "__init__.py")):
        print(f"error: no logstruct package under {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        inputs = ensure_inputs(args.workload, args.seed, args.scale)
        result = measure(args, inputs, out_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
