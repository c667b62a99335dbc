"""Quick self-test of the benchmark at tiny input sizes (about a minute).

    python3 bench/selftest.py

Checks that every workload runs to its end in both modes with no failed
operation, that every metric printed is declared in BENCHMARK.json (and
every declared one printed), that a corrupted output (one table row
changed, or one noise line dropped) fails its operation, and that the
command refuses to run in a directory without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import BENCH, OUT, ROOT
from workloads import WORKLOADS

RUN = os.path.join(BENCH, "run.py")
TINY = ["--scale", "tiny", "--seconds", "0.5"]


def bench(workload: str, *extra: str, run: str = RUN) -> tuple[int, dict | None, str]:
    """Exit code, result object (None if none printed) and standard error."""
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3", *TINY, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    return proc.returncode, doc, proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json lists exactly the benchmark's workloads")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, doc, _ = bench(workload, "--trace", trace)
            what = f"{workload} --trace {trace}"
            if code != 0 or doc is None:
                check(False, f"{what}: exit {code}, result {doc}")
                continue
            check(set(doc) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            check(doc["correct"] and doc["attempted"] >= 1 and doc["failed"] == 0,
                  f"{what}: {doc['attempted']} attempted, {doc['failed']} failed")
            printed = {k: v["unit"] for k, v in doc["metrics"].items()}
            check(printed == declared[trace],
                  f"{what}: metrics printed are those BENCHMARK.json declares")
    # A changed row must fail the table comparison, a dropped noise line the
    # byte-exact reconstruction.
    for workload in ("discover_small", "extract_bulk"):
        for how, caught_by in (("row", "verify_success"), ("noise", "reconstruct")):
            code, doc, err = bench(workload, "--corrupt", how)
            check(code == 0 and doc is not None and doc["attempted"] >= 1
                  and doc["failed"] == doc["attempted"] and caught_by in err,
                  f"{workload}: corrupted output ({how}) fails every operation "
                  f"in {caught_by}")

    # Without the program next to it the command must fail and print nothing.
    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, doc, _ = bench("discover_small", run=os.path.join(bare, "bench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and doc is None, "no program: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
