"""Workload inputs: seeded synthetic logs plus the generator's ground truth.

Every input is drawn by ``logstruct.synth.generate`` from a spec fixed here;
the benchmark seed only changes the values drawn, never the make-up of a
workload (record types, field specs, noise share, record counts).  The
ground truth is the generator's own record of what it drew, so checks never
depend on the program's parse.

Run as a script to generate one workload into a directory:

    python3 bench/workloads.py --workload discover_small --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

WORKLOADS = ("discover_small", "discover_large", "extract_bulk")
SCALES = ("full", "tiny")

# discover_small: groups of small logs, each group one record-type mix with
# its relational verify script and file count.  File j of a group of n has
# noise share SMALL_NOISE[0] + (SMALL_NOISE[1] - SMALL_NOISE[0]) * j / (n - 1)
# (share of blocks).  The groups are test_ac5's MULTI_SETS[2] (a nine-line
# and a two-line type) and test_ac4's five single-type RECOVERY_SHAPES.  The
# other two MULTI_SETS mixes are left out: discover() fails verify_success
# on some of their seeds (see CHANGES.md), and an operation may not fail on
# some seeds only.
_I6 = ("int", 0, 10**6)
_STR = ("str",)
_DROP_IDS = [["DeleteCol", "t0", "_id"], ["DeleteCol", "t1", "_id"]]
SMALL_GROUPS = [
    ([("".join(">" * i + "F\n" for i in range(1, 10)),
       [_I6 if i % 2 else _STR for i in range(9)], [], 0.5),
      ("\\(F\\)\n-F-\n", [_STR, _I6], [], 0.5)], _DROP_IDS, 15),
    ([("<F> F=F\n", [("str", 6, 10), _STR, _I6], [], 1.0)], _DROP_IDS[:1], 3),
    ([("--F--\n=F F\n", [_I6, _STR, _I6], [], 1.0)], _DROP_IDS[:1], 3),
    ([("[F] F -> F\n", [("str", 5, 9), _STR, _STR], [], 1.0)], _DROP_IDS[:1], 3),
    ([("F: F | F\n", [_STR, _I6, _STR], [], 1.0)], _DROP_IDS[:1], 3),
    ([("{F}\n%F%F\n", [_I6, _STR, _I6], [], 1.0)], _DROP_IDS[:1], 3),
]
SMALL_NOISE = (0.10, 0.25)
SMALL_RECORDS = 100

# discover_large: one dominant two-line type with a long free-text value.
LARGE_TYPES = [("<F>\n=F F=\n", [_I6, _I6, ("str", 100, 140)], [], 1.0)]
LARGE_NOISE = 0.05
LARGE_RECORDS = 7000

# extract_bulk: three short-record types, one with an array (a child table).
BULK_TYPES = [
    ("[F] F=F\n", [("str", 4, 8), _STR, _I6], [], 0.45),
    ("<F>|F|F\n", [_I6, _STR, ("int", 0, 999)], [], 0.35),
    ("{F} (F,)*F;\n", [_STR, ("int", 0, 9999)], [(1, 4)], 0.20),
]
BULK_NOISE = 0.15
BULK_RECORDS = 120_000

# Record counts at the "tiny" scale used by the benchmark's self-test.
TINY = {"small_records": 40, "small_files_per_group": 1,
        "large_records": 300, "bulk_records": 2000}


def _field_spec(desc):
    """``("int", lo, hi)``, ``("str",)`` or ``("str", min_len, max_len)`` as a
    FieldSpec (the tables above stay plain data, so importing this module
    needs no logstruct)."""
    from logstruct.synth import FieldSpec

    kind = desc[0]
    if kind == "int":
        return FieldSpec("int", desc[1], desc[2])
    if len(desc) == 3:
        return FieldSpec("str", min_len=desc[1], max_len=desc[2])
    return FieldSpec("str")


def make_spec(types, noise_fraction, record_count, seed):
    from logstruct.synth import ArraySpec, SynthSpec, TemplateSpec
    from logstruct.templates import parse_canonical

    return SynthSpec(
        templates=[TemplateSpec(
            template=parse_canonical(tpl.encode("latin-1")),
            fields=[_field_spec(f) for f in fields],
            arrays=[ArraySpec(lo, hi) for lo, hi in arrays],
            weight=weight) for tpl, fields, arrays, weight in types],
        noise_fraction=noise_fraction, record_count=record_count, seed=seed)


def file_seed(workload: str, seed: int, index: int) -> int:
    """Generator seed of one input file (string seeding is stable)."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(2**31)


def input_specs(workload: str, seed: int, scale: str = "full"):
    """[(file name, SynthSpec, verify script)] of one workload run."""
    tiny = scale == "tiny"
    if workload == "discover_small":
        records = TINY["small_records"] if tiny else SMALL_RECORDS
        out = []
        lo, hi = SMALL_NOISE
        for g, (types, script, count) in enumerate(SMALL_GROUPS):
            if tiny:
                count = TINY["small_files_per_group"]
            for j in range(count):
                noise = lo + (hi - lo) * j / max(count - 1, 1)
                spec = make_spec(types, noise, records,
                                 file_seed(workload, seed, len(out)))
                out.append((f"small_{g}_{j}", spec, script))
        return out
    if workload == "discover_large":
        records = TINY["large_records"] if tiny else LARGE_RECORDS
        return [("large", make_spec(LARGE_TYPES, LARGE_NOISE, records,
                                    file_seed(workload, seed, 0)), [])]
    if workload == "extract_bulk":
        records = TINY["bulk_records"] if tiny else BULK_RECORDS
        return [("bulk", make_spec(BULK_TYPES, BULK_NOISE, records,
                                   file_seed(workload, seed, 0)), [])]
    raise ValueError(f"unknown workload {workload!r}")


def bulk_plan_report() -> dict:
    """The saved plan of extract_bulk: the planted templates in a fixed
    order, in the report form ``logstruct discover`` writes."""
    return {"status": "ok", "max_span_lines": 10, "residual_noise_fraction": 0.0,
            "diagnostics": {},
            "rounds": [{"template": tpl} for tpl, _, _, _ in BULK_TYPES]}


def generate_workload(workload: str, seed: int, scale: str, out_dir: str) -> dict:
    """Write every input, its truth JSON and a manifest into ``out_dir``."""
    from logstruct.synth import generate, truth_to_json

    os.makedirs(out_dir, exist_ok=True)
    files = []
    for name, spec, script in input_specs(workload, seed, scale):
        result = generate(spec)
        log = f"{name}.log"
        truth = f"{name}.truth.json"
        with open(os.path.join(out_dir, log), "wb") as fh:
            fh.write(result.data)
        with open(os.path.join(out_dir, truth), "w", encoding="utf-8") as fh:
            json.dump(truth_to_json(result), fh)
        files.append({"name": name, "log": log, "truth": truth,
                      "script": script, "bytes": len(result.data),
                      "records": len(result.records),
                      "synth_seed": spec.seed})
    manifest = {"workload": workload, "seed": seed, "scale": scale,
                "files": files}
    if workload == "extract_bulk":
        with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(bulk_plan_report(), fh, indent=2)
        manifest["plan"] = "plan.json"
    # The manifest is written last: its presence marks a complete cache entry.
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=SCALES, default="full")
    ap.add_argument("--src", required=True, help="directory holding logstruct")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    generate_workload(args.workload, args.seed, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
