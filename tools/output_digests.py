"""Print a sha256 digest of everything the program outputs on given inputs.

    python3 tools/output_digests.py --src src INPUT_DIR...
    python3 tools/output_digests.py --src src --write-synthetic DIR

An input directory holds ``*.log`` files.  Without a ``plan.json`` each log
is discovered: the tool prints the digest of ``report_json(discover(...))``
and, when a plan was found, of the outputs of extracting the log with it.
With a ``plan.json`` (a report as ``logstruct discover`` writes it) each log
is extracted with that plan only, as the ``extract_bulk`` benchmark workload
does; discovering that workload's 3 MB input takes many minutes.  The
outputs of an extraction are every file ``write_output`` writes and the
``reconstruct()`` bytes.  Lines read ``<sha256>  <name>/<log>/<artifact>``,
where ``<name>`` is the input directory's own name, so a listing does not
depend on where the inputs were written.

``tools/digests.txt`` is the expected listing over the ``--write-synthetic``
corpora and the benchmark's tiny seed-1 inputs, and CI diffs one run of the
tool against it.  The listing was made with Python 3.11 and NumPy 2.4.6,
and the CI step installs that NumPy before it runs the tool; regenerate
the listing with the NumPy the step pins, and change the two together.  A
change that alters an output on purpose regenerates it:

    python3 tools/output_digests.py --src src --write-synthetic DIR
    for w in discover_small discover_large extract_bulk; do
        python3 bench/workloads.py --workload $w --seed 1 --scale tiny \
            --src src --out DIR/bench_$w
    done
    python3 tools/output_digests.py --src src DIR/* > tools/digests.txt

and reviews ``git diff tools/digests.txt``: every changed, added or removed
line must name an artifact the change meant to alter, and the change says
why each one moved.  Any other line that moved is a defect.

To compare two sources directly, run the tool over the same input
directories once with each and ``diff`` the two listings.

``--write-synthetic DIR`` writes a few small corpora (arrays, nested arrays,
a multi-line array record, an array with a newline separator, two types, a
log without its final newline, a log that starts in the middle of a
two-line record, where structure shifting has two rotations to compare, and
the three short record types of the ``extract_bulk`` workload, whose
discovery is mostly array reduction) into ``DIR/<name>/`` for discovery and
again, with a ``plan.json`` of the planted templates, into
``DIR/<name>-planted/``.  Write them once, with either source, and pass
their directories to both runs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
import tempfile

# name -> ([(canonical template, field specs, array count, weight)], noise
# share, records, seed, edit of the generated bytes or None); a field spec is
# ("int", lo, hi) or ("str",), and every array repeats 1-4 times.
_INT = ("int", 0, 9999)
_STR = ("str",)


def _drop_final_newline(data: bytes) -> bytes:
    return data[:-1]


def _start_mid_record(data: bytes) -> bytes:
    """Two noise lines, then the text from its first "=" line on."""
    return b"q7x2kd0m\nz93hh1ab4c\n" + data[data.index(b"\n=") + 1:]


SYNTHETIC = {
    "two_types": ([("<<F>>\n==F.F.F.F\n", [("int", 0, 10**6)] + [("int", 0, 255)] * 4, 0, 0.55),
                   ("[F] F -> F\n", [_STR, _STR, _STR], 0, 0.45)], 0.15, 150, 3, None),
    "arrays": ([('F,"(F,)*F",F\n', [_STR, _INT, _STR], 1, 0.6),
                ("<F>|F\n", [_INT, _STR], 0, 0.4)], 0.2, 150, 8, None),
    "nested_arrays": ([("((F;)*F:F,)*(F;)*F:F.\n", [_INT, _STR], 2, 1.0)],
                      0.1, 120, 5, None),
    "multiline_array": ([("#F\n(F\n,)*F\n\n", [_STR, _INT], 1, 1.0)], 0.1, 100, 6, None),
    "config_dump": ([("(F=F\n)*F=F;\n", [_STR, _INT], 1, 1.0)], 0.1, 100, 4, None),
    "no_final_newline": ([('F,"(F,)*F",F\n', [_STR, _INT, _STR], 1, 0.6),
                          ("<F>|F\n", [_INT, _STR], 0, 0.4)], 0.2, 150, 9, _drop_final_newline),
    "mid_record_start": ([("<F>\n=F F=\n", [_INT, _INT, _STR], 0, 1.0)],
                         0.1, 120, 2, _start_mid_record),
    "bulk_mix": ([("[F] F=F\n", [_STR, _STR, ("int", 0, 10**6)], 0, 0.45),
                  ("<F>|F|F\n", [("int", 0, 10**6), _STR, ("int", 0, 999)], 0, 0.35),
                  ("{F} (F,)*F;\n", [_STR, _INT], 1, 0.2)], 0.15, 300, 1, None),
}


def write_synthetic(ls, out_dir: str) -> None:
    """Write each SYNTHETIC corpus as ``out_dir/<name>/corpus.log``, and
    again into ``out_dir/<name>-planted/`` with a ``plan.json`` of its planted
    templates."""
    from logstruct.synth import ArraySpec, FieldSpec, SynthSpec, TemplateSpec

    for name, (types, noise, records, seed, edit) in SYNTHETIC.items():
        spec = SynthSpec(
            templates=[TemplateSpec(
                template=ls.parse_canonical(tpl.encode("latin-1")),
                fields=[FieldSpec(f[0], *f[1:]) for f in fields],
                arrays=[ArraySpec(1, 4) for _ in range(n_arrays)],
                weight=weight) for tpl, fields, n_arrays, weight in types],
            noise_fraction=noise, record_count=records, seed=seed)
        data = ls.generate(spec).data
        if edit is not None:
            data = edit(data)
        plan = {"status": "ok", "max_span_lines": 10, "diagnostics": {},
                "residual_noise_fraction": 0.0,
                "rounds": [{"template": tpl} for tpl, _, _, _ in types]}
        planted = os.path.join(out_dir, f"{name}-planted")
        for directory in (os.path.join(out_dir, name), planted):
            os.makedirs(directory, exist_ok=True)
            with open(os.path.join(directory, "corpus.log"), "wb") as fh:
                fh.write(data)
        with open(os.path.join(planted, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan, fh, indent=2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(ls, input_dir: str):
    """Yield ``(digest, name)`` for every artifact of one input directory."""
    plan_path = os.path.join(input_dir, "plan.json")
    plan = None
    if os.path.exists(plan_path):
        with open(plan_path, encoding="utf-8") as fh:
            plan = ls.pipeline.plan_from_report(json.load(fh))
    for log in sorted(glob.glob(os.path.join(input_dir, "*.log"))):
        name = f"{os.path.basename(os.path.normpath(input_dir))}/{os.path.basename(log)}"
        corpus = ls.corpus.load(log)
        applied = plan
        if plan is None:
            applied = ls.discover(corpus)
            report = ls.pipeline.report_json(applied)
            yield sha256(report.encode("utf-8")), f"{name}/report.json"
            if applied.status != "ok":
                continue
        out = ls.extract_all(corpus, applied)
        with tempfile.TemporaryDirectory() as tmp:
            for path in sorted(ls.write_output(out, tmp)):
                with open(path, "rb") as fh:
                    yield sha256(fh.read()), f"{name}/{os.path.basename(path)}"
        yield sha256(ls.extraction.reconstruct(out)), f"{name}/reconstruct"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding logstruct")
    ap.add_argument("--write-synthetic", metavar="DIR",
                    help="write the synthetic corpora into DIR and exit")
    ap.add_argument("inputs", nargs="*", metavar="INPUT_DIR")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import logstruct as ls

    if args.write_synthetic:
        write_synthetic(ls, args.write_synthetic)
        return 0
    for input_dir in sorted(args.inputs):
        for digest, name in digests(ls, input_dir):
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
