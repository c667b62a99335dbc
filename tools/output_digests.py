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
``reconstruct()`` bytes.  Lines read ``<sha256>  <input dir>/<log>/<artifact>``.

To check that a change keeps every output, run the tool over the same
input directories once with the old source and once with the new, and
``diff`` the two listings.  ``--write-synthetic DIR`` writes a few small
corpora (arrays, nested arrays, a multi-line array record, two types, a log
without its final newline) into ``DIR/<name>/`` for discovery and again,
with a ``plan.json`` of the planted templates, into ``DIR/<name>-planted/``.
Write them once, with either source, and pass their directories to both
runs.
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
# share, records, seed, drop the final newline); a field spec is
# ("int", lo, hi) or ("str",), and every array repeats 1-4 times.
_INT = ("int", 0, 9999)
_STR = ("str",)
SYNTHETIC = {
    "two_types": ([("<<F>>\n==F.F.F.F\n", [("int", 0, 10**6)] + [("int", 0, 255)] * 4, 0, 0.55),
                   ("[F] F -> F\n", [_STR, _STR, _STR], 0, 0.45)], 0.15, 150, 3, False),
    "arrays": ([('F,"(F,)*F",F\n', [_STR, _INT, _STR], 1, 0.6),
                ("<F>|F\n", [_INT, _STR], 0, 0.4)], 0.2, 150, 8, False),
    "nested_arrays": ([("((F;)*F:F,)*(F;)*F:F.\n", [_INT, _STR], 2, 1.0)],
                      0.1, 120, 5, False),
    "multiline_array": ([("#F\n(F\n,)*F\n\n", [_STR, _INT], 1, 1.0)], 0.1, 100, 6, False),
    "no_final_newline": ([('F,"(F,)*F",F\n', [_STR, _INT, _STR], 1, 0.6),
                          ("<F>|F\n", [_INT, _STR], 0, 0.4)], 0.2, 150, 9, True),
}


def write_synthetic(ls, out_dir: str) -> None:
    """Write each SYNTHETIC corpus as ``out_dir/<name>/corpus.log``, and
    again into ``out_dir/<name>-planted/`` with a ``plan.json`` of its planted
    templates."""
    from logstruct.synth import ArraySpec, FieldSpec, SynthSpec, TemplateSpec

    for name, (types, noise, records, seed, cut) in SYNTHETIC.items():
        spec = SynthSpec(
            templates=[TemplateSpec(
                template=ls.parse_canonical(tpl.encode("latin-1")),
                fields=[FieldSpec(f[0], *f[1:]) for f in fields],
                arrays=[ArraySpec(1, 4) for _ in range(n_arrays)],
                weight=weight) for tpl, fields, n_arrays, weight in types],
            noise_fraction=noise, record_count=records, seed=seed)
        data = ls.generate(spec).data
        if cut:
            data = data[:-1]
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
        name = os.path.join(input_dir, os.path.basename(log))
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
    for input_dir in args.inputs:
        for digest, name in digests(ls, input_dir):
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
