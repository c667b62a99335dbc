"""Command-line front end: discover, extract, synth, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .corpus import CorpusError, load
from .extraction import OutputError, extract_all, read_extracted, write_output
from .generation import GenerationConfig, SearchSpaceError
from .pipeline import (
    PipelineConfig,
    PruningConfig,
    SamplingConfig,
    discover,
    plan_from_report,
    report,
    report_json,
)
from .synth import (
    SynthError,
    apply_ops,
    generate,
    spec_from_json,
    truth_from_json,
    truth_to_json,
    verify_success,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_STRUCTURE = 3


def _add_discovery_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=10.0,
                   help="minimum coverage threshold, percent (default 10)")
    p.add_argument("--max-span", type=int, default=10, metavar="L",
                   help="maximum lines per record (default 10)")
    p.add_argument("--top-m", type=int, default=50, metavar="M",
                   help="candidates kept after pruning (default 50)")
    p.add_argument("--search", choices=("greedy", "exhaustive"),
                   default="greedy", help="charset search mode")
    p.add_argument("--sample-bytes", type=int, default=8 << 20)
    p.add_argument("--chunk-bytes", type=int, default=1 << 20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; discovery runs in one "
                        "thread and the value never changes results")


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        generation=GenerationConfig(alpha=args.alpha,
                                    max_span_lines=args.max_span,
                                    search_mode=args.search),
        pruning=PruningConfig(top_m=args.top_m),
        sampling=SamplingConfig(budget=args.sample_bytes,
                                chunk_size=args.chunk_bytes, seed=args.seed),
        threads=args.threads,
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="logstruct")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="mine structure templates from a file")
    p.add_argument("file")
    p.add_argument("--out", help="directory for plan.json (default: stdout)")
    _add_discovery_flags(p)

    p = sub.add_parser("extract", help="apply a plan (or --auto) and emit tables")
    p.add_argument("file")
    p.add_argument("--plan", help="plan report JSON from 'discover'")
    p.add_argument("--auto", action="store_true",
                   help="discover then extract in one process")
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    _add_discovery_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic corpus with truth")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default="synth")

    p = sub.add_parser("verify", help="check extracted output against truth")
    p.add_argument("--extracted", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--script", help="relational op script JSON (default: [])")
    return ap


def _cmd_discover(args) -> int:
    corpus = load(args.file)
    plan = discover(corpus, _pipeline_config(args))
    doc = report_json(plan)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "plan.json"), "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return EXIT_OK if plan.status == "ok" else EXIT_NO_STRUCTURE


def _cmd_extract(args) -> int:
    corpus = load(args.file)
    if args.auto:
        plan = discover(corpus, _pipeline_config(args))
    elif args.plan:
        with open(args.plan, encoding="utf-8") as fh:
            plan = plan_from_report(json.load(fh))
    else:
        print("extract requires --plan or --auto", file=sys.stderr)
        return EXIT_USAGE
    if plan.status != "ok" or not plan.templates:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "plan.json"), "w", encoding="utf-8") as fh:
            fh.write(report_json(plan))
        print("no structure found", file=sys.stderr)
        return EXIT_NO_STRUCTURE
    out = extract_all(corpus, plan)
    write_output(out, args.out, args.format)
    with open(os.path.join(args.out, "plan.json"), "w", encoding="utf-8") as fh:
        fh.write(report_json(plan))
    return EXIT_OK


def _cmd_synth(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        doc = json.load(fh)
    script = doc.pop("script", [])
    spec = spec_from_json(doc)
    result = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "corpus.log"), "wb") as fh:
        fh.write(result.data)
    truth = truth_to_json(result)
    truth["script"] = script
    with open(os.path.join(args.out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.truth, encoding="utf-8") as fh:
        truth_doc = json.load(fh)
    if args.script:
        with open(args.script, encoding="utf-8") as fh:
            script = json.load(fh)
    else:
        script = truth_doc.get("script", [])
    extracted = read_extracted(args.extracted)
    ok, diff = verify_success(extracted, truth_from_json(truth_doc), script)
    print(json.dumps({"success": ok, "diff": diff}, sort_keys=True))
    return EXIT_OK if ok else EXIT_FAIL


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        if args.command == "discover":
            return _cmd_discover(args)
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (CorpusError, OutputError, SynthError, SearchSpaceError, OSError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
