"""One measured workload process: set-up, timed operations, checks.

``run.py`` starts this script in a fresh process for every measurement and
passes the moment it started it (``--spawn-time``, on the system-wide
monotonic clock), so ``setup_s`` covers interpreter start, importing
logstruct, loading every input with ``logstruct.corpus.load`` and, for
extract_bulk, loading the saved plan.  ``--mode setup`` stops there.

``--mode run`` then repeats whole rounds of the workload's operations (one
operation is one input file discovered, or extracted and written) until
their summed time reaches ``--seconds``, checks every operation against the
generator's ground truth, and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import sys
import time
import traceback

from tracing import Tracer, layer_metrics, peak_rss_mb


def _digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _corrupt(out, how: str) -> None:
    """Self-test hook: damage one extraction output in place."""
    if how == "row":
        for table in out.tables:
            if table.rows and len(table.columns) > 1:
                row = table.rows[len(table.rows) // 2]
                row[-1] = row[-1] + "x"
                return
    elif how == "noise":
        if out.noise:
            del out.noise[len(out.noise) // 2]


class Checker:
    """Checks each operation's output; verdicts of byte-identical repeats
    (same plan report, same written files) are reused."""

    def __init__(self, ls, cache_dir: str, corrupt: str | None):
        self.ls = ls
        self.cache_dir = cache_dir
        self.corrupt = corrupt
        self.verdicts: dict[tuple, tuple[bool, str]] = {}

    def truth(self, f: dict):
        """The file's ground truth, loaded per check and not kept: held
        across operations it would enlarge the heap they run in."""
        with open(os.path.join(self.cache_dir, f["truth"]), encoding="utf-8") as fh:
            return self.ls.synth.truth_from_json(json.load(fh))

    def replay(self, corpus, nodes, max_span_lines: int):
        """Re-parse the plan's rounds as discover() does: each template over
        the noise left by the ones before it.  Returns, per round, its
        description length, noise bytes and all-noise description length."""
        ls = self.ls
        text = corpus.view()
        rounds = []
        for node in nodes:
            parse = ls.scoring.parse_with_template(text, node, max_span_lines)
            dl = ls.scoring.description_length(
                node, parse, ls.scoring.infer_field_types(parse))
            rounds.append((dl, parse.noise_bytes, ls.scoring.noise_only_dl(text)))
            text = ls.corpus.TextView.from_bytes(
                b"".join(text.data[s:e] for s, e in parse.noise_spans))
        return rounds

    def _extraction(self, f: dict, corpus, out, extracted) -> str:
        """'' when the extraction matches the truth, else the reason."""
        ok, diff = self.ls.synth.verify_success(extracted, self.truth(f), f["script"])
        if not ok:
            return f"verify_success: {diff}"
        if self.ls.extraction.reconstruct(out) != corpus.data:
            return "reconstruct() differs from the input bytes"
        return ""

    def discover(self, f: dict, corpus, plan) -> tuple[bool, str]:
        ls = self.ls
        key = ("discover", f["name"], ls.pipeline.report_json(plan))
        if key in self.verdicts:
            return self.verdicts[key]
        if plan.status != "ok":
            verdict = (False, f"status {plan.status}")
        else:
            reason = ""
            nodes = [s.template for s in plan.templates]
            replayed = self.replay(corpus, nodes, plan.max_span_lines)
            for i, (s, (dl, _, noise_dl)) in enumerate(zip(plan.templates, replayed)):
                if s.total_dl != dl:
                    reason = f"round {i}: total_dl {s.total_dl} != replayed {dl}"
                elif not s.total_dl < noise_dl:
                    reason = f"round {i}: total_dl {s.total_dl} >= noise-only {noise_dl}"
                if reason:
                    break
            if not reason:
                out = ls.extraction.extract_all(corpus, plan)
                if self.corrupt:
                    _corrupt(out, self.corrupt)
                reason = self._extraction(f, corpus, out, out)
            verdict = (not reason, reason)
        self.verdicts[key] = verdict
        return verdict

    def extract(self, f: dict, corpus, out, out_dir: str) -> tuple[bool, str]:
        key = ("extract", f["name"], _digest(out_dir))
        if key not in self.verdicts:
            extracted = self.ls.extraction.read_extracted(out_dir)
            reason = self._extraction(f, corpus, out, extracted)
            self.verdicts[key] = (not reason, reason)
        return self.verdicts[key]


def plan_bits(report: dict) -> float:
    """Bits of a plan's description of its input, each byte counted once:
    every round's description length less its noise, plus 8 bits per byte
    of the noise left after the last round."""
    rounds = report["rounds"]
    if not rounds:
        return 0.0
    bits = sum(r["total_dl"] - 8 * r["noise_bytes"] for r in rounds)
    return float(bits + 8 * rounds[-1]["noise_bytes"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cache", required=True, help="generated inputs")
    ap.add_argument("--src", required=True, help="directory holding logstruct")
    ap.add_argument("--out", required=True, help="scratch directory for output")
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the spans are written to")
    ap.add_argument("--corrupt", choices=("row", "noise"),
                    help="self-test only: damage every output before its check")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import logstruct as ls  # its __init__ imports every module used below

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def call(name, fn, rss=False):
        return tracer.wrap(name, fn, rss) if tracer else fn

    load = call("corpus.load", ls.corpus.load)
    with open(os.path.join(args.cache, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    files = manifest["files"]
    corpora = []
    for f in files:
        if tracer:
            tracer.file_id = f["name"]
        corpora.append(load(os.path.join(args.cache, f["log"])))
    extracting = "plan" in manifest
    if extracting:
        with open(os.path.join(args.cache, manifest["plan"]), encoding="utf-8") as fh:
            plan = call("pipeline.plan_from_report", ls.pipeline.plan_from_report)(
                json.load(fh))
        extract_all = call("extraction.extract_all", ls.extraction.extract_all, rss=True)
        write_output = call("extraction.write_output", ls.extraction.write_output,
                            rss=True)
    else:
        discover = call("pipeline.discover", ls.pipeline.discover)
    setup_s = time.monotonic() - args.spawn_time
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checker = Checker(ls, args.cache, args.corrupt)
    out_dir = os.path.join(args.out, "extracted")
    op_times: list[float] = []
    round_times: list[float] = []
    rounds = 0
    attempted = failed = 0
    rss_mb = 0.0
    bits = 0.0
    reasons: list[str] = []
    while True:
        if tracer:
            tracer.phase = "timed"
        results = []
        for f, corpus in zip(files, corpora):
            if tracer:
                tracer.file_id = f["name"]
            error = None
            result = None
            # Garbage of the previous operation and its check is freed first,
            # so no operation pays for collecting what another one left.
            gc.collect()
            t0 = time.perf_counter()
            try:
                if extracting:
                    result = extract_all(corpus, plan)
                    if args.corrupt:
                        _corrupt(result, args.corrupt)
                    write_output(result, out_dir, "both")
                else:
                    result = discover(corpus)
            except Exception:  # an operation that raises counts as failed
                error = traceback.format_exc(limit=3)
            op_times.append(time.perf_counter() - t0)
            results.append((f, corpus, result, error))
        round_times.append(sum(op_times[-len(files):]))
        rounds += 1
        if rounds == 1:
            rss_mb = peak_rss_mb()
        if tracer:
            tracer.phase = "check"
        for f, corpus, result, error in results:
            attempted += 1
            if error is None:
                try:
                    if extracting:
                        ok, why = checker.extract(f, corpus, result, out_dir)
                    else:
                        ok, why = checker.discover(f, corpus, result)
                        if rounds == 1:
                            bits += plan_bits(ls.pipeline.report(result))
                except Exception:  # a check that raises fails its operation
                    ok, why = False, traceback.format_exc(limit=3)
            else:
                ok, why = False, error
            if not ok:
                failed += 1
                reasons.append(f"{f['name']}: {why}")
        results.clear()
        shutil.rmtree(out_dir, ignore_errors=True)
        if sum(round_times) >= args.seconds:
            break

    if extracting:  # a saved plan carries no description lengths
        nodes = [s.template for s in plan.templates]
        for corpus in corpora:
            replayed = checker.replay(corpus, nodes, plan.max_span_lines)
            bits += plan_bits({"rounds": [{"total_dl": dl, "noise_bytes": noise}
                                          for dl, noise, _ in replayed]})
    input_bytes = sum(f["bytes"] for f in files)
    for why in reasons[:5]:
        print(f"failed: {why}", file=sys.stderr)
    doc = {"setup_s": setup_s, "op_times": op_times, "round_times": round_times,
           "round_bytes": input_bytes, "attempted": attempted, "failed": failed,
           "peak_rss_MB": rss_mb, "plan_bits_per_byte": bits / input_bytes}
    if tracer:
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        doc["layers"] = layer_metrics(tracer.spans, rounds)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
