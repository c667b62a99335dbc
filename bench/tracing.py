"""Span tracing of logstruct's layers from outside the program.

A ``Tracer`` replaces public functions where the calling module binds them
(``logstruct.pipeline.run_search``, ``logstruct.refinement.shift_structure``,
every module's ``compile_template``, ...) with wrappers that record a span:
name, start, end, parent span and the id of the input file being processed.
The program's code is not edited.  Spans stay in memory and are written out
as JSON lines when the run ends.

The layers are logstruct's modules; a span's layer is the part of its name
before the first dot.  A layer's self time is the time of its spans minus
the time of their direct child spans, summed over the layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
from collections import defaultdict

# (module that binds the name, attribute, span name)
BINDINGS = [
    ("logstruct.pipeline", "sample", "corpus.sample"),
    ("logstruct.pipeline", "run_search", "generation.run_search"),
    ("logstruct.pipeline", "prune", "pruning.prune"),
    ("logstruct.pipeline", "score", "scoring.score"),
    ("logstruct.pipeline", "parse_with_template", "scoring.parse_with_template"),
    ("logstruct.pipeline", "refine", "refinement.refine"),
    ("logstruct.pipeline", "compile_template", "templates.compile_template"),
    ("logstruct.refinement", "score", "scoring.score"),
    ("logstruct.refinement", "shift_structure", "refinement.shift_structure"),
    ("logstruct.refinement", "compile_template", "templates.compile_template"),
    ("logstruct.scoring", "compile_template", "templates.compile_template"),
    ("logstruct.extraction", "compile_template", "templates.compile_template"),
]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _note(name: str, args, result) -> dict:
    """Counts recorded on a span at the layer boundary."""
    if name == "generation.run_search":
        return {"subsets": result.subsets_enumerated,
                "candidates": len(result.candidates)}
    if name == "pruning.prune":
        return {"kept": len(result)}
    if name == "scoring.score":
        return {"bytes": len(args[0].data)}
    if name == "templates.compile_template":
        return {"canonical": result.canonical.decode("latin-1")}
    if name == "pipeline.discover":
        return {"rounds": len(result.rounds)}
    if name == "extraction.extract_all":
        return {"records": len(result.records),
                "rows": sum(len(t.rows) for t in result.tables)}
    if name == "extraction.write_output":
        return {"bytes": sum(os.path.getsize(p) for p in result)}
    return {}


class Tracer:
    """Records spans around wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.file_id: str | None = None
        self.phase = "setup"  # "setup" | "timed" | "check"
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, rss: bool = False):
        """``fn`` with a span named ``name`` around each call; with ``rss``
        the span also records the growth of peak RSS across the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "file": self.file_id, "phase": self.phase}
            self.spans.append(span)
            self._stack.append(span["id"])
            rss_before = peak_rss_mb() if rss else 0.0
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if rss:
                span["rss_growth_MB"] = peak_rss_mb() - rss_before
            span.update(_note(name, args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding in ``BINDINGS`` (the modules must import)."""
        for module_name, attr, span_name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer figures for one pass over a workload's inputs.

    ``corpus.load_s`` is the set-up phase's load time (once per process);
    every other figure comes from the timed phase, summed over its rounds
    and divided by ``rounds``.
    """
    load_s = sum(s["end"] - s["start"] for s in spans
                 if s["name"] == "corpus.load" and s["phase"] == "setup")
    spans = [s for s in spans if s["phase"] == "timed"]
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    canonicals: set[tuple] = set()  # (file, canonical string) compiled
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        total[name] += dur
        count[name] += 1
        self_time[name.split(".", 1)[0]] += dur - child_time[s["id"]]
        for key in ("subsets", "candidates", "kept", "bytes", "rounds",
                    "records", "rows"):
            if key in s:
                sums[f"{name}.{key}"] += s[key]
        if "canonical" in s:
            canonicals.add((s["file"], s["canonical"]))
    first_rss = {}
    for s in spans:
        if "rss_growth_MB" in s and s["name"] not in first_rss:
            first_rss[s["name"]] = s["rss_growth_MB"]
    per = 1.0 / max(rounds, 1)
    compiles = count["templates.compile_template"]
    return {
        "corpus.load_s": load_s,
        "generation.search_s": total["generation.run_search"] * per,
        "generation.subsets": sums["generation.run_search.subsets"] * per,
        "generation.candidates": sums["generation.run_search.candidates"] * per,
        "pruning.prune_s": total["pruning.prune"] * per,
        "pruning.kept": sums["pruning.prune.kept"] * per,
        "scoring.score_s": total["scoring.score"] * per,
        "scoring.calls": count["scoring.score"] * per,
        "scoring.MB_parsed": sums["scoring.score.bytes"] / 1e6 * per,
        "scoring.parse_s": total["scoring.parse_with_template"] * per,
        "refinement.refine_s": total["refinement.refine"] * per,
        "refinement.shift_s": total["refinement.shift_structure"] * per,
        "refinement.self_s": self_time["refinement"] * per,
        "templates.compile_s": total["templates.compile_template"] * per,
        "templates.compiles": compiles * per,
        "templates.compiles_per_template":
            compiles * per / len(canonicals) if canonicals else 0.0,
        "pipeline.rounds": sums["pipeline.discover.rounds"] * per,
        "pipeline.self_s": self_time["pipeline"] * per,
        "extraction.extract_s": total["extraction.extract_all"] * per,
        "extraction.write_s": total["extraction.write_output"] * per,
        "extraction.records": sums["extraction.extract_all.records"] * per,
        "extraction.rows": sums["extraction.extract_all.rows"] * per,
        "extraction.MB_written": sums["extraction.write_output.bytes"] / 1e6 * per,
        "extraction.extract_rss_MB": first_rss.get("extraction.extract_all", 0.0),
        "extraction.write_rss_MB": first_rss.get("extraction.write_output", 0.0),
    }
