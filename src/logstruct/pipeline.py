"""End-to-end discovery: sample, search, prune, score, refine, iterate.

Each round mines one record type from the working text, removes the bytes it
explains, and repeats on the concatenated remainder.  A round's winner is
kept only when its description length beats the all-noise encoding of the
round text, so unstructured input yields an empty plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .corpus import Corpus, TextView, sample
from .generation import GenerationConfig, run_search
from .pruning import PruningConfig, prune
from .refinement import merged_arity_diagnostic, refine
from .scoring import (
    DEFAULT_MAX_SPAN_LINES,
    FieldType,
    ScoredTemplate,
    noise_only_dl,
    parse_with_template,
    score,
)
from .templates import (
    Node,
    canonical_string,
    compile_template,
    field_count,
    parse_canonical,
)

DEFAULT_SAMPLE_BUDGET = 8 << 20
DEFAULT_CHUNK_SIZE = 1 << 20


@dataclass(frozen=True)
class SamplingConfig:
    budget: int = DEFAULT_SAMPLE_BUDGET
    chunk_size: int = DEFAULT_CHUNK_SIZE
    seed: int = 0


@dataclass(frozen=True)
class PipelineConfig:
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    max_record_types: int = 8
    # Accepted for compatibility: discovery runs in one thread, and the value
    # never changes results.
    threads: int = 1


@dataclass
class RoundInfo:
    scored: ScoredTemplate
    coverage_pct: float
    subsets_enumerated: int


@dataclass
class ExtractionPlan:
    templates: list[ScoredTemplate]
    rounds: list[RoundInfo]
    residual_noise_fraction: float
    status: str  # "ok" | "no_structure"
    diagnostics: dict
    max_span_lines: int

    @property
    def template_nodes(self) -> list[Node]:
        return [s.template for s in self.templates]


def discover(corpus: Corpus, cfg: PipelineConfig | None = None) -> ExtractionPlan:
    cfg = cfg or PipelineConfig()
    view = sample(corpus, cfg.sampling.budget, cfg.sampling.chunk_size,
                  cfg.sampling.seed)
    text = view.text
    initial_len = len(text.data)
    L = cfg.generation.max_span_lines
    rounds: list[RoundInfo] = []
    diagnostics: dict = {}

    for _ in range(cfg.max_record_types):
        if not text.data:
            break
        result = run_search(text, cfg.generation)
        ranked = prune(result.candidates, cfg.pruning)
        if not ranked:
            break
        cache: dict[bytes, ScoredTemplate] = {}

        def scorer(node: Node) -> ScoredTemplate:
            key = canonical_string(node)
            hit = cache.get(key)
            if hit is None:
                hit = score(text, node, L)
                cache[key] = hit
            return hit

        refined = [refine(scorer(parse_canonical(key)), text, L, scorer)
                   for key, _ in ranked]
        # Equal description lengths happen when a constant separator can be
        # re-read as a one-value enumerated field; prefer the template that
        # keeps more bytes as structure (fewer placeholders).
        winner = min(refined,
                     key=lambda s: (s.total_dl, field_count(s.template), s.canonical))
        if winner.total_dl >= noise_only_dl(text) or winner.record_count == 0:
            break
        flagged = merged_arity_diagnostic(winner)
        if flagged:
            diagnostics.setdefault("merged_fixed_arity", []).append(
                {"round": len(rounds), "winner": winner.canonical.decode("latin-1"),
                 "subsumed": flagged})
        coverage_pct = 100.0 * winner.record_bytes / len(text.data)
        rounds.append(RoundInfo(winner, coverage_pct, result.subsets_enumerated))
        parse = parse_with_template(text, winner.template, L)
        residual = b"".join(text.data[s:e] for s, e in parse.noise_spans)
        text = TextView.from_bytes(residual)

    status = "ok" if rounds else "no_structure"
    residual_fraction = (len(text.data) / initial_len) if initial_len else 0.0
    return ExtractionPlan(
        templates=[r.scored for r in rounds],
        rounds=rounds,
        residual_noise_fraction=residual_fraction,
        status=status,
        diagnostics=diagnostics,
        max_span_lines=L,
    )


# ---------------------------------------------------------------------------
# Report serialization


def report(plan: ExtractionPlan) -> dict:
    """JSON-ready report document for an extraction plan."""
    rounds = []
    for r in plan.rounds:
        s = r.scored
        rounds.append({
            "template": s.canonical.decode("latin-1"),
            "total_dl": s.total_dl,
            "coverage_pct": round(r.coverage_pct, 4),
            "field_types": [t.to_json() for t in s.field_types],
            "record_count": s.record_count,
            "noise_bytes": s.noise_bytes,
            "block_count": s.block_count,
            "subsets_enumerated": r.subsets_enumerated,
        })
    return {
        "status": plan.status,
        "residual_noise_fraction": round(plan.residual_noise_fraction, 6),
        "max_span_lines": plan.max_span_lines,
        "rounds": rounds,
        "diagnostics": plan.diagnostics,
    }


def report_json(plan: ExtractionPlan) -> str:
    return json.dumps(report(plan), sort_keys=True, indent=2) + "\n"


def plan_from_report(doc: dict) -> ExtractionPlan:
    """Rebuild an applicable plan from a report; ``report`` of the result
    is the report again.

    The report may come from outside the program: a malformed one raises
    ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError("plan must be a JSON object")
    rounds_doc = doc.get("rounds", [])
    if not (isinstance(rounds_doc, list) and all(isinstance(r, dict) for r in rounds_doc)):
        raise ValueError("plan rounds must be a list of objects")
    max_span_lines = _figure(doc, "max_span_lines", DEFAULT_MAX_SPAN_LINES)
    if max_span_lines < 1:
        raise ValueError("plan max_span_lines must be an integer >= 1")
    templates = []
    rounds = []
    for r in rounds_doc:
        if not isinstance(r.get("template"), str):
            raise ValueError("every plan round needs a template string")
        node = parse_canonical(r["template"].encode("latin-1"))
        compile_template(node)  # admission check
        field_types = r.get("field_types", [])
        if not isinstance(field_types, list):
            raise ValueError("plan field_types must be a list")
        st = ScoredTemplate(
            template=node,
            canonical=canonical_string(node),
            total_dl=_figure(r, "total_dl", 0),
            field_types=[FieldType.from_json(t) for t in field_types],
            record_count=_figure(r, "record_count", 0),
            record_bytes=0,
            noise_bytes=_figure(r, "noise_bytes", 0),
            block_count=_figure(r, "block_count", 0),
        )
        templates.append(st)
        rounds.append(RoundInfo(st, _figure(r, "coverage_pct", 0.0, float),
                                _figure(r, "subsets_enumerated", 0)))
    status = doc.get("status", "ok" if templates else "no_structure")
    if status not in ("ok", "no_structure"):
        raise ValueError("plan status must be 'ok' or 'no_structure'")
    diagnostics = doc.get("diagnostics", {})
    if not isinstance(diagnostics, dict):
        raise ValueError("plan diagnostics must be an object")
    return ExtractionPlan(
        templates=templates,
        rounds=rounds,
        residual_noise_fraction=_figure(doc, "residual_noise_fraction", 0.0, float),
        status=status,
        diagnostics=diagnostics,
        max_span_lines=max_span_lines,
    )


def _figure(doc: dict, key: str, default, number=int):
    """``doc[key]`` (``default`` when absent), which must be an integer, or
    with ``number=float`` any JSON number."""
    value = doc.get(key, default)
    if type(value) not in (int, number):
        raise ValueError(f"plan {key} must be "
                         f"{'a number' if number is float else 'an integer'}")
    return value
