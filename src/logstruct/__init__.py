"""Unsupervised structure discovery and relational extraction for log files."""

__version__ = "0.1.0"

from .corpus import Corpus, CorpusError, SampleView, TextView, load, sample
from .extraction import RelationalOutput, Table, extract_all, write_output
from .generation import (
    CandidateSet,
    CandidateStats,
    GenerationConfig,
    SearchResult,
    exhaustive_search,
    greedy_search,
)
from .pipeline import ExtractionPlan, PipelineConfig, SamplingConfig, discover, report
from .pruning import PruningConfig, assimilation_score, prune
from .refinement import refine, shift_structure
from .scoring import (
    FieldType,
    ParseResult,
    ScoredTemplate,
    description_length,
    infer_field_types,
    parse_with_template,
    score,
)
from .synth import SynthSpec, apply_ops, generate, verify_success
from .templates import (
    Array,
    Field,
    Struct,
    canonical_string,
    parse_canonical,
)
