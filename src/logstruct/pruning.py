"""Candidate pruning by the coverage * non-field-coverage product.

Candidates arrive as canonical strings; pruning ranks them without building
a template tree, so only the survivors are ever parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generation import CandidateSet, CandidateStats


@dataclass(frozen=True)
class PruningConfig:
    top_m: int = 50

    def __post_init__(self):
        if self.top_m < 1:
            raise ValueError("top_m must be >= 1")


def assimilation_score(stats: CandidateStats) -> int:
    return stats.coverage * stats.non_field_coverage


def prune(cands: CandidateSet, cfg: PruningConfig | None = None
          ) -> list[tuple[bytes, CandidateStats]]:
    """Best min(M, K) ``(canonical, stats)`` pairs, score descending, ties by
    canonical string."""
    cfg = cfg or PruningConfig()
    ranked = sorted(
        cands.entries.items(),
        key=lambda kv: (-assimilation_score(kv[1]), kv[0]),
    )
    return ranked[: cfg.top_m]
