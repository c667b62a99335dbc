"""Candidate template generation.

Every pair of line boundaries at most ``max_span_lines`` apart is treated as
a potential record; its record template is extracted under the active
formatting charset, reduced to a minimal structure template, and accumulated
into a table keyed by canonical string.  Bins below the coverage threshold
are discarded.  Candidates stay canonical strings: no template tree is built
here, only for the few that pruning keeps.

Spans are grouped exactly.  Each distinct line template of a charset gets an
id; the spans of ``w`` lines are ranked by the pair (rank of their first
``w - 1`` lines, id of their last line), so two spans share a group exactly
when their line templates are equal.  Reduction goes through the search's
symbol pool (``templates._SymbolPool``): each distinct line template is
reduced once per charset (``reduce_line``), and the key of a group is the
reduction of its first span from its lines' symbols (``reduce_span``), which
the pool computes once per search for each sequence of reduced lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TextView
from .scoring import DEFAULT_MAX_SPAN_LINES
from .templates import ENUMERABLE_CANDIDATE_BYTES, FIELD_BYTE, NEWLINE, _SymbolPool

MAX_CHARSET_SIZE = 16  # exhaustive-search guard on 2^c blowup
MAX_KEYS_PER_WINDOW = 65536  # scalability cap on distinct span keys


class SearchSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    alpha: float = 10.0  # minimum coverage, percent of sampled bytes
    max_span_lines: int = DEFAULT_MAX_SPAN_LINES
    search_mode: str = "greedy"  # "greedy" | "exhaustive"

    def __post_init__(self):
        if not (0 < self.alpha <= 100):
            raise ValueError("alpha must be in (0, 100]")
        if self.max_span_lines < 1:
            raise ValueError("max_span_lines must be >= 1")
        if self.search_mode not in ("greedy", "exhaustive"):
            raise ValueError("search_mode must be 'greedy' or 'exhaustive'")


@dataclass
class CandidateStats:
    coverage: int
    non_field_coverage: int


@dataclass
class CandidateSet:
    """Canonical string -> stats; merge keeps the best-covered sighting of
    each template so unions are order independent."""

    entries: dict[bytes, CandidateStats] = field(default_factory=dict)

    def union(self, other: "CandidateSet") -> None:
        for key, stats in other.entries.items():
            mine = self.entries.get(key)
            if mine is None or ((stats.coverage, stats.non_field_coverage)
                                > (mine.coverage, mine.non_field_coverage)):
                self.entries[key] = stats

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class SearchResult:
    candidates: CandidateSet
    subsets_enumerated: int
    final_charset: frozenset[int] = frozenset()


class _GenContext:
    """Per-view precomputation shared across charset subsets."""

    def __init__(self, view: TextView):
        self.view = view
        self.arr = view.np_bytes
        self.offsets = view.offsets
        self.n = view.n_lines
        self.missing_newline = len(view.data) > 0 and view.data[-1] != NEWLINE
        present = np.unique(self.arr)
        self.present_specials = tuple(
            int(b) for b in present if int(b) in ENUMERABLE_CANDIDATE_BYTES
        )
        # Reduces the lines and spans of every charset, each one once.
        self.symbol_pool = _SymbolPool()


def _gen_one(ctx: _GenContext, charset: frozenset[int],
             cfg: GenerationConfig) -> CandidateSet:
    out = CandidateSet()
    n = ctx.n
    if n == 0:
        return out
    table = np.zeros(256, dtype=bool)
    table[list(charset)] = True
    table[NEWLINE] = True
    mask = table[ctx.arr]

    # Template text: charset bytes verbatim, the first byte of each field run
    # becomes the placeholder; the last line gets its missing newline.
    field_start = np.empty_like(mask)
    field_start[0] = True
    field_start[1:] = mask[:-1]
    tb = np.where(mask, ctx.arr, np.uint8(FIELD_BYTE))[mask | field_start].tobytes()
    lines = (tb + b"\n" if ctx.missing_newline else tb).split(b"\n")[:-1]
    ids = {t: i for i, t in enumerate(dict.fromkeys(lines))}
    line_id = np.fromiter(map(ids.__getitem__, lines), dtype=np.int64, count=n)
    pool = ctx.symbol_pool
    reduced = [pool.reduce_line(t + b"\n") for t in ids]
    line_syms = [reduced[i] for i in line_id.tolist()]
    has_field = np.array([FIELD_BYTE in t for t in ids])[line_id]
    hasFp = np.concatenate(([0], np.cumsum(has_field)))

    offs = ctx.offsets
    # Formatting bytes before each line start, counted per line: a prefix sum
    # over every byte would hold 8 bytes per input byte.
    line_maskp = np.concatenate(
        ([0], np.cumsum(np.add.reduceat(mask, offs[:-1], dtype=np.int64))))
    threshold = cfg.alpha * len(ctx.view.data) / 100.0
    bins: dict[bytes, list] = {}  # key -> [(w, span start lines)]

    # span_key[i] == span_key[j] exactly when spans i and j of w lines have
    # equal line templates.
    span_key = line_id
    for w in range(1, min(cfg.max_span_lines, n) + 1):
        if w > 1:
            # gid < n - w + 2 and line ids < n, so the pair fits in int64.
            span_key = gid[: n - w + 1] * len(ids) + line_id[w - 1 :]
        starts_sorted = np.argsort(span_key, kind="stable")
        ks = span_key[starts_sorted]
        first = np.concatenate(([True], ks[1:] != ks[:-1]))
        gid = np.empty_like(starts_sorted)
        gid[starts_sorted] = np.cumsum(first) - 1  # the rank of span_key[i]
        bounds = np.flatnonzero(first)
        counts = np.diff(np.concatenate((bounds, [len(ks)])))
        # The spans of a group all hold a field, or none does.
        valid = (hasFp[w:] - hasFp[: n - w + 1]) > 0
        keep = valid[starts_sorted[bounds]]
        bounds, counts = bounds[keep], counts[keep]
        n_groups = len(bounds)

        if n_groups <= MAX_KEYS_PER_WINDOW:
            proc = range(n_groups)
        else:
            # Too many distinct keys (noise flood): take the
            # MAX_KEYS_PER_WINDOW groups with the most spans, ties by first
            # start line.
            by_count = np.lexsort((starts_sorted[bounds], -counts))
            proc = np.sort(by_count[:MAX_KEYS_PER_WINDOW])

        for g in proc:
            b0 = bounds[g]
            first_line = int(starts_sorted[b0])
            key = pool.reduce_span(line_syms[first_line : first_line + w])
            bins.setdefault(key, []).append(
                (w, starts_sorted[b0 : b0 + int(counts[g])].copy()))

    # Coverage of a bin is the byte length of the union of all its spans:
    # every enumerated span contributes, but overlap (multi-record merges,
    # window chains) is not double counted, otherwise merged templates would
    # be ranked above the record template itself.
    for key, groups in bins.items():
        starts = np.concatenate([s for _, s in groups])
        ends = np.concatenate([s + w for w, s in groups])
        order = np.argsort(starts, kind="stable")
        s_arr = starts[order]
        e_arr = np.maximum.accumulate(ends[order])
        newseg = np.empty(len(s_arr), dtype=bool)
        newseg[0] = True
        newseg[1:] = s_arr[1:] > e_arr[:-1]
        seg_idx = np.flatnonzero(newseg)
        seg_start = s_arr[seg_idx]
        seg_end = np.maximum.reduceat(e_arr, seg_idx)
        cov = int((offs[seg_end] - offs[seg_start]).sum())
        nfc = int((line_maskp[seg_end] - line_maskp[seg_start]).sum())
        if ctx.missing_newline and seg_end[-1] == n:
            cov += 1
            nfc += 1
        if cov >= threshold:
            out.entries[key] = CandidateStats(cov, nfc)
    return out


def gen_for_charset(view: TextView, charset: frozenset[int],
                    cfg: GenerationConfig | None = None) -> CandidateSet:
    """Accumulate candidates for one formatting charset ('\\n' is implied)."""
    cfg = cfg or GenerationConfig()
    ctx = _GenContext(view)
    return _gen_one(ctx, frozenset(charset), cfg)


def exhaustive_search(view: TextView, cfg: GenerationConfig | None = None) -> SearchResult:
    """Union of gen_for_charset over every subset of the present specials."""
    cfg = cfg or GenerationConfig()
    ctx = _GenContext(view)
    present = ctx.present_specials
    c = len(present)
    if c > MAX_CHARSET_SIZE:
        raise SearchSpaceError(
            f"{c} candidate special characters present; exhaustive search "
            f"enumerates 2^{c} subsets. Use greedy search instead."
        )
    merged = CandidateSet()
    count = 0
    for bits in range(1 << c):
        subset = frozenset(present[i] for i in range(c) if bits >> i & 1)
        merged.union(_gen_one(ctx, subset, cfg))
        count += 1
    return SearchResult(merged, count, frozenset(present))


def greedy_search(view: TextView, cfg: GenerationConfig | None = None) -> SearchResult:
    """Grow the charset one character at a time, keeping the addition whose
    best candidate has the highest coverage * non-field-coverage product."""
    cfg = cfg or GenerationConfig()
    ctx = _GenContext(view)
    merged = CandidateSet()
    merged.union(_gen_one(ctx, frozenset(), cfg))
    count = 1
    current: set[int] = set()
    remaining = list(ctx.present_specials)
    while remaining:
        best_g = -1
        best_char = None
        for ch in remaining:
            cs = _gen_one(ctx, frozenset(current | {ch}), cfg)
            count += 1
            merged.union(cs)
            g = -1
            for stats in cs.entries.values():
                g = max(g, stats.coverage * stats.non_field_coverage)
            if g > best_g:
                best_g = g
                best_char = ch
        if best_char is None or best_g < 0:
            break
        current.add(best_char)
        remaining.remove(best_char)
    return SearchResult(merged, count, frozenset(current))


def run_search(view: TextView, cfg: GenerationConfig | None = None) -> SearchResult:
    cfg = cfg or GenerationConfig()
    if cfg.search_mode == "exhaustive":
        return exhaustive_search(view, cfg)
    return greedy_search(view, cfg)
