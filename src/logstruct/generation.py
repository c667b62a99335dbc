"""Candidate template generation.

Every pair of line boundaries at most ``max_span_lines`` apart is treated as
a potential record; its record template is extracted under the active
formatting charset, reduced to a minimal structure template, and accumulated
into a hash table keyed by canonical string.  Bins below the coverage
threshold are discarded.  Candidates stay canonical strings: no template
tree is built here, only for the few that pruning keeps.

The scan is vectorized: per-line template hashes are computed with a rolling
polynomial hash over the whole buffer, spans are grouped by window hashes,
and reduction runs once per distinct line-sequence group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TextView
from .templates import (
    ENUMERABLE_CANDIDATE_BYTES,
    FIELD_BYTE,
    NEWLINE,
    _RUN_RX,
    _SymbolPool,
    reduce_elements,
    reduce_line,
)

_B = np.uint64(1099511628211)  # FNV prime, odd so it is invertible mod 2^64
_BINV = np.uint64(pow(1099511628211, -1, 2**64))
_C = np.uint64(0x9E3779B97F4A7C15 | 1)


MAX_CHARSET_SIZE = 16  # exhaustive-search guard on 2^c blowup
MAX_KEYS_PER_WINDOW = 65536  # scalability cap on distinct span keys


class SearchSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    alpha: float = 10.0  # minimum coverage, percent of sampled bytes
    max_span_lines: int = 10
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
        self.offsets = view.offsets.astype(np.int64)
        self.n = view.n_lines
        self.missing_newline = len(view.data) > 0 and view.data[-1] != NEWLINE
        size = len(view.data) + 2
        base = np.full(size, _B, dtype=np.uint64)
        base[0] = 1
        self.powB = np.cumprod(base)
        inv = np.full(size, _BINV, dtype=np.uint64)
        inv[0] = 1
        self.ipowB = np.cumprod(inv)
        present = np.unique(self.arr)
        self.present_specials = tuple(
            int(b) for b in present if int(b) in ENUMERABLE_CANDIDATE_BYTES
        )
        self.reduce_memo: dict[bytes, bytes] = {}
        self.line_memo: dict[bytes, tuple] = {}
        self.symbol_pool = _SymbolPool()

    def reduce_span(self, tpl: bytes) -> bytes:
        """Canonical string of the span template's reduction (memoized)."""
        hit = self.reduce_memo.get(tpl)
        if hit is not None:
            return hit
        pool = self.symbol_pool
        parts = []
        syms_parts = []
        for raw in tpl.split(b"\n")[:-1]:
            line = raw + b"\n"
            cached = self.line_memo.get(line)
            if cached is None:
                seq, syms = reduce_line(line, pool)
                cached = (seq, syms, "".join(syms), pool.canonical_of("".join(syms)))
                self.line_memo[line] = cached
            parts.append(cached)
            syms_parts.append(cached[2])
        joined = "".join(syms_parts)
        if len(parts) == 1 or _RUN_RX.search(joined) is None:
            key = b"".join(p[3] for p in parts)
        else:
            _, syms = reduce_elements([(p[0], p[1]) for p in parts], pool)
            key = pool.canonical_of("".join(syms))
        self.reduce_memo[tpl] = key
        return key


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

    # Per-position template bytes: charset bytes verbatim, first byte of each
    # field run becomes the placeholder.
    keep_field_start = np.empty_like(mask)
    keep_field_start[0] = True
    keep_field_start[1:] = mask[:-1]
    sel = mask | (~mask & keep_field_start)
    out_bytes = np.where(mask, ctx.arr, np.uint8(FIELD_BYTE))
    tb = out_bytes[sel]
    sel_cum = np.concatenate(([0], np.cumsum(sel)))
    tstarts = sel_cum[ctx.offsets]

    # Rolling hash of each line's template via prefix sums.
    contrib = tb.astype(np.uint64) * ctx.ipowB[: len(tb)]
    S = np.concatenate((np.zeros(1, dtype=np.uint64), np.cumsum(contrib)))
    ends = tstarts[1:]
    starts = tstarts[:-1]
    hline = (S[ends] - S[starts]) * ctx.powB[ends - 1]
    if ctx.missing_newline:
        hline = hline.copy()
        fixed = (int(hline[-1]) * int(_B) + NEWLINE) & 0xFFFFFFFFFFFFFFFF
        hline[-1] = np.uint64(fixed)

    maskp = np.concatenate(([0], np.cumsum(mask)))
    offs = ctx.offsets
    line_len = offs[1:] - offs[:-1]
    line_charset = maskp[offs[1:]] - maskp[offs[:-1]]
    hasF = (line_len - line_charset) > 0
    hasFp = np.concatenate(([0], np.cumsum(hasF)))

    threshold = cfg.alpha * len(ctx.view.data) / 100.0
    bins: dict[bytes, list] = {}  # key -> [(w, span start lines)]

    h = None
    for w in range(1, min(cfg.max_span_lines, n) + 1):
        if w == 1:
            h = hline.copy()
        else:
            h = h[: n - w + 1] * _C + hline[w - 1 :]
        valid = (hasFp[w:] - hasFp[: n - w + 1]) > 0
        idx = np.flatnonzero(valid)
        if idx.size == 0:
            continue
        hv = h[idx]
        order = np.argsort(hv, kind="stable")
        hs = hv[order]
        bounds = np.flatnonzero(np.concatenate(([True], hs[1:] != hs[:-1])))
        counts = np.diff(np.concatenate((bounds, [len(hs)])))
        n_groups = len(bounds)
        starts_sorted = idx[order]

        if n_groups <= MAX_KEYS_PER_WINDOW:
            proc = range(n_groups)
        else:
            # Too many distinct keys (noise flood): take groups by span count
            # until the remaining mass cannot form a threshold-passing bin.
            approx = counts.astype(np.int64) * w
            by_mass = np.lexsort((bounds, -approx))
            remaining = int(offs[-1]) * w
            chosen = []
            for g in by_mass:
                if len(chosen) >= MAX_KEYS_PER_WINDOW or remaining < threshold:
                    break
                chosen.append(int(g))
                remaining -= int(approx[g])
            chosen.sort()
            proc = chosen

        for g in proc:
            b0 = bounds[g]
            first_line = int(starts_sorted[b0])
            t0 = tstarts[first_line]
            t1 = tstarts[first_line + w]
            tpl = tb[t0:t1].tobytes()
            if ctx.missing_newline and first_line + w == n:
                tpl += b"\n"
            key = ctx.reduce_span(tpl)
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
        nfc = int((maskp[offs[seg_end]] - maskp[offs[seg_start]]).sum())
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
