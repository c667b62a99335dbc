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
when their line templates are equal.  These groups are what
``MAX_KEYS_PER_WINDOW`` selects from.  Each distinct line template is reduced
once per charset through the search's symbol pool (``templates._SymbolPool``,
``reduce_line``), and the groups are ranked again, the same way, by the ids
of their reduced lines.

The fold rule.  A span's key is the reduction of the string of its lines'
reduced symbols (``reduce_span``).  Reduction changes a string exactly when
the string holds a run window ``U x U x U y``: a unit ``U`` of at most
``MAX_UNIT_BYTES`` canonical bytes, and literal symbols ``x`` and ``y`` with
``y != x``.  A run that reduction folds, ``(U x){k} U y`` with ``k >= 2``,
ends in such a window, and such a window is a run.  Every line is reduced
already, and reduction stops only when no run is left, so no window lies
inside one line: each one holds the newline of a line end before its last
symbol.  So for each ``d = |U| + 1`` from 2 to ``MAX_UNIT_BYTES + 1`` the
windows are found once over the stream of every line's reduced symbols, and
a span folds exactly when it contains one, that is when the earliest last
line of the windows that start in its first line or later is no later than
its last line.  A window's first ``3d - 1`` symbols have period ``d`` and
hold that newline, so they hold two newlines ``d`` apart: only the ``d``
that are the length of some run of whole lines are scanned.  Only the spans
that fold are reduced.

A span that does not fold is its own key: the canonical bytes of its reduced
lines, one after another.  The canonical bytes of a reduced line hold one
newline, their last byte, so two such spans share a key exactly when their
reduced lines are equal; they are grouped by the second ranking, without
building any bytes.  No such key is ever a folded key.  The window that
folded held a newline in ``U`` or ``x``, so the array it became, and any
array that later takes that array in, has a newline in its body or
separator, which no array inside one line has.

The byte bound.  A key's coverage is the byte length of the union of its
spans, so it is at most their summed bytes (plus one for a missing final
newline).  A key whose sum is below the coverage threshold is dropped before
its bytes are built (a span that does not fold) or before the union (a
folded span).  The spans of a key that does not fold all have one length, so
those keys are unioned once per length; the folded keys left are unioned in
one pass at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TextView
from .scoring import DEFAULT_MAX_SPAN_LINES
from .templates import (
    _ARRAY_SYM_FIRST,
    ENUMERABLE_CANDIDATE_BYTES,
    FIELD_BYTE,
    MAX_UNIT_BYTES,
    NEWLINE,
    _SymbolPool,
)

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


def _fold_ends(line_syms: list[str], pool: _SymbolPool) -> np.ndarray:
    """For each line, the earliest last line of the run windows that start in
    it or later (the line count where there is none): the span of lines
    ``s..t`` folds exactly when the value at ``s`` is at most ``t``."""
    n = len(line_syms)
    line_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, line_syms), dtype=np.int64, count=n),
              out=line_start[1:])
    # d is the length of some run of whole lines (see the module docstring).
    max_d = MAX_UNIT_BYTES + 1
    feasible = np.zeros(max_d + 1, dtype=bool)
    for k in range(1, n + 1):
        lens = line_start[k:] - line_start[:-k]
        lens = lens[lens <= max_d]
        if not len(lens):
            break
        feasible[lens] = True
    codes = np.frombuffer("".join(line_syms).encode("utf-32-le"), dtype=np.int32)
    first_array = ord(_ARRAY_SYM_FIRST)
    literal = (codes != FIELD_BYTE) & (codes < first_array)
    bytes_before = np.zeros(len(codes) + 1, dtype=np.int32)
    np.cumsum(np.asarray(pool.byte_lens(), dtype=np.int32)[
        np.where(codes < first_array, codes, codes - first_array + 256)],
        out=bytes_before[1:])
    last_line = np.full(n, n, dtype=np.int64)
    m = len(codes)
    for d in (np.flatnonzero(feasible[2 : m // 3 + 1]) + 2).tolist():
        # A window starting at p: codes[p : p + 3d - 1] has period d, and
        # y = codes[p + 3d - 1] differs from x = codes[p + 2d - 1].
        eq = codes[:-d] == codes[d:]
        eq_before = np.zeros(len(eq) + 1, dtype=np.int32)
        np.cumsum(eq, out=eq_before[1:])
        p = np.flatnonzero((eq_before[2 * d - 1 : m - d] - eq_before[: m - 3 * d + 1]
                            == 2 * d - 1) & ~eq[2 * d - 1 :])
        if not len(p):
            continue
        p = p[literal[p + d - 1] & literal[p + 3 * d - 1]
              & (bytes_before[p + d - 1] - bytes_before[p] <= MAX_UNIT_BYTES)]
        np.minimum.at(last_line, np.searchsorted(line_start, p, "right") - 1,
                      np.searchsorted(line_start, p + 3 * d - 1, "right") - 1)
    return np.minimum.accumulate(last_line[::-1])[::-1]


def _coverage(spans: list, offs: np.ndarray, line_maskp: np.ndarray, eof: int):
    """``(keys, coverage, non-field coverage)``: for each key, the bytes and
    the formatting bytes of the union of its spans.  ``spans`` holds pairs
    ``(key * (n + 1) + start line, w)``: the offset puts the spans of every
    key in one sorted run."""
    n1 = len(offs)
    s = np.concatenate([p for p, _ in spans])
    if not len(s):
        return s, s, s
    e = np.concatenate([p + w for p, w in spans])
    order = np.argsort(s)
    s = s[order]
    e = e[order]
    del order
    np.maximum.accumulate(e, out=e)
    seg_idx = np.flatnonzero(np.concatenate(([True], s[1:] > e[:-1])))
    seg_key, seg_start = np.divmod(s[seg_idx], n1)
    seg_end = e[np.append(seg_idx[1:], len(e)) - 1] - seg_key * n1
    at_eof = eof * (seg_end == n1 - 1)
    key_idx = np.flatnonzero(np.concatenate(([True], seg_key[1:] != seg_key[:-1])))
    cov = np.add.reduceat(offs[seg_end] - offs[seg_start] + at_eof, key_idx)
    nfc = np.add.reduceat(line_maskp[seg_end] - line_maskp[seg_start] + at_eof, key_idx)
    return seg_key[key_idx], cov, nfc


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
    rids = {r: i for i, r in enumerate(dict.fromkeys(reduced))}
    rline_id = np.array([rids[r] for r in reduced], dtype=np.int64)[line_id]
    line_syms = [reduced[i] for i in line_id.tolist()]
    fold_end = _fold_ends(line_syms, pool)
    has_field = np.array([FIELD_BYTE in t for t in ids])[line_id]
    hasFp = np.concatenate(([0], np.cumsum(has_field)))

    offs = ctx.offsets
    # Formatting bytes before each line start, counted per line: a prefix sum
    # over every byte would hold 8 bytes per input byte.
    line_maskp = np.concatenate(
        ([0], np.cumsum(np.add.reduceat(mask, offs[:-1], dtype=np.int64))))
    threshold = cfg.alpha * len(ctx.view.data) / 100.0
    eof = int(ctx.missing_newline)  # the newline added to the last line
    n1 = n + 1

    # Coverage of a bin is the byte length of the union of all its spans:
    # every enumerated span contributes, but overlap (multi-record merges,
    # window chains) is not double counted, otherwise merged templates would
    # be ranked above the record template itself.
    def add(spans, keys):
        for k, c, f in zip(*(a.tolist() for a in _coverage(
                spans, offs, line_maskp, eof))):
            if c >= threshold:
                out.entries[keys[k]] = CandidateStats(c, f)

    folded: dict[bytes, int] = {}  # folded key -> its number
    folded_bytes: list[int] = []  # summed span bytes of each folded key
    folded_spans = []  # (key * n1 + start line, w) of folded spans

    # span_key[i] == span_key[j] exactly when spans i and j of w lines have
    # equal line templates; rank[g] == rank[h] exactly when groups g and h
    # have equal reduced lines.
    span_key = line_id
    for w in range(1, min(cfg.max_span_lines, n) + 1):
        if w > 1:
            # gid < n - w + 2 and line ids < n, so the pair fits in int64;
            # so does the pair of a group's rank and its last reduced line.
            span_key = gid[: n - w + 1] * len(ids) + line_id[w - 1 :]
        starts_sorted = np.argsort(span_key, kind="stable")
        ks = span_key[starts_sorted]
        first = np.concatenate(([True], ks[1:] != ks[:-1]))
        group_of = np.cumsum(first) - 1  # the group of each sorted span
        bounds = np.flatnonzero(first)
        heads = starts_sorted[bounds]  # each group's first start line
        rkey = (rline_id[heads] if w == 1
                else rank[gid[heads]] * len(rids) + rline_id[heads + w - 1])
        rank = np.unique(rkey, return_inverse=True)[1]
        gid = np.empty_like(starts_sorted)
        gid[starts_sorted] = group_of  # the rank of span_key[i]
        counts = np.diff(np.concatenate((bounds, [len(ks)])))
        group_bytes = np.add.reduceat((offs[w:] - offs[: n - w + 1])[starts_sorted],
                                      bounds)
        # The spans of a group all hold a field, or none does.
        valid = (hasFp[w:] - hasFp[: n - w + 1]) > 0
        sel = np.flatnonzero(valid[heads])
        if len(sel) > MAX_KEYS_PER_WINDOW:
            # Too many distinct keys (noise flood): take the
            # MAX_KEYS_PER_WINDOW groups with the most spans, ties by first
            # start line.
            by_count = np.lexsort((heads[sel], -counts[sel]))
            sel = sel[np.sort(by_count[:MAX_KEYS_PER_WINDOW])]
        folds = fold_end[heads[sel]] < heads[sel] + w

        # Groups that do not fold: one key per class of equal reduced lines,
        # complete within this w.
        plain = sel[~folds]
        _, head_at, cls_of = np.unique(rank[plain], return_index=True,
                                       return_inverse=True)
        cls_bytes = np.bincount(cls_of, weights=group_bytes[plain])
        cls_key = np.full(len(head_at), -1, dtype=np.int64)
        keys = []
        for c in np.flatnonzero(cls_bytes + eof >= threshold).tolist():
            h = int(heads[plain[head_at[c]]])
            cls_key[c] = len(keys)
            keys.append(pool.canonical_of("".join(line_syms[h : h + w])))
        key_of = np.full(len(bounds), -1, dtype=np.int64)  # per group
        key_of[plain] = cls_key[cls_of]
        key = key_of[group_of]
        taken = key >= 0
        add([(key[taken] * n1 + starts_sorted[taken], w)], keys)

        # Groups that fold: one reduction each.
        key_of[:] = -1
        for g in sel[folds].tolist():
            h = int(heads[g])
            key = pool.reduce_span(line_syms[h : h + w])
            k = folded.get(key)
            if k is None:
                k = folded[key] = len(folded_bytes)
                folded_bytes.append(0)
            folded_bytes[k] += int(group_bytes[g])
            key_of[g] = k
        key = key_of[group_of]
        taken = key >= 0
        folded_spans.append((key[taken] * n1 + starts_sorted[taken], w))

    reach = np.array(folded_bytes, dtype=np.int64) + eof >= threshold
    folded_spans = [(p[reach[p // n1]], w) for p, w in folded_spans]
    add(folded_spans, list(folded))
    return out


def exhaustive_search(view: TextView, cfg: GenerationConfig | None = None) -> SearchResult:
    """Union of the candidates of every subset of the present specials."""
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
