"""Structure refinement: array unfolding and structure shifting.

Unfolding rewrites an array node as a fixed-arity struct (full) or as a
fixed prefix plus an array suffix (partial), keeping a rewrite only when the
description length strictly improves.  Shifting picks, among all cyclic
line rotations of a multi-line template, the variant whose first successful
match occurs earliest in the text.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from .corpus import TextView
from .scoring import ScoredTemplate, scan_records, score
from .templates import (
    ARRAY,
    NEWLINE,
    Array,
    Field,
    Layout,
    Node,
    Struct,
    canonical_string,
    compile_template,
    layout,
    struct_of,
)

FULL_UNFOLD_MIN_SHARE = 0.90
TOP_ARITIES = 3

Scorer = Callable[[Node], ScoredTemplate]


def _replace_array(lay: Layout, target_idx: int, builder) -> Node:
    """Rebuild the template of ``lay`` with array ``target_idx`` rewritten."""
    parts: list[Node] = []
    for kind, index, node, body in lay.slots:
        if kind == ARRAY:
            node = Array(_replace_array(body, target_idx, builder), node.sep, node.term)
            if index == target_idx:
                node = builder(node)
        parts.append(node)
    return struct_of(parts)


def _full_unfold(a: Array, k: int) -> Node:
    parts: list[Node] = []
    for i in range(k):
        parts.append(a.body)
        parts.append(bytes([a.sep if i < k - 1 else a.term]))
    return struct_of(parts)


def _partial_unfold(a: Array, j: int) -> Node:
    parts: list[Node] = []
    for _ in range(j):
        parts.append(a.body)
        parts.append(bytes([a.sep]))
    parts.append(a)
    return struct_of(parts)


def unfold_proposals(st: Node, arity_counts: list[list[int]]) -> list[Node]:
    """Candidate rewrites for every array node, deterministic order."""
    proposals: list[Node] = []
    lay = layout(st)
    for idx in range(len(lay.arrays)):
        counts = arity_counts[idx] if idx < len(arity_counts) else []
        if not counts:
            continue
        total = len(counts)
        hist = Counter(counts)
        top = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_ARITIES]
        ks = sorted(k for k, c in top if c / total >= FULL_UNFOLD_MIN_SHARE)
        for k in ks:
            proposals.append(
                _replace_array(lay, idx, lambda a, k=k: _full_unfold(a, k))
            )
        min_arity = min(counts)
        for j in sorted({1, min_arity - 1}):
            if 1 <= j <= min_arity - 1:
                proposals.append(
                    _replace_array(lay, idx, lambda a, j=j: _partial_unfold(a, j))
                )
    out = []
    seen = set()
    for p in proposals:
        key = canonical_string(p)
        if key != canonical_string(st) and key not in seen:
            seen.add(key)
            out.append(p)
    return out


def unfold_arrays(st: Node, view: TextView, max_span_lines: int = 10,
                  scorer: Scorer | None = None) -> Node:
    """Accept improving unfoldings until none improves the score."""
    scorer = scorer or (lambda t: score(view, t, max_span_lines))
    return _unfold(scorer(st), scorer).template


def _unfold(current: ScoredTemplate, scorer: Scorer) -> ScoredTemplate:
    """Take the best strictly improving unfolding until there is none."""
    while True:
        proposals = unfold_proposals(current.template, current.arity_counts)
        best = None
        for p in proposals:
            s = scorer(p)
            if s.total_dl < current.total_dl:
                if best is None or (s.total_dl, s.canonical) < (best.total_dl, best.canonical):
                    best = s
        if best is None:
            return current
        current = best


# ---------------------------------------------------------------------------
# Structure shifting


def _line_groups(st: Node) -> list[list[Node]] | None:
    """Split top-level elements into per-line groups; None when the template
    does not have a fixed line structure (a newline inside an array)."""
    elems = st.children if isinstance(st, Struct) else (st,)
    groups: list[list[Node]] = [[]]
    for e in elems:
        if isinstance(e, bytes):
            start = 0
            for i, b in enumerate(e):
                if b == NEWLINE:
                    groups[-1].append(e[start : i + 1])
                    groups.append([])
                    start = i + 1
            if start < len(e):
                groups[-1].append(e[start:])
        elif isinstance(e, Array):
            if any(NEWLINE in (a.sep, a.term) or _has_newline(a.body)
                   for a in layout(e).arrays):
                if e.term == NEWLINE and not _has_newline(e.body) and e.sep != NEWLINE:
                    groups[-1].append(e)
                    groups.append([])
                else:
                    return None
            else:
                groups[-1].append(e)
        else:
            groups[-1].append(e)
    if groups and not groups[-1]:
        groups.pop()
    else:
        # template does not end on a line boundary; treat as single group
        return None
    return groups


def _has_newline(node: Node) -> bool:
    if isinstance(node, bytes):
        return NEWLINE in node
    if isinstance(node, Field):
        return False
    if isinstance(node, Array):
        return NEWLINE in (node.sep, node.term) or _has_newline(node.body)
    return any(_has_newline(c) for c in node.children)


def rotations(st: Node) -> list[Node]:
    """All cyclic line rotations, the identity first."""
    groups = _line_groups(st)
    if not groups or len(groups) < 2:
        return [st]
    out = []
    for r in range(len(groups)):
        rotated = groups[r:] + groups[:r]
        out.append(struct_of([e for g in rotated for e in g]))
    return out


def shift_structure(st: Node, view: TextView, max_span_lines: int = 10) -> Node:
    """Pick the rotation with the earliest first match; ties by canonical."""
    variants = rotations(st)
    if len(variants) == 1:
        return st
    best = None
    for v in variants:
        compiled = compile_template(v)
        record = next(scan_records(view, [compiled], max_span_lines), None)
        if record is None:
            continue
        key = (record[1], compiled.canonical)  # the record's first line
        if best is None or key < best[0]:
            best = (key, v)
    return st if best is None else best[1]


def refine(scored: ScoredTemplate, view: TextView, max_span_lines: int = 10,
           scorer: Scorer | None = None) -> ScoredTemplate:
    """Unfold to a fixed point, then shift once."""
    scorer = scorer or (lambda t: score(view, t, max_span_lines))
    current = _unfold(scored, scorer)
    shifted = shift_structure(current.template, view, max_span_lines)
    if canonical_string(shifted) != current.canonical:
        current = scorer(shifted)
    return current
