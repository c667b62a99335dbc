"""Structure refinement: array unfolding and structure shifting.

Unfolding rewrites an array node as a fixed-arity struct (full) or as a
fixed prefix plus an array suffix (partial), keeping a rewrite only when the
description length strictly improves.  Shifting picks, among all cyclic
line rotations of a multi-line template, the variant whose first record
starts earliest in the text, on a tie the lower canonical string; a rotation
is searched only up to the best first line found so far.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from .corpus import TextView
from .scoring import DEFAULT_MAX_SPAN_LINES, ScoredTemplate, _next_record, score
from .templates import (
    ARRAY,
    NEWLINE,
    Array,
    Layout,
    Node,
    Struct,
    canonical_string,
    compile_template,
    layout,
    struct_of,
)

FULL_UNFOLD_MIN_SHARE = 0.90
MERGE_MODE_SHARE = 0.25

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


def _arity_shares(lay: Layout, arity_counts: list[list[int]]):
    """``(array number, {arity: share of the array's instances})`` of each
    array of ``lay`` that has an instance."""
    for idx in range(len(lay.arrays)):
        counts = arity_counts[idx] if idx < len(arity_counts) else []
        if counts:
            yield idx, {k: c / len(counts) for k, c in Counter(counts).items()}


def unfold_proposals(st: Node, arity_counts: list[list[int]]) -> list[Node]:
    """Candidate rewrites for every array node, deterministic order.

    An array is fully unfolded at the arity of at least
    FULL_UNFOLD_MIN_SHARE of its instances; as the shares sum to 1, there
    is at most one."""
    proposals: list[Node] = []
    lay = layout(st)
    for idx, shares in _arity_shares(lay, arity_counts):
        for k, share in shares.items():
            if share >= FULL_UNFOLD_MIN_SHARE:
                proposals.append(
                    _replace_array(lay, idx, lambda a, k=k: _full_unfold(a, k))
                )
        min_arity = min(shares)
        for j in sorted({1, min_arity - 1}):
            if 1 <= j <= min_arity - 1:
                proposals.append(
                    _replace_array(lay, idx, lambda a, j=j: _partial_unfold(a, j))
                )
    out = []
    seen = {canonical_string(st)}
    for p in proposals:
        key = canonical_string(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def merged_arity_diagnostic(winner: ScoredTemplate) -> list[str]:
    """Fixed-arity templates an array-type winner may have absorbed.

    When an array's repetition histogram concentrates on two or more distinct
    arities, the winner likely merged interleaved fixed-arity record types
    that cannot be told apart by the score; the flag lists the fixed-arity
    forms it subsumes (diagnostic only, the merge is a known failure mode).
    """
    lay = layout(winner.template)
    for idx, shares in _arity_shares(lay, winner.arity_counts):
        modes = sorted(k for k, share in shares.items() if share >= MERGE_MODE_SHARE)
        if len(modes) >= 2:
            subsumed = []
            for k in modes:
                node = _replace_array(lay, idx, lambda a, k=k: _full_unfold(a, k))
                subsumed.append(canonical_string(node).decode("latin-1"))
            return subsumed
    return []


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
            # charset: every literal byte, separator and terminator inside
            if NEWLINE not in layout(e).charset:
                groups[-1].append(e)
            elif (e.term == NEWLINE and e.sep != NEWLINE
                  and NEWLINE not in layout(e.body).charset):
                groups[-1].append(e)
                groups.append([])
            else:
                return None
        else:
            groups[-1].append(e)
    if groups and not groups[-1]:
        groups.pop()
    else:
        # template does not end on a line boundary; treat as single group
        return None
    return groups


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


def shift_structure(st: Node, view: TextView,
                    max_span_lines: int = DEFAULT_MAX_SPAN_LINES) -> Node:
    """Pick the rotation with the earliest first record; ties by canonical.

    The identity is searched first; each further rotation only up to the
    best first line found so far, as a later record cannot win."""
    variants = rotations(st)
    if len(variants) == 1 or max_span_lines < 1:
        return st
    best = None
    for v in variants:
        compiled = compile_template(v)
        hit = _next_record(compiled.rx, view, 0, max_span_lines,
                           None if best is None else best[0][0])
        if hit is None:
            continue
        key = (hit[0], compiled.canonical)  # the record's first line
        if best is None or key < best[0]:
            best = (key, v)
    return st if best is None else best[1]


def refine(scored: ScoredTemplate, view: TextView,
           max_span_lines: int = DEFAULT_MAX_SPAN_LINES,
           scorer: Scorer | None = None) -> ScoredTemplate:
    """Unfold to a fixed point, then shift once."""
    scorer = scorer or (lambda t: score(view, t, max_span_lines))
    current = _unfold(scored, scorer)
    shifted = shift_structure(current.template, view, max_span_lines)
    if canonical_string(shifted) != current.canonical:
        current = scorer(shifted)
    return current
