"""Reference implementations that tests compare the package against.

``extract_record_template`` is the byte-at-a-time record template extraction
that the vectorized candidate search reproduces, and ``matches`` decides
whether a record template is in a structure template's language.
``reduce_to_structure_template`` and ``reduce_node`` give the reductions of
the package's symbol pool as trees.  ``match_at`` reads one match of a
compiled template at a given position, outside the record scan.
``gen_one_reference`` is the candidate generation the package's
``generation._gen_one`` reproduces: it reduces the first span of every group
and takes the union of every key's spans one key at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from logstruct import generation
from logstruct.generation import CandidateSet, CandidateStats, GenerationConfig
from logstruct.templates import (
    FIELD_BYTE,
    NEWLINE,
    CompiledTemplate,
    Field,
    Node,
    Struct,
    TemplateError,
    _reduce_seq,
    _SymbolPool,
    parse_canonical,
)


@dataclass(frozen=True)
class RecordTemplate:
    """Extraction result: template text plus the replaced field byte total."""

    text: bytes
    field_bytes: int

    @property
    def valid(self) -> bool:
        # A record template must contain at least one placeholder.
        return FIELD_BYTE in self.text


def extract_record_template(record: bytes, charset: frozenset[int]) -> RecordTemplate:
    """Replace each maximal run of non-charset bytes with one placeholder."""
    if not record:
        raise TemplateError("empty record")
    out = bytearray()
    field_bytes = 0
    in_field = False
    for b in record:
        if b in charset:
            out.append(b)
            in_field = False
        else:
            field_bytes += 1
            if not in_field:
                out.append(FIELD_BYTE)
                in_field = True
    return RecordTemplate(bytes(out), field_bytes)


def reduce_to_structure_template(rt: RecordTemplate | bytes) -> Node:
    """The tree of a record template's reduction."""
    text = rt.text if isinstance(rt, RecordTemplate) else rt
    lines = [line + b"\n" for line in text.split(b"\n")]
    lines[-1] = lines[-1][:-1]  # empty when the text ends with a newline
    pool = _SymbolPool()
    return parse_canonical(pool.reduce_span([pool.reduce_line(line) for line in lines
                                             if line]))


def reduce_node(node: Node) -> Node:
    """Re-run reduction over an existing template, its array bodies first."""
    pool = _SymbolPool()
    return parse_canonical(pool.canonical_of(_reduce_seq(_symbols(node, pool), pool)))


def _symbols(node: Node, pool: _SymbolPool) -> str:
    out = []
    for e in node.children if isinstance(node, Struct) else (node,):
        if isinstance(e, bytes):
            out.append(e.decode("latin-1"))
        elif isinstance(e, Field):
            out.append("F")
        else:
            body = _reduce_seq(_symbols(e.body, pool), pool)
            out.append(pool.array_symbol(body, chr(e.sep), chr(e.term)))
    return "".join(out)


def matches(st: Node, rt: RecordTemplate | bytes) -> bool:
    """True iff the record template is in the language of the template."""
    text = rt.text if isinstance(rt, RecordTemplate) else bytes(rt)
    return _match_end(st, text, 0) == len(text)


def _match_end(node: Node, text: bytes, pos: int) -> int:
    """End of ``node`` matched at ``pos`` of a record template, or -1."""
    if isinstance(node, Field):
        if pos < len(text) and text[pos] == FIELD_BYTE:
            return pos + 1
        return -1
    if isinstance(node, bytes):
        end = pos + len(node)
        if text[pos:end] == node:
            return end
        return -1
    if isinstance(node, Struct):
        for c in node.children:
            pos = _match_end(c, text, pos)
            if pos < 0:
                return -1
        return pos
    # Array
    pos = _match_end(node.body, text, pos)
    if pos < 0:
        return -1
    while True:
        if pos >= len(text):
            return -1
        b = text[pos]
        if b == node.term:
            return pos + 1
        if b != node.sep:
            return -1
        pos = _match_end(node.body, text, pos + 1)
        if pos < 0:
            return -1


def match_at(ct: CompiledTemplate, buf: bytes, pos: int, endpos: int):
    """``(end, values_per_leaf, arities_per_array)`` of ``ct``'s match at
    ``pos`` in ``buf[:endpos]``, or None."""
    m = ct.rx.match(buf, pos, endpos)
    return None if m is None else (m.end(), *ct.record(m))


def gen_one_reference(ctx: generation._GenContext, charset: frozenset[int],
                      cfg: GenerationConfig) -> CandidateSet:
    """The candidates of one charset (see the module docstring)."""
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

        if n_groups <= generation.MAX_KEYS_PER_WINDOW:
            proc = range(n_groups)
        else:
            # Too many distinct keys (noise flood): take the
            # MAX_KEYS_PER_WINDOW groups with the most spans, ties by first
            # start line.
            by_count = np.lexsort((starts_sorted[bounds], -counts))
            proc = np.sort(by_count[: generation.MAX_KEYS_PER_WINDOW])

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
