"""Regularity scoring: parse text into record/noise blocks, infer field
types, and compute the total description length in bits (lower is better).

The scan rule, shared by scoring, structure shifting, extraction and the
synthetic truth's noise (:func:`scan_records`): a template's match at a line
start is a record if it spans at most ``max_span_lines`` lines (by default
``DEFAULT_MAX_SPAN_LINES``); a longer match is none.  The scan
takes the lowest line's record, on a tie the template first in the plan;
lines before it are noise.  Only at EOF may its final newline be missing.

Costs per value: enumerated ceil(log2 n_value); integer
ceil(log2 (max - min + 1)); real ceil(log2 ((max - min) * 10^exp + 1));
string (len + 1) * 8.  Each array instance also pays a fixed 32-bit
repetition count, and the header costs len(template) * 8 + 32 + m bits
where m is the block count.  Noise blocks cost 8 bits per byte.
Hence splitting a string field at a one-byte separator never pays: the
separator byte costs what the dropped terminator saves, and the longer
template still costs its extra bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import TextView
from .templates import (
    CompiledTemplate,
    Node,
    canonical_string,
    compile_template,
)

DEFAULT_MAX_SPAN_LINES = 10
ARRAY_COUNT_BITS = 32
ENUM_MAX_DISTINCT = 256
ENUM_DISTINCT_SHARE = 0.10

_INT_RE = re.compile(rb"[+-]?[0-9]+\Z")
_REAL_RE = re.compile(rb"[+-]?[0-9]+\.[0-9]+\Z")


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class FieldType:
    kind: str  # "enumerated" | "integer" | "real" | "string"
    n_value: int = 0
    min_scaled: int = 0
    max_scaled: int = 0
    exp: int = 0

    def bits_per_value(self) -> int | None:
        """Fixed bits per value, or None for length-dependent strings."""
        if self.kind == "enumerated":
            return ceil_log2(self.n_value) if self.n_value else 0
        if self.kind == "integer":
            return ceil_log2(self.max_scaled - self.min_scaled + 1)
        if self.kind == "real":
            return ceil_log2(self.max_scaled - self.min_scaled + 1)
        return None

    def to_json(self) -> dict:
        return {"kind": self.kind,
                **{key: getattr(self, attr) for key, attr in _FIGURES[self.kind]}}

    @classmethod
    def from_json(cls, doc) -> "FieldType":
        """The field type ``to_json`` wrote; ValueError for any other value."""
        kind = doc.get("kind") if isinstance(doc, dict) else None
        figures = _FIGURES.get(kind) if isinstance(kind, str) else None
        if figures is None or set(doc) != {"kind", *(k for k, _ in figures)} or any(
                type(doc[k]) is not int for k, _ in figures):
            raise ValueError(f"not a field type: {doc!r}")
        return cls(kind, **{attr: doc[key] for key, attr in figures})


# The JSON key and the attribute of each figure of a field type, per kind.
_FIGURES = {
    "enumerated": (("n_value", "n_value"),),
    "integer": (("min", "min_scaled"), ("max", "max_scaled")),
    "real": (("scaled_min", "min_scaled"), ("scaled_max", "max_scaled"),
             ("exp", "exp")),
    "string": (),
}


@dataclass
class ParseResult:
    record_spans: list[tuple[int, int]]  # byte spans
    record_line_spans: list[tuple[int, int]]  # half-open line spans
    noise_spans: list[tuple[int, int]]  # byte spans, merged runs
    leaf_values: list[list[bytes]]  # per leaf, across all records
    arity_counts: list[list[int]]  # per array node, one entry per instance
    block_count: int

    @property
    def record_count(self) -> int:
        return len(self.record_spans)

    @property
    def record_bytes(self) -> int:
        return sum(e - s for s, e in self.record_spans)

    @property
    def noise_bytes(self) -> int:
        return sum(e - s for s, e in self.noise_spans)


@dataclass
class ScoredTemplate:
    template: Node
    canonical: bytes
    total_dl: int
    field_types: list[FieldType]
    record_count: int
    record_bytes: int
    noise_bytes: int
    block_count: int
    arity_counts: list[list[int]] = field(default_factory=list)


_WINDOW = 8  # lines per search, in max_span_lines (see _next_record)


def _next_record(rx: re.Pattern, view: TextView, i: int, max_span_lines: int,
                 last: int | None = None):
    """``(i, j, match)`` of the first record of ``rx`` on lines ``[i, j)``, at
    or after line ``i`` and, given ``last``, at or before line ``last``; None
    when there is none.

    A search reads ``_WINDOW * max_span_lines`` lines and one byte, so no
    match attempt runs past them and ``\\Z`` fires only at the end of input.
    It settles each line whose ``max_span_lines`` lines it reads, as a line
    has at most one match (see ``CompiledTemplate``).  A larger window costs
    more in a run of lines that each start a too-long match; a smaller one
    rereads more of the text where nothing matches.  With ``last``, a window
    also ends at line ``last + max_span_lines``, before which a record on
    line ``last`` ends."""
    buf, offsets, n, L = view.data, view.offsets, view.n_lines, max_span_lines
    stop = n if last is None else min(n, last + 1)  # a record starts before it
    while i < stop:
        pos, hi = int(offsets[i]), i + _WINDOW * L
        if hi >= stop:
            hi = min(hi, stop - 1 + L)
        m = rx.search(buf, pos, int(offsets[hi]) + 1 if hi < n else len(buf))
        if m is not None:
            start, end = m.span()
            i += buf.count(b"\n", pos, start)
        # a match after line hi - L may run past the window; at EOF, after last
        if m is None or (i + L > hi if hi < n else i >= stop):
            if hi >= n:
                return None
            i = hi - L + 1  # the lines before it hold no record
            continue
        # the last byte is the record's final newline, or it ends the input
        j = i + 1 + buf.count(b"\n", start, end - 1)
        if j - i <= L:
            return i, j, m
        i += 1
    return None


def scan_records(view: TextView, compiled: list[CompiledTemplate],
                 max_span_lines: int):
    """Yield ``(k, i, j, end, values, arities)`` for each record of the scan
    (see the module docstring): template ``k`` in ``compiled`` matched lines
    ``[i, j)`` up to byte ``end``.  The lines between records are noise."""
    if max_span_lines < 1:  # every match spans a line at least
        return
    # each template's next record, searched for again once the scan passes it
    hits = [_next_record(c.rx, view, 0, max_span_lines) for c in compiled]
    while True:
        live = [t for t, hit in enumerate(hits) if hit is not None]
        if not live:
            return
        k = min(live, key=lambda t: hits[t][0])  # on a tie the first
        i, j, m = hits[k]
        yield (k, i, j, m.end(), *compiled[k].record(m))
        for t, hit in enumerate(hits):
            if hit is not None and hit[0] < j:
                hits[t] = _next_record(compiled[t].rx, view, j, max_span_lines)


def parse_with_template(view: TextView, st: Node | CompiledTemplate,
                        max_span_lines: int = DEFAULT_MAX_SPAN_LINES) -> ParseResult:
    """Scan with one template; each run of noise lines is one noise block."""
    compiled = st if isinstance(st, CompiledTemplate) else compile_template(st)
    offsets = view.offsets
    leaf_values: list[list[bytes]] = [[] for _ in range(compiled.n_fields)]
    arity_counts: list[list[int]] = [[] for _ in range(len(compiled.arrays))]
    record_spans: list[tuple[int, int]] = []
    record_line_spans: list[tuple[int, int]] = []
    noise_spans: list[tuple[int, int]] = []
    prev = 0  # the first line after the previous record
    for _, i, j, end, values, arities in scan_records(view, [compiled], max_span_lines):
        pos = int(offsets[i])
        if i > prev:
            noise_spans.append((int(offsets[prev]), pos))
        record_spans.append((pos, end))
        record_line_spans.append((i, j))
        for dst, src in zip(leaf_values, values):
            dst.extend(src)
        for dst, src in zip(arity_counts, arities):
            dst.extend(src)
        prev = j
    if prev < view.n_lines:
        noise_spans.append((int(offsets[prev]), len(view.data)))
    m = len(record_spans) + len(noise_spans)
    return ParseResult(record_spans, record_line_spans, noise_spans,
                       leaf_values, arity_counts, m)


def _scaled_int(value: bytes, exp: int) -> int:
    # value matches _REAL_RE; scale to 10^exp without float round-off
    sign = 1
    v = value
    if v[:1] in (b"+", b"-"):
        sign = -1 if v[:1] == b"-" else 1
        v = v[1:]
    whole, frac = v.split(b".")
    frac = frac.ljust(exp, b"0")
    return sign * (int(whole) * 10**exp + int(frac))


def infer_field_type(values: list[bytes]) -> FieldType:
    """Type a value multiset: integer, else real, else enumerated, else string."""
    if not values:
        return FieldType("string")
    if all(_INT_RE.match(v) for v in values):
        nums = [int(v) for v in values]
        return FieldType("integer", min_scaled=min(nums), max_scaled=max(nums))
    if all(_REAL_RE.match(v) for v in values):
        exp = max(len(v.rsplit(b".", 1)[1]) for v in values)
        nums = [_scaled_int(v, exp) for v in values]
        return FieldType("real", min_scaled=min(nums), max_scaled=max(nums), exp=exp)
    distinct = len(set(values))
    if distinct <= min(ENUM_MAX_DISTINCT, ENUM_DISTINCT_SHARE * len(values)):
        return FieldType("enumerated", n_value=distinct)
    return FieldType("string")


def infer_field_types(parse: ParseResult) -> list[FieldType]:
    return [infer_field_type(v) for v in parse.leaf_values]


def description_length(st: Node, parse: ParseResult,
                       types: list[FieldType]) -> int:
    """Total bits for template + block map + every block's contents."""
    total = len(canonical_string(st)) * 8 + 32 + parse.block_count
    total += sum(e - s for s, e in parse.noise_spans) * 8
    total += ARRAY_COUNT_BITS * sum(len(a) for a in parse.arity_counts)
    for values, ftype in zip(parse.leaf_values, types):
        per = ftype.bits_per_value()
        if per is None:
            total += sum((len(v) + 1) * 8 for v in values)
        else:
            total += per * len(values)
    return total


def score(view: TextView, st: Node | CompiledTemplate,
          max_span_lines: int = DEFAULT_MAX_SPAN_LINES) -> ScoredTemplate:
    """Parse, type, and price one template over a text view."""
    compiled = st if isinstance(st, CompiledTemplate) else compile_template(st)
    parse = parse_with_template(view, compiled, max_span_lines)
    types = infer_field_types(parse)
    dl = description_length(compiled.template, parse, types)
    return ScoredTemplate(
        template=compiled.template,
        canonical=compiled.canonical,
        total_dl=dl,
        field_types=types,
        record_count=parse.record_count,
        record_bytes=parse.record_bytes,
        noise_bytes=parse.noise_bytes,
        block_count=parse.block_count,
        arity_counts=parse.arity_counts,
    )


def noise_only_dl(view: TextView) -> int:
    """Baseline description length with no template at all."""
    if not view.data:
        return 32
    return len(view.data) * 8 + 32 + 1
