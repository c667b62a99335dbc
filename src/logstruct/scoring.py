"""Regularity scoring: parse text into record/noise blocks, infer field
types, and compute the total description length in bits (lower is better).

The scan rule, shared by scoring, structure shifting and extraction
(:func:`scan_records`): at each line start try the templates in order, each
over at most ``max_span_lines`` lines; the first match is a record and the
scan resumes at the first line start at or after its end, otherwise the line
is noise and the scan moves to the next line.

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

import numpy as np

from .corpus import TextView
from .templates import (
    CompiledTemplate,
    Node,
    canonical_string,
    compile_template,
    field_count,
)

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
        out = {"kind": self.kind}
        if self.kind == "enumerated":
            out["n_value"] = self.n_value
        elif self.kind == "integer":
            out["min"] = self.min_scaled
            out["max"] = self.max_scaled
        elif self.kind == "real":
            out["scaled_min"] = self.min_scaled
            out["scaled_max"] = self.max_scaled
            out["exp"] = self.exp
        return out


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
    record_line_spans: list[tuple[int, int]] = field(default_factory=list)


def candidate_lines(view: TextView, compiled: CompiledTemplate) -> np.ndarray:
    """Boolean mask of lines whose first byte could start a match."""
    n = view.n_lines
    if n == 0:
        return np.zeros(0, dtype=bool)
    first = view.np_bytes[view.offsets[:-1]]
    kind, payload = compiled.first_pred
    if kind == "byte":
        return first == payload
    mask = np.ones(256, dtype=bool)
    mask[list(payload)] = False
    return mask[first]


def scan_records(view: TextView, compiled: list[CompiledTemplate],
                 max_span_lines: int):
    """Yield ``(k, i, j, end, values, arities)`` for each record of the scan
    (see the module docstring): template ``k`` in ``compiled`` matched lines
    ``[i, j)`` up to byte ``end``.  The lines between records are noise."""
    buf = view.data
    offsets = view.offsets
    n = view.n_lines
    tries = [(k, c.match_at, candidate_lines(view, c))
             for k, c in enumerate(compiled)]
    i = 0
    while i < n:
        for k, match_at, cand in tries:
            if cand[i]:
                endpos = int(offsets[min(i + max_span_lines, n)])
                hit = match_at(buf, int(offsets[i]), endpos)
                if hit is not None:
                    break
        else:
            i += 1
            continue
        end, values, arities = hit
        j = int(np.searchsorted(offsets, end, side="left"))
        yield k, i, j, end, values, arities
        i = j


def parse_with_template(view: TextView, st: Node | CompiledTemplate,
                        max_span_lines: int = 10) -> ParseResult:
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
          max_span_lines: int = 10) -> ScoredTemplate:
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
        record_line_spans=parse.record_line_spans,
    )


def noise_only_dl(view: TextView) -> int:
    """Baseline description length with no template at all."""
    if not view.data:
        return 32
    return len(view.data) * 8 + 32 + 1
