"""Synthetic corpus generation with ground truth, plus the relational-ops
verifier used to judge extraction success.

The truth follows the scan rule of ``scoring.scan_records``: a noise line is
admitted only where no template has a record of the scan (a match of at most
``DEFAULT_MAX_SPAN_LINES`` lines) starting on it, so the scan with the
planted templates leaves every noise line to the noise.

Success means: record boundaries and types all match the ground truth, and a
given script of column operations (Concat, GroupConcat, Trim, Append,
DeleteCol, DeleteTable) turns the extracted tables into the target tables.
Columns can be merged or dropped but never split.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from itertools import accumulate

from .corpus import TextView
from .extraction import (
    RecordIndex,
    RelationalOutput,
    Table,
    build_schema,
    emit_record,
    new_tables,
)
from .scoring import DEFAULT_MAX_SPAN_LINES, _next_record
from .templates import (
    ARRAY,
    LEAF,
    CompiledTemplate,
    Layout,
    Node,
    TemplateError,
    canonical_string,
    compile_template,
    layout,
    parse_canonical,
    render_record,
)

_STR_ALPHABET = string.ascii_letters + string.digits
_NOISE_ALPHABET = string.ascii_lowercase + string.digits


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # "int" | "real" | "enum" | "str"
    lo: int = 0
    hi: int = 999
    pad: int = 0  # zero-pad width for ints
    exp: int = 2  # decimals for reals; lo/hi are scaled by 10^exp
    values: tuple[str, ...] = ()
    min_len: int = 3
    max_len: int = 8

    def to_json(self) -> dict:
        if self.kind == "int":
            return {"kind": "int", "lo": self.lo, "hi": self.hi, "pad": self.pad}
        if self.kind == "real":
            return {"kind": "real", "lo_scaled": self.lo, "hi_scaled": self.hi,
                    "exp": self.exp}
        if self.kind == "enum":
            return {"kind": "enum", "values": list(self.values)}
        return {"kind": "str", "min_len": self.min_len, "max_len": self.max_len}

    @classmethod
    def from_json(cls, doc: dict) -> "FieldSpec":
        kind = _value(doc, "kind", (str,))
        if kind == "int":
            return cls("int", lo=_value(doc, "lo", _INT), hi=_value(doc, "hi", _INT),
                       pad=_value(doc, "pad", _INT, 0))
        if kind == "real":
            return cls("real", lo=_value(doc, "lo_scaled", _INT),
                       hi=_value(doc, "hi_scaled", _INT), exp=_value(doc, "exp", _INT))
        if kind == "enum":
            values = _value(doc, "values", (list,))
            if not all(isinstance(v, str) for v in values):
                raise SynthError("enum values must be strings")
            return cls("enum", values=tuple(values))
        if kind == "str":
            return cls("str", min_len=_value(doc, "min_len", _INT),
                       max_len=_value(doc, "max_len", _INT))
        raise SynthError(f"unknown field kind {kind!r}")


@dataclass(frozen=True)
class ArraySpec:
    min_reps: int = 1
    max_reps: int = 5


@dataclass
class TemplateSpec:
    template: Node
    fields: list[FieldSpec]
    arrays: list[ArraySpec] = field(default_factory=list)
    weight: float = 1.0


@dataclass
class SynthSpec:
    templates: list[TemplateSpec]
    noise_fraction: float = 0.0
    record_count: int = 100
    seed: int = 0
    noise_len: tuple[int, int] = (8, 40)

    def validate(self) -> list[CompiledTemplate]:
        """The compiled templates of a spec that can be generated; else SynthError."""
        if not self.templates:
            raise SynthError("need at least one template")
        if self.record_count < 1:
            raise SynthError("record_count must be >= 1")
        if not (0 <= self.noise_fraction < 1):
            raise SynthError("noise_fraction must be in [0, 1)")
        if not 0 <= self.noise_len[0] <= self.noise_len[1]:
            raise SynthError("noise_len must be [min, max] with 0 <= min <= max")
        compiled = []
        for tspec in self.templates:
            if tspec.weight <= 0:
                raise SynthError("weights must be positive")
            try:
                compiled.append(compile_template(tspec.template))
            except TemplateError as exc:
                raise SynthError(str(exc)) from exc
            lay = layout(tspec.template)
            charset = lay.charset
            if len(tspec.fields) != lay.n_leaves:
                raise SynthError("one field spec per placeholder required")
            if len(tspec.arrays) != len(lay.arrays):
                raise SynthError("one array spec per array node required")
            for fs in tspec.fields:
                if fs.kind in ("int", "real") and fs.lo > fs.hi:
                    raise SynthError("a field's lo must not exceed its hi")
                if fs.pad < 0 or fs.exp < 0:
                    raise SynthError("a field's pad and exp must not be negative")
                if fs.kind == "str" and not 1 <= fs.min_len <= fs.max_len:
                    raise SynthError("a string field needs 1 <= min_len <= max_len")
                if fs.kind == "enum" and not fs.values:
                    raise SynthError("an enum field needs at least one value")
                if fs.kind == "real" and ord(".") in charset:
                    raise SynthError("real fields clash with '.' in charset")
                if fs.kind in ("int", "real") and fs.lo < 0 and ord("-") in charset:
                    raise SynthError("negative values clash with '-' in charset")
                if fs.kind == "enum":
                    for v in fs.values:
                        if any(b in charset for b in v.encode("latin-1")):
                            raise SynthError(f"enum value {v!r} contains charset bytes")
            for ar in tspec.arrays:
                if not (1 <= ar.min_reps <= ar.max_reps):
                    raise SynthError("array reps must satisfy 1 <= min <= max")
        return compiled


def _render_real(scaled: int, exp: int) -> str:
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if exp == 0:
        return f"{sign}{scaled}.0"
    return f"{sign}{scaled // 10**exp}.{scaled % 10**exp:0{exp}d}"


def _gen_value(fs: FieldSpec, rng: random.Random) -> bytes:
    if fs.kind == "int":
        v = rng.randint(fs.lo, fs.hi)
        s = f"{v:0{fs.pad}d}" if fs.pad else str(v)
        return s.encode("latin-1")
    if fs.kind == "real":
        return _render_real(rng.randint(fs.lo, fs.hi), fs.exp).encode("latin-1")
    if fs.kind == "enum":
        return rng.choice(fs.values).encode("latin-1")
    n = rng.randint(fs.min_len, fs.max_len)
    return "".join(rng.choice(_STR_ALPHABET) for _ in range(n)).encode("latin-1")


def _gen_record(tspec: TemplateSpec, lay: Layout, rng: random.Random,
                values: list[list[bytes]], arities: list[list[int]]) -> None:
    """Draw the values of ``lay``'s leaves and the arities of its arrays."""
    for kind, index, _, body in lay.slots:
        if kind == LEAF:
            values[index].append(_gen_value(tspec.fields[index], rng))
        elif kind == ARRAY:
            spec = tspec.arrays[index]
            reps = rng.randint(spec.min_reps, spec.max_reps)
            arities[index].append(reps)
            for _ in range(reps):
                _gen_record(tspec, body, rng, values, arities)


@dataclass
class SynthResult:
    data: bytes
    line_labels: list[tuple]  # ("record", type, ordinal) or ("noise",)
    truth: RelationalOutput  # the ideal extraction of this corpus

    @property
    def records(self) -> list[tuple[int, int, int]]:
        """``(type, start_line, end_line)`` of each planted record."""
        r = self.truth.records
        return list(zip(r.type_index, r.start_line, r.end_line))


def generate(spec: SynthSpec) -> SynthResult:
    """Lay out the shuffled records and noise lines in one pass, with line
    labels and the truth.  The noise lines are drawn last, back to front, so
    the lines after each are final; a draw is kept only where no template has
    a record of the scan starting on it (see ``_draw_noise``)."""
    compiled = spec.validate()
    rng = random.Random(spec.seed)
    weights = [t.weight for t in spec.templates]
    blocks: list = rng.choices(range(len(weights)), weights=weights,
                               k=spec.record_count)
    if spec.noise_fraction:
        blocks += [None] * round(spec.record_count * spec.noise_fraction
                                 / (1 - spec.noise_fraction))
    rng.shuffle(blocks)

    schemas = [build_schema(i, t.template) for i, t in enumerate(spec.templates)]
    tables = new_tables(schemas)
    lines: list[bytes] = []
    line_labels: list[tuple] = []
    spans: list[tuple[int, int, int, int]] = []  # (type, row id, start, end line)
    noise_at: list[int] = []
    for t in blocks:
        start = len(lines)
        if t is None:
            noise_at.append(start)
            lines.append(b"")  # drawn below
            line_labels.append(("noise",))
            continue
        tspec = spec.templates[t]
        values = [[] for _ in tspec.fields]
        arities = [[] for _ in tspec.arrays]
        _gen_record(tspec, layout(tspec.template), rng, values, arities)
        row_id = emit_record(schemas[t], tables[t], values, arities)
        payload = render_record(tspec.template, values, arities)
        lines += (part + b"\n" for part in payload.split(b"\n")[:-1])
        line_labels += [("record", t, row_id)] * (len(lines) - start)
        spans.append((t, row_id, start, len(lines)))
    for li in reversed(noise_at):
        lines[li] = _draw_noise(spec, compiled, rng,
                               lines[li + 1 : li + 1 + DEFAULT_MAX_SPAN_LINES])

    offsets = list(accumulate(map(len, lines), initial=0))
    records = RecordIndex((t, row_id, s, e, offsets[s], offsets[e])
                          for t, row_id, s, e in spans)
    noise = [(offsets[li], lines[li]) for li in noise_at]
    truth = RelationalOutput([table for group in tables for table in group], noise,
                             records, schemas, source_len=offsets[-1])
    return SynthResult(b"".join(lines), line_labels, truth)


def _draw_noise(spec: SynthSpec, compiled: list[CompiledTemplate],
                rng: random.Random, after: list[bytes]) -> bytes:
    """A noise line on which, followed by the lines ``after`` it, no template
    has a record of the scan (``scoring._next_record``): a match of at most
    ``DEFAULT_MAX_SPAN_LINES`` lines, whose final newline may be missing only
    at the end of input."""
    for _ in range(200):
        n = rng.randint(*spec.noise_len)
        line = "".join(rng.choice(_NOISE_ALPHABET) for _ in range(n)).encode() + b"\n"
        view = TextView.from_bytes(line + b"".join(after))
        if not any(_next_record(c.rx, view, 0, DEFAULT_MAX_SPAN_LINES, last=0)
                   for c in compiled):
            return line
    raise SynthError("could not draw noise avoiding the templates; "
                     "a template is too permissive for noisy corpora")


# ---------------------------------------------------------------------------
# Relational operations


class OpError(ValueError):
    pass


def _find_table(tables: list[Table], name: str, i: int, op: str) -> Table:
    for t in tables:
        if t.name == name:
            return t
    raise OpError(f"op {i} ({op}): no table {name!r}")


def _col(table: Table, name: str, i: int, op: str) -> int:
    try:
        return table.columns.index(name)
    except ValueError:
        raise OpError(f"op {i} ({op}): no column {name!r} in {table.name!r}") from None


# op name -> the types of its arguments
_OP_ARGS = {"Concat": (str, str, str), "GroupConcat": (str, str, str, str),
            "Trim": (str, str, int, int), "Append": (str, str, str, str),
            "DeleteCol": (str, str), "DeleteTable": (str,)}


def apply_ops(out: RelationalOutput, script: list[list]) -> RelationalOutput:
    """Apply a script of relational ops to a copy of the tables; the result
    shares ``out``'s record index.  The script may come from outside the
    program: a malformed one raises OpError."""
    if not isinstance(script, list):
        raise OpError("a script must be a list of ops")
    tables = [Table(t.name, list(t.columns), [list(r) for r in t.rows])
              for t in out.tables]
    for i, op in enumerate(script):
        name, *args = op if isinstance(op, list) and op else [None]
        types = _OP_ARGS.get(name) if isinstance(name, str) else None
        if types is None or list(map(type, args)) != list(types):
            raise OpError(f"op {i}: {op!r} is not an op of {sorted(_OP_ARGS)} "
                          "with arguments of the types it takes")
        if name == "Concat":
            r, c1, c2 = args
            t = _find_table(tables, r, i, name)
            j1, j2 = _col(t, c1, i, name), _col(t, c2, i, name)
            t.columns.append(f"{c1}+{c2}")
            for row in t.rows:
                row.append(row[j1] + row[j2])
        elif name == "GroupConcat":
            r1, r2, fk, c = args
            t1 = _find_table(tables, r1, i, name)
            t2 = _find_table(tables, r2, i, name)
            jfk, jc = _col(t2, fk, i, name), _col(t2, c, i, name)
            groups: dict[str, list[str]] = {}
            for row in t2.rows:
                groups.setdefault(row[jfk], []).append(row[jc])
            jid = _col(t1, "_id", i, name)
            t1.columns.append(f"{r2}.{c}")
            for row in t1.rows:
                row.append("".join(groups.get(row[jid], [])))
        elif name == "Trim":
            r, c, pre, suf = args
            t = _find_table(tables, r, i, name)
            j = _col(t, c, i, name)
            for row in t.rows:
                v = row[j]
                row[j] = v[pre : len(v) - suf] if suf else v[pre:]
        elif name == "Append":
            r, c, pre_str, suf_str = args
            t = _find_table(tables, r, i, name)
            j = _col(t, c, i, name)
            for row in t.rows:
                row[j] = pre_str + row[j] + suf_str
        elif name == "DeleteCol":
            r, c = args
            t = _find_table(tables, r, i, name)
            j = _col(t, c, i, name)
            del t.columns[j]
            for row in t.rows:
                del row[j]
        else:  # DeleteTable
            (r,) = args
            _find_table(tables, r, i, name)
            tables = [t for t in tables if t.name != r]
    return RelationalOutput(tables, list(out.noise), out.records, out.schemas,
                            out.source_len)


# ---------------------------------------------------------------------------
# Success verification


def verify_success(extracted: RelationalOutput, truth: SynthResult,
                   script: list[list], target_tables: list[Table] | None = None):
    """(ok, diff): boundaries/types must match the labels exactly, and the
    script must turn the extracted tables into the target tables."""
    if target_tables is None:
        target_tables = apply_ops(truth.truth, script).tables

    # 1. Record boundaries and types.
    truth_by_span = {(s, e): t for t, s, e in truth.records}
    type_map: dict[int, int] = {}
    rev_map: dict[int, int] = {}
    r = extracted.records
    ext_spans = list(zip(r.start_line, r.end_line, r.type_index))
    if len(ext_spans) != len(truth_by_span):
        return False, {"stage": "boundaries",
                       "extracted": len(ext_spans), "expected": len(truth_by_span)}
    for s, e, k in ext_spans:
        t = truth_by_span.get((s, e))
        if t is None:
            return False, {"stage": "boundaries", "bad_span": [s, e]}
        if type_map.setdefault(k, t) != t or rev_map.setdefault(t, k) != k:
            return False, {"stage": "boundaries", "inconsistent_type": k}

    # 2. Script reconstruction.
    try:
        transformed = apply_ops(extracted, script)
    except OpError as exc:
        return False, {"stage": "ops", "error": str(exc)}

    def suffix(name: str) -> tuple[int, str]:
        head, _, rest = name.partition("_")
        return int(head[1:]), rest

    targets = {t.name: t for t in target_tables}
    remapped = {}
    for t in transformed.tables:
        k, rest = suffix(t.name)
        if k not in type_map:
            return False, {"stage": "tables", "unmatched_type_table": t.name}
        name = f"t{type_map[k]}" + (f"_{rest}" if rest else "")
        remapped[name] = t
    if set(remapped) != set(targets):
        return False, {"stage": "tables",
                       "extra": sorted(set(remapped) - set(targets)),
                       "missing": sorted(set(targets) - set(remapped))}
    for name, target in targets.items():
        got = remapped[name]
        if len(got.columns) != len(target.columns):
            return False, {"stage": "tables", "table": name,
                           "columns": [got.columns, target.columns]}
        if sorted(map(tuple, got.rows)) != sorted(map(tuple, target.rows)):
            return False, {"stage": "tables", "table": name, "rows_differ": True}
    return True, {}


# ---------------------------------------------------------------------------
# JSON round trips


def spec_to_json(spec: SynthSpec) -> dict:
    return {
        "templates": [
            {
                "template": canonical_string(t.template).decode("latin-1"),
                "weight": t.weight,
                "fields": [f.to_json() for f in t.fields],
                "arrays": [{"min_reps": a.min_reps, "max_reps": a.max_reps}
                           for a in t.arrays],
            }
            for t in spec.templates
        ],
        "noise_fraction": spec.noise_fraction,
        "record_count": spec.record_count,
        "seed": spec.seed,
        "noise_len": list(spec.noise_len),
    }


def spec_from_json(doc: dict) -> SynthSpec:
    """The spec ``spec_to_json`` wrote.  The document may come from outside
    the program: a malformed one raises SynthError (see also
    ``SynthSpec.validate``)."""
    if not isinstance(doc, dict):
        raise SynthError("spec must be a JSON object")
    templates = []
    for t in _objects(_value(doc, "templates", (list,))):
        node = parse_canonical(_value(t, "template", (str,)).encode("latin-1"))
        templates.append(TemplateSpec(
            template=node,
            fields=list(map(FieldSpec.from_json, _objects(_value(t, "fields", (list,))))),
            arrays=[ArraySpec(_value(a, "min_reps", _INT), _value(a, "max_reps", _INT))
                    for a in _objects(_value(t, "arrays", (list,), []))],
            weight=_value(t, "weight", _NUMBER, 1.0),
        ))
    noise_len = _value(doc, "noise_len", (list,), [8, 40])
    if not (len(noise_len) == 2 and all(type(n) is int for n in noise_len)):
        raise SynthError("spec noise_len must be two integers")
    return SynthSpec(
        templates=templates,
        noise_fraction=_value(doc, "noise_fraction", _NUMBER, 0.0),
        record_count=_value(doc, "record_count", _INT, 100),
        seed=_value(doc, "seed", _INT, 0),
        noise_len=tuple(noise_len),
    )


_INT = (int,)
_NUMBER = (int, float)
_REQUIRED = object()


def _value(doc: dict, key: str, types: tuple, default=_REQUIRED):
    """``doc[key]``, or ``default`` when it is absent; SynthError unless it
    is of one of ``types`` (exactly: a JSON ``true`` is no integer)."""
    value = doc.get(key, default)
    if type(value) not in types:
        raise SynthError(f"spec {key!r} must be "
                         f"{' or '.join(t.__name__ for t in types)}")
    return value


def _objects(docs: list) -> list[dict]:
    """``docs``, which must all be JSON objects; else SynthError."""
    if not all(isinstance(d, dict) for d in docs):
        raise SynthError("spec templates, fields and arrays must be objects")
    return docs


def truth_to_json(result: SynthResult) -> dict:
    return {
        "templates": [canonical_string(sc.template).decode("latin-1")
                      for sc in result.truth.schemas],
        "records": [list(r) for r in result.records],
        "line_labels": [list(l) for l in result.line_labels],
        "tables": [
            {"name": t.name, "columns": t.columns, "rows": t.rows}
            for t in result.truth.tables
        ],
    }


def truth_from_json(doc: dict) -> SynthResult:
    """The truth ``truth_to_json`` wrote.  The document may come from outside
    the program: a malformed one raises SynthError."""
    if not isinstance(doc, dict):
        raise SynthError("truth must be a JSON object")
    templates = doc.get("templates")
    if not (isinstance(templates, list) and all(isinstance(t, str) for t in templates)):
        raise SynthError("truth templates must be a list of strings")
    schemas = [build_schema(i, parse_canonical(t.encode("latin-1")))
               for i, t in enumerate(templates)]
    tables_doc = doc.get("tables")
    if not (isinstance(tables_doc, list) and all(_is_table_doc(t) for t in tables_doc)):
        raise SynthError("truth tables must be objects with a name, string "
                         "columns and rows of one string per column")
    tables = [Table(t["name"], list(t["columns"]), [list(r) for r in t["rows"]])
              for t in tables_doc]
    records_doc = doc.get("records")
    if not (isinstance(records_doc, list) and all(
            isinstance(r, list) and len(r) == 3 and all(type(x) is int for x in r)
            and 0 <= r[0] < len(schemas) and 0 <= r[1] < 2**63 and 0 <= r[2] < 2**63
            for r in records_doc)):
        raise SynthError("truth records must be [type, start_line, end_line] "
                         "integer triples of a listed template, with line "
                         "numbers in [0, 2**63)")
    labels = doc.get("line_labels", [])
    if not (isinstance(labels, list) and all(isinstance(l, list) for l in labels)):
        raise SynthError("truth line_labels must be a list of lists")
    records = RecordIndex((t, 0, s, e, 0, 0) for t, s, e in records_doc)
    truth = RelationalOutput(tables, [], records, schemas)
    return SynthResult(b"", [tuple(l) for l in labels], truth)


def _is_table_doc(t) -> bool:
    if not (isinstance(t, dict) and isinstance(t.get("name"), str)):
        return False
    columns, rows = t.get("columns"), t.get("rows")
    return (isinstance(columns, list) and all(isinstance(c, str) for c in columns)
            and isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == len(columns)
                    and all(isinstance(v, str) for v in r) for r in rows))
