"""Synthetic corpus generation with ground truth, plus the relational-ops
verifier used to judge extraction success.

Success means: record boundaries and types all match the ground truth, and a
given script of column operations (Concat, GroupConcat, Trim, Append,
DeleteCol, DeleteTable) turns the extracted tables into the target tables.
Columns can be merged or dropped but never split.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from .extraction import (
    RecordMeta,
    RelationalOutput,
    Table,
    build_schema,
    emit_record,
    new_tables,
)
from .templates import (
    ARRAY,
    LEAF,
    Layout,
    Node,
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
        kind = doc["kind"]
        if kind == "int":
            return cls("int", lo=doc["lo"], hi=doc["hi"], pad=doc.get("pad", 0))
        if kind == "real":
            return cls("real", lo=doc["lo_scaled"], hi=doc["hi_scaled"],
                       exp=doc["exp"])
        if kind == "enum":
            return cls("enum", values=tuple(doc["values"]))
        if kind == "str":
            return cls("str", min_len=doc["min_len"], max_len=doc["max_len"])
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

    def validate(self) -> None:
        if not self.templates:
            raise SynthError("need at least one template")
        if not (0 <= self.noise_fraction < 1):
            raise SynthError("noise_fraction must be in [0, 1)")
        for tspec in self.templates:
            if tspec.weight <= 0:
                raise SynthError("weights must be positive")
            if not canonical_string(tspec.template).endswith(b"\n"):
                raise SynthError("templates must end with a newline")
            lay = layout(tspec.template)
            charset = lay.charset
            if len(tspec.fields) != lay.n_leaves:
                raise SynthError("one field spec per placeholder required")
            if len(tspec.arrays) != len(lay.arrays):
                raise SynthError("one array spec per array node required")
            for fs in tspec.fields:
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
    records: list[tuple[int, int, int]]  # (type, start_line, end_line)
    truth: RelationalOutput  # the ideal extraction of this corpus


def generate(spec: SynthSpec) -> SynthResult:
    """Emit interleaved records and rejection-sampled noise, with labels."""
    spec.validate()
    rng = random.Random(spec.seed)
    k = len(spec.templates)
    weights = [t.weight for t in spec.templates]
    type_seq = rng.choices(range(k), weights=weights, k=spec.record_count)
    noise_n = round(spec.record_count * spec.noise_fraction / (1 - spec.noise_fraction)) \
        if spec.noise_fraction else 0
    blocks: list = [("record", t) for t in type_seq] + [("noise",)] * noise_n
    rng.shuffle(blocks)

    compiled = [compile_template(t.template) for t in spec.templates]
    rendered: list[tuple] = []  # ("record", type, bytes) | ("noise", None)
    for b in blocks:
        if b[0] == "record":
            tspec = spec.templates[b[1]]
            values = [[] for _ in tspec.fields]
            arities = [[] for _ in tspec.arrays]
            _gen_record(tspec, layout(tspec.template), rng, values, arities)
            rendered.append(("record", b[1], render_record(
                tspec.template, values, arities), values, arities))
        else:
            rendered.append(("noise", None, b"", None, None))

    # Line layout with placeholder noise, then fill noise back to front so the
    # checked context (next lines) is final.
    lines: list[bytes] = []
    block_line_span: list[tuple[int, int]] = []
    for item in rendered:
        start = len(lines)
        if item[0] == "record":
            payload = item[2]
            parts = payload.split(b"\n")[:-1]
            lines.extend(p + b"\n" for p in parts)
        else:
            lines.append(b"\n")  # placeholder, replaced below
        block_line_span.append((start, len(lines)))

    noise_positions = [i for i, item in enumerate(rendered) if item[0] == "noise"]
    for bidx in reversed(noise_positions):
        li = block_line_span[bidx][0]
        ok_line = None
        for _ in range(200):
            n = rng.randint(*spec.noise_len)
            cand = "".join(rng.choice(_NOISE_ALPHABET) for _ in range(n)).encode() + b"\n"
            context = cand + b"".join(lines[li + 1 : li + 11])
            if any(c.match_at(context, 0, len(context)) for c in compiled):
                continue
            ok_line = cand
            break
        if ok_line is None:
            raise SynthError("could not draw noise avoiding the templates; "
                             "a template is too permissive for noisy corpora")
        lines[li] = ok_line

    # Assemble ground truth as an ideal extraction.
    schemas = [build_schema(i, t.template) for i, t in enumerate(spec.templates)]
    tables_per_type, fks = new_tables(schemas)
    line_labels: list[tuple] = []
    records: list[tuple[int, int, int]] = []
    metas: list[RecordMeta] = []
    denormalized: list[dict] = []
    noise_entries: list[tuple[int, bytes]] = []
    offset = 0
    line_no = 0
    ordinals = [0] * k
    for item, (ls, le) in zip(rendered, block_line_span):
        block_bytes = b"".join(lines[ls:le])
        if item[0] == "record":
            t = item[1]
            rid, nested = emit_record(schemas[t], tables_per_type[t],
                                      item[3], item[4])
            nested["_span"] = [line_no, line_no + (le - ls)]
            denormalized.append(nested)
            metas.append(RecordMeta(t, rid, line_no, line_no + (le - ls),
                                    offset, offset + len(block_bytes)))
            records.append((t, line_no, line_no + (le - ls)))
            for _ in range(le - ls):
                line_labels.append(("record", t, ordinals[t]))
            ordinals[t] += 1
        else:
            noise_entries.append((offset, block_bytes))
            line_labels.append(("noise",))
        offset += len(block_bytes)
        line_no += le - ls
    data = b"".join(lines)
    truth = RelationalOutput(
        [t for group in tables_per_type for t in group], fks, denormalized,
        noise_entries, metas, schemas, source_len=len(data))
    return SynthResult(data, line_labels, records, truth)


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


def apply_ops(out: RelationalOutput, script: list[list]) -> RelationalOutput:
    """Apply a script of relational ops to a copy of the tables."""
    tables = [Table(t.name, list(t.columns), [list(r) for r in t.rows])
              for t in out.tables]
    for i, op in enumerate(script):
        name, *args = op
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
        elif name == "DeleteTable":
            (r,) = args
            _find_table(tables, r, i, name)
            tables = [t for t in tables if t.name != r]
        else:
            raise OpError(f"op {i}: unknown operation {name!r}")
    return RelationalOutput(tables, dict(out.foreign_keys), [], [],
                            list(out.records), out.schemas, out.source_len)


# ---------------------------------------------------------------------------
# Success verification


def verify_success(extracted: RelationalOutput, truth: SynthResult | dict,
                   script: list[list], target_tables: list[Table] | None = None):
    """(ok, diff): boundaries/types must match the labels exactly, and the
    script must turn the extracted tables into the target tables."""
    if isinstance(truth, dict):
        truth = truth_from_json(truth)
    truth_records = truth.records
    if target_tables is None:
        target_tables = apply_ops(truth.truth, script).tables

    # 1. Record boundaries and types.
    truth_by_span = {(s, e): t for t, s, e in truth_records}
    type_map: dict[int, int] = {}
    rev_map: dict[int, int] = {}
    ext_spans = [(m.start_line, m.end_line, m.type_index) for m in extracted.records]
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
    templates = []
    for t in doc["templates"]:
        node = parse_canonical(t["template"].encode("latin-1"))
        templates.append(TemplateSpec(
            template=node,
            fields=[FieldSpec.from_json(f) for f in t["fields"]],
            arrays=[ArraySpec(a["min_reps"], a["max_reps"])
                    for a in t.get("arrays", [])],
            weight=t.get("weight", 1.0),
        ))
    return SynthSpec(
        templates=templates,
        noise_fraction=doc.get("noise_fraction", 0.0),
        record_count=doc.get("record_count", 100),
        seed=doc.get("seed", 0),
        noise_len=tuple(doc.get("noise_len", (8, 40))),
    )


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
    schemas = [build_schema(i, parse_canonical(t.encode("latin-1")))
               for i, t in enumerate(doc["templates"])]
    tables = [Table(t["name"], list(t["columns"]), [list(r) for r in t["rows"]])
              for t in doc["tables"]]
    _, fks = new_tables(schemas)
    records = [tuple(r) for r in doc["records"]]
    metas = [RecordMeta(t, 0, s, e, 0, 0) for t, s, e in records]
    truth = RelationalOutput(tables, fks, [], [], metas, schemas)
    return SynthResult(b"", [tuple(l) for l in doc.get("line_labels", [])],
                       records, truth)
