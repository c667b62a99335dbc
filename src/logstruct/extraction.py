"""Apply a discovered plan to a full corpus and emit relational output.

Each record type gets one root table; every array node gets a child table
linked by a ``_parent_id`` foreign key (nested arrays chain grandchild
tables).  Each field placeholder maps to exactly one column.  Records are
found by the scan that scoring uses (see :mod:`logstruct.scoring`); unmatched
lines go to a noise sidecar, so records plus noise reconstruct the corpus.
"""

from __future__ import annotations

import csv
import gc
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .corpus import Corpus, TextView
from .pipeline import ExtractionPlan
from .scoring import scan_records
from .templates import (
    ARRAY,
    LEAF,
    Field,
    Layout,
    Node,
    canonical_string,
    compile_template,
    layout,
    render_record,
)


class OutputError(Exception):
    pass


@dataclass
class TableSchema:
    name: str
    columns: list[str]
    parent: str | None  # parent table name for child tables


@dataclass
class TemplateSchema:
    type_index: int
    template: Node
    layout: Layout
    tables: list[TableSchema]  # index 0 is the root table
    leaf_table: list[int]  # leaf index -> table position
    leaf_col: list[int]  # leaf index -> column position in its table
    array_table: list[int]  # array index -> its child-table position
    leaf_key: list[str]  # leaf index -> nested-form key ("f<i>")
    array_key: list[str]  # array index -> nested-form key ("a<i>")


def build_schema(type_index: int, template: Node) -> TemplateSchema:
    """One root table, plus one child table per array in array order; each
    leaf is a column of the table of its innermost array (or of the root)."""
    lay = layout(template)
    n_arrays = len(lay.arrays)
    tables = [TableSchema(f"t{type_index}", ["_id"], None)] + [
        TableSchema(f"t{type_index}_a{j}", ["_id", "_parent_id"], None)
        for j in range(n_arrays)
    ]
    array_table = [j + 1 for j in range(n_arrays)]
    leaf_table = [0] * lay.n_leaves
    pending = [(lay, 0)]
    while pending:
        body, table_pos = pending.pop()
        for kind, index, _, sub in body.slots:
            if kind == LEAF:
                leaf_table[index] = table_pos
            elif kind == ARRAY:
                tables[array_table[index]].parent = tables[table_pos].name
                pending.append((sub, array_table[index]))
    leaf_col = []
    for i, table_pos in enumerate(leaf_table):
        leaf_col.append(len(tables[table_pos].columns))
        tables[table_pos].columns.append(f"f{i}")
    return TemplateSchema(type_index, template, lay, tables, leaf_table, leaf_col,
                          array_table, [f"f{i}" for i in range(lay.n_leaves)],
                          [f"a{j}" for j in range(n_arrays)])


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list[str]]


@dataclass(slots=True)
class RecordMeta:
    type_index: int
    row_id: int
    start_line: int
    end_line: int
    start_byte: int
    end_byte: int


@dataclass
class RelationalOutput:
    tables: list[Table]
    foreign_keys: dict[tuple[str, str], str]
    denormalized: list[dict]
    noise: list[tuple[int, bytes]]
    records: list[RecordMeta]
    schemas: list[TemplateSchema]
    source_len: int = 0

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


def _new_row(table: Table, parent_id: int | None) -> tuple[int, list[str]]:
    rid = len(table.rows)
    row = [""] * len(table.columns)
    row[0] = str(rid)
    if parent_id is not None:
        row[1] = str(parent_id)
    table.rows.append(row)
    return rid, row


def emit_record(schema: TemplateSchema, tables: list[Table],
                values: list[list[bytes]], arities: list[list[int]]) -> tuple[int, dict]:
    """Append one record's rows; returns (root row id, nested form)."""
    root_id, root_row = _new_row(tables[0], None)
    nested: dict = {"_type": schema.tables[0].name, "_row": root_id}
    _emit(schema.layout, schema, tables, [iter(v) for v in values],
          [iter(a) for a in arities], root_row, nested)
    return root_id, nested


def _emit(lay: Layout, schema: TemplateSchema, tables: list[Table],
          values: list, arities: list, row: list[str], obj: dict) -> None:
    """Fill ``row`` and ``obj`` from the next values of ``lay``'s leaves, and
    add child rows for its arrays."""
    for kind, index, node, body in lay.slots:
        if kind == LEAF:
            v = next(values[index]).decode("latin-1")
            row[schema.leaf_col[index]] = v
            obj[schema.leaf_key[index]] = v
        elif kind == ARRAY:
            table = tables[schema.array_table[index]]
            parent_id = int(row[0])
            single = isinstance(node.body, Field)
            items = []
            for _ in range(next(arities[index])):
                _, child_row = _new_row(table, parent_id)
                child_obj: dict = {}
                _emit(body, schema, tables, values, arities, child_row, child_obj)
                items.append(next(iter(child_obj.values())) if single else child_obj)
            obj[schema.array_key[index]] = items


@contextmanager
def _gc_paused():
    """Suspend the cyclic collector while building many acyclic objects.

    The rows, nested dicts and lists built per record hold no reference
    cycles, so collecting them reclaims nothing.  Left on, the collector's
    full passes rescan the whole live heap (other data of the process
    included) each time it grows by a quarter, which adds seconds per
    100 MB of input and makes the cost of one extraction depend on what
    else is alive.  Code run under the pause must not create garbage
    cycles: they would stay in memory until it ends.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def new_tables(schemas: list[TemplateSchema]
               ) -> tuple[list[list[Table]], dict[tuple[str, str], str]]:
    """Empty tables of each record type, and the foreign keys
    ``(child table, "_parent_id") -> parent table`` that link them."""
    tables = [[Table(ts.name, list(ts.columns), []) for ts in sc.tables]
              for sc in schemas]
    fks = {(ts.name, "_parent_id"): ts.parent
           for sc in schemas for ts in sc.tables if ts.parent is not None}
    return tables, fks


def extract_all(corpus: Corpus, plan: ExtractionPlan) -> RelationalOutput:
    """Single pass over the full corpus; templates tried in discovery order."""
    if not plan.templates:
        raise ValueError("empty extraction plan")
    tv = corpus.view()
    compiled = [compile_template(t) for t in plan.template_nodes]
    schemas = [build_schema(i, c.template) for i, c in enumerate(compiled)]
    tables_per_type, fks = new_tables(schemas)
    denormalized: list[dict] = []
    noise: list[tuple[int, bytes]] = []
    records: list[RecordMeta] = []

    with _gc_paused():
        prev = 0  # the first line after the previous record
        for k, i, j, end, values, arities in scan_records(tv, compiled,
                                                          plan.max_span_lines):
            _noise_lines(tv, prev, i, noise)
            rid, nested = emit_record(schemas[k], tables_per_type[k], values, arities)
            nested["_span"] = [i, j]
            records.append(RecordMeta(k, rid, i, j, int(tv.offsets[i]), end))
            denormalized.append(nested)
            prev = j
        _noise_lines(tv, prev, tv.n_lines, noise)

    tables = [t for group in tables_per_type for t in group]
    return RelationalOutput(tables, fks, denormalized, noise, records,
                            schemas, source_len=len(tv.data))


def _noise_lines(tv: TextView, first: int, stop: int,
                 noise: list[tuple[int, bytes]]) -> None:
    """Append lines ``[first, stop)`` as ``(offset, line)`` noise entries."""
    for g in range(first, stop):
        s, e = int(tv.offsets[g]), int(tv.offsets[g + 1])
        noise.append((s, tv.data[s:e]))


# ---------------------------------------------------------------------------
# Record re-serialization (conservation checks)


def record_values(out: RelationalOutput, meta: RecordMeta,
                  children_index: dict | None = None):
    """Recover (values, arities) for one record from the tables via FK joins."""
    schema = out.schemas[meta.type_index]
    if children_index is None:
        children_index = build_children_index(out)
    values: list[list[bytes]] = [[] for _ in range(schema.layout.n_leaves)]
    arities: list[list[int]] = [[] for _ in schema.layout.arrays]
    root = out.table(schema.tables[0].name).rows[meta.row_id]
    _collect(schema.layout, schema, children_index, root, values, arities)
    return values, arities


def _collect(lay: Layout, schema: TemplateSchema, children_index: dict,
             row: list[str], values: list[list[bytes]],
             arities: list[list[int]]) -> None:
    """Append ``row``'s values of ``lay``'s leaves, then those of its arrays'
    child rows."""
    for kind, index, _, body in lay.slots:
        if kind == LEAF:
            values[index].append(row[schema.leaf_col[index]].encode("latin-1"))
        elif kind == ARRAY:
            child_name = schema.tables[schema.array_table[index]].name
            rows = children_index.get((child_name, int(row[0])), [])
            arities[index].append(len(rows))
            for child_row in rows:
                _collect(body, schema, children_index, child_row, values, arities)


def build_children_index(out: RelationalOutput) -> dict:
    index: dict = {}
    for t in out.tables:
        if len(t.columns) > 1 and t.columns[1] == "_parent_id":
            for row in t.rows:
                index.setdefault((t.name, int(row[1])), []).append(row)
    return index


def reconstruct(out: RelationalOutput) -> bytes:
    """Re-serialize records from the tables plus noise; byte-identical to the
    normalized corpus (modulo a final newline absent at EOF)."""
    pieces: list[tuple[int, bytes]] = list(out.noise)
    idx = build_children_index(out)
    for meta in out.records:
        values, arities = record_values(out, meta, idx)
        schema = out.schemas[meta.type_index]
        rendered = render_record(schema.template, values, arities)
        if meta.end_byte - meta.start_byte == len(rendered) - 1:
            rendered = rendered[:-1]  # record at EOF without trailing newline
        pieces.append((meta.start_byte, rendered))
    pieces.sort(key=lambda p: p[0])
    return b"".join(p[1] for p in pieces)


# ---------------------------------------------------------------------------
# Writers / readers


def write_output(out: RelationalOutput, directory, fmt: str = "both") -> list[str]:
    """Write CSV tables, denormalized NDJSON, noise sidecar, and manifest."""
    if fmt not in ("csv", "json", "both"):
        raise ValueError("format must be csv, json, or both")
    os.makedirs(directory, exist_ok=True)
    written = []

    def path(name: str) -> str:
        return os.path.join(directory, name)

    try:
        if fmt in ("csv", "both"):
            for t in out.tables:
                fname = path(f"{t.name}.csv")
                with open(fname, "w", encoding="latin-1", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(t.columns)
                    w.writerows(t.rows)
                written.append(fname)
        if fmt in ("json", "both"):
            fname = path("records.ndjson")
            with open(fname, "w", encoding="latin-1") as fh:
                for obj in out.denormalized:
                    fh.write(json.dumps(obj, sort_keys=True))
                    fh.write("\n")
            written.append(fname)
        fname = path("_noise.txt")
        with open(fname, "wb") as fh:
            for offset, line in out.noise:
                fh.write(b"%d\t%s\n" % (offset, line.rstrip(b"\n")))
        written.append(fname)
        fname = path("_manifest.json")
        manifest = {
            "source_len": out.source_len,
            "templates": [
                canonical_string(sc.template).decode("latin-1")
                for sc in out.schemas
            ],
            "tables": [
                {"name": ts.name, "columns": ts.columns, "parent": ts.parent}
                for sc in out.schemas for ts in sc.tables
            ],
            "records": [
                {"type": m.type_index, "row": m.row_id,
                 "start_line": m.start_line, "end_line": m.end_line,
                 "start_byte": m.start_byte, "end_byte": m.end_byte}
                for m in out.records
            ],
        }
        with open(fname, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(fname)
    except OSError as exc:
        raise OutputError(f"cannot write {directory}: {exc}") from exc
    return written


def read_extracted(directory) -> RelationalOutput:
    """Load a written extraction back (tables + records; noise is not kept)."""
    from .templates import parse_canonical

    mpath = os.path.join(directory, "_manifest.json")
    try:
        with open(mpath, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise OutputError(f"cannot read {mpath}: {exc}") from exc
    schemas = [build_schema(i, parse_canonical(t.encode("latin-1")))
               for i, t in enumerate(manifest["templates"])]
    tables = []
    fks: dict[tuple[str, str], str] = {}
    for spec in manifest["tables"]:
        fname = os.path.join(directory, f"{spec['name']}.csv")
        with open(fname, encoding="latin-1", newline="") as fh:
            rows = list(csv.reader(fh))
        tables.append(Table(spec["name"], rows[0], rows[1:]))
        if spec["parent"]:
            fks[(spec["name"], "_parent_id")] = spec["parent"]
    records = [RecordMeta(r["type"], r["row"], r["start_line"], r["end_line"],
                          r["start_byte"], r["end_byte"])
               for r in manifest["records"]]
    return RelationalOutput(tables, fks, [], [], records, schemas,
                            manifest.get("source_len", 0))
