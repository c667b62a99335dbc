"""Apply a discovered plan to a full corpus and emit relational output.

Each record type gets one root table; every array node gets a child table
linked by a ``_parent_id`` foreign key (nested arrays chain grandchild
tables).  Each field placeholder maps to exactly one column.  Records are
found by the scan that scoring uses (see :mod:`logstruct.scoring`); unmatched
lines go to a noise sidecar, so records plus noise reconstruct the corpus.
Only tables, noise and the record index are stored; the rest is derived.
The record index (:class:`RecordIndex`) holds no object per record: it is
six int64 columns, one per ``RecordMeta`` field, appended to during the scan.

``write_output`` writes the stored form in every format: the tables as CSV,
the noise sidecar ``_noise.txt``, and the record index ``_records.csv`` with
``_manifest.json``; ``records.ndjson`` (derived) unless the format is
``csv``.  ``read_extracted`` reads the stored form back.
"""

from __future__ import annotations

import csv
import gc
import json
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter

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
    template: Node
    layout: Layout
    tables: list[TableSchema]  # the root table, then array j's at j + 1
    leaf_col: list[int]  # leaf index -> column position in its table


def build_schema(type_index: int, template: Node) -> TemplateSchema:
    """One root table, plus one child table per array in array order; each
    leaf is a column of the table of its innermost array (or of the root)."""
    lay = layout(template)
    tables = [TableSchema(f"t{type_index}", ["_id"], None)] + [
        TableSchema(f"t{type_index}_a{j}", ["_id", "_parent_id"], None)
        for j in range(len(lay.arrays))
    ]
    leaf_table = [0] * lay.n_leaves
    pending = [(lay, 0)]
    while pending:
        body, table_pos = pending.pop()
        for kind, index, _, sub in body.slots:
            if kind == LEAF:
                leaf_table[index] = table_pos
            elif kind == ARRAY:
                tables[index + 1].parent = tables[table_pos].name
                pending.append((sub, index + 1))
    leaf_col = []
    for i, table_pos in enumerate(leaf_table):
        leaf_col.append(len(tables[table_pos].columns))
        tables[table_pos].columns.append(f"f{i}")
    return TemplateSchema(template, lay, tables, leaf_col)


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list[str]]


@dataclass(slots=True)
class RecordMeta:
    """One record of a ``RecordIndex``: its type, the id of its root row,
    and its half-open line and byte spans."""

    type_index: int
    row_id: int
    start_line: int
    end_line: int
    start_byte: int
    end_byte: int


_RECORD_COLUMNS = [f.name for f in fields(RecordMeta)]


class RecordIndex:
    """The record index: one ``array('q')`` column per ``RecordMeta`` field,
    so a record costs six int64 values and no object.  Iterating over it
    builds ``RecordMeta`` row views; a value outside ``[-2**63, 2**63)``
    raises OverflowError."""

    __slots__ = tuple(_RECORD_COLUMNS)

    def __init__(self, rows=()):
        """The index of ``rows``, each six integers in ``RecordMeta``'s
        field order."""
        for name in _RECORD_COLUMNS:
            setattr(self, name, array("q"))
        for column, values in zip(self.columns, zip(*rows)):
            column.extend(values)

    @property
    def columns(self) -> tuple[array, ...]:
        return tuple(getattr(self, name) for name in _RECORD_COLUMNS)

    def append(self, type_index: int, row_id: int, start_line: int,
               end_line: int, start_byte: int, end_byte: int) -> None:
        self.type_index.append(type_index)
        self.row_id.append(row_id)
        self.start_line.append(start_line)
        self.end_line.append(end_line)
        self.start_byte.append(start_byte)
        self.end_byte.append(end_byte)

    def __len__(self) -> int:
        return len(self.type_index)

    def __iter__(self):
        return map(RecordMeta, *self.columns)


@dataclass
class RelationalOutput:
    """Tables, ``(offset, line)`` noise, the record index, schemas.

    ``records`` is a ``RecordIndex``: its int64 columns hold every line and
    byte number of a record, so they lie below 2**63.  The readers of files
    from outside the program, ``read_extracted`` and
    ``synth.truth_from_json``, reject a number outside ``[0, 2**63)``."""

    tables: list[Table]
    noise: list[tuple[int, bytes]]
    records: RecordIndex
    schemas: list[TemplateSchema]
    source_len: int = 0

    @property
    def foreign_keys(self) -> dict[tuple[str, str], str]:
        """``(child table, "_parent_id") -> parent table``."""
        return {(ts.name, "_parent_id"): ts.parent
                for sc in self.schemas for ts in sc.tables if ts.parent is not None}

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)

    def root_rows(self) -> list[list[list[str]]]:
        """The rows of each record type's root table, by type index."""
        return [self.table(sc.tables[0].name).rows for sc in self.schemas]


def _new_row(table: Table, parent: list[str] | None) -> list[str]:
    """A new row of ``table``; a child row's ``_parent_id`` is its parent's
    ``_id`` string itself."""
    row = [""] * len(table.columns)
    row[0] = str(len(table.rows))
    if parent is not None:
        row[1] = parent[0]
    table.rows.append(row)
    return row


def emit_record(schema: TemplateSchema, tables: list[Table],
                values: list[list[bytes]], arities: list[list[int]]) -> int:
    """Append one record's rows; returns its root row id."""
    _emit(schema.layout, schema, tables, [iter(v) for v in values],
          [iter(a) for a in arities], _new_row(tables[0], None))
    return len(tables[0].rows) - 1


def _emit(lay: Layout, schema: TemplateSchema, tables: list[Table],
          values: list, arities: list, row: list[str]) -> None:
    """Fill ``row`` from the next values of ``lay``'s leaves, and add child
    rows for its arrays."""
    for kind, index, _, body in lay.slots:
        if kind == LEAF:
            row[schema.leaf_col[index]] = next(values[index]).decode("latin-1")
        elif kind == ARRAY:
            table = tables[index + 1]
            for _ in range(next(arities[index])):
                _emit(body, schema, tables, values, arities, _new_row(table, row))


@contextmanager
def _gc_paused():
    """Suspend the cyclic collector while building many acyclic objects.

    The rows built per record hold no reference cycles, so collecting them
    reclaims nothing.  Left on, the collector's full passes rescan the whole
    live heap (other data of the process included) each time it grows by a
    quarter, which adds seconds per 100 MB of input and makes the cost of
    one extraction depend on what else is alive.  Code run under the pause
    must not create garbage cycles: they would stay in memory until it ends.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def new_tables(schemas: list[TemplateSchema]) -> list[list[Table]]:
    """Empty tables of each record type."""
    return [[Table(ts.name, list(ts.columns), []) for ts in sc.tables]
            for sc in schemas]


def extract_all(corpus: Corpus, plan: ExtractionPlan) -> RelationalOutput:
    """Single pass over the full corpus; templates tried in discovery order."""
    if not plan.templates:
        raise ValueError("empty extraction plan")
    tv = corpus.view()
    compiled = [compile_template(t) for t in plan.template_nodes]
    schemas = [build_schema(i, c.template) for i, c in enumerate(compiled)]
    tables_per_type = new_tables(schemas)
    noise: list[tuple[int, bytes]] = []
    records = RecordIndex()

    with _gc_paused():
        prev = 0  # the first line after the previous record
        for k, i, j, end, values, arities in scan_records(tv, compiled,
                                                          plan.max_span_lines):
            _noise_lines(tv, prev, i, noise)
            rid = emit_record(schemas[k], tables_per_type[k], values, arities)
            records.append(k, rid, i, j, tv.offsets[i], end)
            prev = j
        _noise_lines(tv, prev, tv.n_lines, noise)

    tables = [t for group in tables_per_type for t in group]
    return RelationalOutput(tables, noise, records, schemas,
                            source_len=len(tv.data))


def _noise_lines(tv: TextView, first: int, stop: int,
                 noise: list[tuple[int, bytes]]) -> None:
    """Append lines ``[first, stop)`` as ``(offset, line)`` noise entries."""
    for g in range(first, stop):
        s, e = int(tv.offsets[g]), int(tv.offsets[g + 1])
        noise.append((s, tv.data[s:e]))


# ---------------------------------------------------------------------------
# Record re-serialization (conservation checks)


def record_values(schema: TemplateSchema, children_index: dict, root: list[str]):
    """Recover (values, arities) of the record whose root row is ``root``
    from the tables via FK joins (``build_children_index``)."""
    values: list[list[bytes]] = [[] for _ in range(schema.layout.n_leaves)]
    arities: list[list[int]] = [[] for _ in schema.layout.arrays]
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
            child_name = schema.tables[index + 1].name
            rows = children_index.get((child_name, int(row[0])), [])
            arities[index].append(len(rows))
            for child_row in rows:
                _collect(body, schema, children_index, child_row, values, arities)


def _nested(lay: Layout, schema: TemplateSchema, children_index: dict,
            row: list[str]) -> dict:
    """``row``'s values of ``lay``'s leaves as ``f<i>``, and each array's child
    rows as ``a<j>``: their nested forms, or values when the body is a field."""
    obj: dict = {}
    for kind, index, node, body in lay.slots:
        if kind == LEAF:
            obj[f"f{index}"] = row[schema.leaf_col[index]]
        elif kind == ARRAY:
            rows = children_index.get((schema.tables[index + 1].name, int(row[0])), [])
            items = [_nested(body, schema, children_index, r) for r in rows]
            obj[f"a{index}"] = ([item.popitem()[1] for item in items]
                                if isinstance(node.body, Field) else items)
    return obj


def build_children_index(tables: list[Table]) -> dict:
    """``(child table name, parent id) -> the child rows``, in row order."""
    index: dict = {}
    for t in tables:
        if len(t.columns) > 1 and t.columns[1] == "_parent_id":
            for row in t.rows:
                index.setdefault((t.name, int(row[1])), []).append(row)
    return index


def reconstruct(out: RelationalOutput) -> bytes:
    """Re-serialize records from the tables plus noise; byte-identical to the
    normalized corpus (modulo a final newline absent at EOF).

    Taken in byte order, records and noise lines must tile the source: each
    starts where the previous piece ended and on the line after it, a record
    renders to ``end_byte - start_byte`` bytes (one more at an EOF without
    a final newline), and the last piece ends at ``source_len``.  Otherwise
    ValueError."""
    # (start byte, line span and end byte or None for a noise line, text)
    pieces: list[tuple[int, tuple[int, int, int] | None, bytes]] = [
        (start, None, text) for start, text in out.noise]
    idx = build_children_index(out.tables)
    roots = out.root_rows()
    for k, rid, first, last, start, stop in zip(*out.records.columns):
        schema = out.schemas[k]
        rendered = render_record(schema.template,
                                 *record_values(schema, idx, roots[k][rid]))
        if stop == out.source_len and stop - start == len(rendered) - 1:
            rendered = rendered[:-1]  # record at EOF without trailing newline
        pieces.append((start, (first, last, stop), rendered))
    pieces.sort(key=itemgetter(0))
    end = line = 0
    for start, span, text in pieces:
        first, last, stop = span or (line, line + 1, start + len(text))
        if not (start == end and first == line < last) or stop != start + len(text):
            kind = "noise line" if span is None else "record"
            raise ValueError(f"reconstruct: a {kind} of {len(text)} bytes at "
                             f"byte {start}, lines [{first}, {last}), follows "
                             f"byte {end}, line {line}")
        end, line = start + len(text), last
    if end != out.source_len:
        raise ValueError(f"reconstruct: records and noise end at byte {end}, "
                         f"not at the source length {out.source_len}")
    return b"".join(text for _, _, text in pieces)


# ---------------------------------------------------------------------------
# Writers / readers


def write_output(out: RelationalOutput, directory, fmt: str = "both") -> list[str]:
    """Write the files of an extraction: in every format its stored form,
    the CSV tables, the noise sidecar ``_noise.txt`` and the record index
    ``_records.csv`` (a row per record, a column per ``RecordMeta`` field)
    with ``_manifest.json`` (``source_len``, templates and tables); unless
    ``fmt`` is ``csv``, also ``records.ndjson`` (per record, its ``_nested``
    form plus ``_type``, ``_row`` and ``_span``)."""
    if fmt not in ("csv", "json", "both"):
        raise ValueError("format must be csv, json, or both")
    os.makedirs(directory, exist_ok=True)
    written = []

    def path(name: str) -> str:
        return os.path.join(directory, name)

    csv_files = [(f"{t.name}.csv", t.columns, t.rows) for t in out.tables]
    csv_files.append(("_records.csv", _RECORD_COLUMNS, zip(*out.records.columns)))
    try:
        for name, columns, rows in csv_files:
            fname = path(name)
            with open(fname, "w", encoding="latin-1", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(columns)
                w.writerows(rows)
            written.append(fname)
        if fmt != "csv":
            fname = path("records.ndjson")
            children_index = build_children_index(out.tables)
            roots = out.root_rows()
            r = out.records
            with open(fname, "w", encoding="latin-1") as fh:
                for k, rid, first, last in zip(r.type_index, r.row_id,
                                               r.start_line, r.end_line):
                    schema = out.schemas[k]
                    obj = _nested(schema.layout, schema, children_index, roots[k][rid])
                    obj.update(_type=schema.tables[0].name, _row=rid,
                               _span=[first, last])
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
            "tables": _table_specs(out.schemas),
        }
        with open(fname, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(fname)
    except OSError as exc:
        raise OutputError(f"cannot write {directory}: {exc}") from exc
    return written


def _table_specs(schemas: list[TemplateSchema]) -> list[dict]:
    """The manifest's description of the tables of ``schemas``."""
    return [{"name": ts.name, "columns": ts.columns, "parent": ts.parent}
            for sc in schemas for ts in sc.tables]


def read_extracted(directory) -> RelationalOutput:
    """Load a written extraction back from its tables, ``_records.csv``,
    ``_noise.txt`` and ``_manifest.json``; ``records.ndjson`` is derived and
    not read.

    The files may come from outside the program: a malformed manifest,
    record index (a value that is no decimal integer in ``[0, 2**63)``) or
    noise sidecar, or a table file that does not hold its table, raises
    ValueError.
    """
    from .templates import parse_canonical

    mpath = os.path.join(directory, "_manifest.json")
    try:
        with open(mpath, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise OutputError(f"cannot read {mpath}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    templates = manifest.get("templates")
    if not (isinstance(templates, list) and all(isinstance(t, str) for t in templates)):
        raise ValueError("manifest templates must be a list of strings")
    schemas = [build_schema(i, parse_canonical(t.encode("latin-1")))
               for i, t in enumerate(templates)]
    if manifest.get("tables") != _table_specs(schemas):
        raise ValueError("manifest tables must be the tables of its templates")
    source_len = manifest.get("source_len", 0)
    if type(source_len) is not int:
        raise ValueError("manifest source_len must be an integer")
    tables = [Table(ts.name, list(ts.columns),
                    _read_table(os.path.join(directory, f"{ts.name}.csv"), ts.columns))
              for sc in schemas for ts in sc.tables]
    fname = os.path.join(directory, "_records.csv")
    rows = _read_table(fname, _RECORD_COLUMNS)
    if not all(map(str.isdecimal, chain.from_iterable(rows))):
        raise ValueError(f"{fname} must hold non-negative decimal integers")
    try:
        records = RecordIndex(map(int, r) for r in rows)
    except OverflowError:
        raise ValueError(f"{fname} must hold integers below 2**63") from None
    noise = _read_noise(os.path.join(directory, "_noise.txt"), source_len)
    out = RelationalOutput(tables, noise, records, schemas, source_len)
    root_rows = list(map(len, out.root_rows()))
    for k, rid in zip(records.type_index, records.row_id):
        if not (k < len(schemas) and rid < root_rows[k]):
            raise ValueError(f"{fname}: record of type {k}, row {rid}: no such root row")
    return out


def _read_table(fname: str, columns: list[str]) -> list[list[str]]:
    """The rows of a CSV file whose header is ``columns`` and whose every
    row is that wide."""
    with open(fname, encoding="latin-1", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != columns or any(len(r) != len(columns) for r in rows):
        raise ValueError(f"{fname} must hold the columns {columns}")
    return rows[1:]


def _read_noise(fname: str, source_len: int) -> list[tuple[int, bytes]]:
    """The ``(offset, line)`` entries of a noise sidecar.  Each line ends in
    a newline unless it ends the source, as ``write_output`` wrote it."""
    with open(fname, "rb") as fh:
        entries = fh.read().split(b"\n")
    if entries.pop():
        raise ValueError(f"{fname} must end with a newline")
    noise = []
    end = 0  # the end of the previous line
    for n, entry in enumerate(entries, 1):
        offset, tab, text = entry.partition(b"\t")
        if not (tab and offset.isdigit()):
            raise ValueError(f"{fname} line {n}: must be an offset, a tab and the line")
        start = int(offset)
        if not end <= start < source_len or start + len(text) > source_len:
            raise ValueError(f"{fname} line {n}: offset {start} must follow the "
                             f"previous line and lie within the source")
        if start + len(text) < source_len:
            text += b"\n"
        noise.append((start, text))
        end = start + len(text)
    return noise
