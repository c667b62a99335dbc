import csv
import gc
import json

import pytest

from conftest import ArraySpec, FieldSpec, generate, make_spec, two_type_spec
from logstruct.corpus import TextView, corpus_from_bytes
from logstruct.extraction import (
    OutputError,
    build_schema,
    extract_all,
    read_extracted,
    reconstruct,
    write_output,
)
from logstruct.pipeline import ExtractionPlan, RoundInfo, discover
from logstruct.scoring import ScoredTemplate, parse_with_template
from logstruct.templates import TemplateError, canonical_string, parse_canonical


def plan_of(*templates, max_span=10):
    scored = []
    for t in templates:
        node = parse_canonical(t)
        scored.append(ScoredTemplate(node, canonical_string(node), 0, [], 0, 0, 0, 0))
    return ExtractionPlan(scored, [RoundInfo(s, 0.0, 0) for s in scored],
                          0.0, "ok", {}, max_span)


def test_root_rows_simple():
    out = extract_all(corpus_from_bytes(b"a,b\nc,d\n"), plan_of(b"F,F\n"))
    t0 = out.table("t0")
    assert t0.columns == ["_id", "f0", "f1"]
    assert t0.rows == [["0", "a", "b"], ["1", "c", "d"]]
    assert out.noise == []


def test_quoted_array_child_rows_with_fk():
    out = extract_all(corpus_from_bytes(b'x,"1,2,3",y\n'), plan_of(b'F,"(F,)*F",F\n'))
    assert out.table("t0").rows == [["0", "x", "y"]]
    child = out.table("t0_a0")
    assert child.columns == ["_id", "_parent_id", "f1"]
    assert child.rows == [["0", "0", "1"], ["1", "0", "2"], ["2", "0", "3"]]
    assert out.foreign_keys[("t0_a0", "_parent_id")] == "t0"


def test_nested_arrays_chain_foreign_keys():
    out = extract_all(corpus_from_bytes(b"1;2:a,3;4;5:b.\n"),
                      plan_of(b"((F;)*F:F,)*(F;)*F:F.\n"))
    outer = out.table("t0_a0")
    inner = out.table("t0_a1")
    assert out.foreign_keys[("t0_a0", "_parent_id")] == "t0"
    assert out.foreign_keys[("t0_a1", "_parent_id")] == "t0_a0"
    assert [r[2] for r in outer.rows] == ["a", "b"]
    assert [(r[1], r[2]) for r in inner.rows] == \
        [("0", "1"), ("0", "2"), ("1", "3"), ("1", "4"), ("1", "5")]


def test_interleaved_types_first_match_wins():
    res = generate(two_type_spec(seed=21))
    corpus = corpus_from_bytes(res.data)
    out = extract_all(corpus, plan_of(b"<<F>>\n==F.F.F.F\n", b"[F] F -> F\n"))
    per_type = {m.type_index for m in out.records}
    assert per_type == {0, 1}
    planted = {(s, e) for _, s, e in res.records}
    assert {(m.start_line, m.end_line) for m in out.records} == planted


def test_unmatched_lines_in_noise_sidecar():
    out = extract_all(corpus_from_bytes(b"a,b\n???\nc,d\n"), plan_of(b"F,F\n"))
    assert out.noise == [(4, b"???\n")]


def test_zero_matches_yields_empty_tables_full_noise():
    out = extract_all(corpus_from_bytes(b"xx\nyy\n"), plan_of(b"F=F\n"))
    assert out.table("t0").rows == []
    assert len(out.noise) == 2
    assert reconstruct(out) == b"xx\nyy\n"


def test_conservation_on_synthetic_corpora():
    for seed in (1, 2, 3):
        res = generate(two_type_spec(seed=seed))
        corpus = corpus_from_bytes(res.data)
        plan = discover(corpus)
        out = extract_all(corpus, plan)
        assert reconstruct(out) == res.data


def test_conservation_with_arrays_and_eof_without_newline():
    res = generate(make_spec(
        [(b"[F] (F,)*F;\n", [FieldSpec("str"), FieldSpec("int", 0, 9999)],
          [ArraySpec(1, 5)], 1.0)],
        noise_fraction=0.2, record_count=50, seed=13))
    # the last record's array body ends with its terminator byte
    body_ends_in_term = b"1\n,2\n\nnoise\n3\n\n4\n,5\n\n"
    for template, data in [(b"[F] (F,)*F;\n", res.data),
                           (b"(F\n,)*F\n\n", body_ends_in_term)]:
        data = data[:-1]  # strip the final newline
        corpus = corpus_from_bytes(data)
        out = extract_all(corpus, plan_of(template))
        assert reconstruct(out) == data


def test_score_parses_the_records_extraction_emits():
    # A template's score counts exactly the records and noise that
    # extraction with that template alone emits.
    two = generate(two_type_spec(seed=4)).data
    arrays = generate(make_spec(
        [(b'F,"(F,)*F",F\n', [FieldSpec("str"), FieldSpec("int", 0, 9999),
                               FieldSpec("str")], [ArraySpec(1, 5)], 1.0)],
        noise_fraction=0.2, record_count=80, seed=8)).data
    cases = [(b"<<F>>\n==F.F.F.F\n", two), (b"[F] F -> F\n", two),
             (b'F,"(F,)*F",F\n', arrays), (b'F,"(F,)*F",F\n', arrays[:-1]),
             (b"<<F>>\n==F.F.F.F\n", two[:-1])]
    for template, data in cases:
        out = extract_all(corpus_from_bytes(data), plan_of(template))
        parse = parse_with_template(TextView.from_bytes(data), parse_canonical(template))
        assert out.records, template
        assert parse.record_line_spans == \
            [(m.start_line, m.end_line) for m in out.records], template
        assert parse.noise_bytes == sum(len(line) for _, line in out.noise), template


def _unreachable_after(fn):
    """(objects in reference cycles that ``fn`` left behind, its result)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = fn()
        return gc.collect(), result
    finally:
        if was_enabled:
            gc.enable()


def test_record_walks_leave_no_garbage_per_record():
    # A walk over a record that leaves a reference cycle behind (as a
    # recursive nested closure does) makes work for the cyclic collector in
    # proportion to the record count.
    counts = {}
    for n in (60, 240):
        spec = make_spec(
            [(b'F,"(F,)*F",F\n', [FieldSpec("str"), FieldSpec("int", 0, 9999),
                                   FieldSpec("str")], [ArraySpec(1, 5)], 1.0)],
            noise_fraction=0.1, record_count=n, seed=0)
        gen, res = _unreachable_after(lambda: generate(spec))
        ext, out = _unreachable_after(lambda: extract_all(
            corpus_from_bytes(res.data), plan_of(b'F,"(F,)*F",F\n')))
        rec, data = _unreachable_after(lambda: reconstruct(out))
        assert data == res.data
        counts[n] = {"generate": gen, "extract_all": ext, "reconstruct": rec}
    for step, small in counts[60].items():
        assert counts[240][step] <= small, counts


def test_column_arity_is_constant_per_table():
    res = generate(two_type_spec(seed=5))
    out = extract_all(corpus_from_bytes(res.data),
                      plan_of(b"<<F>>\n==F.F.F.F\n", b"[F] F -> F\n"))
    for t in out.tables:
        for row in t.rows:
            assert len(row) == len(t.columns)


def test_row_ids_are_file_ordered():
    out = extract_all(corpus_from_bytes(b"a,b\nc,d\ne,f\n"), plan_of(b"F,F\n"))
    assert [r[0] for r in out.table("t0").rows] == ["0", "1", "2"]


class TestWriters:
    def test_csv_round_trip(self, tmp_path):
        res = generate(two_type_spec(seed=6))
        out = extract_all(corpus_from_bytes(res.data),
                          plan_of(b"<<F>>\n==F.F.F.F\n", b"[F] F -> F\n"))
        write_output(out, tmp_path, "both")
        for t in out.tables:
            with open(tmp_path / f"{t.name}.csv", encoding="latin-1", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == t.columns
            assert rows[1:] == t.rows

    def test_rfc4180_quoting(self, tmp_path):
        # field values may contain commas and quotes as long as those bytes
        # are not formatting bytes of the template
        out = extract_all(corpus_from_bytes(b'x;a,"b;y\n'), plan_of(b"F;F;F\n"))
        assert out.table("t0").rows == [["0", "x", 'a,"b', "y"]]
        write_output(out, tmp_path, "csv")
        raw = (tmp_path / "t0.csv").read_bytes()
        assert b'"a,""b"' in raw
        with open(tmp_path / "t0.csv", encoding="latin-1", newline="") as fh:
            assert list(csv.reader(fh))[1] == ["0", "x", 'a,"b', "y"]

    def test_empty_output_headers_only(self, tmp_path):
        out = extract_all(corpus_from_bytes(b"zz\n"), plan_of(b"F=F\n"))
        write_output(out, tmp_path, "csv")
        with open(tmp_path / "t0.csv", encoding="latin-1", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["_id", "f0", "f1"]]

    def test_ndjson_denormalized_form(self, tmp_path):
        out = extract_all(corpus_from_bytes(b'x,"1,2",y\n'), plan_of(b'F,"(F,)*F",F\n'))
        write_output(out, tmp_path, "json")
        lines = (tmp_path / "records.ndjson").read_text().splitlines()
        obj = json.loads(lines[0])
        assert obj["f0"] == "x" and obj["f2"] == "y"
        assert obj["a0"] == ["1", "2"]

    def test_noise_sidecar_format(self, tmp_path):
        out = extract_all(corpus_from_bytes(b"a,b\nnoise here\n"), plan_of(b"F,F\n"))
        write_output(out, tmp_path, "csv")
        assert (tmp_path / "_noise.txt").read_bytes() == b"4\tnoise here\n"

    def test_read_extracted_round_trip(self, tmp_path):
        res = generate(two_type_spec(seed=7))
        out = extract_all(corpus_from_bytes(res.data),
                          plan_of(b"<<F>>\n==F.F.F.F\n", b"[F] F -> F\n"))
        write_output(out, tmp_path, "both")
        back = read_extracted(tmp_path)
        assert {t.name: t.rows for t in back.tables} == \
            {t.name: t.rows for t in out.tables}
        assert [(m.type_index, m.start_line, m.end_line) for m in back.records] == \
            [(m.type_index, m.start_line, m.end_line) for m in out.records]

    def test_bad_format_rejected(self, tmp_path):
        out = extract_all(corpus_from_bytes(b"a,b\n"), plan_of(b"F,F\n"))
        with pytest.raises(ValueError):
            write_output(out, tmp_path, "xml")


def test_schema_one_column_per_field():
    schema = build_schema(0, parse_canonical(b"F,\"(F,)*F\",F\n"))
    all_cols = [c for t in schema.tables for c in t.columns
                if not c.startswith("_")]
    assert sorted(all_cols) == ["f0", "f1", "f2"]


def test_empty_plan_rejected():
    with pytest.raises(ValueError):
        extract_all(corpus_from_bytes(b"a\n"), plan_of())


def test_plan_template_without_final_newline_rejected():
    # a record of F,F would end before its line's newline, which would be lost
    with pytest.raises(TemplateError, match="newline"):
        extract_all(corpus_from_bytes(b"a,b;rest\nc,d;more\n"), plan_of(b"F,F"))


def test_plan_template_without_field_rejected():
    with pytest.raises(TemplateError, match="field"):
        extract_all(corpus_from_bytes(b"--\n"), plan_of(b"--\n"))
