import csv
import gc
import json
import random
import time
import tracemalloc

import pytest

from conftest import (
    ArraySpec,
    CountingPattern,
    FieldSpec,
    generate,
    make_spec,
    two_type_spec,
)
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
from logstruct.scoring import ScoredTemplate, _next_record, parse_with_template
from logstruct.templates import (
    TemplateError,
    canonical_string,
    compile_template,
    parse_canonical,
)


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


def test_zero_matches_yields_empty_tables_full_noise(tmp_path):
    out = extract_all(corpus_from_bytes(b"xx\nyy\n"), plan_of(b"F=F\n"))
    assert out.table("t0").rows == []
    assert len(out.noise) == 2
    assert len(out.records) == 0
    assert reconstruct(out) == b"xx\nyy\n"
    # an empty record index is written as its header alone and read back
    write_output(out, tmp_path, "both")
    assert (tmp_path / "_records.csv").read_bytes() == \
        b"type_index,row_id,start_line,end_line,start_byte,end_byte\r\n"
    back = read_extracted(tmp_path)
    assert len(back.records) == 0 and list(back.records) == []
    assert reconstruct(back) == b"xx\nyy\n"


@pytest.mark.parametrize("damage", [
    lambda out: out.noise.pop(0),
    lambda out: [column.pop() for column in out.records.columns],
    lambda out: out.records.end_line.__setitem__(0, 2),
    lambda out: setattr(out, "source_len", out.source_len + 1),
], ids=["noise-line-dropped", "last-record-dropped", "line-span", "source-len"])
def test_reconstruct_rejects_records_and_noise_that_do_not_tile(damage):
    data = b"a,b\nnoise\nc,d"
    out = extract_all(corpus_from_bytes(data), plan_of(b"F,F\n"))
    assert reconstruct(out) == data
    damage(out)
    with pytest.raises(ValueError, match="^reconstruct: "):
        reconstruct(out)


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


# Records longer than the span limit: a scan that took the limit for the
# end of input would cut a record there (lines (0, 1), (2, 3) and (4, 5) at
# a limit of one line; a 10-line record (1, 11) of the 13-line array).
BLANK_SEPARATED = b"<a>\n\n<b>\nnoise\n<c>\n\n"
LONG_ARRAY = b"#x\n1\n" + b"".join(b",%d\n" % k for k in range(2, 13)) + b"\n"
# A newline-separated array: only the last ten lines before ";" fit a limit
# of ten lines.
CONFIG_DUMP = b"".join(b"k%d=%d\n" % (k, k) for k in range(30)) + b"z=0;\n#\na=1\nb=2;\n"
# The first byte of line 16 completes "a=\n" + F at a cut after it; no line
# holds a record.
CUT_AFTER_ONE_BYTE = b"x\n" * 15 + b"a=\nb=c\n"


def test_score_parses_the_records_extraction_emits():
    # A template's score counts exactly the records and noise that
    # extraction with that template alone emits.
    two = generate(two_type_spec(seed=4)).data
    arrays = generate(make_spec(
        [(b'F,"(F,)*F",F\n', [FieldSpec("str"), FieldSpec("int", 0, 9999),
                               FieldSpec("str")], [ArraySpec(1, 5)], 1.0)],
        noise_fraction=0.2, record_count=80, seed=8)).data
    # (template, input, span limit, the record line spans or None for "some")
    cases = [(b"<<F>>\n==F.F.F.F\n", two, 10, None), (b"[F] F -> F\n", two, 10, None),
             (b'F,"(F,)*F",F\n', arrays, 10, None),
             (b'F,"(F,)*F",F\n', arrays[:-1], 10, None),
             (b"<<F>>\n==F.F.F.F\n", two[:-1], 10, None),
             (b"<F>\n\n", BLANK_SEPARATED, 1, []),
             (b"<F>\n\n", BLANK_SEPARATED, 2, [(0, 2), (4, 6)]),
             (b"(F\n,)*F\n\n", LONG_ARRAY, 10, []),
             (b"(F\n,)*F\n\n", LONG_ARRAY + b"1\n,2\n\n", 10, [(14, 17)]),
             (b"(F=F\n)*F=F;\n", CONFIG_DUMP, 10, [(21, 31), (32, 34)]),
             (b"F=\nF\n", CUT_AFTER_ONE_BYTE, 2, []),
             # a limit below one line leaves every line noise, the last too
             (b"F,F\n", b"a,b\nc,d", 0, [])]
    for template, data, max_span, expected in cases:
        out = extract_all(corpus_from_bytes(data), plan_of(template, max_span=max_span))
        view = TextView.from_bytes(data)
        parse = parse_with_template(view, parse_canonical(template), max_span)
        spans = [(m.start_line, m.end_line) for m in out.records]
        if expected is None:
            assert out.records, template
        else:
            assert spans == expected, template
        assert parse.record_line_spans == spans, template
        assert parse.noise_bytes == sum(len(line) for _, line in out.noise), template
        assert len(out.noise) == view.n_lines - sum(j - i for i, j in spans), template
        assert reconstruct(out) == data, template


def test_scan_takes_the_lowest_line_then_plan_order():
    # Both templates match "a,b": the one first in the plan wins.
    for plan in ([b"F\n", b"F,F\n"], [b"F,F\n", b"F\n"]):
        out = extract_all(corpus_from_bytes(b"a,b\n"), plan_of(*plan))
        assert [(m.type_index, m.start_line, m.end_line) for m in out.records] == \
            [(0, 0, 1)]
        assert out.table("t0").rows and not out.table("t1").rows
    # Too long for the span limit, the first template matches nowhere.
    out = extract_all(corpus_from_bytes(b"a\nb\nc\n"),
                      plan_of(b"F\nF\nF\n", b"F\n", max_span=2))
    assert [(m.type_index, m.start_line, m.end_line) for m in out.records] == \
        [(1, 0, 1), (1, 1, 2), (1, 2, 3)]


def test_scan_finds_the_records_of_a_line_by_line_match():
    # The scan agrees with matching at every line start in turn, over random
    # text whose runs of matching lines outgrow the search windows.
    rng = random.Random(5)
    lines = [b"a=1", b"b=2;", b"c", b"", b",d", b"e=5;", b"f="]
    for trial in range(300):
        template = rng.choice([b"(F=F\n)*F=F;\n", b"F=F\n\n", b"(F\n,)*F\n\n", b"F;\n",
                               b"F=\nF\n"])
        max_span = rng.choice([1, 2, 3, 5])
        data = b"".join(rng.choice(lines) + b"\n" for _ in range(rng.randrange(60)))
        if data and rng.random() < 0.3:
            data = data[:-1]
        view = TextView.from_bytes(data)
        rx = compile_template(parse_canonical(template)).rx
        expected, i = [], 0
        while i < view.n_lines:
            m = rx.match(data, int(view.offsets[i]))
            j = m and i + 1 + data.count(b"\n", m.start(), m.end() - 1)
            if m and j - i <= max_span:
                expected.append((i, j))
                i = j
            else:
                i += 1
        parse = parse_with_template(view, parse_canonical(template), max_span)
        assert parse.record_line_spans == expected, (trial, template, max_span, data)


def test_bounded_search_is_the_unbounded_one_cut_at_the_bound():
    # With a last line, the search returns the unbounded search's first
    # record when it starts on or before that line, and None otherwise.
    # Each search call starts on a new line, so a text of n lines allows at
    # most n of them; more would be a search that does not end.
    rng = random.Random(11)
    lines = [b"a=1", b"b=2;", b"c", b"", b",d", b"e=5;", b"f="]
    span = lambda hit: hit and (hit[0], hit[1], hit[2].span())
    for trial in range(200):
        template = rng.choice([b"(F=F\n)*F=F;\n", b"F=F\n\n", b"(F\n,)*F\n\n", b"F;\n",
                               b"F=\nF\n"])
        max_span = rng.randint(1, 5)
        data = b"".join(rng.choice(lines) + b"\n" for _ in range(rng.randrange(60)))
        if data and rng.random() < 0.3:
            data = data[:-1]
        view = TextView.from_bytes(data)
        rx = compile_template(parse_canonical(template)).rx
        first = rng.randrange(view.n_lines + 1)
        hit = _next_record(rx, view, first, max_span)
        for last in range(view.n_lines + 3):
            counted = CountingPattern(rx, limit=view.n_lines)
            got = _next_record(counted, view, first, max_span, last)
            want = hit if hit is not None and hit[0] <= last else None
            assert span(got) == span(want), (trial, template, max_span, first, last, data)


def test_scan_work_per_line_is_bounded_by_the_span_limit():
    # Every line of a long run starts a match of the array that runs to the
    # run's ";"; a scan that let each attempt run to there would take time
    # quadratic in the run's length (tens of seconds here).
    rows = 20000
    data = b"".join(b"k%d=%d\n" % (k, k) for k in range(rows)) + b"z=0;\n"
    started = time.perf_counter()
    parse = parse_with_template(TextView.from_bytes(data),
                                parse_canonical(b"(F=F\n)*F=F;\n"), 10)
    assert time.perf_counter() - started < 5.0
    assert parse.record_line_spans == [(rows - 9, rows + 1)]


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


def test_extraction_memory_per_record_is_bounded():
    # extract_all on the benchmark's extract_bulk mix of three record types
    # (one with an array), 20,000 records: the memory it retains is the
    # tables' rows and values, the noise and the record index, some 460
    # bytes per record.  An object per record (a record object and its
    # integers, a new _parent_id string per child row) costs some 210 more.
    spec = make_spec(
        [(b"[F] F=F\n", [FieldSpec("str", min_len=4, max_len=8), FieldSpec("str"),
                         FieldSpec("int", 0, 10**6)], [], 0.45),
         (b"<F>|F|F\n", [FieldSpec("int", 0, 10**6), FieldSpec("str"),
                         FieldSpec("int", 0, 999)], [], 0.35),
         (b"{F} (F,)*F;\n", [FieldSpec("str"), FieldSpec("int", 0, 9999)],
          [ArraySpec(1, 4)], 0.20)],
        noise_fraction=0.15, record_count=20_000, seed=1)
    corpus = corpus_from_bytes(generate(spec).data)
    plan = plan_of(b"[F] F=F\n", b"<F>|F|F\n", b"{F} (F,)*F;\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = extract_all(corpus, plan)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(out.records) == 20_000
    assert retained / len(out.records) < 560, retained


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
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["_manifest.json", "_noise.txt", "_records.csv", "records.ndjson",
             "t0.csv", "t0_a0.csv"]
        lines = (tmp_path / "records.ndjson").read_text().splitlines()
        obj = json.loads(lines[0])
        assert obj["f0"] == "x" and obj["f2"] == "y"
        assert obj["a0"] == ["1", "2"]
        # an array whose body is not one field holds objects; the keys are
        # sorted, and every record's object is on its own line in text order
        out = extract_all(corpus_from_bytes(b"noise\n1;2:a,3;4;5:b.\n7:c.\n"),
                          plan_of(b"((F;)*F:F,)*(F;)*F:F.\n"))
        write_output(out, tmp_path, "json")
        assert (tmp_path / "records.ndjson").read_text() == (
            '{"_row": 0, "_span": [1, 2], "_type": "t0", "a0": [{"a1": ["1", "2"], '
            '"f1": "a"}, {"a1": ["3", "4", "5"], "f1": "b"}]}\n'
            '{"_row": 1, "_span": [2, 3], "_type": "t0", "a0": [{"a1": ["7"], '
            '"f1": "c"}]}\n')

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

    def test_written_output_read_back_writes_the_same_files(self, tmp_path):
        # every file is written from the tables, the noise and the record
        # index alone
        res = generate(make_spec(
            [(b"((F;)*F:F,)*(F;)*F:F.\n", [FieldSpec("int"), FieldSpec("str")],
              [ArraySpec(1, 3), ArraySpec(1, 3)], 0.5),
             (b'F,"(F,)*F",F\n', [FieldSpec("str"), FieldSpec("int"), FieldSpec("str")],
              [ArraySpec(1, 4)], 0.5)], noise_fraction=0.1, record_count=60, seed=3))
        out = extract_all(corpus_from_bytes(res.data),
                          plan_of(b"((F;)*F:F,)*(F;)*F:F.\n", b'F,"(F,)*F",F\n'))
        assert {m.type_index for m in out.records} == {0, 1}
        write_output(out, tmp_path / "a", "both")
        write_output(read_extracted(tmp_path / "a"), tmp_path / "b", "both")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["_manifest.json", "_noise.txt", "_records.csv", "records.ndjson",
                         "t0.csv", "t0_a0.csv", "t0_a1.csv", "t1.csv", "t1_a0.csv"]
        for name in names:
            assert (tmp_path / "b" / name).read_bytes() == \
                (tmp_path / "a" / name).read_bytes(), name

    @pytest.mark.parametrize("data", [
        b"a,b\nnoise\tone\na,b\nc,d",
        b"a,b\nc,d\nnoise\n\nlast noise",
        b"a,b\r\nnoise\rhere\r\n\r\na,b\r\nnoise at eof\r\n",
    ], ids=["no-final-newline", "noise-at-eof", "crlf"])
    def test_written_output_reconstructs_the_input(self, data, tmp_path):
        corpus = corpus_from_bytes(data)
        write_output(extract_all(corpus, plan_of(b"F,F\n")), tmp_path)
        assert reconstruct(read_extracted(tmp_path)) == corpus.data \
            == data.replace(b"\r\n", b"\n")

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
