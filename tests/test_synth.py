import pytest

from conftest import ArraySpec, FieldSpec, make_spec, single_type_spec, two_type_spec
from logstruct.corpus import TextView, corpus_from_bytes
from logstruct.extraction import Table, extract_all
from logstruct.pipeline import discover
from logstruct.scoring import DEFAULT_MAX_SPAN_LINES, parse_with_template, scan_records
from logstruct.synth import (
    OpError,
    SynthError,
    apply_ops,
    generate,
    spec_from_json,
    spec_to_json,
    truth_from_json,
    truth_to_json,
    verify_success,
)
from logstruct.templates import compile_template, parse_canonical


class TestGenerate:
    def test_no_noise_labels_every_line(self):
        res = generate(single_type_spec(noise=0.0, record_count=50))
        assert all(l[0] == "record" for l in res.line_labels)
        assert len(res.truth.table("t0").rows) == 50

    def test_multiline_interleaving_mimics_mixed_span_logs(self):
        res = generate(make_spec(
            [(b"--F--\n=F\n+F\n+F\n+F\n+F\n+F\n",
              [FieldSpec("int", 0, 999)] + [FieldSpec("str")] * 6, [], 0.5),
             (b"<<F>>\n::F\n::F\n::F\n::F\n::F\n::F\n::F\n::F\n",
              [FieldSpec("int", 0, 999)] + [FieldSpec("str")] * 8, [], 0.5)],
            record_count=40, seed=1))
        spans = {e - s for _, s, e in res.records}
        assert spans == {7, 9}
        # generator self-check: labels agree with record spans
        for t, s, e in res.records:
            assert all(res.line_labels[i][:2] == ("record", t) for i in range(s, e))

    def test_noise_fraction_quarter(self):
        res = generate(single_type_spec(noise=0.25, record_count=300))
        blocks = len(res.records) + sum(1 for l in res.line_labels if l[0] == "noise")
        noise_blocks = blocks - len(res.records)
        assert abs(noise_blocks / blocks - 0.25) <= 0.02

    def test_deterministic_for_fixed_seed(self):
        a = generate(two_type_spec(seed=42))
        b = generate(two_type_spec(seed=42))
        assert a.data == b.data
        assert a.records == b.records

    def test_noise_never_matches_any_template(self):
        # the scan with the planted templates starts no record on a noise
        # line, and its records are exactly the truth's
        spec = two_type_spec(seed=9, noise=0.3)
        res = generate(spec)
        compiled = [compile_template(t.template) for t in spec.templates]
        scanned = [(k, i, j) for k, i, j, *_ in scan_records(
            TextView.from_bytes(res.data), compiled, DEFAULT_MAX_SPAN_LINES)]
        assert all(res.line_labels[i][0] == "record" for _, i, _ in scanned)
        assert scanned == res.records

    def test_noise_before_a_record_longer_than_the_scan_bound(self):
        # a noise line before a ten-line record starts an eleven-line match,
        # which the scan does not take for a record
        spec = make_spec([(b"(F\n)*F;\n", [FieldSpec("str")], [ArraySpec(10, 10)],
                           1.0)], noise_fraction=0.2, seed=1)
        res = generate(spec)
        assert sum(l[0] == "noise" for l in res.line_labels) == 25
        p = parse_with_template(TextView.from_bytes(res.data),
                                spec.templates[0].template)
        assert p.record_line_spans == [(s, e) for _, s, e in res.records]

    def test_field_values_avoid_template_charset(self):
        res = generate(two_type_spec(seed=3))
        # type 0 uses < > = . as formatting bytes; its cells must not
        for row in res.truth.table("t0").rows:
            for cell in row[1:]:
                assert not set(cell) & set("<>=.")

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(SynthError):
            generate(make_spec([(b"F.F\n", [FieldSpec("real", 0, 100, exp=1),
                                            FieldSpec("int", 0, 9)], [], 1.0)]))
        with pytest.raises(SynthError):
            generate(make_spec([(b"F,F\n", [FieldSpec("str")], [], 1.0)]))
        with pytest.raises(SynthError):
            generate(make_spec([(b"F,F", [FieldSpec("str"), FieldSpec("str")],
                                 [], 1.0)]))
        with pytest.raises(SynthError, match="exp"):
            generate(make_spec([(b"F,F\n", [FieldSpec("real", 0, 999, exp=-1),
                                             FieldSpec("str")], [], 1.0)]))
        with pytest.raises(SynthError, match="pad"):
            generate(make_spec([(b"F,F\n", [FieldSpec("int", 0, 9, pad=-3),
                                             FieldSpec("str")], [], 1.0)]))
        with pytest.raises(SynthError, match="record_count"):
            generate(single_type_spec(record_count=-4))
        with pytest.raises(SynthError, match="record_count"):
            generate(single_type_spec(record_count=0))

    def test_spec_json_round_trip(self):
        spec = two_type_spec(seed=5)
        doc = spec_to_json(spec)
        back = spec_from_json(doc)
        assert generate(back).data == generate(spec).data

    def test_truth_json_round_trip(self):
        res = generate(single_type_spec(seed=6))
        doc = truth_to_json(res)
        back = truth_from_json(doc)
        assert back.records == res.records
        assert {t.name: t.rows for t in back.truth.tables} == \
            {t.name: t.rows for t in res.truth.tables}


def table(name, columns, rows):
    return Table(name, list(columns), [list(r) for r in rows])


def mini_output():
    # one root with an id column and a child table of digits
    root = table("t0", ["_id", "f0", "f1"], [["0", "[x]", "192"], ["1", "[y]", "10"]])
    child = table("t0_a0", ["_id", "_parent_id", "f2"],
                  [["0", "0", "1"], ["1", "0", "2"], ["2", "0", "3"],
                   ["3", "1", "7"]])
    from logstruct.extraction import RecordIndex, RelationalOutput, build_schema
    schema = build_schema(0, parse_canonical(b'F,"(F,)*F",F\n'))
    return RelationalOutput([root, child], [], RecordIndex(), [schema])


class TestOps:
    def test_trim(self):
        out = apply_ops(mini_output(), [["Trim", "t0", "f0", 1, 1]])
        assert [r[1] for r in out.table("t0").rows] == ["x", "y"]

    def test_concat_append_ip_reassembly(self):
        out = apply_ops(mini_output(), [
            ["Append", "t0", "f1", "", "."],
            ["Concat", "t0", "f1", "f0"],
        ])
        t0 = out.table("t0")
        assert t0.columns[-1] == "f1+f0"
        assert t0.rows[0][-1] == "192.[x]"

    def test_group_concat_child_rows_in_order(self):
        out = apply_ops(mini_output(), [["GroupConcat", "t0", "t0_a0", "_parent_id", "f2"]])
        assert [r[-1] for r in out.table("t0").rows] == ["123", "7"]

    def test_delete_col_and_table(self):
        out = apply_ops(mini_output(), [["DeleteCol", "t0", "f0"],
                                        ["DeleteTable", "t0_a0"]])
        assert out.table("t0").columns == ["_id", "f1"]
        assert [t.name for t in out.tables] == ["t0"]

    def test_invalid_operand_names_op_index(self):
        with pytest.raises(OpError, match=r"op 1 \(Trim\): no column 'zz'"):
            apply_ops(mini_output(), [["DeleteCol", "t0", "f0"],
                                      ["Trim", "t0", "zz", 1, 0]])
        with pytest.raises(OpError, match=r"op 0 .*no table"):
            apply_ops(mini_output(), [["DeleteTable", "missing"]])

    def test_source_tables_not_mutated(self):
        src = mini_output()
        apply_ops(src, [["DeleteCol", "t0", "f0"]])
        assert src.table("t0").columns == ["_id", "f0", "f1"]


class TestVerify:
    def script(self):
        return [["DeleteCol", "t0", "_id"]]

    def run_case(self, spec, plan_templates=None, script=None):
        res = generate(spec)
        corpus = corpus_from_bytes(res.data)
        if plan_templates is None:
            plan = discover(corpus)
        else:
            from test_extraction import plan_of
            plan = plan_of(*plan_templates)
        out = extract_all(corpus, plan)
        script = script if script is not None else self.script()
        target = apply_ops(res.truth, script).tables
        return verify_success(out, res, script, target_tables=target)

    def test_perfect_extraction_verifies(self):
        ok, diff = self.run_case(single_type_spec(seed=30),
                                 plan_templates=[b"[F:F:F] F=F\n"])
        assert ok, diff

    def test_merged_fields_fail(self):
        # ':' dropped from the plan template merges the three clock fields;
        # no split operation exists, so verification must fail
        ok, diff = self.run_case(single_type_spec(seed=31),
                                 plan_templates=[b"[F] F=F\n"])
        assert not ok
        assert diff["stage"] == "tables"

    def test_boundary_off_by_one_fails(self):
        res = generate(single_type_spec(seed=32))
        corpus = corpus_from_bytes(res.data)
        from test_extraction import plan_of
        out = extract_all(corpus, plan_of(b"[F:F:F] F=F\n"))
        records = res.truth.records
        for column in (records.start_line, records.end_line):
            for n in range(len(column)):
                column[n] += 1
        ok, diff = verify_success(out, res, self.script(),
                                  target_tables=apply_ops(res.truth, self.script()).tables)
        assert not ok and diff["stage"] == "boundaries"

    def test_monotone_under_deleting_extras(self):
        spec = make_spec(
            [(b"[F] (F,)*F;\n", [FieldSpec("str"), FieldSpec("int", 0, 9999)],
              [ArraySpec(1, 4)], 1.0)],
            noise_fraction=0.1, record_count=60, seed=33)
        res = generate(spec)
        corpus = corpus_from_bytes(res.data)
        from test_extraction import plan_of
        out = extract_all(corpus, plan_of(b"[F] (F,)*F;\n"))
        base = [["GroupConcat", "t0", "t0_a0", "_parent_id", "f1"],
                ["DeleteTable", "t0_a0"]]
        ok1, d1 = verify_success(out, res, base,
                                 target_tables=apply_ops(res.truth, base).tables)
        assert ok1, d1
        extended = base + [["DeleteCol", "t0", "_id"]]
        ok2, d2 = verify_success(out, res, extended,
                                 target_tables=apply_ops(res.truth, extended).tables)
        assert ok2, d2

    def test_type_bijection_required(self):
        res = generate(two_type_spec(seed=34))
        corpus = corpus_from_bytes(res.data)
        from test_extraction import plan_of
        # plan lists the same template twice: types cannot biject
        out = extract_all(corpus, plan_of(b"<<F>>\n==F.F.F.F\n"))
        ok, diff = verify_success(out, res, [],
                                  target_tables=apply_ops(res.truth, []).tables)
        assert not ok and diff["stage"] == "boundaries"
