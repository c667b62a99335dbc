import csv
import json
import random
import shutil

import pytest

from conftest import (
    ArraySpec,
    FieldSpec,
    generate,
    make_spec,
    single_type_spec,
    two_type_spec,
)
from logstruct.cli import main
from logstruct.synth import spec_to_json


@pytest.fixture
def csv_log(tmp_path):
    rng = random.Random(0)
    data = b"".join(b"%d,%d,%d\n" % (rng.randrange(10**6), rng.randrange(10**6),
                                     rng.randrange(10**6)) for _ in range(97))
    p = tmp_path / "sample.log"
    p.write_bytes(data)
    return p


@pytest.fixture
def noise_log(tmp_path):
    rng = random.Random(1)
    alphabet = "abcdefghij klmnop.,;-0123456789"
    lines = ["".join(rng.choice(alphabet) for _ in range(rng.randint(12, 40))) + "\n"
             for _ in range(100)]
    p = tmp_path / "noise.log"
    p.write_text("".join(lines))
    return p


def test_discover_exit_zero_and_one_template(csv_log, capsys):
    code = main(["discover", str(csv_log)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert [r["template"] for r in doc["rounds"]] == ["F,F,F\n"]


def test_discover_no_structure_exit_3(noise_log, capsys):
    code = main(["discover", str(noise_log)])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "no_structure"


def test_unknown_flag_is_usage_error(csv_log, capsys):
    assert main(["discover", str(csv_log), "--bogus"]) == 2


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["discover", str(tmp_path / "absent.log")]) == 2


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.count(".") == 2


def test_extract_auto_writes_outputs(csv_log, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["extract", str(csv_log), "--auto", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"t0.csv", "records.ndjson", "_noise.txt", "_records.csv", "_manifest.json",
            "plan.json"} <= names


def test_extract_with_plan_file(csv_log, tmp_path, capsys):
    plan_dir = tmp_path / "plan"
    assert main(["discover", str(csv_log), "--out", str(plan_dir)]) == 0
    out = tmp_path / "out"
    code = main(["extract", str(csv_log), "--plan", str(plan_dir / "plan.json"),
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    assert (out / "t0.csv").exists()
    assert not (out / "records.ndjson").exists()


def test_extract_plan_template_without_final_newline_rejected(tmp_path, capsys):
    # a record of F,F ends before its line's newline, which would be lost
    log = tmp_path / "in.log"
    log.write_bytes(b"a,b;rest\nc,d;more\n")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"status": "ok", "rounds": [{"template": "F,F"}]}))
    code = main(["extract", str(log), "--plan", str(plan), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "newline" in capsys.readouterr().err


_GOOD_PLAN = {"status": "ok", "max_span_lines": 10, "rounds": [{"template": "F,F\n"}]}


@pytest.mark.parametrize("plan", [
    {**_GOOD_PLAN, "max_span_lines": "3"},
    {**_GOOD_PLAN, "max_span_lines": 2.5},
    {**_GOOD_PLAN, "max_span_lines": 0},
    {**_GOOD_PLAN, "rounds": [{"total_dl": 1.0}]},
    {**_GOOD_PLAN, "rounds": [{"template": 7}]},
    {**_GOOD_PLAN, "rounds": "F,F\n"},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n", "coverage_pct": "x"}]},
    {**_GOOD_PLAN, "residual_noise_fraction": "x"},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n", "total_dl": "x"}]},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n", "record_count": 1.5}]},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n", "noise_bytes": True}]},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n", "block_count": None}]},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n", "subsets_enumerated": "3"}]},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n", "field_types": "integer"}]},
    {**_GOOD_PLAN, "rounds": [{"template": "F,F\n",
                               "field_types": [{"kind": "integer", "min": 0}]}]},
    {**_GOOD_PLAN, "status": 1},
    {**_GOOD_PLAN, "diagnostics": []},
], ids=["span-str", "span-float", "span-zero", "no-template", "template-int",
        "rounds-str", "coverage-str", "residual-str", "dl-str", "records-float",
        "noise-bool", "blocks-null", "subsets-str", "field-types-str",
        "field-type-figure-missing", "status-int", "diagnostics-list"])
def test_extract_malformed_plan_rejected(plan, csv_log, tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code = main(["extract", str(csv_log), "--plan", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()  # rejected before extraction


def test_extract_with_plan_writes_the_plan_it_read(csv_log, tmp_path, capsys):
    plan_dir = tmp_path / "plan"
    assert main(["discover", str(csv_log), "--out", str(plan_dir)]) == 0
    out = tmp_path / "out"
    assert main(["extract", str(csv_log), "--plan", str(plan_dir / "plan.json"),
                 "--out", str(out)]) == 0
    assert (out / "plan.json").read_text() == (plan_dir / "plan.json").read_text()


def test_extract_requires_plan_or_auto(csv_log, capsys):
    assert main(["extract", str(csv_log)]) == 2


def test_synth_verify_loop(tmp_path, capsys):
    spec_doc = spec_to_json(single_type_spec(seed=40))
    spec_doc["script"] = [["DeleteCol", "t0", "_id"]]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec_path), "--out", str(synth_dir)]) == 0
    assert (synth_dir / "corpus.log").exists()

    out_dir = tmp_path / "out"
    assert main(["extract", str(synth_dir / "corpus.log"), "--auto",
                 "--out", str(out_dir)]) == 0
    code = main(["verify", "--extracted", str(out_dir),
                 "--truth", str(synth_dir / "truth.json")])
    captured = capsys.readouterr().out.splitlines()[-1]
    assert code == 0, captured
    assert json.loads(captured) == {"success": True, "diff": {}}


_GOOD_SPEC = {"templates": [{"template": "[F] F=F\n", "fields": [
    {"kind": "enum", "values": ["a", "b"]},
    {"kind": "str", "min_len": 3, "max_len": 8},
    {"kind": "int", "lo": 0, "hi": 999}]}], "record_count": 20, "seed": 1}


@pytest.mark.parametrize("edit, named", [
    (lambda d: [d], "object"),
    (lambda d: _set(d, ["templates"], _DELETE), "templates"),
    (lambda d: _set(d, ["templates", 0], "[F] F=F\n"), "objects"),
    (lambda d: _set(d, ["templates", 0, "fields"], _DELETE), "fields"),
    (lambda d: _set(d, ["templates", 0, "fields", 2, "lo"], _DELETE), "lo"),
    (lambda d: _set(d, ["templates", 0, "fields", 2, "hi"], "9"), "hi"),
    (lambda d: _set(d, ["templates", 0, "fields", 0, "values"], []), "enum"),
    (lambda d: _set(d, ["templates", 0, "fields", 2, "lo"], 1000), "lo"),
    (lambda d: _set(d, ["templates", 0, "fields", 1, "min_len"], 9), "min_len"),
    (lambda d: _set(d, ["templates", 0, "fields", 1, "min_len"], 0), "min_len"),
    (lambda d: _set(d, ["templates", 0, "weight"], "1"), "weight"),
    (lambda d: _set(d, ["noise_len"], 8), "noise_len"),
    (lambda d: _set(d, ["noise_len"], [9, 2]), "noise_len"),
    (lambda d: _set(d, ["templates", 0, "fields", 2],
                    {"kind": "real", "lo_scaled": 0, "hi_scaled": 999, "exp": -1}),
     "exp"),
    (lambda d: _set(d, ["templates", 0, "fields", 2, "pad"], -3), "pad"),
    (lambda d: _set(d, ["record_count"], -4), "record_count"),
], ids=["not-object", "no-templates", "template-str", "no-fields", "int-no-lo",
        "int-hi-str", "enum-empty", "lo-above-hi", "min-len-above-max", "min-len-zero",
        "weight-str", "noise-len-int", "noise-len-reversed", "real-exp-negative",
        "int-pad-negative", "record-count-negative"])
def test_synth_malformed_spec_rejected(edit, named, tmp_path, capsys):
    assert main(["synth", "--spec", str(_spec_file(tmp_path, _GOOD_SPEC)),
                 "--out", str(tmp_path / "ok")]) == 0
    code = main(["synth", "--spec", str(_spec_file(tmp_path, edit(_GOOD_SPEC))),
                 "--out", str(tmp_path / "synth")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert not (tmp_path / "synth").exists()


def _spec_file(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_flags_wrong_extraction(tmp_path, capsys):
    spec_doc = spec_to_json(two_type_spec(seed=41))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    synth_dir = tmp_path / "synth"
    main(["synth", "--spec", str(spec_path), "--out", str(synth_dir)])
    # extract with an impoverished one-type plan
    plan = {"status": "ok", "max_span_lines": 10, "rounds": [
        {"template": "[F] F -> F\n", "total_dl": 0, "coverage_pct": 0,
         "field_types": [], "record_count": 0, "noise_bytes": 0,
         "block_count": 0, "subsets_enumerated": 0}]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_dir = tmp_path / "out"
    assert main(["extract", str(synth_dir / "corpus.log"), "--plan",
                 str(plan_path), "--out", str(out_dir)]) == 0
    code = main(["verify", "--extracted", str(out_dir),
                 "--truth", str(synth_dir / "truth.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["success"] is False


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    """A synthesized corpus with an array type, its truth file, and its
    extraction with the planted plan, which ``verify`` accepts."""
    d = tmp_path_factory.mktemp("verified")
    spec = make_spec([(b'F,"(F,)*F",F\n', [FieldSpec("str"), FieldSpec("int"),
                                            FieldSpec("str")], [ArraySpec()], 1.0)],
                     noise_fraction=0.1, record_count=40, seed=43)
    (d / "spec.json").write_text(json.dumps(spec_to_json(spec)))
    assert main(["synth", "--spec", str(d / "spec.json"), "--out", str(d / "synth")]) == 0
    (d / "plan.json").write_text(json.dumps({"rounds": [{"template": 'F,"(F,)*F",F\n'}]}))
    assert main(["extract", str(d / "synth" / "corpus.log"), "--plan",
                 str(d / "plan.json"), "--out", str(d / "out")]) == 0
    assert main(["verify", "--extracted", str(d / "out"),
                 "--truth", str(d / "synth" / "truth.json")]) == 0
    return d


def _set(doc, path, value):
    """A copy of ``doc`` with the item at ``path`` (keys and indices) set to
    ``value``, or deleted when ``value`` is ``_DELETE``."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


_DELETE = object()


def _inputs(verified, tmp_path):
    """A copy of ``verified``'s extraction and truth file, to edit."""
    shutil.copytree(verified / "out", tmp_path / "out")
    shutil.copy(verified / "synth" / "truth.json", tmp_path / "truth.json")
    return tmp_path / "out", tmp_path / "truth.json"


def _edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _verify(out, truth):
    return main(["verify", "--extracted", str(out), "--truth", str(truth)])


@pytest.mark.parametrize("edit", [
    lambda m: {},
    lambda m: [],
    lambda m: _set(m, ["templates", 0], 7),
    lambda m: _set(m, ["tables"], _DELETE),
    lambda m: _set(m, ["tables", 1, "parent"], None),
    lambda m: _set(m, ["source_len"], "12"),
], ids=["empty", "not-object", "template-int", "no-tables",
        "table-parent", "source-len-str"])
def test_verify_malformed_manifest_rejected(edit, verified, tmp_path, capsys):
    out, truth = _inputs(verified, tmp_path)
    _edit_json(out / "_manifest.json", edit)
    assert _verify(out, truth) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _set_cell(rows, row, column, value):
    """A copy of the CSV ``rows`` (the header first) with the cell of
    ``column`` in ``rows[row]`` set to ``value``, or to ``value(cell)``."""
    rows = [list(r) for r in rows]
    col = rows[0].index(column)
    rows[row][col] = value(rows[row][col]) if callable(value) else value
    return rows


def _swap_line_spans(rows):
    """A copy of the CSV ``rows`` in which the first two records exchange
    their line spans."""
    rows = [list(r) for r in rows]
    for col in (rows[0].index("start_line"), rows[0].index("end_line")):
        rows[1][col], rows[2][col] = rows[2][col], rows[1][col]
    return rows


def _shift(delta):
    return lambda cell: str(int(cell) + delta)


def _edit_records(out, edit):
    path = out / "_records.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))


@pytest.mark.parametrize("edit", [
    None,
    lambda r: _set_cell(r, 0, "type_index", "type"),
    lambda r: r[:1] + [r[1][:-1]] + r[2:],
    lambda r: _set_cell(r, 1, "end_byte", "1.5"),
    lambda r: _set_cell(r, 1, "start_line", "-1"),
    lambda r: _set_cell(r, 1, "type_index", "1"),
    lambda r: _set_cell(r, 1, "row_id", str(10**6)),
    lambda r: _set_cell(r, 1, "start_byte", str(2**64)),
], ids=["missing", "header", "row-short", "float", "negative", "type", "row", "huge"])
def test_verify_malformed_record_index_rejected(edit, verified, tmp_path, capsys):
    out, truth = _inputs(verified, tmp_path)
    if edit is None:
        (out / "_records.csv").unlink()
    else:
        _edit_records(out, edit)
    assert _verify(out, truth) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("edit", [
    lambda r: _set_cell(r, 2, "start_byte", _shift(-3)),
    lambda r: _set_cell(r, 1, "start_byte", _shift(3)),
    lambda r: _set_cell(r, -1, "end_byte", str(10**9)),
    _swap_line_spans,
], ids=["overlap", "gap", "past-end", "line-span"])
def test_verify_records_that_do_not_tile_the_source_rejected(edit, verified, tmp_path,
                                                             capsys):
    # records and noise lines, in byte order, must follow each other without
    # a gap or an overlap, in bytes and in lines, and end at source_len
    out, truth = _inputs(verified, tmp_path)
    _edit_records(out, edit)
    assert _verify(out, truth) == 2
    assert capsys.readouterr().err.startswith("error: reconstruct:")


def test_verify_reads_json_format_output(verified, tmp_path, capsys):
    # every format writes the stored form, which verify reads back
    out = tmp_path / "out"
    assert main(["extract", str(verified / "synth" / "corpus.log"), "--format", "json",
                 "--plan", str(verified / "plan.json"), "--out", str(out)]) == 0
    assert (out / "records.ndjson").exists()
    assert _verify(out, verified / "synth" / "truth.json") == 0
    assert json.loads(capsys.readouterr().out) == {"success": True, "diff": {}}


@pytest.mark.parametrize("csv_text", [
    "",
    "_id,_parent_id\r\n0,0\r\n",
    "_id,_parent_id,f1\r\n0,0\r\n",
], ids=["empty", "columns", "row-short"])
def test_verify_table_file_without_its_columns_rejected(csv_text, verified, tmp_path,
                                                        capsys):
    out, truth = _inputs(verified, tmp_path)
    (out / "t0_a0.csv").write_text(csv_text)
    assert _verify(out, truth) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b"\t", b" ", 1),
    lambda b: b"x" + b,
    lambda b: b.splitlines(keepends=True)[0] + b,
    lambda b: b + b"%d\tpast the end\n" % 10**9,
    lambda b: b[:-1],
], ids=["no-tab", "offset-not-int", "offsets-repeat", "offset-past-end",
        "unterminated"])
def test_verify_malformed_noise_sidecar_rejected(edit, verified, tmp_path, capsys):
    out, truth = _inputs(verified, tmp_path)
    noise = out / "_noise.txt"
    assert noise.read_bytes()
    noise.write_bytes(edit(noise.read_bytes()))
    assert _verify(out, truth) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("edit", [
    lambda t: {},
    lambda t: [],
    lambda t: _set(t, ["templates"], 7),
    lambda t: _set(t, ["tables"], _DELETE),
    lambda t: _set(t, ["tables", 0], "t0"),
    lambda t: _set(t, ["tables", 0, "name"], 0),
    lambda t: _set(t, ["tables", 0, "columns"], "_id"),
    lambda t: _set(t, ["tables", 0, "rows", 0], ["0"]),
    lambda t: _set(t, ["tables", 0, "rows", 0, 1], 5),
    lambda t: _set(t, ["records", 0, 0], 3),
    lambda t: _set(t, ["records", 0, 1], -1),
    lambda t: _set(t, ["records", 0, 2], 2**63),
    lambda t: _set(t, ["line_labels"], [7]),
    lambda t: _set(t, ["script"], 5),
    lambda t: _set(t, ["script"], [5]),
    lambda t: _set(t, ["script"], [["Trim", "t0", "f0", "1", 0]]),
], ids=["empty", "not-object", "templates-int", "no-tables", "table-str",
        "table-name-int", "columns-str", "row-short", "value-int",
        "record-type", "record-line-negative", "record-line-huge", "labels-int",
        "script-int", "script-op-int", "script-arg-str"])
def test_verify_malformed_truth_rejected(edit, verified, tmp_path, capsys):
    out, truth = _inputs(verified, tmp_path)
    _edit_json(truth, edit)
    assert _verify(out, truth) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_threads_do_not_change_output_bytes(tmp_path):
    res = generate(two_type_spec(seed=42))
    log = tmp_path / "in.log"
    log.write_bytes(res.data)
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"out{threads}"
        assert main(["extract", str(log), "--auto", "--out", str(out),
                     "--threads", str(threads)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] == outputs[2]
