import json
import random

import pytest

from conftest import generate, single_type_spec, two_type_spec
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
    assert {"t0.csv", "records.ndjson", "_noise.txt", "_manifest.json",
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
