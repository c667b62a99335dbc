import json
import random

from conftest import (
    ArraySpec,
    FieldSpec,
    generate,
    make_spec,
    single_type_spec,
    timestamp_ip_corpus,
    two_type_spec,
)
from logstruct.corpus import corpus_from_bytes
from logstruct.generation import GenerationConfig
from logstruct.pipeline import (
    PipelineConfig,
    discover,
    plan_from_report,
    report,
    report_json,
)
from logstruct.templates import canonical_string


def corpus_of(spec):
    return corpus_from_bytes(generate(spec).data)


def test_single_type_csv_corpus():
    # prime record count: an exact k-record blocking cannot tile the file,
    # so the per-row template wins the description-length comparison
    rng = random.Random(0)
    data = b"".join(b"%d,%d,%d\n" % (rng.randrange(10**6), rng.randrange(10**6),
                                     rng.randrange(10**6)) for _ in range(97))
    plan = discover(corpus_from_bytes(data))
    assert plan.status == "ok"
    assert [s.canonical for s in plan.templates] == [b"F,F,F\n"]
    assert plan.residual_noise_fraction == 0.0


def test_single_type_with_noise():
    plan = discover(corpus_of(single_type_spec(seed=1)))
    assert [s.canonical for s in plan.templates] == [b"[F:F:F] F=F\n"]
    assert 0 < plan.residual_noise_fraction < 0.3


def test_interleaved_two_types_recovered_in_two_rounds():
    plan = discover(corpus_of(two_type_spec(seed=2)))
    assert plan.status == "ok"
    got = sorted(s.canonical for s in plan.templates)
    assert got == [b"<<F>>\n==F.F.F.F\n", b"[F] F -> F\n"]


def test_no_structure_on_random_text():
    rng = random.Random(5)
    alphabet = "abcdefghijklmnop qrstuvwxyz0123456789.,;-"
    lines = ["".join(rng.choice(alphabet) for _ in range(rng.randint(10, 50))) + "\n"
             for _ in range(120)]
    plan = discover(corpus_from_bytes("".join(lines).encode()))
    assert plan.status == "no_structure"
    assert plan.templates == []


def test_bracket_ip_corpus_yields_known_form():
    plan = discover(timestamp_ip_corpus())
    assert plan.status == "ok"
    assert plan.templates[0].canonical in (
        b"[F] F\n", b"[F:F:F] F\n", b"[F] F.F.F.F\n", b"[F:F:F] F.F.F.F\n")


def test_report_round_trip():
    plan = discover(corpus_of(two_type_spec(seed=3)))
    doc = json.loads(report_json(plan))
    back = plan_from_report(doc)
    assert [s.canonical for s in back.templates] == \
        [s.canonical for s in plan.templates]
    assert back.max_span_lines == plan.max_span_lines


def test_report_of_the_plan_read_back_is_the_report():
    # string, enumerated and integer field types, and an array
    fields = [FieldSpec("str"), FieldSpec("enum", values=("a", "b")), FieldSpec("int")]
    spec = make_spec([(b"F [F] (F,)*F;\n", fields, [ArraySpec()], 1.0)],
                     noise_fraction=0.1, record_count=60, seed=8)
    for corpus in (corpus_of(two_type_spec(seed=3)), corpus_of(spec)):
        doc = json.loads(report_json(discover(corpus)))
        assert doc["rounds"] and all(r["field_types"] for r in doc["rounds"])
        assert report(plan_from_report(doc)) == doc


def test_report_no_structure_status():
    rng = random.Random(6)
    lines = ["".join(rng.choice("abcdef ghijkl") for _ in range(30)) + "\n"
             for _ in range(80)]
    plan = discover(corpus_from_bytes("".join(lines).encode()))
    assert report(plan)["status"] == "no_structure"
    assert report(plan)["rounds"] == []


def test_report_fields_present():
    plan = discover(corpus_of(single_type_spec(seed=4)))
    doc = report(plan)
    r = doc["rounds"][0]
    assert set(r) >= {"template", "total_dl", "coverage_pct", "field_types",
                      "record_count", "noise_bytes"}
    kinds = [t["kind"] for t in r["field_types"]]
    assert kinds == ["string", "integer", "integer", "enumerated", "integer"]


def test_determinism_byte_identical_reports():
    spec = two_type_spec(seed=7)
    r1 = report_json(discover(corpus_of(spec)))
    r2 = report_json(discover(corpus_of(spec)))
    assert r1 == r2


def test_thread_count_does_not_change_report():
    spec = single_type_spec(seed=8)
    base = report_json(discover(corpus_of(spec), PipelineConfig(threads=1)))
    for threads in (4, 8):
        assert report_json(discover(corpus_of(spec),
                                    PipelineConfig(threads=threads))) == base


def test_round_cap_limits_record_types():
    spec = two_type_spec(seed=9)
    plan = discover(corpus_of(spec), PipelineConfig(max_record_types=1))
    assert len(plan.templates) == 1


def test_merged_array_subsumption_is_flagged():
    """Interleaved fixed-arity variants of one punctuation scheme collapse
    into a single array template; the plan must carry the diagnostic."""
    rng = random.Random(11)
    lines = []
    for i in range(400):
        k = rng.choice((3, 6))
        lines.append(b"t%d: " % rng.randrange(10**5) +
                     b" ".join(b"%d" % rng.randrange(10**6) for _ in range(k)) + b"\n")
        if i % 17 == 5:
            lines.append("".join(rng.choice("zxcvbnmasdf")
                                 for _ in range(rng.randint(8, 25))).encode() + b"\n")
    plan = discover(corpus_from_bytes(b"".join(lines)))
    assert plan.status == "ok"
    assert plan.templates[0].canonical == b"F: (F )*F\n"
    flagged = plan.diagnostics.get("merged_fixed_arity", [])
    assert flagged, "array winner must carry the subsumption diagnostic"
    assert flagged[0]["subsumed"] == ["F: F F F\n", "F: F F F F F F\n"]
