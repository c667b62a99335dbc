"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line once its assertions hold (run with ``pytest -s`` to see them)."""

import json
import random
import time

import pytest

from conftest import ArraySpec, FieldSpec, generate, make_spec, timestamp_ip_corpus
from logstruct.cli import main
from logstruct.corpus import corpus_from_bytes, load
from logstruct.extraction import extract_all, reconstruct, write_output
from logstruct.generation import GenerationConfig, exhaustive_search, greedy_search
from logstruct.pipeline import PipelineConfig, discover, report_json
from logstruct.scoring import FieldType, score
from logstruct.synth import apply_ops, verify_success
from logstruct.templates import canonical_string, parse_canonical
from oracles import extract_record_template, reduce_to_structure_template


def _ok(n, desc):
    print(f"ACCEPTANCE {n}: PASS - {desc}")


# -- 1. MDL formula suite ----------------------------------------------------


def ceil_log2_oracle(x: int) -> int:
    k, p = 0, 1
    while p < x:
        p *= 2
        k += 1
    return k


def test_ac1_mdl_formula_suite():
    rng = random.Random(0)
    t0 = time.time()
    for _ in range(1000):
        n_value = rng.randint(1, 10**rng.randint(1, 12))
        assert FieldType("enumerated", n_value=n_value).bits_per_value() == \
            ceil_log2_oracle(n_value)

        lo = rng.randint(-10**30, 10**30)
        hi = lo + rng.randint(0, 10**rng.randint(0, 30))
        assert FieldType("integer", min_scaled=lo, max_scaled=hi).bits_per_value() == \
            ceil_log2_oracle(hi - lo + 1)

        exp = rng.randint(0, 12)
        slo = rng.randint(-10**20, 10**20)
        shi = slo + rng.randint(0, 10**rng.randint(0, 20))
        got = FieldType("real", min_scaled=slo, max_scaled=shi, exp=exp).bits_per_value()
        assert got == ceil_log2_oracle(shi - slo + 1)  # (max-min)*10^exp + 1 scaled

        length = rng.randint(0, 500)
        # string cost is per value: (len + 1) * 8
        assert (length + 1) * 8 == 8 * length + 8
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"formula suite took {elapsed:.2f}s"
    _ok(1, f"1000 randomized draws match the big-integer oracle in {elapsed:.2f}s")


# -- 2. Worked-example fidelity ----------------------------------------------


def test_ac2_worked_examples():
    rt = extract_record_template(b"1,2,3,45,6,78,9,a,bc,d\n", frozenset(b",\n"))
    assert rt.text == b"F,F,F,F,F,F,F,F,F,F\n"
    assert canonical_string(reduce_to_structure_template(rt)) == b"(F,)*F\n"

    plan = discover(timestamp_ip_corpus())
    assert plan.status == "ok"
    valid = (b"[F] F\n", b"[F:F:F] F\n", b"[F] F.F.F.F\n", b"[F:F:F] F.F.F.F\n")
    assert plan.templates[0].canonical in valid
    _ok(2, f"csv chain exact; bracket log discovered {plan.templates[0].canonical!r}")


# -- 3. Search-cost parity ---------------------------------------------------


def bracket_paren_corpus(n=300, seed=0):
    rng = random.Random(seed)
    return b"".join(b"[%02d:%02d:%02d] %s(%d,%d)\n" % (
        rng.randrange(24), rng.randrange(60), rng.randrange(60),
        "".join(rng.choice("abcdefgh") for _ in range(6)).encode(),
        rng.randrange(100), rng.randrange(100)) for _ in range(n))


def test_ac3_search_cost_parity():
    corpus = corpus_from_bytes(bracket_paren_corpus())
    cfg = GenerationConfig(max_span_lines=3)
    exhaustive = exhaustive_search(corpus.view(), cfg)
    greedy = greedy_search(corpus.view(), cfg)
    assert exhaustive.subsets_enumerated == 128
    assert greedy.subsets_enumerated <= 29
    _ok(3, f"exhaustive enumerated 128 subsets, greedy {greedy.subsets_enumerated} <= 29")


# -- 4. Dominant-template recovery -------------------------------------------

RECOVERY_SHAPES = [
    (b"<F> F=F\n",
     [FieldSpec("str", min_len=6, max_len=10), FieldSpec("str"),
      FieldSpec("int", 0, 10**6)]),
    (b"--F--\n=F F\n",
     [FieldSpec("int", 0, 10**6), FieldSpec("str"), FieldSpec("int", 0, 10**6)]),
    (b"[F] F -> F\n",
     [FieldSpec("str", min_len=5, max_len=9), FieldSpec("str"), FieldSpec("str")]),
    (b"F: F | F\n",
     [FieldSpec("str"), FieldSpec("int", 0, 10**6), FieldSpec("str")]),
    (b"{F}\n%F%F\n",
     [FieldSpec("int", 0, 10**6), FieldSpec("str"), FieldSpec("int", 0, 10**6)]),
]


def test_ac4_dominant_template_recovery():
    t0 = time.time()
    recovered = 0
    for seed in range(50):
        tpl, fields = RECOVERY_SHAPES[seed % len(RECOVERY_SHAPES)]
        spec = make_spec([(tpl, fields, [], 1.0)], noise_fraction=0.1,
                         record_count=90, seed=seed)
        plan = discover(corpus_from_bytes(generate(spec).data))
        if plan.status == "ok" and plan.templates[0].canonical == tpl:
            recovered += 1
    elapsed = time.time() - t0
    assert recovered == 50, f"recovered {recovered}/50"
    assert elapsed < 60.0, f"recovery suite took {elapsed:.1f}s"
    _ok(4, f"planted template recovered verbatim in 50/50 runs ({elapsed:.1f}s)")


# -- 5. Multi-type corpora with noise ----------------------------------------

MULTI_SETS = [
    # two 2-line types
    ([(b"<<F>>\n==F.F.F.F\n",
       [FieldSpec("int", 0, 10**6)] + [FieldSpec("int", 0, 255)] * 4, [], 0.55),
      (b"[F] F\n::F::\n",
       [FieldSpec("str", min_len=6, max_len=10), FieldSpec("str"),
        FieldSpec("int", 0, 10**6)], [], 0.45)],
     [["DeleteCol", "t0", "_id"], ["DeleteCol", "t1", "_id"]]),
    # three types, one single-line.  The field after the lone space is an
    # integer: two string fields split by one literal byte are never worth
    # splitting under the (len + 1) * 8 string cost, so "=F\n" would win.
    ([(b"--F--\n=F F\n",
       [FieldSpec("int", 0, 10**6), FieldSpec("str"), FieldSpec("int", 0, 10**6)],
       [], 0.4),
      (b"<F>\n+F+F+\n|F|\n",
       [FieldSpec("int", 0, 10**6), FieldSpec("str"), FieldSpec("str"),
        FieldSpec("int", 0, 10**6)], [], 0.35),
      (b"F;F;F~\n",
       [FieldSpec("str"), FieldSpec("int", 0, 10**6), FieldSpec("str")], [], 0.25)],
     [["DeleteCol", "t0", "_id"], ["DeleteCol", "t1", "_id"],
      ["DeleteCol", "t2", "_id"]]),
    # a nine-line type interleaved with a two-line type
    ([(b"".join(b">" * i + b"F\n" for i in range(1, 10)),
       [FieldSpec("int", 0, 10**6) if i % 2 else FieldSpec("str")
        for i in range(9)], [], 0.5),
      (b"\\(F\\)\n-F-\n",
       [FieldSpec("str"), FieldSpec("int", 0, 10**6)], [], 0.5)],
     [["DeleteCol", "t0", "_id"], ["DeleteCol", "t1", "_id"]]),
]


@pytest.mark.slow
def test_ac5_multi_type_with_noise():
    successes = 0
    failures = []
    for seed in range(100):
        entries, script = MULTI_SETS[seed % len(MULTI_SETS)]
        noise = 0.10 + (seed % 16) / 100.0  # 10..25 percent of blocks
        spec = make_spec(entries, noise_fraction=noise, record_count=100, seed=seed)
        res = generate(spec)
        corpus = corpus_from_bytes(res.data)
        plan = discover(corpus)
        if plan.status != "ok":
            failures.append((seed, plan, {"status": plan.status}))
            continue
        out = extract_all(corpus, plan)
        ok, diff = verify_success(out, res, script,
                                  target_tables=apply_ops(res.truth, script).tables)
        if ok:
            successes += 1
        else:
            failures.append((seed, plan, diff))
    report = "".join(
        f"\n  seed {seed} (set {seed % len(MULTI_SETS)}): "
        f"{[t.canonical for t in plan.templates]} {diff}"
        for seed, plan, diff in failures)
    assert successes >= 95, f"{successes}/100 verified{report}"
    for seed, plan, _ in failures:
        assert plan.diagnostics.get("merged_fixed_arity"), \
            f"seed {seed} failed without the documented merge-mode diagnostic{report}"
    _ok(5, f"{successes}/100 multi-type instances verified; "
           f"{len(failures)} failures all in the documented merge mode")


# -- 6. Unfolding selection ---------------------------------------------------


def test_ac6_unfolding_selection():
    rng = random.Random(0)
    fixed = b"".join(b"%d,%d,%d\n" % (rng.randrange(10**6), rng.randrange(10**6),
                                      rng.randrange(10**6)) for _ in range(97))
    view = corpus_from_bytes(fixed).view()
    struct_dl = score(view, parse_canonical(b"F,F,F\n")).total_dl
    array_dl = score(view, parse_canonical(b"(F,)*F\n")).total_dl
    assert struct_dl < array_dl
    winners = {report_json(discover(corpus_from_bytes(fixed))) for _ in range(2)}
    assert len(winners) == 1
    plan = discover(corpus_from_bytes(fixed))
    assert plan.templates[0].canonical == b"F,F,F\n"

    varying = b"".join(
        b",".join(b"%d" % rng.randrange(10**6)
                  for _ in range(rng.randint(1, 5))) + b"\n"
        for _ in range(97))
    plan2 = discover(corpus_from_bytes(varying))
    assert plan2.templates[0].canonical == b"(F,)*F\n"
    plan2b = discover(corpus_from_bytes(varying))
    assert report_json(plan2) == report_json(plan2b)
    _ok(6, "struct selected on fixed arity, array retained on varying arity")


# -- 7. Conservation -----------------------------------------------------------


def conservation_corpora():
    rng = random.Random(7)
    yield b"".join(b"%d,%d,%d\n" % (rng.randrange(10**6), rng.randrange(10**6),
                                    rng.randrange(10**6)) for _ in range(97))
    yield timestamp_ip_corpus(seed=7).data
    for seed in (0, 1):
        entries, _ = MULTI_SETS[seed % len(MULTI_SETS)]
        yield generate(make_spec(entries, noise_fraction=0.2, record_count=80,
                                 seed=seed)).data
    spec = make_spec(
        [(b"[F] (F,)*F;\n", [FieldSpec("str"), FieldSpec("int", 0, 9999)],
          [ArraySpec(1, 5)], 1.0)],
        noise_fraction=0.15, record_count=70, seed=3)
    yield generate(spec).data[:-1]  # EOF without trailing newline


def test_ac7_conservation():
    checked = 0
    for data in conservation_corpora():
        corpus = corpus_from_bytes(data)
        plan = discover(corpus)
        if plan.status != "ok":
            continue
        out = extract_all(corpus, plan)
        assert reconstruct(out) == corpus.data
        checked += 1
    assert checked >= 4
    _ok(7, f"byte-exact reconstruction on {checked} corpora")


# -- 8. Performance sanity ------------------------------------------------------


def perf_corpus(target_bytes, seed=0):
    """Two-line records with a long payload field, light noise."""
    rng = random.Random(seed)
    pieces = []
    size = 0
    i = 0
    while size < target_bytes:
        payload = bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz")
                        for _ in range(120))
        rec = b"<%d>\n=%d %s=\n" % (i, rng.randrange(10**6), payload)
        if i % 29 == 7:
            rec += b"%s\n" % bytes(rng.choice(b"zxcvbnm") for _ in range(40))
        pieces.append(rec)
        size += len(rec)
        i += 1
    return b"".join(pieces)


@pytest.mark.slow
def test_ac8_performance_sanity(tmp_path):
    mb = 1 << 20
    fifty = corpus_from_bytes(perf_corpus(50 * mb))
    t0 = time.time()
    plan = discover(fifty)
    assert plan.status == "ok"
    out = extract_all(fifty, plan)
    write_output(out, tmp_path / "out50", "csv")
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"50 MB discover+extract took {elapsed:.1f}s"
    assert reconstruct(out) == fifty.data

    # the fastest of three runs per size: a single short run on a shared
    # host reads the host's noise as much as the program's scaling
    times = {}
    for size in (10, 100):
        corpus = corpus_from_bytes(perf_corpus(size * mb, seed=1))
        plan = discover(corpus)
        runs = []
        for _ in range(3):
            t0 = time.time()
            extract_all(corpus, plan)
            runs.append(time.time() - t0)
        times[size] = min(runs)
    ratio = times[100] / times[10]
    assert 8.0 <= ratio <= 12.0, f"extraction scaling ratio {ratio:.2f}"
    _ok(8, f"50 MB pipeline in {elapsed:.1f}s; 10->100 MB extraction ratio "
           f"{ratio:.2f} within 10 +/- 20%")


# -- 9. Determinism across thread counts ----------------------------------------


def test_ac9_thread_determinism(tmp_path):
    entries, _ = MULTI_SETS[0]
    res = generate(make_spec(entries, noise_fraction=0.15, record_count=100, seed=77))
    log = tmp_path / "in.log"
    log.write_bytes(res.data)
    outputs = []
    for threads in (1, 4, 8):
        out_dir = tmp_path / f"t{threads}"
        code = main(["extract", str(log), "--auto", "--out", str(out_dir),
                     "--threads", str(threads)])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1] == outputs[2]
    _ok(9, "reports and CSVs byte-identical across thread counts 1/4/8")
