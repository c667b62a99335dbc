import random

import pytest

from conftest import FieldSpec, generate, make_spec
from logstruct.corpus import TextView, corpus_from_bytes
from logstruct.generation import (
    GenerationConfig,
    SearchSpaceError,
    exhaustive_search,
    gen_for_charset,
    greedy_search,
)
from logstruct.templates import (
    canonical_string,
    extract_record_template,
    reduce_to_structure_template,
)

NL = ord("\n")


def oracle_bins(data, charset, alpha=10.0, max_span=10):
    """Independent span enumeration: reduce every (i, j) window and credit
    each bin with the byte length of the union of its spans."""
    tv = TextView.from_bytes(data)
    offs = tv.offsets
    n = tv.n_lines
    spans = {}
    for i in range(n):
        for w in range(1, min(max_span, n - i) + 1):
            span = data[offs[i]:offs[i + w]]
            if not span.endswith(b"\n"):
                span += b"\n"
            rt = extract_record_template(span, charset | {NL})
            if not rt.valid:
                continue
            key = canonical_string(reduce_to_structure_template(rt))
            spans.setdefault(key, []).append((i, i + w))
    full = charset | {NL}
    bins = {}
    for key, occ in spans.items():
        occ.sort()
        merged = []
        for s, e in occ:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        cov = nfc = 0
        for s, e in merged:
            seg = data[offs[s]:offs[e]]
            cov += len(seg)
            nfc += sum(1 for b in seg if b in full)
            if e == n and not data.endswith(b"\n"):
                cov += 1
                nfc += 1
        bins[key] = (cov, nfc)
    thr = alpha * len(data) / 100.0
    return {k: v for k, v in bins.items() if v[0] >= thr}


def got_bins(data, charset, **kw):
    cs = gen_for_charset(TextView.from_bytes(data), charset, GenerationConfig(**kw))
    return {k: (v.coverage, v.non_field_coverage) for k, v in cs.entries.items()}


class TestGenForCharset:
    def test_identical_lines(self):
        data = b"a,b\n" * 1000
        got = got_bins(data, frozenset(b","))
        assert got[b"F,F\n"] == (4000, 2000)
        assert got == oracle_bins(data, frozenset(b","))

    def test_threshold_excludes_rare_template(self):
        # ';' template occupies 5% of bytes, below the 10% default
        data = b"a,b\n" * 190 + b"a;b\n" * 10
        got = got_bins(data, frozenset(b",;"))
        assert b"F,F\n" in got
        assert b"F;F\n" not in got

    def test_oracle_cross_check_mixed_corpus(self):
        rng = random.Random(1)
        lines = []
        for _ in range(300):
            r = rng.random()
            if r < 0.5:
                lines.append(b"%d,%d,%d\n" % (rng.randrange(100), rng.randrange(100),
                                              rng.randrange(100)))
            elif r < 0.8:
                lines.append(b"[%d] ok\n" % rng.randrange(9))
            else:
                lines.append(b"zz%d\n" % rng.randrange(10))
        data = b"".join(lines)
        for charset in [frozenset(b","), frozenset(b"[] "), frozenset(b",[] ")]:
            assert got_bins(data, charset) == oracle_bins(data, charset)

    def test_oracle_cross_check_multiline_records(self):
        res = generate(make_spec(
            [(b"--F--\n=F F\n", [FieldSpec("int", 0, 999), FieldSpec("str"),
                                 FieldSpec("str")], [], 1.0)],
            noise_fraction=0.2, record_count=60, seed=4))
        for charset in [frozenset(b"-"), frozenset(b"-= ")]:
            assert got_bins(res.data, charset) == oracle_bins(res.data, charset)

    def test_eof_record_treated_newline_terminated(self):
        data = b"a,b\na,b"
        got = got_bins(data, frozenset(b","))
        assert got == oracle_bins(data, frozenset(b","))
        assert got[b"F,F\n"] == (8, 4)

    def test_interleaved_multiline_types_both_present(self):
        res = generate(make_spec(
            [(b"<<F>>\n==F.F.F.F\n",
              [FieldSpec("int", 0, 10**6)] + [FieldSpec("int", 0, 255)] * 4, [], 0.5),
             (b"[F] F -> F\n",
              [FieldSpec("str", min_len=6, max_len=10), FieldSpec("str"),
               FieldSpec("str")], [], 0.5)],
            noise_fraction=0.1, record_count=200, seed=9))
        tv = TextView.from_bytes(res.data)
        result = greedy_search(tv, GenerationConfig())
        keys = set(result.candidates.entries)
        assert b"<<F>>\n==(F.)*F\n" in keys
        assert b"[F] F -> F\n" in keys

    def test_union_merge_is_order_independent(self):
        data = b"a,b\n" * 40 + b"x;y\n" * 30 + b"a,b\n" * 30
        tv = TextView.from_bytes(data)
        a = gen_for_charset(tv, frozenset(b","))
        b_ = gen_for_charset(tv, frozenset(b";"))
        ab = gen_for_charset(tv, frozenset(b",;"))
        m1 = a
        m1.union(b_)
        m1.union(ab)
        m2 = gen_for_charset(tv, frozenset(b",;"))
        m2.union(gen_for_charset(tv, frozenset(b";")))
        m2.union(gen_for_charset(tv, frozenset(b",")))
        assert {k: (v.coverage, v.non_field_coverage) for k, v in m1.entries.items()} \
            == {k: (v.coverage, v.non_field_coverage) for k, v in m2.entries.items()}


BRACKET_LINE = b"[%02d:%02d:%02d] %s(%d,%d)\n"


def bracket_paren_corpus(n=300, seed=0):
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        lines.append(BRACKET_LINE % (
            rng.randrange(24), rng.randrange(60), rng.randrange(60),
            "".join(rng.choice("abcdefgh") for _ in range(6)).encode(),
            rng.randrange(100), rng.randrange(100)))
    return b"".join(lines)


class TestSearches:
    def test_exhaustive_counts_all_subsets(self):
        tv = TextView.from_bytes(bracket_paren_corpus())
        result = exhaustive_search(tv, GenerationConfig(max_span_lines=3))
        assert result.subsets_enumerated == 128  # 2^7 including the empty set

    def test_exhaustive_single_present_special(self):
        tv = TextView.from_bytes(b"a,b\n" * 50)
        result = exhaustive_search(tv, GenerationConfig())
        assert result.subsets_enumerated == 2  # empty plus the one subset

    def test_exhaustive_guard_on_large_charsets(self):
        rng = random.Random(0)
        specials = "!\"#$%&'()*+,-./:;<=>?"
        lines = [("a" + "".join(rng.choice(specials) for _ in range(10)) + "\n").encode()
                 for _ in range(50)]
        tv = TextView.from_bytes(b"".join(lines))
        with pytest.raises(SearchSpaceError, match="greedy"):
            exhaustive_search(tv, GenerationConfig())

    def test_greedy_subset_budget(self):
        tv = TextView.from_bytes(bracket_paren_corpus())
        result = greedy_search(tv, GenerationConfig(max_span_lines=3))
        assert result.subsets_enumerated <= 29  # 1 + 7+6+5+4+3+2+1

    def test_greedy_reaches_full_charset_when_fields_are_clean(self):
        tv = TextView.from_bytes(bracket_paren_corpus())
        result = greedy_search(tv, GenerationConfig(max_span_lines=3))
        assert result.final_charset == frozenset(b"[]:, ()")

    def test_greedy_equals_exhaustive_single_special(self):
        tv = TextView.from_bytes(b"a,b\nc,d\n" * 40)
        g = greedy_search(tv, GenerationConfig())
        e = exhaustive_search(tv, GenerationConfig())
        as_dict = lambda r: {k: (v.coverage, v.non_field_coverage)
                             for k, v in r.candidates.entries.items()}
        assert as_dict(g) == as_dict(e)

    def test_exhaustive_contains_greedy_best(self):
        data = bracket_paren_corpus(n=150)
        tv = TextView.from_bytes(data)
        g = greedy_search(tv, GenerationConfig(max_span_lines=3))
        e = exhaustive_search(tv, GenerationConfig(max_span_lines=3))
        best = max(g.candidates.entries.items(),
                   key=lambda kv: kv[1].coverage * kv[1].non_field_coverage)
        assert best[0] in e.candidates.entries
