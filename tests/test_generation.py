import random

import pytest

from conftest import ArraySpec, FieldSpec, generate, make_spec
from logstruct import generation
from logstruct.corpus import TextView, corpus_from_bytes
from logstruct.generation import (
    GenerationConfig,
    SearchSpaceError,
    exhaustive_search,
    greedy_search,
)
from logstruct.templates import _reduce_seq, _SymbolPool, canonical_string
from oracles import extract_record_template, gen_one_reference, reduce_to_structure_template

NL = ord("\n")


def gen_for_charset(view, charset, cfg=None):
    """The candidates of one formatting charset ('\\n' is implied)."""
    return generation._gen_one(generation._GenContext(view), frozenset(charset),
                               cfg or GenerationConfig())


def oracle_bins(data, charset, alpha=10.0, max_span=10, max_groups=None):
    """Independent span enumeration: reduce every (i, j) window and credit
    each bin with the byte length of the union of its spans.  With
    ``max_groups``, each window length keeps only that many groups of equal
    record templates: the most spans first, ties by first start line."""
    tv = TextView.from_bytes(data)
    offs = tv.offsets
    n = tv.n_lines
    spans = {}
    for w in range(1, min(max_span, n) + 1):
        groups = {}
        for i in range(n - w + 1):
            span = data[offs[i]:offs[i + w]]
            if not span.endswith(b"\n"):
                span += b"\n"
            rt = extract_record_template(span, charset | {NL})
            if rt.valid:
                groups.setdefault(rt.text, []).append(i)
        ranked = sorted(groups.items(), key=lambda g: (-len(g[1]), g[1][0]))
        for text, starts in ranked[:max_groups]:
            key = canonical_string(reduce_to_structure_template(text))
            spans.setdefault(key, []).extend((i, i + w) for i in starts)
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
        cases = [(data, frozenset(cs), 10) for cs in (b",", b"[] ", b",[] ")]
        # a 1,024-byte Thue-Morse line over ",;" and the same line with the
        # two bytes swapped: every polynomial hash with an odd base modulo
        # 2^64 gives both the same value
        a = bytes(b",;"[bin(i).count("1") & 1] for i in range(1024))
        b = a.translate(bytes.maketrans(b",;", b";,"))
        cases.append((b"".join(b"%s\nv%d\n" % (line, i) for line in (a, b)
                               for i in range(40)), frozenset(b",;"), 2))
        for data, charset, max_span in cases:
            assert got_bins(data, charset, max_span_lines=max_span) \
                == oracle_bins(data, charset, max_span=max_span)

    def test_oracle_cross_check_multiline_records(self):
        res = generate(make_spec(
            [(b"--F--\n=F F\n", [FieldSpec("int", 0, 999), FieldSpec("str"),
                                 FieldSpec("str")], [], 1.0)],
            noise_fraction=0.2, record_count=60, seed=4))
        for charset in [frozenset(b"-"), frozenset(b"-= ")]:
            assert got_bins(res.data, charset) == oracle_bins(res.data, charset)

    def test_each_distinct_line_is_reduced_once(self, monkeypatch):
        # spans are reduced from their lines' symbols, so each distinct line
        # template is reduced once, however many spans hold it
        reduced = []
        reduce_line = _SymbolPool.reduce_line

        def counted(pool, line):
            reduced.append(line)
            return reduce_line(pool, line)

        monkeypatch.setattr(_SymbolPool, "reduce_line", counted)
        data = b"a,b,c,d\nx;y\n" * 30 + b"a,b\n" * 10
        got = got_bins(data, frozenset(b",;"), max_span_lines=4)
        assert sorted(reduced) == [b"F,F\n", b"F,F,F,F\n", b"F;F\n"]
        assert got == oracle_bins(data, frozenset(b",;"), max_span=4)

    def test_noise_flood_keeps_the_largest_groups_first_lines_first(self, monkeypatch):
        # the planted line alternates with noise lines of distinct shapes, so
        # all but one group per window length hold a single span; the cap
        # takes the planted group, then the earliest-starting singletons
        noise = [b"n%s%dx" % (b":" * k, k) for k in range(1, 13)]
        lines = [b"%d,%d" % (i, i * 7) for i in range(4)]
        for i, line in enumerate(noise):
            lines += [line, b"%d,%d" % (i, i * 3)]
        data = b"\n".join(lines) + b"\n"
        charset = frozenset(b",:")
        monkeypatch.setattr(generation, "MAX_KEYS_PER_WINDOW", 3)
        got = got_bins(data, charset, alpha=0.01, max_span_lines=2)
        assert got == oracle_bins(data, charset, alpha=0.01, max_span=2,
                                  max_groups=3)
        assert got[b"F,F\n"] == oracle_bins(data, charset, alpha=0.01,
                                             max_span=2)[b"F,F\n"]
        assert b"F:F\n" in got and b"F::::F\n" not in got

    def test_noise_flood_cap_alone_limits_the_groups(self, monkeypatch):
        # one shape more than the cap: the three largest groups are taken
        # even though the first alone leaves less than the threshold's mass
        lines = [b"d,d,d;"] * 50 + [b"d,d,d,d;"] * 30 + [b"d,d,d,d,d;"] * 20
        random.Random(0).shuffle(lines)
        data = b"\n".join(lines + [b"x"]) + b"\n"
        charset = frozenset(b",;")
        monkeypatch.setattr(generation, "MAX_KEYS_PER_WINDOW", 3)
        got = got_bins(data, charset, alpha=95, max_span_lines=1)
        assert got == oracle_bins(data, charset, alpha=95, max_span=1, max_groups=3) \
            == {b"(F,)*F;\n": (840, 470)}

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


# The record mixes of the benchmark's extract_bulk and discover_small inputs.
_INT = FieldSpec("int", 0, 10**6)
BULK_MIX = [
    (b"[F] F=F\n", [FieldSpec("str", min_len=4, max_len=8), FieldSpec("str"), _INT],
     [], 0.45),
    (b"<F>|F|F\n", [_INT, FieldSpec("str"), FieldSpec("int", 0, 999)], [], 0.35),
    (b"{F} (F,)*F;\n", [FieldSpec("str"), FieldSpec("int", 0, 9999)],
     [ArraySpec(1, 4)], 0.20),
]
SMALL_MIXES = [
    [(b"".join(b">" * i + b"F\n" for i in range(1, 10)),
      [_INT if i % 2 else FieldSpec("str") for i in range(9)], [], 0.5),
     (b"\\(F\\)\n-F-\n", [FieldSpec("str"), _INT], [], 0.5)],
    [(b"<F> F=F\n", [FieldSpec("str", min_len=6, max_len=10), FieldSpec("str"), _INT],
      [], 1.0)],
    [(b"--F--\n=F F\n", [_INT, FieldSpec("str"), _INT], [], 1.0)],
    [(b"[F] F -> F\n", [FieldSpec("str", min_len=5, max_len=9), FieldSpec("str"),
                        FieldSpec("str")], [], 1.0)],
    [(b"F: F | F\n", [FieldSpec("str"), _INT, FieldSpec("str")], [], 1.0)],
    [(b"{F}\n%F%F\n", [_INT, FieldSpec("str"), _INT], [], 1.0)],
]


class TestOracleGate:
    """Every charset the greedy search visits yields exactly the reference
    generation's candidates."""

    gen_one = staticmethod(generation._gen_one)

    def check(self, monkeypatch, data):
        view = TextView.from_bytes(data)
        ref_ctx = generation._GenContext(view)
        charsets = []

        def checked(ctx, charset, cfg):
            got = self.gen_one(ctx, charset, cfg)
            assert got.entries == gen_one_reference(ref_ctx, charset, cfg).entries
            charsets.append(charset)
            return got

        monkeypatch.setattr(generation, "_gen_one", checked)
        result = greedy_search(view)
        assert len(charsets) == result.subsets_enumerated > 1
        return result

    def test_benchmark_record_mixes(self, monkeypatch):
        rng = random.Random(17)
        mixes = [BULK_MIX, SMALL_MIXES[0]] + rng.sample(SMALL_MIXES[1:], 2)
        for mix in mixes:
            res = generate(make_spec(mix, noise_fraction=rng.uniform(0.1, 0.25),
                                     record_count=60, seed=rng.randrange(2**31)))
            self.check(monkeypatch, res.data)

    def test_missing_final_newline(self, monkeypatch):
        res = generate(make_spec(SMALL_MIXES[2], noise_fraction=0.15,
                                 record_count=40, seed=23))
        assert res.data.endswith(b"\n")
        self.check(monkeypatch, res.data[:-1])

    def test_keys_per_window_cap(self, monkeypatch):
        monkeypatch.setattr(generation, "MAX_KEYS_PER_WINDOW", 3)
        res = generate(make_spec(BULK_MIX, noise_fraction=0.2, record_count=80,
                                 seed=29))
        self.check(monkeypatch, res.data)


# Line templates whose reduced symbols make runs across line ends of every
# kind: units holding newlines, runs that start mid-line, a field, an array
# or the terminator itself after the unit, escaped literals, and array
# symbols of 31, 33 and 35 canonical bytes around the MAX_UNIT_BYTES bound.
L31 = b"[F:F] {F=F} <,[F:F] {F=F} <,[F:F] {F=F} <;"
L33 = b"[F:F] {F=F} <>,[F:F] {F=F} <>,[F:F] {F=F} <>;"
FOLD_LINES = [
    b"F\n", b";\n", b",\n", b"F,\n", b"F;\n", b",F\n", b"F,F\n", b"F;F,\n",
    b"(F)\n", b"F*\n", b"=F\n", b"a;F\n", b"F,F,F;\n", b"F,F,F;;\n", b"=F,F,F;\n",
    b"-F-F-F\n", L31 + b"\n", L31 + b";\n", L33 + b"\n", L33 + b";\n",
    b"[F:F] {F=F} <F>,[F:F] {F=F} <F>,[F:F] {F=F} <F>;\n",
]


def folds(pool, lines):
    """Whether the span of ``lines`` folds, by the fold rule and by reducing
    it, which must agree."""
    syms = [pool.reduce_line(t) for t in lines]
    joined = "".join(syms)
    by_rule = generation._fold_ends(syms, pool)[0] <= len(syms) - 1
    assert by_rule == (_reduce_seq(joined, pool) != joined), lines
    return by_rule


class TestFoldRule:
    @pytest.mark.parametrize("lines, expected", [
        # the unit "\nF" holds a newline, and ";" ends the run
        ([b"F,\n", b"F,\n", b"F,\n", b"F;\n"], True),
        # every candidate run ends in its own separator
        ([b"F,\n"] * 4, False),
        # the run "F\n" x 3 starts after "a;", mid-line
        ([b"a;F\n", b"F\n", b"F;\n"], True),
        # a field after ";" or after an array can only be a unit, not a
        # separator or a terminator
        ([b";F\n"] * 3 + [b";\n"], False),
        ([b"=F,F,F;\n"] * 3 + [b"=\n"], False),
        # an array as the unit, of 7, 31 and 33 canonical bytes
        ([b"F,F,F;\n"] * 2 + [b"F,F,F;;\n"], True),
        ([L31 + b"\n"] * 2 + [L31 + b";\n"], True),
        ([L33 + b"\n"] * 2 + [L33 + b";\n"], False),
    ])
    def test_fold_rule_cases(self, lines, expected):
        assert folds(_SymbolPool(), lines) == expected

    def test_fold_rule_matches_reduction(self):
        # on random lines, a span is reported to fold exactly when reducing
        # its lines' symbols changes them
        rng = random.Random(7)
        pool = _SymbolPool()
        sizes = {len(pool.canonical_of(pool.reduce_line(t))) for t in FOLD_LINES}
        assert {32, 34, 36} <= sizes  # arrays of 31, 33 and 35 bytes, newline
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            shapes = rng.sample(FOLD_LINES, rng.randint(1, 3))
            syms = [pool.reduce_line(rng.choice(shapes))
                    for _ in range(rng.randint(3, 30))]
            fold_end = generation._fold_ends(syms, pool)
            for s in range(len(syms)):
                for t in range(s, min(s + 10, len(syms))):
                    joined = "".join(syms[s : t + 1])
                    folded = _reduce_seq(joined, pool) != joined
                    assert (fold_end[s] <= t) == folded, (s, t, joined)
                    outcomes[folded] += 1
        assert min(outcomes.values()) > 1000, outcomes
