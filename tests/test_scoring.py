import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ArraySpec, FieldSpec, generate, make_spec
from logstruct.corpus import TextView
from logstruct.scoring import (
    FieldType,
    ceil_log2,
    description_length,
    infer_field_type,
    infer_field_types,
    noise_only_dl,
    parse_with_template,
    score,
)
from logstruct.templates import (
    TemplateError,
    canonical_string,
    compile_template,
    parse_canonical,
    render_record,
)


def tv(data: bytes) -> TextView:
    return TextView.from_bytes(data)


def ceil_log2_oracle(x: int) -> int:
    # slow doubling search, independent of bit tricks
    k, p = 0, 1
    while p < x:
        p *= 2
        k += 1
    return k


class TestParse:
    def test_three_records_no_noise(self):
        p = parse_with_template(tv(b"a,b\nc,d\ne,f\n"), parse_canonical(b"F,F\n"))
        assert len(p.record_spans) == 3
        assert p.noise_spans == []
        assert p.block_count == 3

    def test_noise_line_between_records(self):
        p = parse_with_template(tv(b"a,b\nzzz\nc,d\n"), parse_canonical(b"F,F\n"))
        assert len(p.record_spans) == 2
        assert p.noise_spans == [(4, 8)]
        assert p.block_count == 3

    def test_consecutive_noise_merges_into_one_block(self):
        p = parse_with_template(tv(b"zz\nyy\na,b\n"), parse_canonical(b"F,F\n"))
        assert p.noise_spans == [(0, 6)]
        assert p.block_count == 2

    def test_multi_line_records_with_noise(self):
        res = generate(make_spec(
            [(b"--F--\n=F F\n", [FieldSpec("int", 0, 999), FieldSpec("str"),
                                 FieldSpec("str")], [], 1.0)],
            noise_fraction=0.25, record_count=80, seed=5))
        p = parse_with_template(tv(res.data), parse_canonical(b"--F--\n=F F\n"))
        assert len(p.record_spans) == 80
        planted = [(s, e) for _, s, e in res.records]
        assert p.record_line_spans == planted

    def test_every_record_reserializes_exactly(self):
        res = generate(make_spec(
            [(b"[F] (F,)*F;\n", [FieldSpec("str"), FieldSpec("int", 0, 9999)],
              [ArraySpec(1, 5)], 1.0)],
            noise_fraction=0.1, record_count=60, seed=6))
        node = parse_canonical(b"[F] (F,)*F;\n")
        compiled = compile_template(node)
        p = parse_with_template(tv(res.data), compiled)
        assert len(p.record_spans) == 60
        for start, end in p.record_spans:
            hit = compiled.match_at(res.data, start, end)
            assert hit is not None and hit[0] == end
            assert render_record(node, hit[1], hit[2]) == res.data[start:end]

    def test_sep_equal_term_rejected_at_admission(self):
        with pytest.raises(TemplateError):
            compile_template(parse_canonical(b"(F,)*F,\n"))

    def test_template_without_final_newline_rejected_at_admission(self):
        # its records would leave each line's newline unpriced
        with pytest.raises(TemplateError, match="newline"):
            score(tv(b"a,b;rest\nc,d;more\n"), parse_canonical(b"F,F"))


class TestFieldTypes:
    def test_integers(self):
        ft = infer_field_type([b"1", b"2", b"300"])
        assert ft.kind == "integer" and (ft.min_scaled, ft.max_scaled) == (1, 300)

    def test_reals(self):
        ft = infer_field_type([b"1.5", b"2.25"])
        assert ft.kind == "real" and ft.exp == 2
        assert (ft.min_scaled, ft.max_scaled) == (150, 225)

    def test_enumerated(self):
        values = [b"GET", b"POST"] * 500
        ft = infer_field_type(values)
        assert ft.kind == "enumerated" and ft.n_value == 2

    def test_enum_threshold_blocks_small_multisets(self):
        # 3 distinct over 20 occurrences exceeds the 10 percent rule
        ft = infer_field_type([b"a", b"b", b"c", b"a"] * 5)
        assert ft.kind == "string"

    def test_string_fallback(self):
        ft = infer_field_type([bytes([65 + i]) * 3 + str(i).encode() for i in range(60)])
        assert ft.kind == "string"

    def test_leading_zeros_are_integers(self):
        ft = infer_field_type([b"007", b"10"])
        assert ft.kind == "integer" and (ft.min_scaled, ft.max_scaled) == (7, 10)

    def test_signs(self):
        ft = infer_field_type([b"-3", b"+7"])
        assert ft.kind == "integer" and (ft.min_scaled, ft.max_scaled) == (-3, 7)
        ft = infer_field_type([b"-1.5", b"0.25"])
        assert ft.kind == "real" and (ft.min_scaled, ft.max_scaled) == (-150, 25)


class TestBitCosts:
    def test_string_value_abc_is_32_bits(self):
        data = b"abc~\n"
        node = parse_canonical(b"F~\n")
        p = parse_with_template(tv(data), node)
        types = infer_field_types(p)
        assert types[0].kind == "string"
        dl = description_length(node, p, types)
        assert dl == len(b"F~\n") * 8 + 32 + 1 + 32  # value "abc" costs 32 bits

    def test_integer_range_bits(self):
        ft = FieldType("integer", min_scaled=0, max_scaled=255)
        assert ft.bits_per_value() == 8

    def test_single_value_enum_is_free(self):
        assert FieldType("enumerated", n_value=1).bits_per_value() == 0

    def test_real_scaling(self):
        ft = FieldType("real", min_scaled=150, max_scaled=225, exp=2)
        assert ft.bits_per_value() == ceil_log2_oracle(76)

    @given(st.integers(min_value=1, max_value=10**40))
    @settings(max_examples=300)
    def test_ceil_log2_matches_oracle(self, x):
        assert ceil_log2(x) == ceil_log2_oracle(x)


class TestDescriptionLength:
    def test_exact_total_for_small_corpus(self):
        data = b"a,b\nzz\nc,d\n"
        node = parse_canonical(b"F,F\n")
        p = parse_with_template(tv(data), node)
        types = infer_field_types(p)
        # template 4 bytes, 3 blocks, 1 noise block of 3 bytes, 4 string
        # values of 1 byte each
        expected = 4 * 8 + 32 + 3 + 3 * 8 + 4 * (1 + 1) * 8
        assert description_length(node, p, types) == expected

    def test_array_instances_cost_32_bits_each(self):
        data = b"1,2,3;\n1,2;\n"
        node = parse_canonical(b"(F,)*F;\n")
        p = parse_with_template(tv(data), node)
        types = infer_field_types(p)
        dl = description_length(node, p, types)
        base = len(b"(F,)*F;\n") * 8 + 32 + 2
        int_bits = p.leaf_values and ceil_log2_oracle(3 - 1 + 1)
        assert dl == base + 2 * 32 + 5 * int_bits

    def test_one_byte_split_of_strings_costs_only_template_bytes(self):
        # "abc def" read as one string costs (7 + 1) * 8 bits, as two strings
        # (3 + 1) * 8 + (3 + 1) * 8: the space pays for the saved terminator,
        # so "=F F\n" loses to "=F\n" by its two extra template bytes.
        rng = random.Random(0)

        def word():
            return bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(1, 8)))

        data = b"".join(b"=%s %s\n" % (word(), word()) for _ in range(50))
        split = score(tv(data), parse_canonical(b"=F F\n"))
        merged = score(tv(data), parse_canonical(b"=F\n"))
        assert [t.kind for t in split.field_types] == ["string", "string"]
        assert [t.kind for t in merged.field_types] == ["string"]
        assert split.record_count == merged.record_count == 50
        assert split.total_dl == merged.total_dl + 16

    def test_noise_monotonicity(self):
        data = b"a,b\n" * 10
        node = parse_canonical(b"F,F\n")
        base = score(tv(data), node).total_dl
        grown = score(tv(data + b"qqqq\n"), node).total_dl
        assert grown == base + 5 * 8 + 1  # bytes at 8 bits plus one new block
        grown2 = score(tv(data + b"qqqq\nzz\n"), node).total_dl
        assert grown2 == base + 8 * 8 + 1  # second noise line merges


class TestScore:
    def test_fixed_arity_struct_beats_array(self):
        rng = random.Random(0)
        data = b"".join(b"%d,%d,%d\n" % (rng.randrange(1000), rng.randrange(1000),
                                         rng.randrange(1000)) for _ in range(200))
        struct_dl = score(tv(data), parse_canonical(b"F,F,F\n")).total_dl
        array_dl = score(tv(data), parse_canonical(b"(F,)*F\n")).total_dl
        assert struct_dl < array_dl

    def test_all_noise_dominated_by_matching_template(self):
        rng = random.Random(1)
        data = b"".join(b"%d,%d\n" % (rng.randrange(10**6), rng.randrange(10**6))
                        for _ in range(100))
        matching = score(tv(data), parse_canonical(b"F,F\n")).total_dl
        non_matching = score(tv(data), parse_canonical(b"F;F;F~\n")).total_dl
        assert matching < non_matching
        assert non_matching == len(b"F;F;F~\n") * 8 + 32 + 1 + len(data) * 8

    def test_non_matching_template_single_noise_block(self):
        s = score(tv(b"hello\nworld\n"), parse_canonical(b"F=F=F\n"))
        assert s.record_count == 0
        assert s.block_count == 1

    def test_noise_only_baseline(self):
        data = b"abc\ndef\n"
        assert noise_only_dl(tv(data)) == len(data) * 8 + 32 + 1
