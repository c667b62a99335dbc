import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstruct.extraction import (
    RecordMeta,
    RelationalOutput,
    build_schema,
    emit_record,
    new_tables,
    record_values,
)
from logstruct.templates import (
    Array,
    Field,
    Struct,
    TemplateError,
    canonical_string,
    compile_template,
    extract_record_template,
    layout,
    matches,
    parse_canonical,
    reduce_node,
    reduce_to_structure_template,
    render_record,
    struct_of,
)

CSV_CHARSET = frozenset(b",\n")


class TestExtract:
    def test_csv_record(self):
        rt = extract_record_template(b"1,2,3,45,6,78,9,a,bc,d\n", CSV_CHARSET)
        assert rt.text == b"F,F,F,F,F,F,F,F,F,F\n"
        assert rt.valid

    def test_bracket_record(self):
        rt = extract_record_template(b"[01:05:02] 192.168.0.1\n", frozenset(b"[]: \n"))
        assert rt.text == b"[F:F:F] F\n"

    def test_single_field_no_charset_bytes(self):
        rt = extract_record_template(b"abc", frozenset(b","))
        assert rt.text == b"F"
        assert rt.valid

    def test_charset_only_record_flagged_invalid(self):
        rt = extract_record_template(b",,\n", CSV_CHARSET)
        assert rt.text == b",,\n"
        assert not rt.valid

    def test_field_byte_total(self):
        rt = extract_record_template(b"ab,cde\n", CSV_CHARSET)
        assert rt.field_bytes == 5

    def test_empty_record_rejected(self):
        with pytest.raises(TemplateError):
            extract_record_template(b"", CSV_CHARSET)

    @given(st.binary(min_size=1, max_size=60))
    @settings(max_examples=150)
    def test_output_preserves_charset_bytes_in_order(self, record):
        charset = frozenset(b",;| \n")
        rt = extract_record_template(record, charset)
        kept = bytes(b for b in record if b in charset)
        assert bytes(b for b in rt.text if b in charset) == kept
        in_fields = sum(1 for b in record if b not in charset)
        assert rt.field_bytes == in_fields


class TestReduce:
    def test_csv_run_folds_to_array(self):
        st_ = reduce_to_structure_template(b"F,F,F,F,F,F,F\n")
        assert canonical_string(st_) == b"(F,)*F\n"

    def test_nothing_to_reduce(self):
        assert canonical_string(reduce_to_structure_template(b"F\n")) == b"F\n"
        assert canonical_string(reduce_to_structure_template(b"F,F\n")) == b"F,F\n"

    def test_minimum_three_units(self):
        assert canonical_string(reduce_to_structure_template(b"F,F,F\n")) == b"(F,)*F\n"

    def test_quoted_inner_run_only(self):
        rt = b'F,F,F,"F,F,F",F\n'
        reduced = reduce_to_structure_template(rt)
        assert canonical_string(reduced) == b'F,F,F,"(F,)*F",F\n'
        assert matches(reduced, rt)

    def test_cross_line_run(self):
        reduced = reduce_to_structure_template(b"F,F\nF,F\nF,F;")
        assert canonical_string(reduced) == b"(F,F\n)*F,F;"

    def test_identical_lines_do_not_fold_without_distinct_terminator(self):
        reduced = reduce_to_structure_template(b"F,F\nF,F\n")
        assert canonical_string(reduced) == b"F,F\nF,F\n"

    def test_idempotent_on_reparse(self):
        for rt in [b"F,F,F,F\n", b'F,F,F,"F,F,F",F\n', b"F F F F F\n",
                   b"[F:F:F] F\n", b"F;F;F;F,F;F;F;F,F;F;F;F.\n"]:
            once = reduce_to_structure_template(rt)
            again = reduce_node(parse_canonical(canonical_string(once)))
            assert canonical_string(again) == canonical_string(once)


def record_templates(max_lines=2):
    """Random record templates: alternating field/charset-byte runs.

    Extraction collapses maximal field runs, so adjacent placeholders never
    occur in real record templates.
    """
    piece = st.one_of(st.just(b"F"), st.sampled_from([b",", b";", b" ", b":", b"["]))
    line = st.lists(piece, min_size=1, max_size=14).map(
        lambda parts: b"".join(parts) + b"\n")
    return st.lists(line, min_size=1, max_size=max_lines).map(b"".join).filter(
        lambda t: b"F" in t and b"FF" not in t)


class TestReduceProperties:
    @given(record_templates())
    @settings(max_examples=200)
    def test_soundness_reduced_template_matches_input(self, rt):
        reduced = reduce_to_structure_template(rt)
        assert matches(reduced, rt)

    @given(record_templates())
    @settings(max_examples=200)
    def test_reduction_idempotent(self, rt):
        once = reduce_to_structure_template(rt)
        assert canonical_string(reduce_node(once)) == canonical_string(once)


class TestCanonical:
    def test_array_notation(self):
        assert canonical_string(Array(Field(), ord(","), ord("\n"))) == b"(F,)*F\n"

    def test_struct_notation(self):
        assert canonical_string(struct_of([b"[", Field(), b"]"])) == b"[F]"

    def test_metacharacters_escaped(self):
        node = struct_of([b"(", Field(), b")*"])
        s = canonical_string(node)
        assert s == b"\\(F\\)\\*"
        assert canonical_string(parse_canonical(s)) == s

    def test_non_printable_escaped(self):
        node = struct_of([bytes([0x01]), Field()])
        assert canonical_string(node) == b"\\x01F"

    def test_sep_equal_term_rejected(self):
        with pytest.raises(TemplateError):
            parse_canonical(b"(F,)*F,")
        with pytest.raises(TemplateError):
            Array(Field(), ord(","), ord(","))


def template_trees(depth=2):
    lit = st.sampled_from([b",", b";", b"[", b"]", b" ", b":", b"\n", b"|"])
    if depth == 0:
        leaf = st.one_of(st.just(Field()), lit)
        return st.lists(leaf, min_size=1, max_size=5).map(struct_of)
    sub = template_trees(depth - 1)
    seps = st.sampled_from([(ord(","), ord("\n")), (ord(";"), ord(",")),
                            (ord(" "), ord("|"))])
    array = st.builds(lambda body, st_: Array(body, st_[0], st_[1]), sub, seps)
    elem = st.one_of(st.just(Field()), lit, array)
    return st.lists(elem, min_size=1, max_size=5).map(struct_of)


class TestRoundTrip:
    @given(template_trees())
    @settings(max_examples=1000, deadline=None)
    def test_canonical_round_trip(self, tree):
        s = canonical_string(tree)
        back = parse_canonical(s)
        assert back == tree
        assert canonical_string(back) == s


class TestMatches:
    @pytest.mark.parametrize("tpl,rt,expected", [
        (b"(F,)*F\n", b"F,F,F\n", True),
        (b"(F,)*F\n", b"F;F\n", False),
        (b'F,"(F,)*F",F', b'F,"F,F,F",F', True),
        (b"(F,)*F\n", b"F\n", True),
        (b"(F,)*F\n", b"F,F,", False),
        (b"[F]", b"[F]", True),
        (b"[F]", b"[F] ", False),
    ])
    def test_examples(self, tpl, rt, expected):
        assert matches(parse_canonical(tpl), rt) is expected


class TestCompiledMatcher:
    def test_quoted_array_decomposition(self):
        ct = compile_template(parse_canonical(b'F,"(F,)*F",F\n'))
        buf = b'x,"1,2,3",y\n'
        end, values, arities = ct.match_at(buf, 0, len(buf))
        assert end == len(buf)
        assert values == [[b"x"], [b"1", b"2", b"3"], [b"y"]]
        assert arities == [[3]]
        assert render_record(ct.template, values, arities) == buf

    def test_multi_line_match(self):
        ct = compile_template(parse_canonical(b"[F]\n=F\n"))
        buf = b"[abc]\n=val\n[x]\n=y\n"
        end, values, _ = ct.match_at(buf, 0, len(buf))
        assert end == 11
        assert values == [[b"abc"], [b"val"]]

    def test_trailing_newline_optional_at_eof(self):
        ct = compile_template(parse_canonical(b"F,F\n"))
        assert ct.match_at(b"a,b", 0, 3)[0] == 3
        assert ct.match_at(b"a,b\nrest\n", 0, 4)[0] == 4

    def test_fields_exclude_template_charset(self):
        ct = compile_template(parse_canonical(b"F,F\n"))
        assert ct.match_at(b"a;b,c\n", 0, 6)[1] == [[b"a;b"], [b"c"]]
        assert ct.match_at(b"a,b,c\n", 0, 6) is None

    def test_nested_array_decomposition(self):
        ct = compile_template(parse_canonical(b"((F;)*F:F,)*(F;)*F:F.\n"))
        buf = b"1;2:a,3;4;5:b.\n"
        end, values, arities = ct.match_at(buf, 0, len(buf))
        assert end == len(buf)
        assert values == [[b"1", b"2", b"3", b"4", b"5"], [b"a", b"b"]]
        assert arities == [[2], [2, 3]]
        assert render_record(ct.template, values, arities) == buf

    def test_array_body_ending_in_terminator_byte_cut_at_eof(self):
        # the body's own final newline is not the array's terminator
        ct = compile_template(parse_canonical(b"(F\n,)*F\n\n"))
        assert ct.match_at(b"a\n,b\n", 0, 5) == (5, [[b"a", b"b"]], [[2]])

    def test_slow_path_separator_inside_body(self):
        # body literal contains the outer separator byte
        ct = compile_template(parse_canonical(b"(F,F;)*F,F.\n"))
        buf = b"a,b;c,d;e,f.\n"
        end, values, arities = ct.match_at(buf, 0, len(buf))
        assert end == len(buf)
        assert values == [[b"a", b"c", b"e"], [b"b", b"d", b"f"]]
        assert arities == [[3]]
        assert render_record(ct.template, values, arities) == buf


@given(record_templates(max_lines=1))
@settings(max_examples=150)
def test_compiled_matcher_agrees_with_extraction(rt):
    """Matching raw text against a template is extraction plus matching."""
    reduced = reduce_to_structure_template(rt)
    charset = layout(reduced).charset | {ord("\n")}
    # instantiate the record template with a distinct value per field
    values_in_order = (b"x%d" % i for i in itertools.count())
    raw = re.sub(b"F", lambda _: next(values_in_order), rt)
    ct = compile_template(reduced)
    hit = ct.match_at(raw, 0, len(raw))
    extracted = extract_record_template(raw, charset)
    assert hit is not None and hit[0] == len(raw)
    assert matches(reduced, extracted)
    # (values, arities) round trips through the record's bytes and its rows
    _, values, arities = hit
    assert render_record(ct.template, values, arities) == raw
    schema = build_schema(0, ct.template)
    tables_per_type, fks = new_tables([schema])
    row_id, _ = emit_record(schema, tables_per_type[0], values, arities)
    out = RelationalOutput(tables_per_type[0], fks, [], [],
                           [RecordMeta(0, row_id, 0, 1, 0, len(raw))], [schema])
    assert record_values(out, out.records[0]) == (values, arities)
