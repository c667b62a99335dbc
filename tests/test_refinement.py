import random

from conftest import ArraySpec, FieldSpec, generate, make_spec
from logstruct.corpus import TextView
from logstruct.refinement import refine, rotations, shift_structure, unfold_arrays
from logstruct.scoring import score
from logstruct.templates import canonical_string, parse_canonical


def tv(data):
    return TextView.from_bytes(data)


def csv_corpus(cols=3, n=200, seed=0):
    rng = random.Random(seed)
    return b"".join(
        b",".join(b"%d" % rng.randrange(1000) for _ in range(cols)) + b"\n"
        for _ in range(n))


class TestUnfolding:
    def test_fixed_arity_csv_fully_unfolds(self):
        data = csv_corpus()
        out = unfold_arrays(parse_canonical(b"(F,)*F\n"), tv(data))
        assert canonical_string(out) == b"F,F,F\n"

    def test_partial_unfold_keeps_array_suffix(self):
        # four regular head fields, then a free-text tail of varying width
        rng = random.Random(1)
        lines = []
        for _ in range(250):
            head = b"%02d %02d %02d srv%d" % (rng.randrange(24), rng.randrange(60),
                                              rng.randrange(60), rng.randrange(9))
            tail = b" ".join(b"w%d" % rng.randrange(50)
                             for _ in range(rng.randint(1, 6)))
            lines.append(head + b" " + tail + b"\n")
        data = b"".join(lines)
        out = unfold_arrays(parse_canonical(b"(F )*F\n"), tv(data))
        assert canonical_string(out) == b"F F F F (F )*F\n"

    def test_varying_arity_keeps_array(self):
        rng = random.Random(2)
        data = b"".join(
            b",".join(b"%d" % rng.randrange(10**6)
                      for _ in range(rng.randint(1, 5))) + b"\n"
            for _ in range(300))
        out = unfold_arrays(parse_canonical(b"(F,)*F\n"), tv(data))
        assert canonical_string(out) == b"(F,)*F\n"

    def test_unfolding_never_increases_dl(self):
        for seed, cols in [(0, 3), (1, 5), (2, 2)]:
            data = csv_corpus(cols=cols, seed=seed)
            view = tv(data)
            node = parse_canonical(b"(F,)*F\n")
            before = score(view, node).total_dl
            after = score(view, unfold_arrays(node, view)).total_dl
            assert after <= before

    def test_unfolding_restricts_language(self):
        data = csv_corpus()
        view = tv(data)
        node = parse_canonical(b"(F,)*F\n")
        out = unfold_arrays(node, view)
        before = set(score(view, node).record_line_spans)
        after = set(score(view, out).record_line_spans)
        assert after <= before


class TestShifting:
    def test_single_line_template_is_identity(self):
        node = parse_canonical(b"[F] F\n")
        assert rotations(node) == [node]
        assert shift_structure(node, tv(b"[a] b\n")) == node

    def test_rotations_enumerate_line_cycles(self):
        node = parse_canonical(b"<F>\n=F\n-F-\n")
        rots = [canonical_string(r) for r in rotations(node)]
        assert rots == [b"<F>\n=F\n-F-\n", b"=F\n-F-\n<F>\n", b"-F-\n<F>\n=F\n"]

    def test_planted_phase_wins(self):
        rng = random.Random(3)
        rec = lambda: b"<%d>\n=%d\n-%d-\n" % (rng.randrange(100), rng.randrange(100),
                                              rng.randrange(100))
        data = b"".join(rec() for _ in range(60))
        correct = parse_canonical(b"<F>\n=F\n-F-\n")
        shifted = parse_canonical(b"=F\n-F-\n<F>\n")
        assert canonical_string(shift_structure(shifted, tv(data))) == \
            canonical_string(correct)
        assert canonical_string(shift_structure(correct, tv(data))) == \
            canonical_string(correct)

    def test_no_rotation_matching_keeps_input(self):
        node = parse_canonical(b"<F>\n=F\n-F-\n")
        assert shift_structure(node, tv(b"plain\ntext\n" * 20)) is node

    def test_tie_breaks_by_canonical(self):
        # both rotations first match at line 0 of their own phase; with this
        # corpus the two variants first match at the same line index
        data = b"=a\n=b\n" * 30
        node = parse_canonical(b"=F\n=F\n")
        out = shift_structure(node, tv(data))
        assert canonical_string(out) == b"=F\n=F\n"


class TestRefine:
    def test_refine_unfolds_then_shifts(self):
        res = generate(make_spec(
            [(b"<F>\n=(F;)*F\n", [FieldSpec("int", 0, 10**6), FieldSpec("int", 0, 9)],
              [ArraySpec(3, 3)], 1.0)],
            noise_fraction=0.1, record_count=150, seed=7))
        view = tv(res.data)
        start = score(view, parse_canonical(b"=(F;)*F\n<F>\n"))
        refined = refine(start, view)
        assert refined.canonical == b"<F>\n=F;F;F\n"

    def test_refine_terminates_and_never_worsens(self):
        data = csv_corpus(cols=4, seed=9)
        view = tv(data)
        start = score(view, parse_canonical(b"(F,)*F\n"))
        refined = refine(start, view)
        assert refined.total_dl <= start.total_dl
