from conftest import FieldSpec, generate, make_spec
from logstruct.corpus import TextView
from logstruct.generation import CandidateSet, CandidateStats, GenerationConfig, greedy_search
from logstruct.pruning import PruningConfig, assimilation_score, prune


def cand_set(entries):
    cs = CandidateSet()
    for key, cov, nfc in entries:
        cs.entries[key] = CandidateStats(cov, nfc)
    return cs


def test_score_is_plain_product():
    assert assimilation_score(CandidateStats(1000, 200)) == 200_000


def test_zero_non_field_coverage_ranks_last():
    cs = cand_set([(b"F,F\n", 100, 0), (b"F;F\n", 50, 10)])
    ranked = prune(cs)
    assert ranked[0][0] == b"F;F\n"
    assert assimilation_score(ranked[1][1]) == 0


def test_tie_broken_by_canonical_string():
    cs = cand_set([(b"F;F\n", 3, 3), (b"F,F\n", 3, 3), (b"F.F\n", 1, 5)])
    ranked = prune(cs, PruningConfig(top_m=2))
    assert [k for k, _ in ranked] == [b"F,F\n", b"F;F\n"]


def test_m_larger_than_k_returns_all():
    cs = cand_set([(b"F,F\n", 5, 1), (b"F;F\n", 4, 1)])
    assert len(prune(cs, PruningConfig(top_m=50))) == 2


def test_empty_input_gives_empty_output():
    assert prune(CandidateSet()) == []


def test_products_exact_at_huge_magnitudes():
    # multi-GB coverage products must not overflow or round
    stats = CandidateStats(3_000_000_000, 2_999_999_999)
    assert assimilation_score(stats) == 3_000_000_000 * 2_999_999_999


def test_deterministic_order():
    cs = cand_set([(b"F,F\n", 7, 2), (b"F;F\n", 2, 7), (b"F.F\n", 14, 1)])
    r1 = prune(cs)
    r2 = prune(cand_set([(b"F.F\n", 14, 1), (b"F;F\n", 2, 7), (b"F,F\n", 7, 2)]))
    assert [k for k, _ in r1] == [k for k, _ in r2]


def test_full_template_outranks_its_fragments():
    """A multi-line record's full template dominates both redundancy sources:
    line subsets (less coverage) and charset-in-field variants (less
    non-field coverage)."""
    res = generate(make_spec(
        [(b"<<F>>\n==F:F:F\n--F--\n",
          [FieldSpec("int", 0, 10**6), FieldSpec("int", 0, 23, pad=2),
           FieldSpec("int", 0, 59, pad=2), FieldSpec("int", 0, 59, pad=2),
           FieldSpec("str", min_len=4, max_len=8)],
          [], 1.0)],
        noise_fraction=0.1, record_count=150, seed=2))
    tv = TextView.from_bytes(res.data)
    result = greedy_search(tv, GenerationConfig())
    entries = result.candidates.entries
    full_key = b"<<F>>\n==(F:)*F\n--F--\n"
    assert full_key in entries
    full = entries[full_key]
    # line-subset fragment: middle line alone
    sub = entries.get(b"==(F:)*F\n")
    if sub is not None:
        assert full.coverage > sub.coverage
        assert full.non_field_coverage > sub.non_field_coverage
    # charset-as-field variant: ':' treated as part of the field values
    weak = entries.get(b"<<F>>\n==F\n--F--\n")
    if weak is not None:
        assert full.non_field_coverage > weak.non_field_coverage
    ranked = prune(result.candidates)
    assert ranked[0][0] == full_key


def test_dominant_template_ranked_first():
    """Strictly highest coverage and non-field coverage implies rank one."""
    cs = cand_set([(b"[F]F\n", 100, 50), (b"F,F\n", 90, 49), (b"F;F\n", 99, 20)])
    ranked = prune(cs)
    assert ranked[0][0] == b"[F]F\n"
