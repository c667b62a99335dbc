import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstruct.corpus import Corpus, CorpusError, corpus_from_bytes, load, sample


def write(tmp_path, data: bytes):
    p = tmp_path / "input.log"
    p.write_bytes(data)
    return p


def test_load_two_lines(tmp_path):
    c = load(write(tmp_path, b"a\nb\n"))
    assert c.offsets[:-1].tolist() == [0, 2]
    assert c.total_len == 4


def test_load_normalizes_crlf(tmp_path):
    c = load(write(tmp_path, b"a\r\nb"))
    assert c.data == b"a\nb"
    assert c.offsets[:-1].tolist() == [0, 2]
    assert c.total_len == 3


def test_load_keeps_lone_cr(tmp_path):
    c = load(write(tmp_path, b"a\rb\n"))
    assert c.data == b"a\rb\n"
    assert c.offsets[:-1].tolist() == [0]


def test_load_empty_file_rejected(tmp_path):
    with pytest.raises(CorpusError, match="empty"):
        load(write(tmp_path, b""))


def test_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.log"
    with pytest.raises(CorpusError, match="nope.log"):
        load(missing)


def test_load_indexes_large_file_without_line_copies(tmp_path):
    # one contiguous buffer plus an integer index, even for multi-MB input
    data = b"".join(b"%d,payload,%d\n" % (i, i * 7) for i in range(200_000))
    c = load(write(tmp_path, data))
    assert c.total_len == len(data)
    assert isinstance(c.offsets, np.ndarray)
    assert c.data is not None and c.n_lines == 200_000


@given(st.lists(st.binary(min_size=0, max_size=8).filter(lambda b: b"\n" not in b),
                min_size=1, max_size=30),
       st.booleans())
@settings(max_examples=100)
def test_line_index_reconstructs_input(lines, trailing_newline):
    data = b"\n".join(lines)
    if trailing_newline:
        data += b"\n"
    normalized = data.replace(b"\r\n", b"\n")
    if not normalized:
        return
    c = corpus_from_bytes(data)
    rebuilt = b"".join(c.data[c.offsets[i]:c.offsets[i + 1]] for i in range(c.n_lines))
    assert rebuilt == normalized
    starts = c.offsets[:-1].tolist()
    assert starts[0] == 0
    assert all(a < b for a, b in zip(starts, starts[1:]))
    for s in starts[1:]:
        assert c.data[s - 1:s] == b"\n"


def big_corpus(n_lines=20_000, seed=1):
    import random
    rng = random.Random(seed)
    return corpus_from_bytes(b"".join(
        b"%d %s\n" % (i, bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(5, 40))))
        for i in range(n_lines)))


def test_sample_whole_corpus_when_budget_covers_it():
    c = corpus_from_bytes(b"x\n" * 500)
    v = sample(c, budget=1 << 20, chunk_size=1 << 16)
    assert v.chunks == ((0, c.total_len),)
    assert v.text.data == c.data


def test_sample_chunk_count_and_size():
    c = big_corpus()
    budget, chunk = 1 << 16, 1 << 14
    v = sample(c, budget, chunk, seed=0)
    assert len(v.chunks) == 4
    # each chunk is chunk_size rounded up to a whole line
    for off, length in v.chunks:
        assert length >= chunk or off + length == c.total_len
        assert length < chunk + 64
    assert v.sampled_len == sum(l for _, l in v.chunks)


def test_sample_chunks_on_line_boundaries():
    c = big_corpus(seed=3)
    v = sample(c, 1 << 16, 1 << 14, seed=7)
    for off, length in v.chunks:
        if off > 0:
            assert c.data[off - 1:off] == b"\n"
        end = off + length
        assert end == c.total_len or c.data[end - 1:end] == b"\n"


def test_sample_deterministic_and_non_overlapping():
    c = big_corpus(seed=2)
    v1 = sample(c, 1 << 16, 1 << 14, seed=5)
    v2 = sample(c, 1 << 16, 1 << 14, seed=5)
    assert v1.chunks == v2.chunks
    ends = 0
    for off, length in v1.chunks:
        assert off >= ends
        ends = off + length


def test_sample_rejects_bad_budget():
    c = corpus_from_bytes(b"x\n")
    with pytest.raises(ValueError):
        sample(c, budget=10, chunk_size=20)
