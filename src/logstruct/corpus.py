"""Raw file loading, line indexing, and chunk sampling.

All processing is byte oriented: log files frequently mix encodings, so the
only normalization applied is CRLF -> LF at load time.  Blocks are separated
by ``\\n``; a final line without one is still treated as a line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

NEWLINE = ord("\n")


class CorpusError(Exception):
    pass


def _line_offsets(data: bytes) -> np.ndarray:
    """Offsets of each line start plus a final sentinel at len(data)."""
    arr = np.frombuffer(data, dtype=np.uint8)
    nl = np.flatnonzero(arr == NEWLINE).astype(np.int64) + 1
    if nl.size and nl[-1] == len(data):
        starts = np.concatenate(([0], nl[:-1]))
    else:
        starts = np.concatenate(([0], nl))
    return np.concatenate((starts, [len(data)]))


@dataclass(frozen=True)
class TextView:
    """Immutable text plus its line index (offsets carry a final sentinel)."""

    data: bytes
    offsets: np.ndarray

    @classmethod
    def from_bytes(cls, data: bytes) -> "TextView":
        return cls(data, _line_offsets(data))

    @property
    def np_bytes(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=np.uint8)

    @property
    def n_lines(self) -> int:
        return len(self.offsets) - 1


@dataclass(frozen=True)
class Corpus:
    """A loaded log file: normalized bytes plus the line-start index."""

    data: bytes
    offsets: np.ndarray = field(repr=False)

    @property
    def total_len(self) -> int:
        return len(self.data)

    @property
    def n_lines(self) -> int:
        return len(self.offsets) - 1

    def view(self) -> TextView:
        return TextView(self.data, self.offsets)


@dataclass(frozen=True)
class SampleView:
    """Whole-line chunks drawn from a corpus, concatenated in memory."""

    chunks: tuple[tuple[int, int], ...]  # (offset, length) in the corpus
    text: TextView

    @property
    def sampled_len(self) -> int:
        return len(self.text.data)


def corpus_from_bytes(data: bytes) -> Corpus:
    """Index in-memory bytes as a corpus (CRLF normalization included)."""
    data = data.replace(b"\r\n", b"\n")
    if not data:
        raise CorpusError("empty corpus")
    return Corpus(data, _line_offsets(data))


def load(path) -> Corpus:
    """Load and index a log file; CRLF pairs are normalized to LF."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise CorpusError(f"empty corpus: {path}")
    return corpus_from_bytes(raw)


def sample(corpus: Corpus, budget: int, chunk_size: int, seed: int = 0) -> SampleView:
    """Pick ceil(budget/chunk_size) chunk start lines uniformly (seeded).

    Chunks are extended to whole lines, never overlap, and the view
    degenerates to the whole corpus when the budget covers it.
    """
    if not (budget >= chunk_size > 0):
        raise ValueError("require budget >= chunk_size > 0")
    total = corpus.total_len
    if budget >= total:
        return SampleView(((0, total),), corpus.view())
    n = corpus.n_lines
    k = math.ceil(budget / chunk_size)
    rng = random.Random(seed)
    starts = sorted(rng.sample(range(n), min(k, n)))
    offsets = corpus.offsets
    chunks: list[tuple[int, int]] = []
    high = 0
    for line in starts:
        off = int(offsets[line])
        if off < high:
            off = high
        if off >= total:
            break
        target = off + chunk_size
        j = int(np.searchsorted(offsets, target, side="left"))
        end = int(offsets[min(j, n)])
        if end <= off:
            continue
        chunks.append((off, end - off))
        high = end
    data = b"".join(corpus.data[o : o + ln] for o, ln in chunks)
    return SampleView(tuple(chunks), TextView.from_bytes(data))
