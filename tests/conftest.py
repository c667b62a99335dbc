import random

import pytest

from logstruct.corpus import corpus_from_bytes
from logstruct.synth import ArraySpec, FieldSpec, SynthSpec, TemplateSpec, generate
from logstruct.templates import parse_canonical


def make_spec(entries, noise_fraction=0.0, record_count=100, seed=0):
    """entries: list of (canonical template, field specs, array specs, weight)."""
    templates = []
    for tpl, fields, arrays, weight in entries:
        templates.append(TemplateSpec(
            template=parse_canonical(tpl),
            fields=list(fields),
            arrays=list(arrays),
            weight=weight,
        ))
    return SynthSpec(templates=templates, noise_fraction=noise_fraction,
                     record_count=record_count, seed=seed)


class CountingPattern:
    """Wraps a compiled pattern, counting its ``search`` calls; more than
    ``limit`` of them fail the test (a search that would not end)."""

    def __init__(self, rx, limit=None):
        self.rx, self.limit, self.searches = rx, limit, 0

    def search(self, *args):
        self.searches += 1
        assert self.limit is None or self.searches <= self.limit, "too many searches"
        return self.rx.search(*args)


@pytest.fixture
def bracket_log_corpus():
    """Lines shaped like '[hh:mm:ss] word(n,n)' with all values varying."""
    rng = random.Random(0)
    lines = []
    for _ in range(400):
        lines.append(b"[%02d:%02d:%02d] %s(%d,%d)\n" % (
            rng.randrange(24), rng.randrange(60), rng.randrange(60),
            "".join(rng.choice("abcdefgh") for _ in range(6)).encode(),
            rng.randrange(100), rng.randrange(100)))
    return corpus_from_bytes(b"".join(lines))


def timestamp_ip_corpus(n=200, seed=0):
    """Lines shaped like '[hh:mm:ss] a.b.c.d'."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        lines.append(b"[%02d:%02d:%02d] %d.%d.%d.%d\n" % (
            rng.randrange(24), rng.randrange(60), rng.randrange(60),
            rng.randrange(256), rng.randrange(256), rng.randrange(256),
            rng.randrange(256)))
    # a little noise so multi-record merges cannot win on block count
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if i % 23 == 11:
            out.append(b"%s\n" % "".join(
                rng.choice("qwertyuiopasdf") for _ in range(rng.randint(8, 20))).encode())
    return corpus_from_bytes(b"".join(out))


def single_type_spec(seed=0, record_count=100, noise=0.1):
    return make_spec(
        [(b"[F:F:F] F=F\n",
          [FieldSpec("str", min_len=5, max_len=9), FieldSpec("int", 0, 59, pad=2),
           FieldSpec("int", 0, 59, pad=2),
           FieldSpec("enum", values=("alpha", "beta", "gamma")),
           FieldSpec("int", 0, 99999)],
          [], 1.0)],
        noise_fraction=noise, record_count=record_count, seed=seed)


def two_type_spec(seed=0, record_count=120, noise=0.15):
    return make_spec(
        [(b"<<F>>\n==F.F.F.F\n",
          [FieldSpec("int", 0, 10**6)] + [FieldSpec("int", 0, 255)] * 4,
          [], 0.55),
         (b"[F] F -> F\n",
          [FieldSpec("str", min_len=6, max_len=10), FieldSpec("str"), FieldSpec("str")],
          [], 0.45)],
        noise_fraction=noise, record_count=record_count, seed=seed)


__all__ = ["make_spec", "generate", "single_type_spec", "two_type_spec",
           "timestamp_ip_corpus", "ArraySpec", "FieldSpec"]
