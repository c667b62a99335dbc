"""Reference implementations that tests compare the package against.

``extract_record_template`` is the byte-at-a-time record template extraction
that the vectorized candidate search reproduces, and ``matches`` decides
whether a record template is in a structure template's language.
``reduce_to_structure_template`` and ``reduce_node`` give the reductions of
the package's symbol pool as trees.  ``match_at`` reads one match of a
compiled template at a given position, outside the record scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from logstruct.templates import (
    FIELD_BYTE,
    CompiledTemplate,
    Field,
    Node,
    Struct,
    TemplateError,
    _reduce_seq,
    _SymbolPool,
    parse_canonical,
)


@dataclass(frozen=True)
class RecordTemplate:
    """Extraction result: template text plus the replaced field byte total."""

    text: bytes
    field_bytes: int

    @property
    def valid(self) -> bool:
        # A record template must contain at least one placeholder.
        return FIELD_BYTE in self.text


def extract_record_template(record: bytes, charset: frozenset[int]) -> RecordTemplate:
    """Replace each maximal run of non-charset bytes with one placeholder."""
    if not record:
        raise TemplateError("empty record")
    out = bytearray()
    field_bytes = 0
    in_field = False
    for b in record:
        if b in charset:
            out.append(b)
            in_field = False
        else:
            field_bytes += 1
            if not in_field:
                out.append(FIELD_BYTE)
                in_field = True
    return RecordTemplate(bytes(out), field_bytes)


def reduce_to_structure_template(rt: RecordTemplate | bytes) -> Node:
    """The tree of a record template's reduction."""
    text = rt.text if isinstance(rt, RecordTemplate) else rt
    lines = [line + b"\n" for line in text.split(b"\n")]
    lines[-1] = lines[-1][:-1]  # empty when the text ends with a newline
    pool = _SymbolPool()
    return parse_canonical(pool.reduce_span([pool.reduce_line(line) for line in lines
                                             if line]))


def reduce_node(node: Node) -> Node:
    """Re-run reduction over an existing template, its array bodies first."""
    pool = _SymbolPool()
    return parse_canonical(pool.canonical_of(_reduce_seq(_symbols(node, pool), pool)))


def _symbols(node: Node, pool: _SymbolPool) -> str:
    out = []
    for e in node.children if isinstance(node, Struct) else (node,):
        if isinstance(e, bytes):
            out.append(e.decode("latin-1"))
        elif isinstance(e, Field):
            out.append("F")
        else:
            body = _reduce_seq(_symbols(e.body, pool), pool)
            out.append(pool.array_symbol(body, chr(e.sep), chr(e.term)))
    return "".join(out)


def matches(st: Node, rt: RecordTemplate | bytes) -> bool:
    """True iff the record template is in the language of the template."""
    text = rt.text if isinstance(rt, RecordTemplate) else bytes(rt)
    return _match_end(st, text, 0) == len(text)


def _match_end(node: Node, text: bytes, pos: int) -> int:
    """End of ``node`` matched at ``pos`` of a record template, or -1."""
    if isinstance(node, Field):
        if pos < len(text) and text[pos] == FIELD_BYTE:
            return pos + 1
        return -1
    if isinstance(node, bytes):
        end = pos + len(node)
        if text[pos:end] == node:
            return end
        return -1
    if isinstance(node, Struct):
        for c in node.children:
            pos = _match_end(c, text, pos)
            if pos < 0:
                return -1
        return pos
    # Array
    pos = _match_end(node.body, text, pos)
    if pos < 0:
        return -1
    while True:
        if pos >= len(text):
            return -1
        b = text[pos]
        if b == node.term:
            return pos + 1
        if b != node.sep:
            return -1
        pos = _match_end(node.body, text, pos + 1)
        if pos < 0:
            return -1


def match_at(ct: CompiledTemplate, buf: bytes, pos: int, endpos: int):
    """``(end, values_per_leaf, arities_per_array)`` of ``ct``'s match at
    ``pos`` in ``buf[:endpos]``, or None."""
    m = ct.rx.match(buf, pos, endpos)
    return None if m is None else (m.end(), *ct.record(m))
