"""Record and structure templates.

A record template is a byte string over a set of formatting bytes plus the
placeholder byte ``F`` standing for one field value.  A structure template is
a tree of Struct / Array / Field nodes describing a restricted regular
expression over record templates: an array ``(body sep)* body term`` repeats
one unit with a single-byte separator and a distinct single-byte terminator.

A record matched by a structure template is held as ``(values, arities)``.
The template's leaves (fields) and arrays are numbered in pre-order, an
array before the leaves and arrays of its body.  ``values[i]`` lists the
values of leaf ``i`` in record order, across all repetitions of the arrays
around it; ``arities[j]`` lists the repetition count of each instance of
array ``j`` in record order (an array nested in another has one instance per
repetition of the outer one).  :func:`layout` is the one place that assigns
these numbers; everything that reads or writes the form walks its result.
"""

from __future__ import annotations

import functools
import re
import string
from dataclasses import dataclass
from typing import NamedTuple, Union

FIELD_BYTE = ord("F")
NEWLINE = ord("\n")

# Formatting bytes are drawn from ASCII punctuation plus space and tab.
# '\n' separates blocks and is therefore always a formatting byte; it is not
# part of the enumerable candidate set used by the charset searches.
ENUMERABLE_CANDIDATE_BYTES = frozenset(ord(c) for c in string.punctuation + " \t")

# Array reduction knobs: a run must contain at least MIN_ARRAY_UNITS copies of
# the unit ("UxUxUy"), and a unit may serialize to at most MAX_UNIT_BYTES.
MIN_ARRAY_UNITS = 3
MAX_UNIT_BYTES = 32


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class Field:
    """A single field placeholder."""


@dataclass(frozen=True)
class Array:
    """``(body sep)* body term`` with single-byte sep != term."""

    body: "Node"
    sep: int
    term: int

    def __post_init__(self):
        if not (0 <= self.sep < 256 and 0 <= self.term < 256):
            raise TemplateError("array separator/terminator must be single bytes")
        if self.sep == self.term:
            raise TemplateError("array separator and terminator must differ")


@dataclass(frozen=True)
class Struct:
    """A fixed sequence of nodes and literal byte runs."""

    children: tuple["Node", ...]


Node = Union[Field, Array, Struct, bytes]


def struct_of(elements) -> Node:
    """Normalize a sequence of nodes/literals into canonical tree form.

    Nested structs are flattened, adjacent literals merged, and a singleton
    sequence collapses to its only element.
    """
    flat: list[Node] = []
    for e in elements:
        _push(flat, e)
    if not flat:
        raise TemplateError("empty template")
    if len(flat) == 1:
        return flat[0]
    return Struct(tuple(flat))


def _push(flat: list[Node], e) -> None:
    if isinstance(e, Struct):
        for c in e.children:
            _push(flat, c)
    elif isinstance(e, (bytes, bytearray)):
        if len(e) == 0:
            return
        if flat and isinstance(flat[-1], bytes):
            flat[-1] = flat[-1] + bytes(e)
        else:
            flat.append(bytes(e))
    elif isinstance(e, int):
        _push(flat, bytes([e]))
    else:
        flat.append(e)


def _elements(node: Node) -> tuple[Node, ...]:
    if isinstance(node, Struct):
        return node.children
    return (node,)


# ---------------------------------------------------------------------------
# Layout: the numbering of leaves and arrays
#
# Walks over a template or a layout are module-level functions, not nested
# closures: a recursive closure refers to itself through its cell, so every
# call would leave a reference cycle that only the cyclic collector frees.

LEAF, LITERAL, ARRAY = range(3)


class Slot(NamedTuple):
    """One element of a template body, in record order."""

    kind: int  # LEAF, LITERAL or ARRAY
    index: int  # the leaf or array number; -1 for a literal
    node: Node  # the Field, the literal bytes or the Array
    body: "Layout | None"  # an array's body, numbered on from the array


class Layout(NamedTuple):
    """A template body as numbered slots, with what is counted on the way."""

    slots: tuple[Slot, ...]
    charset: frozenset[int]  # literal bytes and array separators/terminators
    n_leaves: int
    arrays: tuple[Array, ...]  # every array inside, in array-number order


def _number(node: Node, leaf: int, arr: int) -> Layout:
    """Lay out ``node`` given the numbers of its first leaf and first array."""
    first_leaf = leaf
    slots: list[Slot] = []
    charset: set[int] = set()
    arrays: list[Array] = []
    for e in _elements(node):
        if isinstance(e, Field):
            slots.append(Slot(LEAF, leaf, e, None))
            leaf += 1
        elif isinstance(e, bytes):
            slots.append(Slot(LITERAL, -1, e, None))
            charset.update(e)
        else:
            body = _number(e.body, leaf, arr + 1)
            slots.append(Slot(ARRAY, arr, e, body))
            charset |= body.charset
            charset.update((e.sep, e.term))
            arrays.append(e)
            arrays.extend(body.arrays)
            leaf += body.n_leaves
            arr += 1 + len(body.arrays)
    return Layout(tuple(slots), frozenset(charset), leaf - first_leaf, tuple(arrays))


# Cached because render_record looks the layout up once per record; a few
# dozen entries cover that, while every entry holds its template alive.
@functools.lru_cache(maxsize=64)
def layout(node: Node) -> Layout:
    """The numbered layout of a whole template (see the module docstring)."""
    return _number(node, 0, 0)


def field_count(node: Node) -> int:
    return layout(node).n_leaves


# ---------------------------------------------------------------------------
# Record template extraction


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


# ---------------------------------------------------------------------------
# Canonical serialization

_META = frozenset(b"()*F\\")
_PRINTABLE = frozenset(range(0x20, 0x7F)) | {NEWLINE, ord("\t")}


def _escape_byte(b: int) -> bytes:
    if b in _META:
        return b"\\" + bytes([b])
    if b in _PRINTABLE:
        return bytes([b])
    return b"\\x%02x" % b


def canonical_string(node: Node) -> bytes:
    """Deterministic serialization; equal templates iff equal strings."""
    out = bytearray()
    _write_canonical(node, out)
    return bytes(out)


def _write_canonical(n: Node, out: bytearray) -> None:
    if isinstance(n, Field):
        out.append(FIELD_BYTE)
    elif isinstance(n, bytes):
        for b in n:
            out.extend(_escape_byte(b))
    elif isinstance(n, Array):
        out.extend(b"(")
        _write_canonical(n.body, out)
        out.extend(_escape_byte(n.sep))
        out.extend(b")*")
        _write_canonical(n.body, out)
        out.extend(_escape_byte(n.term))
    else:
        for c in n.children:
            _write_canonical(c, out)


class _CanonicalParser:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _error(self, msg: str):
        raise TemplateError(f"bad template string at byte {self.pos}: {msg}")

    def _literal_byte(self) -> int:
        data = self.data
        if self.pos >= len(data):
            self._error("unexpected end")
        b = data[self.pos]
        if b == ord("\\"):
            self.pos += 1
            if self.pos >= len(data):
                self._error("dangling escape")
            e = data[self.pos]
            if e == ord("x"):
                hexpart = data[self.pos + 1 : self.pos + 3]
                if len(hexpart) != 2:
                    self._error("bad \\x escape")
                try:
                    value = int(hexpart, 16)
                except ValueError:
                    self._error("bad \\x escape")
                self.pos += 3
                return value
            self.pos += 1
            return e
        self.pos += 1
        return b

    def parse_elements(self, stop_at_paren: bool) -> list[Node]:
        out: list[Node] = []
        data = self.data
        while self.pos < len(data):
            b = data[self.pos]
            if b == ord(")"):
                if stop_at_paren:
                    return out
                self._error("unbalanced ')'")
            if b == FIELD_BYTE:
                self.pos += 1
                out.append(Field())
            elif b == ord("("):
                self.pos += 1
                out.append(self._parse_array())
            elif b == ord("*"):
                self._error("stray '*'")
            else:
                out.append(bytes([self._literal_byte()]))
        if stop_at_paren:
            self._error("missing ')'")
        return out

    def _parse_array(self) -> Array:
        inner = self.parse_elements(stop_at_paren=True)
        self.pos += 1  # consume ')'
        if self.pos >= len(self.data) or self.data[self.pos] != ord("*"):
            self._error("array missing '*'")
        self.pos += 1
        if not inner:
            self._error("empty array")
        last = inner[-1]
        if not (isinstance(last, bytes) and len(last) == 1):
            self._error("array separator must be one byte")
        sep = last[0]
        body_elems = inner[:-1]
        if not body_elems:
            self._error("empty array body")
        body = struct_of(body_elems)
        # The body repeats verbatim after '*'.
        expected = canonical_string(body)
        if self.data[self.pos : self.pos + len(expected)] != expected:
            self._error("array body mismatch after '*'")
        self.pos += len(expected)
        term = self._literal_byte()
        if term == sep:
            self._error("array separator equals terminator")
        return Array(body, sep, term)


def parse_canonical(data: bytes) -> Node:
    """Inverse of :func:`canonical_string`."""
    parser = _CanonicalParser(bytes(data))
    elems = parser.parse_elements(stop_at_paren=False)
    return struct_of(elems)


# ---------------------------------------------------------------------------
# Reduction of record templates to minimal structure templates

# Leftmost candidate run detector over one symbol per sequence element.
# Array nodes are interned into the private-use plane; separators and
# terminators must be ordinary single-byte literals.
_RUN_RX = re.compile(
    "(.{1,%d}?)([^F-])(?:\\1\\2)+\\1(?!\\2)[^F-]"
    % MAX_UNIT_BYTES,
    re.DOTALL,
)


def _is_literal_sym(ch: str) -> bool:
    return ch != "F" and ch < ""


def _longest_run_at(s: str, start: int, slen) -> tuple[int, int] | None:
    """Longest run ``(Ux){k} U y`` anchored at start in the symbol string.

    ``slen(i, j)`` gives the serialized byte length of symbols [i, j).
    Returns (unit_len, k).
    """
    n = len(s)
    best: tuple[int, int] | None = None
    best_span = 0
    max_unit = min(MAX_UNIT_BYTES, (n - start - 2) // 2)
    for ulen in range(1, max_unit + 1):
        if slen(start, start + ulen) > MAX_UNIT_BYTES:
            break
        unit = s[start : start + ulen]
        sep = s[start + ulen]
        if not _is_literal_sym(sep):
            continue
        step = ulen + 1
        k = 0
        while (
            start + (k + 1) * step + ulen <= n
            and s[start + (k + 1) * step : start + (k + 1) * step + ulen] == unit
            and s[start + k * step + ulen] == sep
        ):
            k += 1
        # need k reps of (U sep), then a final U and a distinct terminator
        while k + 1 >= MIN_ARRAY_UNITS:
            pos = start + k * step
            if s[pos : pos + ulen] == unit and pos + ulen < n:
                term = s[pos + ulen]
                if _is_literal_sym(term) and term != sep:
                    span = k * step + ulen + 1
                    if span > best_span:
                        best_span = span
                        best = (ulen, k)
                    break
            k -= 1
    return best


_ESC_TABLE = [_escape_byte(b) for b in range(256)]


class _SymbolPool:
    """Interns array nodes as private-use codepoints for the run scanner."""

    def __init__(self):
        self.by_key: dict[bytes, str] = {}
        self.node_by_sym: dict[str, Array] = {}
        self.canon_by_sym: dict[str, bytes] = {}

    def symbol(self, node: Array) -> str:
        key = canonical_string(node)
        sym = self.by_key.get(key)
        if sym is None:
            sym = chr(0xE000 + len(self.by_key))
            self.by_key[key] = sym
            self.node_by_sym[sym] = node
            self.canon_by_sym[sym] = key
        return sym

    def canonical_of(self, syms: str) -> bytes:
        out = []
        for ch in syms:
            if ch == "F":
                out.append(b"F")
            elif ch >= "":
                out.append(self.canon_by_sym[ch])
            else:
                out.append(_ESC_TABLE[ord(ch)])
        return b"".join(out)


def _symbols(seq: list[Node], pool: _SymbolPool) -> list[str]:
    out = []
    for e in seq:
        if isinstance(e, bytes):
            out.append(chr(e[0]))
        elif isinstance(e, Field):
            out.append("F")
        else:
            out.append(pool.symbol(e))
    return out


def _reduce_seq(seq: list[Node], pool: _SymbolPool,
                syms: list[str] | None = None) -> tuple[list[Node], list[str]]:
    if syms is None:
        syms = _symbols(seq, pool)

    def slen(i: int, j: int) -> int:
        total = 0
        for ch in s[i:j]:
            if ch >= "":
                total += len(pool.canon_by_sym[ch])
            else:
                total += 1 if ch == "F" else len(_ESC_TABLE[ord(ch)])
        return total

    while True:
        s = "".join(syms)
        pos = 0
        found = None
        while True:
            m = _RUN_RX.search(s, pos)
            if m is None:
                break
            found = _longest_run_at(s, m.start(), slen)
            if found is not None:
                pos = m.start()
                break
            pos = m.start() + 1
        if found is None:
            return seq, syms
        ulen, k = found
        unit = seq[pos : pos + ulen]
        sep = seq[pos + ulen]
        term_pos = pos + k * (ulen + 1) + ulen
        term = seq[term_pos]
        body_seq, _ = _reduce_seq(list(unit), pool, syms[pos : pos + ulen])
        node = Array(struct_of(body_seq), sep[0], term[0])
        seq = seq[:pos] + [node] + seq[term_pos + 1 :]
        syms = syms[:pos] + [pool.symbol(node)] + syms[term_pos + 1 :]


def _flat_elements(text: bytes) -> list[Node]:
    # No repeated runs: alternate literal bytes and placeholders.
    return [Field() if b == FIELD_BYTE else bytes([b]) for b in text]


def reduce_line(text: bytes, pool: _SymbolPool) -> tuple[list[Node], list[str]]:
    """Phase one of reduction: fold runs within one line."""
    if _RUN_RX.search(text.decode("latin-1")) is None:
        return _flat_elements(text), list(text.decode("latin-1"))
    return _reduce_seq(_flat_elements(text), pool)


def reduce_elements(seqs: list[tuple[list[Node], list[str]]],
                    pool: _SymbolPool) -> tuple[list[Node], list[str]]:
    """Phase two: fold runs across the concatenated line sequences."""
    seq = [e for s, _ in seqs for e in s]
    syms = [c for _, sy in seqs for c in sy]
    if _RUN_RX.search("".join(syms)) is None:
        return seq, syms
    return _reduce_seq(seq, pool, syms)


def _split_lines(text: bytes) -> list[bytes]:
    lines = text.split(b"\n")
    if lines[-1] == b"":
        return [l + b"\n" for l in lines[:-1]]
    return [l + b"\n" for l in lines[:-1]] + [lines[-1]]


def reduce_to_structure_template(rt: RecordTemplate | bytes) -> Node:
    """Fold repeated ``U x ... U y`` runs into arrays until a fixed point.

    Runs are folded within each line first, then across lines; conflicting
    rewrites resolve leftmost-first, longest run first.
    """
    text = rt.text if isinstance(rt, RecordTemplate) else rt
    if not text:
        raise TemplateError("empty record template")
    pool = _SymbolPool()
    parts = [reduce_line(l, pool) for l in _split_lines(text)]
    if len(parts) == 1:
        return struct_of(parts[0][0])
    seq, _ = reduce_elements(parts, pool)
    return struct_of(seq)


def reduce_node(node: Node) -> Node:
    """Re-run reduction over an existing template's element sequences."""
    elems: list[Node] = []
    for e in _elements(node):
        if isinstance(e, bytes):
            elems.extend(bytes([b]) for b in e)
        elif isinstance(e, Array):
            elems.append(Array(reduce_node(e.body), e.sep, e.term))
        else:
            elems.append(e)
    seq, _ = _reduce_seq(elems, _SymbolPool())
    return struct_of(seq)


# ---------------------------------------------------------------------------
# Matching record templates against structure templates


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


# ---------------------------------------------------------------------------
# Compiled matcher over raw text


def _regex_field(charset: frozenset[int]) -> bytes:
    cls = b"".join(re.escape(bytes([b])) for b in sorted(charset))
    return b"[^" + cls + b"]+"


def _literal_regex(lit: bytes, eof_ok: bool) -> bytes:
    if eof_ok and lit.endswith(b"\n"):
        return re.escape(lit[:-1]) + b"(?:\\n|\\Z)"
    return re.escape(lit)


class CompiledTemplate:
    """Deterministic matcher for one structure template over raw bytes.

    Field values may contain any byte outside the template's own formatting
    charset.  The final newline of the template is optional at end of input.

    This is where templates are admitted: one without a field, or without a
    final newline (its records would end before their line's newline, which
    then belongs to neither a record nor the noise), raises TemplateError.
    """

    def __init__(self, st: Node):
        self.template = st
        self.canonical = canonical_string(st)
        lay = layout(st)
        if lay.n_leaves == 0:
            raise TemplateError("template without fields")
        if not self.canonical.endswith(b"\n"):
            raise TemplateError("template must end with a newline")
        self.charset = lay.charset | {NEWLINE}
        self.n_fields = lay.n_leaves
        self.arrays = list(lay.arrays)
        # The top level is one repetition of a body that may end at EOF.
        self._top = _Body(lay, _regex_field(self.charset), eof_ok=True)
        self._rx = self._top.rx
        first = lay.slots[0]
        while first.kind == ARRAY:
            first = first.body.slots[0]
        # (kind, payload): 'byte' -> exact first byte, 'field' -> non-charset.
        if first.kind == LITERAL:
            self.first_pred = ("byte", first.node[0])
        else:
            self.first_pred = ("field", self.charset)

    def match_at(self, buf: bytes, pos: int, endpos: int):
        """Match at pos; returns (end, values_per_leaf, arities_per_array)."""
        m = self._rx.match(buf, pos, endpos)
        if m is None:
            return None
        values: list[list[bytes]] = [[] for _ in range(self.n_fields)]
        arities: list[list[int]] = [[] for _ in range(len(self.arrays))]
        self._top.fill(m, values, arities)
        return m.end(), values, arities


class _Body:
    """Regex and value splitter of one template body: the whole template, or
    the body of one array.

    ``rx`` captures one group per leaf and per array slot of the body, in
    slot order (an array's group holds its repetitions, not its terminator);
    ``plain`` is the same pattern without groups, for use inside an enclosing
    array's pattern.  With ``eof_ok`` the body's last literal or array
    terminator may end at EOF instead of at its newline.
    """

    __slots__ = ("plain", "rx", "groups", "index", "sep", "fast_split",
                 "single_leaf")

    def __init__(self, lay: Layout, field_re: bytes, eof_ok: bool = False,
                 array: Slot | None = None):
        captured: list[bytes] = []
        plain: list[bytes] = []
        groups: list[tuple[int, _Body | None]] = []  # (leaf, None) or (-1, array body)
        last = len(lay.slots) - 1
        for i, slot in enumerate(lay.slots):
            if slot.kind == LEAF:
                captured.append(b"(" + field_re + b")")
                plain.append(b"(?:" + field_re + b")")
                groups.append((slot.index, None))
            elif slot.kind == LITERAL:
                rx = _literal_regex(slot.node, eof_ok and i == last)
                captured.append(rx)
                plain.append(rx)
            else:
                sub = _Body(slot.body, field_re, array=slot)
                a = slot.node
                rx = b"(?:" + sub.plain + re.escape(bytes([a.sep])) + b")*" + sub.plain
                term = _literal_regex(bytes([a.term]), eof_ok and i == last)
                captured.append(b"(" + rx + b")" + term)
                plain.append(rx + term)
                groups.append((-1, sub))
        self.plain = b"".join(plain)
        self.rx = re.compile(b"".join(captured))
        self.groups = tuple(groups)
        if array is not None:
            self.index = array.index
            self.sep = bytes([array.node.sep])
            self.fast_split = array.node.sep not in lay.charset
            one_leaf = len(lay.slots) == 1 and lay.slots[0].kind == LEAF
            self.single_leaf = lay.slots[0].index if one_leaf else -1

    def fill(self, m: re.Match, values: list[list[bytes]],
             arities: list[list[int]]) -> None:
        """Append the values and arities of one match of ``rx``."""
        for (leaf, sub), text in zip(self.groups, m.groups()):
            if sub is None:
                values[leaf].append(text)
            else:
                sub.split(text, values, arities)

    def split(self, region: bytes, values: list[list[bytes]],
              arities: list[list[int]]) -> None:
        """Append one matched instance of this array body's array, given
        without its terminator."""
        parts = region.split(self.sep) if self.fast_split else self._instances(region)
        arities[self.index].append(len(parts))
        if self.single_leaf >= 0:
            values[self.single_leaf].extend(parts)
            return
        for p in parts:
            self.fill(self.rx.fullmatch(p), values, arities)

    def _instances(self, region: bytes) -> list[bytes]:
        # Body literals contain the separator byte: walk instance by instance.
        parts = []
        pos = 0
        while True:
            end = self.rx.match(region, pos).end()
            parts.append(region[pos:end])
            if end >= len(region):
                return parts
            pos = end + 1  # skip separator


def compile_template(st: Node) -> CompiledTemplate:
    return CompiledTemplate(st)


def render_record(st: Node, values: list[list[bytes]], arities: list[list[int]]) -> bytes:
    """Rebuild the exact record bytes from per-leaf values and array arities."""
    out = bytearray()
    _render(layout(st), [iter(v) for v in values], [iter(a) for a in arities], out)
    return bytes(out)


def _render(lay: Layout, values: list, arities: list, out: bytearray) -> None:
    for kind, index, node, body in lay.slots:
        if kind == LEAF:
            out += next(values[index])
        elif kind == LITERAL:
            out += node
        else:
            reps = next(arities[index])
            for r in range(reps):
                _render(body, values, arities, out)
                out.append(node.sep if r < reps - 1 else node.term)
