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
#
# Reduction folds each run ``U x U x ... U y`` (at least MIN_ARRAY_UNITS
# copies of a unit U, a separator byte x and a distinct terminator byte y)
# into the array ``(U x)* U y``, until no run is left: within each line
# first, then across the lines; the leftmost run folds first, and of the
# runs that start there the longest.  It works on symbol strings, one
# character per element: a literal byte is the character of the same code,
# a placeholder is "F", and an array is an array symbol, a private-use
# character that the pool interns under the array's canonical bytes.  The
# pool reduces a line template to symbols (reduce_line), and a span from the
# symbols of its lines (reduce_span), which yields canonical bytes;
# parse_canonical builds the tree.

# Array symbols count up from _ARRAY_SYM_FIRST.  Only literal symbols, below
# it, separate or terminate a run.
_ARRAY_SYM_FIRST = "\ue000"
_ARRAY_SYM_LAST = "\uf8ff"

# Leftmost candidate run detector over a symbol string.
_RUN_RX = re.compile(
    "(.{1,%d}?)([^F%s-%s])(?:\\1\\2)+\\1(?!\\2)[^F%s-%s]"
    % ((MAX_UNIT_BYTES,) + (_ARRAY_SYM_FIRST, _ARRAY_SYM_LAST) * 2),
    re.DOTALL,
)


def _is_literal_sym(ch: str) -> bool:
    return ch != "F" and ch < _ARRAY_SYM_FIRST


def _longest_run_at(s: str, start: int, pool: _SymbolPool) -> tuple[int, int] | None:
    """Longest run ``(Ux){k} U y`` anchored at start in the symbol string.

    Returns (unit_len, k).
    """
    n = len(s)
    best: tuple[int, int] | None = None
    best_span = 0
    max_unit = min(MAX_UNIT_BYTES, (n - start - 2) // 2)
    for ulen in range(1, max_unit + 1):
        unit = s[start : start + ulen]
        if pool.byte_len(unit) > MAX_UNIT_BYTES:
            break
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


class _SymbolPool:
    """Array symbols, and the reductions made with them.

    One pool serves a whole charset search: each array is interned once,
    and each line template and each span of reduced lines is reduced once.
    ``canon`` maps every symbol to its canonical bytes: a literal byte to
    its escape, "F" to itself, and each array symbol, once interned, to
    the bytes canonical_string writes for its array.
    """

    def __init__(self):
        self.canon: dict[str, bytes] = {chr(b): _escape_byte(b) for b in range(256)}
        self.canon["F"] = b"F"
        self.sym_by_key: dict[bytes, str] = {}
        self.line_memo: dict[bytes, str] = {}
        self.span_memo: dict[str, bytes] = {}

    def array_symbol(self, body: str, sep: str, term: str) -> str:
        """The symbol of the array ``(body sep)* body term``."""
        unit = self.canonical_of(body)
        key = b"(" + unit + self.canon[sep] + b")*" + unit + self.canon[term]
        sym = self.sym_by_key.get(key)
        if sym is None:
            sym = chr(ord(_ARRAY_SYM_FIRST) + len(self.sym_by_key))
            self.sym_by_key[key] = sym
            self.canon[sym] = key
        return sym

    def canonical_of(self, syms: str) -> bytes:
        return b"".join(map(self.canon.__getitem__, syms))

    def byte_len(self, syms: str) -> int:
        """Length of ``canonical_of(syms)``."""
        return sum(map(len, map(self.canon.__getitem__, syms)))

    def byte_lens(self) -> list[int]:
        """``byte_len`` of each symbol: of ``chr(b)`` at ``b`` for the 256
        byte symbols, then of the i-th array symbol at ``256 + i``."""
        return ([len(self.canon[chr(b)]) for b in range(256)]
                + [len(key) for key in self.sym_by_key])

    def reduce_line(self, line: bytes) -> str:
        """The reduced symbols of one line template, newline included."""
        syms = self.line_memo.get(line)
        if syms is None:
            syms = self.line_memo[line] = _reduce_seq(line.decode("latin-1"), self)
        return syms

    def reduce_span(self, line_syms: list[str]) -> bytes:
        """Canonical bytes of the reduction of a span, given the reduced
        symbols of its lines (see ``reduce_line``)."""
        joined = "".join(line_syms)
        key = self.span_memo.get(joined)
        if key is None:
            reduced = _reduce_seq(joined, self) if len(line_syms) > 1 else joined
            key = self.span_memo[joined] = self.canonical_of(reduced)
        return key


def _reduce_seq(s: str, pool: _SymbolPool) -> str:
    """Fold the runs of a symbol string until none is left."""
    while True:
        pos = 0
        found = None
        while found is None:
            m = _RUN_RX.search(s, pos)
            if m is None:
                return s
            pos = m.start()
            found = _longest_run_at(s, pos, pool)
            if found is None:
                pos += 1
        ulen, k = found
        term_pos = pos + k * (ulen + 1) + ulen
        body = _reduce_seq(s[pos : pos + ulen], pool)
        sym = pool.array_symbol(body, s[pos + ulen], s[term_pos])
        s = s[:pos] + sym + s[term_pos + 1 :]


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
    charset, so a line start has at most one match of ``rx`` (its final
    newline is optional at the end of the text read; see ``scan_records``).

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
        self._top = _Body(lay, _regex_field(self.charset), top=True)
        self.rx = self._top.rx

    def record(self, m: re.Match) -> tuple[list[list[bytes]], list[list[int]]]:
        """The values per leaf and arities per array of one match of ``rx``."""
        values: list[list[bytes]] = [[] for _ in range(self.n_fields)]
        arities: list[list[int]] = [[] for _ in range(len(self.arrays))]
        self._top.fill(m, values, arities)
        return values, arities


class _Body:
    """Regex and value splitter of one template body: the whole template, or
    the body of one array.

    ``rx`` captures one group per leaf and per array slot of the body, in
    slot order (an array's group holds its repetitions, not its terminator);
    ``plain`` is the same pattern without groups, for use inside an enclosing
    array's pattern.  The ``top`` body, the whole template, anchors ``rx`` at
    a line start, and its last newline may be missing at EOF.
    """

    __slots__ = ("plain", "rx", "groups", "index", "sep", "fast_split",
                 "single_leaf")

    def __init__(self, lay: Layout, field_re: bytes, top: bool = False,
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
                rx = _literal_regex(slot.node, top and i == last)
                captured.append(rx)
                plain.append(rx)
            else:
                sub = _Body(slot.body, field_re, array=slot)
                a = slot.node
                rx = b"(?:" + sub.plain + re.escape(bytes([a.sep])) + b")*" + sub.plain
                term = _literal_regex(bytes([a.term]), top and i == last)
                captured.append(b"(" + rx + b")" + term)
                plain.append(rx + term)
                groups.append((-1, sub))
        self.plain = b"".join(plain)
        self.rx = re.compile((b"(?m)^" if top else b"") + b"".join(captured))
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
