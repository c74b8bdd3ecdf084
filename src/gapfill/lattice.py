"""Word lattices: acyclic state-transition networks over word-like tokens.

A lattice has states 0..n-1, one start and one final state; every
start-to-final path spells a candidate token sequence.  Lattices are the
exchange structure between the glosser, the transliterator, and the
n-best extractor.  Weights are log10 scores carried on transitions
(0.0 = probability one).  `build` validates every lattice; `validate`
raises `LatticeError`, so a Lattice value is always well-formed.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .records import finite, records

__all__ = [
    "Token",
    "Lattice",
    "WordPath",
    "LatticeError",
    "word",
    "empty",
    "morph",
    "class_mark",
    "fragment",
    "build",
    "validate",
    "path_count",
    "enumerate_paths",
    "concat",
    "union",
    "spell",
    "spelling",
    "write_lattice",
    "read_lattice",
    "REGISTERED_MORPH_TAGS",
]

WORD = "word"
EMPTY = "empty"
MORPH = "morph"
CLASS = "class"
FRAG = "frag"

EMPTY_MARK = "*empty*"
CLASS_MARKS = ("NAME", "NUM")

# Morph marker tags the glosser is allowed to emit.
REGISTERED_MORPH_TAGS = {"+plural"}


class LatticeError(Exception):
    """Structural misuse of a lattice (bad ids, cyclic input, etc.)."""


@dataclass(frozen=True)
class Token:
    """One transition label.

    kind is one of word/empty/morph/class/frag.  For class marks, text
    holds the class symbol (NAME or NUM) and surface holds the concrete
    word restored in output spellings.
    """

    kind: str
    text: str = ""
    surface: str = ""

    def sort_key(self):
        return (self.text, self.kind, self.surface)

    def __str__(self):
        if self.kind == EMPTY:
            return EMPTY_MARK
        if self.kind == CLASS and self.surface:
            return "%s(%s)" % (self.text, self.surface)
        return self.text


def word(text: str) -> Token:
    if not text or any(c.isspace() for c in text):
        raise LatticeError("word token must be non-empty and whitespace-free: %r" % text)
    return Token(WORD, text)


def empty() -> Token:
    return Token(EMPTY, EMPTY_MARK)


def morph(tag: str) -> Token:
    if tag not in REGISTERED_MORPH_TAGS:
        raise LatticeError("unregistered morph tag: %r" % tag)
    return Token(MORPH, tag)


def class_mark(name: str, surface: str = "") -> Token:
    if name not in CLASS_MARKS:
        raise LatticeError("unknown class mark: %r" % name)
    return Token(CLASS, name, surface)


def fragment(letters: str) -> Token:
    # Empty fragments are legal: they encode deletions in transliteration.
    return Token(FRAG, letters)


class Lattice:
    """Directed acyclic lattice over states 0..n-1; immutable.  Make one
    with build(), which validates it."""

    def __init__(self, n, start, final, transitions):
        self.n = n
        self.states = range(n)
        self.start = int(start)
        self.final = int(final)
        # (src, dst, Token, weight), kept in insertion order.
        self.transitions = tuple(
            (int(src), int(dst), tok, float(w)) for (src, dst, tok, w) in transitions
        )
        self._order = None  # topological order, filled in by validate()
        # One tuple of out-arcs per state, ordered for deterministic walks.
        adj = [[] for _ in self.states]
        for t in self.transitions:
            adj[t[0]].append(t)
        self._adj = tuple(tuple(sorted(ts, key=lambda t: (t[2].sort_key(), t[1], t[3])))
                          for ts in adj)

    def out_edges(self, state):
        return self._adj[state]


def build(states, start, final, transitions) -> Lattice:
    """Assemble and validate a lattice.

    Raises LatticeError unless states are exactly 0..n-1 in order,
    start, final and every transition endpoint are among them, and
    validate() accepts the result.
    """
    states = list(states)
    ids = range(len(states))
    if states != list(ids):
        raise LatticeError("states must be 0..n-1 in order, got %r" % (states,))
    if start not in ids:
        raise LatticeError("start state %r not among states" % (start,))
    if final not in ids:
        raise LatticeError("final state %r not among states" % (final,))
    for (src, dst, tok, w) in transitions:
        if src not in ids or dst not in ids:
            raise LatticeError("transition %r -> %r references unknown state" % (src, dst))
        if not isinstance(tok, Token):
            raise LatticeError("transition label must be a Token, got %r" % (tok,))
    lat = Lattice(len(ids), start, final, transitions)
    validate(lat)
    return lat


def validate(lat: Lattice) -> None:
    """Check that lat is acyclic and every state lies on a start-final path.

    Returns None and records the topological order; otherwise raises
    LatticeError naming the first broken invariant, as `cycle: ...`,
    `unreachable: ...` or `dead-end: ...`.
    """
    # Kahn topological sort doubles as the cycle check.
    n, adj = lat.n, lat._adj
    indeg = [0] * n
    for t in lat.transitions:
        indeg[t[1]] += 1
    queue = deque(s for s in range(n) if indeg[s] == 0)
    order = []
    while queue:
        s = queue.popleft()
        order.append(s)
        for (_src, dst, _tok, _w) in adj[s]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                queue.append(dst)
    if len(order) != n:
        # Each state left has an arc in from another, so graphlib finds a cycle.
        preds = {s: [] for s in range(n) if indeg[s]}
        for s in preds:
            for t in adj[s]:
                preds[t[1]].append(s)
        try:
            TopologicalSorter(preds).prepare()
        except CycleError as e:
            raise LatticeError("cycle: %s" % " -> ".join(map(str, e.args[1]))) from None

    # Reachability forward over the topological order, co-reachability backward.
    reachable = [False] * n
    reachable[lat.start] = True
    for s in order:
        if reachable[s]:
            for t in adj[s]:
                reachable[t[1]] = True
    coreach = [False] * n
    coreach[lat.final] = True
    for s in reversed(order):
        if not coreach[s]:
            coreach[s] = any(coreach[t[1]] for t in adj[s])
    for s in range(n):
        if not (reachable[s] and coreach[s]):
            kind = "unreachable" if not reachable[s] else "dead-end"
            raise LatticeError("%s: state %d is on no start-final path" % (kind, s))
    lat._order = tuple(order)


def path_count(lat: Lattice) -> int:
    """Exact number of start-final transition sequences, one DP pass."""
    ways = [0] * lat.n
    ways[lat.start] = 1
    for s in lat._order:
        w = ways[s]
        if w:
            for (_src, dst, _tok, _wt) in lat.out_edges(s):
                ways[dst] += w
    return ways[lat.final]


@dataclass(frozen=True)
class WordPath:
    """A start-final transition labelling with its accumulated weight."""

    tokens: tuple
    weight: float = 0.0

    def spelled(self) -> str:
        return spell(self.tokens)


def spelling(tok: Token) -> str:
    """The text one token contributes to a spelled sentence: nothing for
    an empty token, the surface word for a class mark, else its text."""
    if tok.kind == EMPTY:
        return ""
    if tok.kind == CLASS:
        return tok.surface or tok.text
    return tok.text


def spell(tokens) -> str:
    """Render a token sequence as text.

    Empty tokens are elided, class marks restore their surface words,
    and fragments concatenate without separators (a space between words
    comes from an explicit space fragment).
    """
    pieces = []
    prev_frag = False
    for t in tokens:
        if t.kind == EMPTY:
            continue
        frag = t.kind == FRAG
        if pieces and not frag and not prev_frag:
            pieces.append(" ")
        pieces.append(spelling(t))
        prev_frag = frag
    return "".join(pieces)


def enumerate_paths(lat: Lattice, limit: int):
    """All start-final paths, in deterministic oracle order.

    Refuses (LatticeError) when path_count exceeds limit, so callers
    cannot accidentally expand a billions-of-paths lattice.  Order is
    lexicographic by spelled text, then fewer tokens first, then by the
    raw token texts.
    """
    if limit <= 0:
        raise LatticeError("limit must be positive")
    n = path_count(lat)
    if n > limit:
        raise LatticeError("lattice has %d paths, over the limit of %d" % (n, limit))
    paths = []
    stack = [(lat.start, (), 0.0)]
    while stack:
        state, toks, w = stack.pop()
        if state == lat.final:
            paths.append(WordPath(toks, w))
        for t in reversed(lat.out_edges(state)):
            stack.append((t[1], toks + (t[2],), w + t[3]))
    paths.sort(key=lambda p: (p.spelled(), len(p.tokens),
                              tuple(t.sort_key() for t in p.tokens), p.weight))
    return paths


def _topo_ids(lat: Lattice, first=0):
    """Integer ids in lat's topological order, counting from first.

    Start is first in that order and final last, so start gets first and
    final the largest id.
    """
    return {s: first + i for i, s in enumerate(lat._order)}


def _arcs(lat: Lattice, ids):
    return [(ids[s], ids[d], tok, w) for (s, d, tok, w) in lat.transitions]


def concat(a: Lattice, b: Lattice) -> Lattice:
    """Join every path of a with every path of b (a's final = b's start)."""
    ia = _topo_ids(a)
    ib = _topo_ids(b, ia[a.final])
    final = ib[b.final]
    return build(range(final + 1), 0, final, _arcs(a, ia) + _arcs(b, ib))


def union(a: Lattice, b: Lattice) -> Lattice:
    """Accept any path of a or of b (shared start and final states)."""
    if a.start == a.final or b.start == b.final:
        raise LatticeError("union over a zero-transition lattice is not representable")
    ia = _topo_ids(a)
    final = ia[a.final]
    # b's inner states follow a's final; its start and final merge into a's.
    ib = _topo_ids(b, final)
    ib[b.start], ib[b.final] = 0, final
    return build(range(a.n + b.n - 2), 0, final, _arcs(a, ia) + _arcs(b, ib))


# ---------------------------------------------------------------------------
# Text format:
#   LATTICE v1 <nstates> <start> <final>
#   <from> <to> <token> <weight>
# States are written as integers 0..nstates-1.  Token column: `*empty*`
# and `+tag` are literal; class marks are `@NAME:surface` / `@NUM:surface`;
# fragments are `^letters`; anything else is a word, double-quoted when it
# contains specials.

_SPECIALS = set('"@^*+')


def _escape_word(text: str) -> str:
    if text and text[0] not in _SPECIALS and '"' not in text \
            and not any(c.isspace() for c in text):
        return text
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def _unescape(field: str) -> str:
    if field.startswith('"') and field.endswith('"') and len(field) >= 2:
        body = field[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")
    return field


def _format_token(tok: Token) -> str:
    if tok.kind == EMPTY:
        return EMPTY_MARK
    if tok.kind == MORPH:
        return tok.text
    if tok.kind == CLASS:
        return "@%s:%s" % (tok.text, _escape_word(tok.surface) if tok.surface else "")
    if tok.kind == FRAG:
        return "^" + _escape_word(tok.text) if tok.text else "^"
    return _escape_word(tok.text)


def _parse_token(field: str) -> Token:
    if field == EMPTY_MARK:
        return empty()
    if field.startswith("+"):
        return morph(field)
    if field.startswith("@"):
        name, _, surf = field[1:].partition(":")
        return class_mark(name, _unescape(surf))
    if field.startswith("^"):
        return fragment(_unescape(field[1:]))
    return word(_unescape(field))


# A field of an arc line: non-space characters and double-quoted stretches,
# which may hold spaces and backslash escapes and run to the line's end
# when left open.
_FIELD = re.compile(r'(?:[^\s"]|"(?:\\.|[^"\\]|\\$)*"?)+', re.DOTALL)


def write_lattice(lat: Lattice, fp):
    ids = _topo_ids(lat)
    fp.write("LATTICE v1 %d %d %d\n" % (lat.n, ids[lat.start], ids[lat.final]))
    for (src, dst, tok, w) in lat.transitions:
        fp.write("%d %d %s %s\n" % (ids[src], ids[dst], _format_token(tok), repr(w)))


def read_lattice(fp) -> Lattice:
    header = fp.readline()
    parts = header.split()
    if len(parts) != 5 or parts[0] != "LATTICE" or parts[1] != "v1":
        raise LatticeError("bad lattice header: %r" % header.strip())
    try:
        nstates, start, final = int(parts[2]), int(parts[3]), int(parts[4])
    except ValueError:
        raise LatticeError("bad lattice header: %r" % header.strip())
    transitions = []
    for lineno, line in records(fp, start=2):
        fields = _FIELD.findall(line)
        if len(fields) != 4:
            raise LatticeError("line %d: expected 4 fields, got %d" % (lineno, len(fields)))
        try:
            src, dst, wt = int(fields[0]), int(fields[1]), finite(fields[3])
        except ValueError:
            raise LatticeError("line %d: bad state id or non-finite weight" % lineno)
        transitions.append((src, dst, _parse_token(fields[2]), wt))
    # Every state but the start needs an arc of its own into it, so a larger
    # count is refused before build allocates for it.
    if nstates > len(transitions) + 1:
        raise LatticeError("bad lattice header: %d states need at least %d arcs, the file "
                           "has %d" % (nstates, nstates - 1, len(transitions)))
    return build(range(nstates), start, final, transitions)
