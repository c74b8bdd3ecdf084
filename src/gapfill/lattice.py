"""Word lattices: acyclic state-transition networks over word-like tokens.

A lattice has one start and one final state; every start-to-final path
spells a candidate token sequence.  Lattices are the exchange structure
between the glosser, the transliterator, and the n-best extractor.
Weights are log10 scores carried on transitions (0.0 = probability one).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

__all__ = [
    "Token",
    "Lattice",
    "WordPath",
    "Violation",
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


@dataclass(frozen=True)
class Violation:
    """First invariant broken by a lattice, with the ids involved."""

    kind: str  # "duplicate-state" | "unknown-state" | "cycle" | "unreachable" | "dead-end" | "start-final"
    detail: str

    def __str__(self):
        return "%s: %s" % (self.kind, self.detail)


class Lattice:
    """Directed acyclic lattice.  Immutable once validated."""

    def __init__(self, states, start, final, transitions):
        self.states = frozenset(states)
        self.start = start
        self.final = final
        # (src, dst, Token, weight), kept in insertion order.
        self.transitions = tuple(
            (src, dst, tok, float(w)) for (src, dst, tok, w) in transitions
        )
        self._validated = False
        self._order = None  # topological order, filled in by validate()
        self._index()

    @property
    def validated(self) -> bool:
        return self._validated

    def out_edges(self, state):
        return self._adj.get(state, ())

    def _index(self):
        adj = defaultdict(list)
        for t in self.transitions:
            adj[t[0]].append(t)
        # Deterministic traversal order for enumeration and random walks.
        for src in adj:
            adj[src].sort(key=lambda t: (t[2].sort_key(), str(t[1]), t[3]))
        self._adj = {s: tuple(ts) for s, ts in adj.items()}

    def ensure_validated(self):
        if not self._validated:
            raise LatticeError("lattice has not been validated")


def build(states, start, final, transitions) -> Lattice:
    """Assemble an unvalidated lattice; explicit validate() comes after.

    Raises LatticeError for duplicate state ids or transitions that
    reference unknown states.
    """
    seen = set()
    for s in states:
        if s in seen:
            raise LatticeError("duplicate state id: %r" % (s,))
        seen.add(s)
    if start not in seen:
        raise LatticeError("start state %r not among states" % (start,))
    if final not in seen:
        raise LatticeError("final state %r not among states" % (final,))
    for (src, dst, tok, w) in transitions:
        if src not in seen or dst not in seen:
            raise LatticeError("transition %r -> %r references unknown state" % (src, dst))
        if not isinstance(tok, Token):
            raise LatticeError("transition label must be a Token, got %r" % (tok,))
    return Lattice(seen, start, final, transitions)


def validate(lat: Lattice):
    """Check all lattice invariants.

    Returns None when the lattice is well-formed (and marks it immutable
    and ready for path operations); otherwise returns the first
    Violation found.  Violations are values, not exceptions.
    """
    # Kahn topological sort doubles as the cycle check.
    indeg = {s: 0 for s in lat.states}
    for (src, dst, _tok, _w) in lat.transitions:
        indeg[dst] += 1
    queue = deque(sorted((s for s, d in indeg.items() if d == 0), key=str))
    order = []
    while queue:
        s = queue.popleft()
        order.append(s)
        for (_src, dst, _tok, _w) in lat.out_edges(s):
            indeg[dst] -= 1
            if indeg[dst] == 0:
                queue.append(dst)
    if len(order) != len(lat.states):
        stuck = sorted((s for s, d in indeg.items() if d > 0), key=str)
        return Violation("cycle", "states on a cycle: %s" % ", ".join(map(str, stuck)))

    reachable = {lat.start}
    for s in order:
        if s in reachable:
            for (_src, dst, _tok, _w) in lat.out_edges(s):
                reachable.add(dst)
    coreach = {lat.final}
    back = defaultdict(list)
    for (src, dst, _tok, _w) in lat.transitions:
        back[dst].append(src)
    stack = [lat.final]
    while stack:
        s = stack.pop()
        for p in back.get(s, ()):
            if p not in coreach:
                coreach.add(p)
                stack.append(p)
    alive = reachable & coreach
    dead = lat.states - alive
    if dead:
        s = sorted(dead, key=str)[0]
        kind = "unreachable" if s not in reachable else "dead-end"
        return Violation(kind, "state %s is on no start-final path" % (s,))

    lat._order = tuple(order)
    lat._validated = True
    return None


def _validated_copy(states, start, final, transitions) -> Lattice:
    lat = build(states, start, final, transitions)
    v = validate(lat)
    if v is not None:
        raise LatticeError("construction produced an invalid lattice (%s)" % v)
    return lat


def path_count(lat: Lattice) -> int:
    """Exact number of start-final transition sequences, one DP pass."""
    lat.ensure_validated()
    ways = {s: 0 for s in lat.states}
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
        if t.kind == FRAG:
            piece, frag = t.text, True
        elif t.kind == CLASS:
            piece, frag = (t.surface or t.text), False
        else:
            piece, frag = t.text, False
        if pieces and not frag and not prev_frag:
            pieces.append(" ")
        pieces.append(piece)
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
    a.ensure_validated()
    b.ensure_validated()
    ia = _topo_ids(a)
    ib = _topo_ids(b, ia[a.final])
    final = ib[b.final]
    return _validated_copy(range(final + 1), 0, final, _arcs(a, ia) + _arcs(b, ib))


def union(a: Lattice, b: Lattice) -> Lattice:
    """Accept any path of a or of b (shared start and final states)."""
    a.ensure_validated()
    b.ensure_validated()
    if a.start == a.final or b.start == b.final:
        raise LatticeError("union over a zero-transition lattice is not representable")
    ia = _topo_ids(a)
    final = ia[a.final]
    # b's inner states follow a's final; its start and final merge into a's.
    ib = _topo_ids(b, final)
    ib[b.start], ib[b.final] = 0, final
    return _validated_copy(range(len(ia) + len(ib) - 2), 0, final, _arcs(a, ia) + _arcs(b, ib))


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


def _split_fields(line: str):
    """Whitespace split that respects double quotes."""
    fields, buf, quoted = [], [], False
    i = 0
    while i < len(line):
        c = line[i]
        if c == "\\" and quoted and i + 1 < len(line):
            buf.append(c)
            buf.append(line[i + 1])
            i += 2
            continue
        if c == '"':
            quoted = not quoted
            buf.append(c)
        elif c.isspace() and not quoted:
            if buf:
                fields.append("".join(buf))
                buf = []
        else:
            buf.append(c)
        i += 1
    if buf:
        fields.append("".join(buf))
    return fields


def write_lattice(lat: Lattice, fp):
    lat.ensure_validated()
    ids = {s: i for i, s in enumerate(lat._order)}
    fp.write("LATTICE v1 %d %d %d\n" % (len(ids), ids[lat.start], ids[lat.final]))
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
    for lineno, line in enumerate(fp, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = _split_fields(line)
        if len(fields) != 4:
            raise LatticeError("line %d: expected 4 fields, got %d" % (lineno, len(fields)))
        try:
            src, dst, wt = int(fields[0]), int(fields[1]), float(fields[3])
        except ValueError:
            raise LatticeError("line %d: bad state id or weight" % lineno)
        transitions.append((src, dst, _parse_token(fields[2]), wt))
    lat = build(range(nstates), start, final, transitions)
    v = validate(lat)
    if v is not None:
        raise LatticeError("lattice file invalid (%s)" % v)
    return lat
