"""Disjunctive gloss structures and their compilation to word lattices.

A gloss is a candidate English rendering of a source constituent written
as an s-expression feature structure: sequentially ordered parts under
OP1..OPk labels, alternatives under *OR*, and quoted-string leaves.  Two
marker leaves are special: "*empty*" (optional material) and "+plural"
(morphological mark realized by apply_morphology).
"""

from __future__ import annotations

from . import lattice
from .lattice import EMPTY_MARK, REGISTERED_MORPH_TAGS, Lattice, Token

__all__ = [
    "GlossError",
    "GlossStructure",
    "Leaf",
    "Seq",
    "Alt",
    "parse_gloss",
    "parse_gloss_file",
    "compile_gloss",
    "denoted_count",
    "apply_morphology",
    "pluralize",
    "load_plural_table",
    "DEFAULT_IRREGULAR_PLURALS",
]


class GlossError(Exception):
    """Malformed gloss text or structure."""


class GlossStructure:
    pass


class Leaf(GlossStructure):
    def __init__(self, token: Token):
        self.token = token

    def __repr__(self):
        return "Leaf(%s)" % (self.token,)


class Seq(GlossStructure):
    """Ordered parts; printed with consecutive OP1..OPk labels."""

    def __init__(self, children):
        if not children:
            raise GlossError("sequence needs at least one part")
        self.children = list(children)

    def __repr__(self):
        return "Seq(%r)" % (self.children,)


class Alt(GlossStructure):
    """Disjunctive alternatives."""

    def __init__(self, children):
        if len(children) < 2:
            raise GlossError("disjunction needs at least two alternatives")
        self.children = list(children)

    def __repr__(self):
        return "Alt(%r)" % (self.children,)


# ---------------------------------------------------------------------------
# s-expression reading

class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_space(self):
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == ";":
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl < 0 else nl + 1
            elif c.isspace():
                self.pos += 1
            else:
                break

    def at_end(self) -> bool:
        self._skip_space()
        return self.pos >= len(self.text)

    def read(self):
        """One datum: a list, a quoted string ('"', text), or a symbol."""
        self._skip_space()
        if self.pos >= len(self.text):
            raise GlossError("unexpected end of input")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            items = []
            while True:
                self._skip_space()
                if self.pos >= len(self.text):
                    raise GlossError("unbalanced parentheses")
                if self.text[self.pos] == ")":
                    self.pos += 1
                    return items
                items.append(self.read())
        if c == ")":
            raise GlossError("unexpected ')' at offset %d" % self.pos)
        if c == '"':
            end = self.text.find('"', self.pos + 1)
            if end < 0:
                raise GlossError("unterminated string at offset %d" % self.pos)
            s = self.text[self.pos + 1:end]
            self.pos = end + 1
            return ('"', s)
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace() \
                and self.text[self.pos] not in '()";':
            self.pos += 1
        return self.text[start:self.pos]


def _string_leaf(text: str) -> GlossStructure:
    if text == EMPTY_MARK:
        return Leaf(lattice.empty())
    if text.startswith("+"):
        if text not in REGISTERED_MORPH_TAGS:
            raise GlossError("unknown marker token %r" % text)
        return Leaf(lattice.morph(text))
    if not text.strip():
        raise GlossError("empty word leaf")
    parts = text.split()
    if len(parts) == 1:
        return Leaf(lattice.word(parts[0]))
    # Multi-word leaves become consecutive word tokens: the language
    # model and the extractor operate on words, not phrases.
    return Seq([Leaf(lattice.word(p)) for p in parts])


_OPLABEL = "OP"


def _value_to_structure(value) -> GlossStructure:
    if isinstance(value, tuple) and value[0] == '"':
        return _string_leaf(value[1])
    if isinstance(value, str):
        raise GlossError("bare symbol %r where a gloss value was expected" % value)
    if not isinstance(value, list) or not value:
        raise GlossError("empty gloss value")
    head = value[0]
    if head == "*OR*":
        alts = [_value_to_structure(v) for v in value[1:]]
        if len(alts) < 2:
            raise GlossError("*OR* needs at least two alternatives")
        return Alt(alts)
    # Otherwise a list of (OPk value) pairs in label order.
    children = []
    for k, item in enumerate(value, start=1):
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], str):
            raise GlossError("expected (OP%d value) pair, got %r" % (k, item))
        label = item[0]
        if label != "%s%d" % (_OPLABEL, k):
            raise GlossError("expected label OP%d, got %r" % (k, label))
        children.append(_value_to_structure(item[1]))
    return Seq(children)


def parse_gloss(text: str) -> GlossStructure:
    """Read one gloss s-expression.

    Accepts both (GLOSS value) and the fully parenthesized ((GLOSS value))
    form used in printed feature structures.
    """
    reader = _Reader(text)
    datum = reader.read()
    if not reader.at_end():
        raise GlossError("trailing text after gloss expression")
    return _datum_to_gloss(datum)


def _datum_to_gloss(datum) -> GlossStructure:
    if isinstance(datum, list) and len(datum) == 1 and isinstance(datum[0], list):
        datum = datum[0]
    if not (isinstance(datum, list) and len(datum) == 2 and datum[0] == "GLOSS"):
        raise GlossError("expected a (GLOSS ...) expression")
    return _value_to_structure(datum[1])


def parse_gloss_file(fp):
    """All gloss records in a file; `;` comment lines are ignored."""
    reader = _Reader(fp.read())
    records = []
    while not reader.at_end():
        records.append(_datum_to_gloss(reader.read()))
    return records


# ---------------------------------------------------------------------------
# compilation

def compile_gloss(g: GlossStructure) -> Lattice:
    """Lattice whose paths are exactly the token sequences the gloss denotes.

    One pass with a work stack of (node, src, dst): a leaf is one arc, a
    sequence chains its parts through fresh states, and alternatives all
    run from src to dst.  States are integers (start 0, final 1, the rest
    counted from 2) and arcs come out in left-to-right leaf order.
    """
    arcs = []
    count = 2
    stack = [(g, 0, 1)]
    while stack:
        node, src, dst = stack.pop()
        if isinstance(node, Leaf):
            arcs.append((src, dst, node.token, 0.0))
        elif isinstance(node, Seq):
            m = len(node.children)
            points = [src, *range(count, count + m - 1), dst]
            count += m - 1
            for i in range(m - 1, -1, -1):
                stack.append((node.children[i], points[i], points[i + 1]))
        elif isinstance(node, Alt):
            stack.extend((child, src, dst) for child in reversed(node.children))
        else:
            raise GlossError("unknown gloss node %r" % (node,))
    lat = lattice.build(range(count), 0, 1, arcs)
    v = lattice.validate(lat)
    if v is not None:
        raise GlossError("compiled lattice failed validation (%s)" % v)
    return lat


def denoted_count(g: GlossStructure) -> int:
    """Number of token sequences the gloss denotes (recursive count)."""
    if isinstance(g, Leaf):
        return 1
    if isinstance(g, Seq):
        n = 1
        for child in g.children:
            n *= denoted_count(child)
        return n
    total = 0
    for child in g.children:
        total += denoted_count(child)
    return total


# ---------------------------------------------------------------------------
# morphology

DEFAULT_IRREGULAR_PLURALS = {
    "man": "men",
    "woman": "women",
    "child": "children",
    "person": "people",
    "foot": "feet",
    "tooth": "teeth",
    "goose": "geese",
    "mouse": "mice",
    "knife": "knives",
    "wife": "wives",
    "life": "lives",
    "leaf": "leaves",
    "datum": "data",
    "medium": "media",
    "criterion": "criteria",
    "phenomenon": "phenomena",
    "analysis": "analyses",
    "basis": "bases",
    "crisis": "crises",
}

_VOWELS = "aeiou"


def pluralize(word: str, irregular=None) -> str:
    """Orthographic pluralization: irregular table, then suffix rules."""
    table = DEFAULT_IRREGULAR_PLURALS if irregular is None else irregular
    if word in table:
        return table[word]
    lower = word.lower()
    if lower in table:
        plural = table[lower]
        return plural[:1].upper() + plural[1:] if word[:1].isupper() else plural
    if len(word) >= 2 and word.endswith("y") and word[-2].lower() not in _VOWELS:
        return word[:-1] + "ies"
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    return word + "s"


def load_plural_table(fp):
    """TSV of singular<TAB>plural pairs, merged over the built-in table."""
    table = dict(DEFAULT_IRREGULAR_PLURALS)
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GlossError("plural table line %d: expected 2 tab-separated fields" % lineno)
        table[parts[0]] = parts[1]
    return table


def apply_morphology(lat: Lattice, table=None) -> Lattice:
    """Realize morph markers: rewrite each word entering a +plural
    transition into its plural form and drop the marker.

    Empty tokens stay in place (they are epsilon at spelling time).  The
    output contains no morph tokens.  A morph transition with no word
    transition entering its source state is an error.
    """
    lat.ensure_validated()
    morph_edges = [t for t in lat.transitions if t[2].kind == lattice.MORPH]
    if not morph_edges:
        return lat
    incoming = {}
    for t in lat.transitions:
        incoming.setdefault(t[1], []).append(t)

    keep = [t for t in lat.transitions if t[2].kind != lattice.MORPH]
    added = []
    for (src, dst, tok, w) in morph_edges:
        words = [t for t in incoming.get(src, []) if t[2].kind == lattice.WORD]
        if not words:
            raise GlossError("morph %s at state %s has no preceding word" % (tok.text, src))
        for (wsrc, _wdst, wtok, ww) in words:
            plural = lattice.word(pluralize(wtok.text, table))
            added.append((wsrc, dst, plural, ww + w))

    # Dropping morph edges can strand states; prune anything that is no
    # longer on a start-final path.
    trans = keep + added
    while True:
        has_out = {t[0] for t in trans}
        has_in = {t[1] for t in trans}
        pruned = [
            t for t in trans
            if (t[1] == lat.final or t[1] in has_out) and (t[0] == lat.start or t[0] in has_in)
        ]
        if len(pruned) == len(trans):
            break
        trans = pruned
    states = {lat.start, lat.final} | {t[0] for t in trans} | {t[1] for t in trans}
    out = lattice.build(states, lat.start, lat.final, trans)
    v = lattice.validate(out)
    if v is not None:
        raise GlossError("morphology produced an invalid lattice (%s)" % v)
    return out
