"""Disjunctive gloss structures and their compilation to word lattices.

A gloss is a candidate English rendering of a source constituent written
as an s-expression feature structure: sequentially ordered parts under
OP1..OPk labels, alternatives under *OR*, and quoted-string leaves.  Two
marker leaves are special: "*empty*" (optional material) and "+plural"
(morphological mark realized by apply_morphology).
"""

from __future__ import annotations

import math

from . import lattice, sexpr
from .lattice import EMPTY_MARK, REGISTERED_MORPH_TAGS, Lattice, Token
from .records import records

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
        return _structure_repr(self)


class Alt(GlossStructure):
    """Disjunctive alternatives."""

    def __init__(self, children):
        if len(children) < 2:
            raise GlossError("disjunction needs at least two alternatives")
        self.children = list(children)

    def __repr__(self):
        return _structure_repr(self)


def _structure_repr(node):
    """Seq([...])/Alt([...]) with each child's repr, as %r of the child list
    would print it.  Pieces wait on a work stack, so any depth works."""
    out = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):  # literal text
            out.append(item[0])
        elif isinstance(item, (Seq, Alt)):
            out.append("Seq([" if isinstance(item, Seq) else "Alt([")
            stack.append(("])",))
            for i in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[i])
                if i:
                    stack.append((", ",))
        else:
            out.append(repr(item))
    return "".join(out)


# ---------------------------------------------------------------------------
# reading

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


def _value_to_structure(value) -> GlossStructure:
    """The gloss a datum denotes: one post-order pass with a work stack, so
    any depth works.  A (cls, n) entry builds a node from the last n built."""
    built = []
    stack = [(value, None)]
    while stack:
        value, make = stack.pop()
        if make is not None:
            cls, n = make
            parts = built[-n:]
            del built[-n:]
            built.append(cls(parts))
        elif isinstance(value, tuple):
            built.append(_string_leaf(value[1]))
        elif isinstance(value, str):
            raise GlossError("bare symbol %r where a gloss value was expected" % value)
        elif not value:
            raise GlossError("empty gloss value")
        else:
            if value[0] == "*OR*":
                cls, parts = Alt, value[1:]
                if len(parts) < 2:
                    raise GlossError("*OR* needs at least two alternatives")
            else:
                # A list of (OPk value) pairs in label order.
                cls, parts = Seq, []
                for k, item in enumerate(value, start=1):
                    if not (isinstance(item, list) and len(item) == 2 and item[0] == "OP%d" % k):
                        raise GlossError("expected an (OP%d value) pair" % k)
                    parts.append(item[1])
            stack.append((None, (cls, len(parts))))
            stack.extend((part, None) for part in reversed(parts))
    return built[0]


def parse_gloss(text: str) -> GlossStructure:
    """Read one gloss s-expression.

    Accepts both (GLOSS value) and the fully parenthesized ((GLOSS value))
    form used in printed feature structures.
    """
    data = sexpr.read_all(text, GlossError)
    if len(data) != 1:
        raise GlossError("expected one gloss expression, found %d" % len(data))
    return _datum_to_gloss(data[0])


def _datum_to_gloss(datum) -> GlossStructure:
    if isinstance(datum, list) and len(datum) == 1 and isinstance(datum[0], list):
        datum = datum[0]
    if not (isinstance(datum, list) and len(datum) == 2 and datum[0] == "GLOSS"):
        raise GlossError("expected a (GLOSS ...) expression")
    return _value_to_structure(datum[1])


def parse_gloss_file(fp):
    """All gloss records in a file; `;` comment lines are ignored."""
    return [_datum_to_gloss(datum) for datum in sexpr.read_all(fp.read(), GlossError)]


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
    return lattice.build(range(count), 0, 1, arcs)


def denoted_count(g: GlossStructure) -> int:
    """Number of token sequences the gloss denotes: a product over a
    sequence's parts, a sum over alternatives.  Iterative, so any depth
    works; a part shared by several nodes is evaluated once."""
    counts = {}
    stack = [(g, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in counts:
            continue
        if isinstance(node, Leaf):
            counts[id(node)] = 1
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
        else:
            parts = [counts[id(child)] for child in node.children]
            counts[id(node)] = math.prod(parts) if isinstance(node, Seq) else sum(parts)
    return counts[id(g)]


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
    for lineno, line in records(fp):
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
    morph_edges = [t for t in lat.transitions if t[2].kind == lattice.MORPH]
    if not morph_edges:
        return lat
    incoming = [[] for _ in lat.states]
    for t in lat.transitions:
        incoming[t[1]].append(t)

    keep = [t for t in lat.transitions if t[2].kind != lattice.MORPH]
    added = []
    for (src, dst, tok, w) in morph_edges:
        words = [t for t in incoming[src] if t[2].kind == lattice.WORD]
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
    # Number the surviving states densely, keeping their relative order.
    alive = sorted({lat.start, lat.final} | {t[0] for t in trans} | {t[1] for t in trans})
    ids = {s: i for i, s in enumerate(alive)}
    return lattice.build(range(len(alive)), ids[lat.start], ids[lat.final],
                         [(ids[s], ids[d], tok, w) for (s, d, tok, w) in trans])
