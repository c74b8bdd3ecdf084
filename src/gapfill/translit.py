"""Katakana-to-English back-transliteration over romanized input.

A learned correspondence table proposes letter fragments per kana unit
(position-sensitive: word-initial, medial, final, with backoff to ANY);
fragments compile into a candidate lattice that the shared n-best
extractor rescores under a letter 4-gram model of English spelling.
Combined score: lam * letter-model + (1 - lam) * correspondence weights.
"""

from __future__ import annotations

import math
from collections import Counter
from . import extract, lattice, ngram
from .records import finite, records

__all__ = [
    "TranslitError",
    "TransliterationTable",
    "train_table",
    "read_table",
    "write_table",
    "read_pairs",
    "segment",
    "candidate_lattice",
    "back_transliterate",
    "train_letter_model",
    "capitalize_words",
    "INITIAL",
    "MEDIAL",
    "FINAL",
    "ANY",
]

INITIAL = "INITIAL"
MEDIAL = "MEDIAL"
FINAL = "FINAL"
ANY = "ANY"
POSITIONS = (INITIAL, MEDIAL, FINAL, ANY)
# Order of the letter model that scores candidate spellings.
LETTER_ORDER = 4


class TranslitError(Exception):
    pass


class TransliterationTable:
    """P(english fragment | kana unit, word position), as log10."""

    def __init__(self, entries):
        # entries: iterable of (unit, fragment, position, logprob)
        self.rows = {}
        for unit, frag, pos, lp in entries:
            if not unit:
                raise TranslitError("empty kana unit in table")
            if pos not in POSITIONS:
                raise TranslitError("bad position %r for unit %r" % (pos, unit))
            self.rows.setdefault((unit, pos), {})[frag] = float(lp)
        self.units = sorted({u for (u, _p) in self.rows})

    def row(self, unit, position):
        """Fragment -> logprob for the unit at a position, backing off to ANY."""
        r = self.rows.get((unit, position))
        if r is None:
            r = self.rows.get((unit, ANY))
        if r is None:
            raise TranslitError("unit %r has no entries for position %s" % (unit, position))
        return r

    def entries(self):
        for (unit, pos) in sorted(self.rows):
            for frag in sorted(self.rows[(unit, pos)]):
                yield unit, frag, pos, self.rows[(unit, pos)][frag]


def _positions_for(index, last):
    if index == 0:
        return INITIAL
    if index == last:
        return FINAL
    return MEDIAL


def read_pairs(fp):
    """Aligned training pairs: `romaji<TAB>english<TAB>alignment`, where the
    alignment is space-separated `unit:fragment` items (fragment may be
    empty for deletions)."""
    pairs = []
    for lineno, line in records(fp):
        parts = line.split("\t")
        if len(parts) != 3:
            raise TranslitError("pairs line %d: expected 3 tab-separated fields" % lineno)
        romaji, english, alignment = parts
        units = []
        for item in alignment.split():
            unit, sep, frag = item.partition(":")
            if not sep or not unit:
                raise TranslitError("pairs line %d: bad alignment item %r" % (lineno, item))
            units.append((unit, frag))
        if "".join(u for u, _f in units) != romaji.replace(" ", ""):
            raise TranslitError("pairs line %d: alignment does not cover %r" % (lineno, romaji))
        pairs.append((romaji, english, units))
    return pairs


def train_table(pairs, eps: float = 0.01) -> TransliterationTable:
    """Relative-frequency estimates per (unit, position) with add-eps
    smoothing over the fragments observed for that row.

    Every observation also feeds the unit's ANY row, which serves as the
    backoff for unseen positions.
    """
    if not pairs:
        raise TranslitError("empty training set")
    counts = Counter()
    for _romaji, _english, units in pairs:
        last = len(units) - 1
        for i, (unit, frag) in enumerate(units):
            pos = _positions_for(i, last)
            counts[(unit, pos, frag)] += 1
            counts[(unit, ANY, frag)] += 1
    rows = {}
    for (unit, pos, frag), c in counts.items():
        rows.setdefault((unit, pos), {})[frag] = c
    entries = []
    for (unit, pos), frags in rows.items():
        total = sum(frags.values())
        denom = total + eps * len(frags)
        for frag, c in frags.items():
            entries.append((unit, frag, pos, math.log10((c + eps) / denom)))
    return TransliterationTable(entries)


def write_table(table: TransliterationTable, fp):
    for unit, frag, pos, lp in table.entries():
        fp.write("%s\t%s\t%s\t%s\n" % (unit, frag, pos, repr(lp)))


def read_table(fp) -> TransliterationTable:
    entries = []
    for lineno, line in records(fp):
        parts = line.split("\t")
        if len(parts) != 4:
            raise TranslitError("table line %d: expected 4 tab-separated fields" % lineno)
        try:
            lp = finite(parts[3])
        except ValueError:
            raise TranslitError("table line %d: bad or non-finite log probability" % lineno)
        entries.append((parts[0], parts[1], parts[2], lp))
    return TransliterationTable(entries)


def segment(romaji: str, table: TransliterationTable):
    """Greedy longest-match split into kana units; words split on spaces.

    Returns a list of words, each a list of units.  Unmatchable input is
    an error naming the offset.
    """
    units_by_len = {}
    for u in table.units:
        units_by_len.setdefault(len(u), set()).add(u)
    lengths = sorted(units_by_len, reverse=True)
    words = []
    offset = 0
    for word in romaji.split(" "):
        if not word:
            offset += 1
            continue
        out = []
        i = 0
        while i < len(word):
            for n in lengths:
                if word[i:i + n] in units_by_len.get(n, ()):
                    out.append(word[i:i + n])
                    i += n
                    break
            else:
                raise TranslitError("cannot segment %r at offset %d (%r)"
                                    % (romaji, offset + i, word[i:]))
        words.append(out)
        offset += len(word) + 1
    if not words:
        raise TranslitError("empty input")
    return words


def candidate_lattice(words, table: TransliterationTable) -> lattice.Lattice:
    """Chain lattice with one fragment-disjunction block per unit; word
    gaps become space fragments with weight 0."""
    transitions = []
    state = 0
    for w, units in enumerate(words):
        if w:
            transitions.append((state, state + 1, lattice.fragment(" "), 0.0))
            state += 1
        last = len(units) - 1
        for i, unit in enumerate(units):
            row = table.row(unit, _positions_for(i, last))
            for frag in sorted(row):
                transitions.append((state, state + 1, lattice.fragment(frag), row[frag]))
            state += 1
    return lattice.build(range(state + 1), 0, state, transitions)


def train_letter_model(words) -> ngram.NGramModel:
    """Letter model of order LETTER_ORDER over English-looking spellings.

    words: iterable of lowercase words or phrases; characters become
    tokens and spaces become the boundary mark.
    """
    corpus = [ngram.letters(w.strip()) for w in words if w.strip()]
    table = ngram.train(corpus, LETTER_ORDER, mode="letters")
    return ngram.good_turing(table)


def back_transliterate(romaji: str, table: TransliterationTable,
                       letter_model: ngram.NGramModel, n: int = 5,
                       lam: float = 0.5):
    """Ranked English renderings of romanized katakana.

    Scores combine the letter model and the table weights by linear
    interpolation in log space: lam * model + (1 - lam) * weights.
    Output is lowercase; capitalization is presentation only.
    """
    if not 0.0 <= lam <= 1.0:
        raise TranslitError("lam must be in [0, 1]")
    words = segment(romaji, table)
    lat = candidate_lattice(words, table)
    result = extract.nbest(lat, letter_model, n, lm_weight=lam, trans_weight=1.0 - lam)
    return list(result.ranked)


def capitalize_words(text: str) -> str:
    return " ".join(w[:1].upper() + w[1:] if w else w for w in text.split(" "))
