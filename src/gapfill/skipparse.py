"""Bottom-up chart parsing with a word-skipping fallback.

The chart parser covers a plain CFG with a word lexicon; phrase-boundary
marker tokens act as walls no constituent may straddle.  When a sentence
fails to parse, skip_parse searches subsets of tokens to drop, fewest
skips first and most-suspicious first within a size, under two grammar
heuristics: never drop exactly one noun out of a noun sequence, and drop
boundary markers only in matched pairs whose inner material parses as a
single constituent.  Suspicion scores come from part-of-speech bigram
statistics contrasting parsed against unparsed sentences.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "GrammarError",
    "Grammar",
    "load_grammar",
    "chart_parse",
    "ChartResult",
    "SuspicionTable",
    "suspicion_train",
    "read_suspicion",
    "write_suspicion",
    "skip_parse",
    "SkipResult",
    "SkipBudget",
]

OOV_TAG = "XX"


class GrammarError(Exception):
    pass


class Grammar:
    """Plain CFG: rules over nonterminals and POS tags, a word lexicon,
    paired boundary-marker tokens, and the set of noun tags used by the
    skipping heuristics."""

    def __init__(self, start, rules, lexicon, markers, noun_tags, oov_tags=()):
        self.start = start
        self.rules = tuple(rules)  # (lhs, (sym, ...))
        self.lexicon = {w: tuple(tags) for w, tags in lexicon.items()}
        self.markers = dict(markers)  # begin token -> end token
        self.noun_tags = frozenset(noun_tags)
        self.oov_tags = tuple(oov_tags)
        self.nonterminals = {lhs for lhs, _ in self.rules}
        declared = set(self.nonterminals)
        for tags in self.lexicon.values():
            declared.update(tags)
        for lhs, rhs in self.rules:
            for sym in rhs:
                if sym not in declared:
                    raise GrammarError("rule symbol %r is neither a nonterminal "
                                       "nor a lexicon tag" % sym)

    def is_marker(self, token):
        return token in self.markers or token in self.markers.values()

    def tags(self, token):
        return self.lexicon.get(token, self.oov_tags)

    def first_tag(self, token):
        tags = self.tags(token)
        return tags[0] if tags else OOV_TAG


def load_grammar(fp) -> Grammar:
    """Grammar text: `LHS -> SYM SYM` rules, `lex word TAG[,TAG]` entries,
    `marker BEGIN END pair` declarations, and an optional
    `nouns TAG[,TAG]` line naming the noun tags (default N).
    The first rule's left-hand side is the start symbol."""
    rules = []
    lexicon = {}
    markers = {}
    noun_tags = None
    for lineno, raw in enumerate(fp, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "lex":
            if len(parts) != 3:
                raise GrammarError("line %d: lex takes a word and tags" % lineno)
            lexicon.setdefault(parts[1], [])
            for tag in parts[2].split(","):
                if tag and tag not in lexicon[parts[1]]:
                    lexicon[parts[1]].append(tag)
        elif parts[0] == "marker":
            if len(parts) != 4 or parts[3] != "pair":
                raise GrammarError("line %d: marker takes BEGIN END pair" % lineno)
            markers[parts[1]] = parts[2]
        elif parts[0] == "nouns":
            if len(parts) != 2:
                raise GrammarError("line %d: nouns takes a tag list" % lineno)
            noun_tags = [t for t in parts[1].split(",") if t]
        elif len(parts) >= 3 and parts[1] == "->":
            rules.append((parts[0], tuple(parts[2:])))
        else:
            raise GrammarError("line %d: cannot read %r" % (lineno, line))
    if not rules:
        raise GrammarError("grammar has no rules")
    return Grammar(rules[0][0], rules, lexicon, markers,
                   noun_tags if noun_tags is not None else ["N"])


# ---------------------------------------------------------------------------
# chart parsing

@dataclass
class ChartResult:
    ok: bool
    tree: object = None  # (SYM, child, ...) nested tuples; leaves (TAG, word)
    chart: dict = field(default_factory=dict)  # (i, j) -> {sym: backpointer}
    words: tuple = ()


def _marker_pairs(tokens, grammar):
    """Matched marker pairs as {open position: close position}, in the
    order they close, and whether any marker is left unmatched."""
    stack = []
    pairs = {}
    unmatched = False
    for i, t in enumerate(tokens):
        if t in grammar.markers:
            stack.append((t, i))
        elif t in grammar.markers.values():
            for k in range(len(stack) - 1, -1, -1):
                if grammar.markers[stack[k][0]] == t:
                    pairs[stack[k][1]] = i
                    del stack[k]
                    break
            else:
                unmatched = True
    return pairs, unmatched or bool(stack)


def _marker_walls(tokens, grammar):
    """Word positions of each matched marker pair's enclosed span.

    Returns (word tokens, list of (a, b) word spans, unmatched marker flag).
    """
    pairs, unmatched = _marker_pairs(tokens, grammar)
    words = []
    at = []  # token position -> number of words before it
    for tok in tokens:
        at.append(len(words))
        if not grammar.is_marker(tok):
            words.append(tok)
    return words, [(at[i], at[j]) for i, j in pairs.items()], unmatched


def _span_allowed(i, j, walls):
    for (a, b) in walls:
        if a == b:
            continue
        inside = i >= a and j <= b
        outside = j <= a or i >= b
        contains = i <= a and j >= b
        if not (inside or outside or contains):
            return False
    return True


def chart_parse(tokens, grammar: Grammar) -> ChartResult:
    """Bottom-up chart over the word tokens; success iff the start symbol
    spans them all.  Failure is a value, not an exception.

    Marker tokens are not words: they only contribute walls that spans
    must respect.  Unknown words take the grammar's OOV tag set.
    """
    words, walls, unmatched = _marker_walls(tokens, grammar)
    if unmatched:
        return ChartResult(False, words=tuple(words))
    n = len(words)
    if n == 0:
        return ChartResult(False, words=())
    chart = {}
    for i, w in enumerate(words):
        cell = {}
        for tag in grammar.tags(w):
            cell[tag] = ("lex", w)
        chart[(i, i + 1)] = cell
    for span in range(1, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            cell = chart.setdefault((i, j), {})
            if not _span_allowed(i, j, walls):
                continue
            changed = True
            while changed:  # unary closure within the cell
                changed = False
                for lhs, rhs in grammar.rules:
                    if lhs in cell:
                        continue
                    bp = _match_rhs(chart, rhs, i, j, walls)
                    if bp is not None:
                        cell[lhs] = ("rule", rhs, bp)
                        changed = True
    ok = grammar.start in chart.get((0, n), {})
    tree = _build_tree(chart, grammar.start, 0, n, words) if ok else None
    return ChartResult(ok, tree, chart, tuple(words))


def _match_rhs(chart, rhs, i, j, walls):
    """First split of [i, j) into consecutive constituents matching rhs."""

    def rec(pos, k):
        if k == len(rhs):
            return () if pos == j else None
        sym = rhs[k]
        remaining = len(rhs) - k - 1
        for end in range(pos + 1, j - remaining + 1):
            if sym in chart.get((pos, end), {}) and _span_allowed(pos, end, walls):
                rest = rec(end, k + 1)
                if rest is not None:
                    return ((pos, end, sym),) + rest
        return None

    return rec(i, 0)


def _build_tree(chart, sym, i, j, words):
    entry = chart[(i, j)][sym]
    if entry[0] == "lex":
        return (sym, entry[1])
    _kind, _rhs, bp = entry
    return (sym,) + tuple(_build_tree(chart, s, a, b, words) for (a, b, s) in bp)


# ---------------------------------------------------------------------------
# suspicion statistics

@dataclass
class SuspicionTable:
    scores: dict  # (tag, tag) -> log10 frequency ratio, unparsed over parsed
    default: float

    def score(self, bigram):
        return self.scores.get(bigram, self.default)


BOUNDARY_TAG = "<b>"


def _tag_bigrams(sentences, grammar):
    grams = Counter()
    for sent in sentences:
        toks = sent.split() if isinstance(sent, str) else list(sent)
        tags = [BOUNDARY_TAG] + [grammar.first_tag(t) for t in toks] + [BOUNDARY_TAG]
        for i in range(len(tags) - 1):
            grams[(tags[i], tags[i + 1])] += 1
    return grams


def suspicion_train(parsed_corpus, unparsed_corpus, grammar: Grammar) -> SuspicionTable:
    """log10 relative-frequency ratio of POS bigrams, unparsed over
    parsed, with add-1 smoothing over the joint bigram vocabulary.
    Positive means the bigram leans toward unparsable sentences."""
    parsed = _tag_bigrams(parsed_corpus, grammar)
    unparsed = _tag_bigrams(unparsed_corpus, grammar)
    if not parsed or not unparsed:
        raise GrammarError("both corpora must be non-empty")
    vocab = set(parsed) | set(unparsed)
    np = sum(parsed.values()) + len(vocab)
    nu = sum(unparsed.values()) + len(vocab)
    scores = {}
    for bg in vocab:
        rel_u = (unparsed.get(bg, 0) + 1) / nu
        rel_p = (parsed.get(bg, 0) + 1) / np
        scores[bg] = math.log10(rel_u / rel_p)
    return SuspicionTable(scores, math.log10(np / nu))


def write_suspicion(table: SuspicionTable, fp):
    """TSV rows `tag1<TAB>tag2<TAB>score`, with a `*default*` row."""
    fp.write("*default*\t%s\n" % repr(table.default))
    for (a, b) in sorted(table.scores):
        fp.write("%s\t%s\t%s\n" % (a, b, repr(table.scores[(a, b)])))


def read_suspicion(fp) -> SuspicionTable:
    scores = {}
    default = 0.0
    for lineno, raw in enumerate(fp, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        try:
            if parts[0] == "*default*" and len(parts) == 2:
                default = float(parts[1])
            elif len(parts) == 3:
                scores[(parts[0], parts[1])] = float(parts[2])
            else:
                raise ValueError
        except ValueError:
            raise GrammarError("suspicion line %d: cannot read %r" % (lineno, line))
    return SuspicionTable(scores, default)


# ---------------------------------------------------------------------------
# word skipping

@dataclass
class SkipBudget:
    max_skips: int = 3
    max_candidates: int = 20000


@dataclass
class SkipResult:
    ok: bool
    kept: tuple = ()
    skipped: tuple = ()
    tree: object = None
    explored: int = 0
    budget_exhausted: bool = False


def _token_suspicion(tokens, grammar, table):
    tags = [BOUNDARY_TAG] + [grammar.first_tag(t) for t in tokens] + [BOUNDARY_TAG]
    out = []
    for i in range(len(tokens)):
        out.append(table.score((tags[i], tags[i + 1])) + table.score((tags[i + 1], tags[i + 2])))
    return out


def _noun_runs(tokens, grammar):
    runs = []
    start = None
    for i, t in enumerate(tokens):
        is_noun = not grammar.is_marker(t) and grammar.first_tag(t) in grammar.noun_tags
        if is_noun and start is None:
            start = i
        elif not is_noun and start is not None:
            if i - start >= 2:
                runs.append(range(start, i))
            start = None
    if start is not None and len(tokens) - start >= 2:
        runs.append(range(start, len(tokens)))
    return runs


def respects_constraints(tokens, subset, grammar: Grammar) -> bool:
    """Grammar heuristics on a candidate skip set.

    Never exactly one noun out of a maximal noun run; markers go in
    matched pairs only, and only when the kept material strictly inside
    the pair parses as a single constituent.
    """
    subset = set(subset)
    for run in _noun_runs(tokens, grammar):
        if len(subset.intersection(run)) == 1:
            return False
    pairs, _unmatched = _marker_pairs(tokens, grammar)
    ends = {j: i for i, j in pairs.items()}
    for i in subset:
        t = tokens[i]
        if t in grammar.markers:
            if pairs.get(i) not in subset:
                return False
        elif t in grammar.markers.values():
            if ends.get(i) not in subset:
                return False
    for i, j in pairs.items():
        if i in subset:
            inner = [tokens[k] for k in range(i + 1, j) if k not in subset]
            res = chart_parse(inner, grammar) if inner else None
            if res is not None and res.words:
                top = res.chart.get((0, len(res.words)), {})
                if not top:
                    return False
    return True


def skip_parse(tokens, grammar: Grammar, table: SuspicionTable,
               budget: SkipBudget = None) -> SkipResult:
    """Largest grammatical subset search, fewest skips first.

    Within a skip count, candidates are tried highest total suspicion of
    the skipped tokens first (ties by position, deterministically).
    Returns the first subset whose kept tokens fully parse.
    """
    tokens = list(tokens)
    budget = budget or SkipBudget()
    full = chart_parse(tokens, grammar)
    if full.ok:
        return SkipResult(True, tuple(range(len(tokens))), (), full.tree, explored=1)
    susp = _token_suspicion(tokens, grammar, table)
    explored = 1
    n = len(tokens)
    for k in range(1, min(budget.max_skips, n) + 1):
        candidates = []
        for subset in itertools.combinations(range(n), k):
            candidates.append((-sum(susp[i] for i in subset), subset))
        candidates.sort()
        for _neg, subset in candidates:
            if explored >= budget.max_candidates:
                return SkipResult(False, explored=explored, budget_exhausted=True)
            if not respects_constraints(tokens, subset, grammar):
                continue
            kept = [tokens[i] for i in range(n) if i not in subset]
            explored += 1
            res = chart_parse(kept, grammar)
            if res.ok:
                kept_ix = tuple(i for i in range(n) if i not in subset)
                return SkipResult(True, kept_ix, tuple(subset), res.tree, explored=explored)
    return SkipResult(False, explored=explored)
