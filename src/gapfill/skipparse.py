"""Bottom-up chart parsing with a word-skipping fallback.

The chart parser covers a plain CFG with a word lexicon; phrase-boundary
marker tokens act as walls no constituent may straddle.  When a sentence
fails to parse, skip_parse searches subsets of tokens to drop, fewest
skips first and most-suspicious first within a size, under two grammar
heuristics: never drop exactly one noun out of a noun sequence, and drop
boundary markers only in matched pairs whose inner material parses as a
single constituent.  Suspicion scores come from part-of-speech bigram
statistics contrasting parsed against unparsed sentences.

One routine, _fill, closes chart cells over the binarized rules, with
integer bitmasks of where constituents start and end, so a binary rule's
first split is one AND and a lowest set bit.  chart_parse runs it once.
Before enumerating candidates, skip_parse runs it once per drop count to
find k*, the fewest words any candidate must drop, from a min-cost chart
that ignores walls and guardrails (after GLR*, Lavie & Tomita 1993).  The
search starts at k* skips and returns no parse at once when k* exceeds
the skip budget; within a skip count the order, and so every result, is
that of the plain fewest-skips-first search.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from .ngram import _sum
from .records import finite, records

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

    def __init__(self, start, rules, lexicon, markers, noun_tags):
        self.start = start
        self.rules = tuple(rules)  # (lhs, (sym, ...))
        self.lexicon = {w: tuple(tags) for w, tags in lexicon.items()}
        self.markers = dict(markers)  # begin token -> end token
        self.noun_tags = frozenset(noun_tags)
        self.nonterminals = {lhs for lhs, _ in self.rules}
        declared = set(self.nonterminals)
        for tags in self.lexicon.values():
            declared.update(tags)
        for lhs, rhs in self.rules:
            for sym in rhs:
                if sym not in declared:
                    raise GrammarError("rule symbol %r is neither a nonterminal "
                                       "nor a lexicon tag" % sym)

    @functools.cached_property
    def _binarized(self):
        """The rules as one list of (lhs, left, right) steps.  A rule of
        m > 2 symbols becomes a chain: its m - 2 inner links derive fresh
        tuple symbols (lhs, rule number, position) and come first in the
        list; then comes one step per rule in file order, with right None
        for a unary rule.  Callers must not change it."""
        links, steps = [], []
        for r, (lhs, rhs) in enumerate(self.rules):
            right = rhs[-1] if len(rhs) > 1 else None
            for k in range(len(rhs) - 2, 0, -1):
                links.append(((lhs, r, k), rhs[k], right))
                right = (lhs, r, k)
            steps.append((lhs, rhs[0], right))
        return links + steps

    def is_marker(self, token):
        return token in self.markers or token in self.markers.values()

    def tags(self, token):
        return self.lexicon.get(token, ())

    def first_tag(self, token):
        tags = self.tags(token)
        return tags[0] if tags else OOV_TAG


def load_grammar(fp) -> Grammar:
    """Grammar text: `LHS -> SYM SYM` rules, `lex word TAG[,TAG]` entries,
    `marker BEGIN END pair` declarations, and an optional
    `nouns TAG[,TAG]` line naming the noun tags (default N).
    The first rule's left-hand side is the start symbol.  A `#` starts a
    comment that runs to the end of the line."""
    rules = []
    lexicon = {}
    markers = {}
    noun_tags = None
    for lineno, line in records(fp):
        line = line.split("#", 1)[0].rstrip()
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

    Marker tokens are not words: they only contribute walls that rules
    must respect.  A word outside the lexicon has no tags.

    Cells fill by increasing span (see _fill); each cell keeps, for each
    symbol, the first rule in grammar order that derives it and that
    rule's first split, leftmost split points first.
    """
    words, walls, unmatched = _marker_walls(tokens, grammar)
    if unmatched:
        return ChartResult(False, words=tuple(words))
    n = len(words)
    if n == 0:
        return ChartResult(False, words=())
    chart = {(i, i + span): {} for span in range(1, n + 1) for i in range(n - span + 1)}
    for i, w in enumerate(words):
        chart[(i, i + 1)] = {tag: ("lex", w) for tag in grammar.tags(w)}
    splits = {}
    _fill([_lex_layer(words, grammar)], n, grammar, walls, splits)
    for (i, j, sym), (left, right, mid) in splits.items():
        if type(sym) is tuple:
            continue  # an inner link, read through its rule's first step
        bp = [(i, mid, left)]
        while type(right) is tuple:
            left, right, end = splits[mid, j, right]
            bp.append((mid, end, left))
            mid = end
        if right is not None:
            bp.append((mid, j, right))
        chart[(i, j)][sym] = ("rule", tuple(s for _a, _b, s in bp), tuple(bp))
    ok = grammar.start in chart[(0, n)]
    tree = _build_tree(chart, grammar.start, 0, n) if ok else None
    return ChartResult(ok, tree, chart, tuple(words))


def _lex_layer(words, grammar):
    """Masks (ends, begins) of the words' tags, before any rule applies."""
    ends = [{} for _ in range(len(words) + 1)]
    begins = [{} for _ in range(len(words) + 1)]
    for i, w in enumerate(words):
        for tag in grammar.tags(w):
            ends[i][tag] = 1 << (i + 1)
            begins[i + 1][tag] = 1 << i
    return ends, begins


def _fill(layers, n, grammar, walls=(), added=None):
    """Close every cell of the top layer c over grammar._binarized, by
    increasing span.  layers[d] is (ends, begins) for d drops: bit k of
    ends[i][sym] says sym derives what is left of words (i, k) after at
    most d drops, and bit i of begins[k][sym] says the same.  Each layer
    holds every span of the layers below it.  A binary step adds (i, j)
    when some split mid has its left symbol over (i, mid) with d drops and
    its right one over (mid, j) with c - d; at c = 0 the masks of (i, mid)
    and (mid, j) alone decide it.

    A cell that straddles a wall takes only the inner links of longer
    rules: walls bound whole rules.  Each symbol keeps the first step in
    list order that derives it, at its leftmost split; `added`, when
    given, maps (i, j, symbol) to (left, right, mid) in that order, with
    mid = j for a unary step.
    """
    steps = grammar._binarized
    links = steps[:len(steps) - len(grammar.rules)]
    c = len(layers) - 1
    ends, begins = layers[c]
    for span in range(1, n + 1):
        for i in range(n - span + 1):
            j = i + span
            at_i, at_j, bit = ends[i], begins[j], 1 << j
            walled = walls and not _span_allowed(i, j, walls)
            todo = links if walled else steps
            while todo:
                changed = False
                for lhs, left, right in todo:
                    # Left corner first: most steps stop here.
                    if left not in at_i or at_i.get(lhs, 0) & bit:
                        continue
                    if right is None:
                        if not at_i[left] & bit:
                            continue
                        mid = j
                    else:
                        both = at_i[left] & at_j.get(right, 0)
                        if not both:
                            continue
                        if c:  # here both is a pre-test: find drops d and c - d that fit
                            for d in range(c + 1):
                                if (layers[d][0][i].get(left, 0)
                                        & layers[c - d][1][j].get(right, 0)):
                                    break
                            else:
                                continue
                        mid = (both & -both).bit_length() - 1
                    at_i[lhs] = at_i.get(lhs, 0) | bit
                    at_j[lhs] = at_j.get(lhs, 0) | 1 << i
                    if added is not None:
                        added[i, j, lhs] = (left, right, mid)
                    changed = True
                # Later passes can only add unary rules: binary ones split
                # into smaller cells, which are complete, and fail again.
                todo = steps if changed and not walled else ()


def _build_tree(chart, sym, i, j):
    """The tree of sym over (i, j), built bottom-up from a work stack."""
    done = []  # finished subtrees, children in order
    todo = [(sym, i, j, False)]
    while todo:
        sym, i, j, ready = todo.pop()
        entry = chart[(i, j)][sym]
        if entry[0] == "lex":
            done.append((sym, entry[1]))
        elif ready:
            k = len(entry[2])
            done[-k:] = [(sym,) + tuple(done[-k:])]
        else:
            todo.append((sym, i, j, True))
            todo.extend((s, a, b, False) for a, b, s in reversed(entry[2]))
    return done[0]


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
    for lineno, line in records(fp):
        parts = line.split("\t")
        try:
            value = finite(parts[-1])
            if parts[0] == "*default*" and len(parts) == 2:
                default = value
            elif len(parts) == 3:
                scores[(parts[0], parts[1])] = value
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


def _min_skips_bound(tokens, grammar, limit=None):
    """Fewest words to drop so that the kept words derive the start symbol,
    with walls and both guardrails ignored (math.inf if no subsequence
    parses).  This relaxes skip_parse's search, so it is a lower bound on
    the skip count of any subset that search accepts.  Counts above
    `limit` are not told apart: any of them comes back as limit + 1.

    Markers are not words and cost nothing, except that an unmatched one
    gives math.inf: no candidate may drop it, and dropping matched pairs
    never matches it, so no candidate parses.

    A min-cost chart built one drop count c at a time by _fill, without
    walls: layer c starts as layer c - 1 with one more edge word dropped.
    """
    if _marker_pairs(tokens, grammar)[1]:
        return math.inf
    words = [t for t in tokens if not grammar.is_marker(t)]
    n = len(words)
    top = n if limit is None else min(limit, n)
    layers = [_lex_layer(words, grammar)]
    for c in range(top + 1):
        if c:
            layers.append(_drop_edge_word(*layers[-1], n))
        _fill(layers, n, grammar)
        if layers[c][0][0].get(grammar.start, 0) >> n & 1:
            return c
    return math.inf if top == n else top + 1


def _drop_edge_word(ends, begins, n):
    """The next layer's masks before any rule applies: every span of the
    last layer, also with its first or its last word dropped."""
    full = (2 << n) - 1
    e = [{sym: m | (m << 1) & full for sym, m in row.items()} for row in ends]
    b = [{sym: m | m >> 1 for sym, m in row.items()} for row in begins]
    for i in range(n):
        for sym, m in ends[i + 1].items():
            e[i][sym] = e[i].get(sym, 0) | m
        for sym, m in begins[i].items():
            b[i + 1][sym] = b[i + 1].get(sym, 0) | m
    return e, b


def skip_parse(tokens, grammar: Grammar, table: SuspicionTable,
               budget: SkipBudget = None) -> SkipResult:
    """Largest grammatical subset search, fewest skips first.

    Within a skip count, candidates are tried highest total suspicion of
    the skipped tokens first (ties by position, deterministically).
    Returns the first subset whose kept tokens fully parse.

    Before enumerating, a min-cost chart gives k*, a lower bound on the
    skip count of any accepted subset (see _min_skips_bound).  The search
    starts at k* skips, and stops at once when k* exceeds max_skips.
    Every candidate examined counts against max_candidates, including
    those the guardrails reject; `explored` reports that count, with the
    full sentence as the first candidate.
    """
    tokens = list(tokens)
    budget = budget or SkipBudget()
    full = chart_parse(tokens, grammar)
    if full.ok:
        return SkipResult(True, tuple(range(len(tokens))), (), full.tree, explored=1)
    explored = 1
    n = len(tokens)
    most = min(budget.max_skips, n)
    fewest = _min_skips_bound(tokens, grammar, most)
    if fewest > most:
        return SkipResult(False, explored=explored)
    susp = _token_suspicion(tokens, grammar, table)
    for k in range(max(1, fewest), most + 1):
        candidates = []
        for subset in itertools.combinations(range(n), k):
            candidates.append((-_sum(susp[i] for i in subset), subset))
        candidates.sort()
        for _neg, subset in candidates:
            if explored >= budget.max_candidates:
                return SkipResult(False, explored=explored, budget_exhausted=True)
            explored += 1
            if not respects_constraints(tokens, subset, grammar):
                continue
            kept = [tokens[i] for i in range(n) if i not in subset]
            res = chart_parse(kept, grammar)
            if res.ok:
                kept_ix = tuple(i for i in range(n) if i not in subset)
                return SkipResult(True, kept_ix, tuple(subset), res.tree, explored=explored)
    return SkipResult(False, explored=explored)
