import io
import itertools
import math
import random
import time

import pytest

from gapfill import skipparse as S
from gapfill import fixtures
from gapfill.fixtures import corpus_lines, mixed_corpus, suspicion_table, toy_grammar


@pytest.fixture(scope="module")
def grammar():
    return toy_grammar()


@pytest.fixture(scope="module")
def suspicion(grammar):
    return suspicion_table()


class TestChartParse:
    def test_simple_success(self, grammar):
        assert S.chart_parse("dogs bark".split(), grammar).ok

    def test_double_noun_failure_without_compounds(self):
        minimal = S.load_grammar(io.StringIO(
            "S -> NP VP\nNP -> N\nVP -> V\nlex dogs N\nlex bark V\n"))
        assert S.chart_parse("dogs bark".split(), minimal).ok
        assert not S.chart_parse("dogs dogs bark".split(), minimal).ok

    def test_unknown_word_fails(self, grammar):
        assert not S.chart_parse("dogs ! bark".split(), grammar).ok

    def test_longer_sentences(self, grammar):
        assert S.chart_parse("the big dog chases a cat".split(), grammar).ok
        assert S.chart_parse("the dog sleeps in the market".split(), grammar).ok
        assert not S.chart_parse("the the dog barks".split(), grammar).ok

    def test_agrees_with_naive_recognizer(self, grammar, rng):
        vocab = ["the", "dog", "dogs", "bark", "barks", "sees", "a", "cat", "in", "big"]
        for _ in range(300):
            n = rng.randint(1, 8)
            toks = [rng.choice(vocab) for _ in range(n)]
            assert S.chart_parse(toks, grammar).ok == _naive_parses(toks, grammar)

    def test_tree_covers_kept_tokens(self, grammar):
        res = S.chart_parse("the big dog chases a cat".split(), grammar)
        leaves = []

        def walk(node):
            if len(node) == 2 and isinstance(node[1], str):
                leaves.append(node[1])
            else:
                for child in node[1:]:
                    walk(child)

        walk(res.tree)
        assert leaves == "the big dog chases a cat".split()

    def test_deep_right_recursion_builds_its_tree(self):
        deep = S.load_grammar(io.StringIO(DEEP_CFG))
        res = S.chart_parse(["dog"] * 500, deep)
        assert res.ok
        depth, node = 0, res.tree
        while node[0] == "S":
            depth += 1
            node = node[-1]
        assert depth == 500 and node == ("N", "dog")


# A right-recursive grammar whose trees are as deep as the sentence is long.
DEEP_CFG = "S -> N S\nS -> N\nlex dog N\n"


def _naive_parses(tokens, grammar):
    """Exponential recursive recognizer, used as an oracle."""

    def derives(sym, i, j):
        if j - i == 1 and sym in grammar.tags(tokens[i]):
            return True
        for lhs, rhs in grammar.rules:
            if lhs != sym:
                continue
            if _split(rhs, i, j):
                return True
        return False

    def _split(rhs, i, j):
        if not rhs:
            return i == j
        if len(rhs) == 1:
            return derives(rhs[0], i, j)
        head, rest = rhs[0], rhs[1:]
        for k in range(i + 1, j - len(rest) + 1):
            if derives(head, i, k) and _split(rest, k, j):
                return True
        return False

    return derives(grammar.start, 0, len(tokens))


def _reference_chart(tokens, grammar):
    """The chart parser before bitmask indexing: each closure pass tries
    every rule in every cell by recursive search over split points.  Kept
    as the reference the indexed chart must reproduce exactly."""
    words, walls, unmatched = S._marker_walls(tokens, grammar)
    if unmatched:
        return S.ChartResult(False, words=tuple(words))
    n = len(words)
    if n == 0:
        return S.ChartResult(False, words=())
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
            if not S._span_allowed(i, j, walls):
                continue
            changed = True
            while changed:
                changed = False
                for lhs, rhs in grammar.rules:
                    if lhs in cell:
                        continue
                    bp = _reference_match_rhs(chart, rhs, i, j, walls)
                    if bp is not None:
                        cell[lhs] = ("rule", rhs, bp)
                        changed = True
    ok = grammar.start in chart.get((0, n), {})
    tree = _reference_tree(chart, grammar.start, 0, n) if ok else None
    return S.ChartResult(ok, tree, chart, tuple(words))


def _reference_tree(chart, sym, i, j):
    entry = chart[(i, j)][sym]
    if entry[0] == "lex":
        return (sym, entry[1])
    return (sym,) + tuple(_reference_tree(chart, s, a, b) for (a, b, s) in entry[2])


def _reference_match_rhs(chart, rhs, i, j, walls):
    def rec(pos, k):
        if k == len(rhs):
            return () if pos == j else None
        sym = rhs[k]
        remaining = len(rhs) - k - 1
        for end in range(pos + 1, j - remaining + 1):
            if sym in chart.get((pos, end), {}) and S._span_allowed(pos, end, walls):
                rest = rec(end, k + 1)
                if rest is not None:
                    return ((pos, end, sym),) + rest
        return None

    return rec(i, 0)


def _ordered(res):
    """ok, tree, words, and the chart with its cells in insertion order."""
    return (res.ok, res.tree, res.words,
            [(span, list(cell.items())) for span, cell in res.chart.items()])


class TestChartReference:
    # Walls bound whole rules, not the inner links of a longer rule: the
    # link for VP PP of S -> NP VP PP, and for ADJ N of NP -> DET ADJ N,
    # straddles the wall here.
    WALL_CROSSING_LINKS = ["BEGIN-NP a law sleep END-NP in new market",
                           "BEGIN-NP the big END-NP dog barks"]

    def _check(self, grammar, vocab, count, seed):
        rng = random.Random(seed)
        cases = [s.split() for s in self.WALL_CROSSING_LINKS]
        cases += [[rng.choice(vocab) for _ in range(rng.randint(0, 14))] for _ in range(count)]
        parsed = 0
        for toks in cases:
            res, ref = S.chart_parse(toks, grammar), _reference_chart(toks, grammar)
            assert _ordered(res) == _ordered(ref), toks
            parsed += res.ok
        assert parsed > 0
        assert all(S.chart_parse(s.split(), grammar).ok for s in self.WALL_CROSSING_LINKS)

    def test_matches_reference_on_toy_grammar(self, grammar):
        vocab = sorted(grammar.lexicon) + ["!", "um", "BEGIN-NP", "END-NP"]
        self._check(grammar, vocab, 5000, 303)

    def test_matches_reference_on_long_and_recursive_rules(self, grammar):
        extra = ("S -> NP V NP PP\nNP -> NP PP\nNP -> DET ADJ ADJ N\n"
                 "VP -> V NP NP PP\nmarker BEGIN-VP END-VP pair\n")
        rich = S.load_grammar(io.StringIO(fixtures.path("toy.cfg").read_text() + extra))
        vocab = sorted(rich.lexicon) + ["!", "BEGIN-NP", "END-NP", "BEGIN-VP", "END-VP"]
        self._check(rich, vocab, 1000, 304)


class TestMarkers:
    def test_no_constituent_crosses_a_boundary(self, grammar):
        toks = "the dog BEGIN-NP the cat END-NP sleeps".split()
        res = S.chart_parse(toks, grammar)
        # words: the dog the cat sleeps; the pair encloses words [2, 4)
        for (i, j), cell in res.chart.items():
            if cell and not (j <= 2 or i >= 4 or (i >= 2 and j <= 4) or (i <= 2 and j >= 4)):
                raise AssertionError("constituent (%d, %d) crosses the boundary" % (i, j))

    def test_bracketed_np_still_parses(self, grammar):
        assert S.chart_parse("BEGIN-NP the dog END-NP barks".split(), grammar).ok

    def test_unmatched_marker_fails(self, grammar):
        assert not S.chart_parse("BEGIN-NP the dog barks".split(), grammar).ok


class TestSuspicion:
    def test_unparsed_only_bigram_is_positive(self, grammar):
        table = S.suspicion_train(["the dog barks"], ["the dog ! barks"], grammar)
        xx = S.OOV_TAG
        assert table.score(("N", xx)) > 0
        assert table.score((xx, "V")) > 0

    def test_equal_relative_frequency_is_near_zero(self, grammar):
        table = S.suspicion_train(["the dog barks"], ["the dog barks"], grammar)
        assert table.score(("DET", "N")) == pytest.approx(0.0, abs=1e-12)

    def test_hand_counted_log_ratios(self, grammar):
        parsed = ["the dog barks", "a cat sleeps"]
        unparsed = ["the dog ! barks", "a ! cat sleeps"]
        table = S.suspicion_train(parsed, unparsed, grammar)
        # Tag streams (with <b> boundaries):
        #   parsed: <b> DET N V <b>, twice -> 4 distinct bigrams, 8 tokens
        #   unparsed: <b> DET N XX V <b> and <b> DET XX N V <b>
        #     -> 8 distinct bigrams, 10 tokens
        # Joint vocabulary: 8 distinct bigrams.
        np, nu = 8 + 8, 10 + 8
        # (DET, N): parsed count 2, unparsed count 1.
        expect = math.log10(((1 + 1) / nu) / ((2 + 1) / np))
        assert table.score(("DET", "N")) == pytest.approx(expect, abs=1e-12)
        # (N, XX): parsed 0, unparsed 1.
        expect = math.log10(((1 + 1) / nu) / ((0 + 1) / np))
        assert table.score(("N", S.OOV_TAG)) == pytest.approx(expect, abs=1e-12)

    def test_empty_corpus_is_error(self, grammar):
        with pytest.raises(S.GrammarError):
            S.suspicion_train([], ["x"], grammar)

    @pytest.mark.parametrize("line", ["DET\tN\tnan", "*default*\tinf", "DET\tN"])
    def test_bad_or_non_finite_score_is_error(self, line):
        with pytest.raises(S.GrammarError):
            S.read_suspicion(io.StringIO("*default*\t-0.5\n%s\n" % line))

    def test_table_file_round_trip(self, suspicion):
        buf = io.StringIO()
        S.write_suspicion(suspicion, buf)
        buf.seek(0)
        again = S.read_suspicion(buf)
        assert again.default == suspicion.default
        assert again.scores == suspicion.scores


class TestSkipParse:
    def test_grammatical_sentence_skips_nothing(self, grammar, suspicion):
        res = S.skip_parse("the dog barks".split(), grammar, suspicion)
        assert res.ok and res.skipped == ()

    def test_stray_punctuation_is_skipped(self, grammar, suspicion):
        toks = "the dog ! barks".split()
        res = S.skip_parse(toks, grammar, suspicion)
        assert res.ok and [toks[i] for i in res.skipped] == ["!"]
        assert S.chart_parse([toks[i] for i in res.kept], grammar).ok

    def test_never_drops_one_noun_from_a_noun_run(self, grammar, suspicion):
        # A three-noun run has no covering rule; the only one-skip fixes
        # drop a single noun from the run, which the constraint forbids,
        # even though an unconstrained search finds such a parse.
        toks = "dog cat bird barks".split()
        res = S.skip_parse(toks, grammar, suspicion, S.SkipBudget(max_skips=1))
        assert not res.ok
        found = [sub for sub in itertools.combinations(range(len(toks)), 1)
                 if S.chart_parse([t for i, t in enumerate(toks) if i not in sub],
                                  grammar).ok]
        assert found  # the oracle without constraints does find one

    def test_dropping_two_nouns_is_allowed(self, grammar, suspicion):
        toks = "dog cat bird barks".split()
        res = S.skip_parse(toks, grammar, suspicion, S.SkipBudget(max_skips=3))
        assert res.ok
        assert len(res.skipped) == 2

    def test_marker_pairs_skip_together(self, grammar, suspicion):
        # The bracketed run parses as a constituent, so the pair may be
        # dropped when the grammar cannot use marker walls.
        toks = "BEGIN-NP the dog END-NP BEGIN-NP the dog END-NP barks".split()
        res = S.skip_parse(toks, grammar, suspicion, S.SkipBudget(max_skips=4))
        if res.ok:
            skipped_tokens = [toks[i] for i in res.skipped]
            assert skipped_tokens.count("BEGIN-NP") == skipped_tokens.count("END-NP")

    def test_budget_exhaustion_reports(self, grammar, suspicion):
        toks = "! ! ! ! !".split()
        res = S.skip_parse(toks, grammar, suspicion, S.SkipBudget(max_skips=2))
        assert not res.ok

    def test_budget_counts_rejected_candidates(self, grammar, suspicion):
        # One skip can only drop a noun out of the run, which the
        # guardrail rejects, or the verb: every candidate fails.
        toks = "dog cat bird barks".split()
        res = S.skip_parse(toks, grammar, suspicion,
                           S.SkipBudget(max_skips=1, max_candidates=3))
        assert not res.ok and res.budget_exhausted
        assert res.explored <= 3
        res = S.skip_parse(toks, grammar, suspicion, S.SkipBudget(max_skips=1))
        assert not res.ok and not res.budget_exhausted
        assert res.explored == 1 + len(toks)

    def test_hopeless_long_sentence_stops_at_once(self, grammar, suspicion):
        toks = "the dog barks um".split() * 8
        t0 = time.perf_counter()
        res = S.skip_parse(toks, grammar, suspicion)
        assert time.perf_counter() - t0 < 1.0
        assert not res.ok and not res.budget_exhausted

    def test_candidate_order_same_on_every_python(self, grammar, suspicion):
        # Candidates rank by their summed suspicion.  sum() compensates
        # rounding from Python 3.12 on, which reorders near-tied subsets
        # here; the left-to-right sum gives one order on every version.
        toks = "! eat police eat reform police dog worm on".split()
        res = S.skip_parse(toks, grammar, suspicion, S.SkipBudget(max_skips=9))
        assert res.ok
        assert res.kept == (2, 3, 4, 6)
        assert res.explored == 2

    def test_oracle_minimality(self, grammar, suspicion, rng):
        vocab = ["the", "a", "dog", "cat", "barks", "sleeps", "!", "um",
                 "big", "in", "market", "sees"]
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 8)
            toks = [rng.choice(vocab) for _ in range(n)]
            budget = S.SkipBudget(max_skips=n, max_candidates=10 ** 6)
            res = S.skip_parse(toks, grammar, suspicion, budget)
            best = _oracle_min_skips(toks, grammar)
            if best is None:
                assert not res.ok
            else:
                assert res.ok and len(res.skipped) == best
            checked += 1
        assert checked == 200


class TestSkipBound:
    def test_never_exceeds_the_oracle(self, grammar, rng):
        vocab = ["the", "a", "dog", "cat", "bird", "barks", "sleeps", "sees",
                 "!", "um", "big", "new", "in", "market", "law"]
        compared = 0
        for _ in range(200):
            toks = [rng.choice(vocab) for _ in range(rng.randint(2, 8))]
            if rng.random() < 0.3:
                i = rng.randint(0, len(toks) - 1)
                j = rng.randint(i + 1, len(toks))
                toks[i:j] = ["BEGIN-NP"] + toks[i:j] + ["END-NP"]
            bound = S._min_skips_bound(toks, grammar)
            best = _oracle_min_skips(toks, grammar)
            if best is not None:
                assert bound <= best, toks
                compared += 1
            assert min(S._min_skips_bound(toks, grammar, 1), 2) == min(bound, 2), toks
        assert compared >= 50

    def test_word_salad_has_no_bound(self, grammar):
        assert S._min_skips_bound("sees dog cat the bird law".split(), grammar) == math.inf

    def test_counts_dropped_words_only(self, grammar):
        assert S._min_skips_bound("the dog barks".split(), grammar) == 0
        assert S._min_skips_bound("the um dog ! barks".split(), grammar) == 2
        assert S._min_skips_bound("BEGIN-NP the dog END-NP um barks".split(), grammar) == 1
        assert S._min_skips_bound("BEGIN-NP the dog barks".split(), grammar) == math.inf


def _oracle_min_skips(tokens, grammar):
    """Exhaustive constraint-respecting search for the smallest skip set."""
    n = len(tokens)
    for k in range(0, n + 1):
        for subset in itertools.combinations(range(n), k):
            if k and not S.respects_constraints(tokens, subset, grammar):
                continue
            kept = [tokens[i] for i in range(n) if i not in subset]
            if S.chart_parse(kept, grammar).ok:
                return k
    return None


class TestMixedCorpus:
    def test_skipping_strictly_increases_parse_rate(self, grammar, suspicion):
        sentences = mixed_corpus()
        plain = sum(S.chart_parse(s.split(), grammar).ok for s in sentences)
        skipped = sum(S.skip_parse(s.split(), grammar, suspicion).ok for s in sentences)
        assert skipped > plain

    def test_parsed_fixture_all_parse(self, grammar):
        for s in corpus_lines("skip_parsed.txt"):
            assert S.chart_parse(s.split(), grammar).ok, s

    def test_unparsed_fixture_none_parse(self, grammar):
        for s in corpus_lines("skip_unparsed.txt"):
            assert not S.chart_parse(s.split(), grammar).ok, s
