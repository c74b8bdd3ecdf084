import io
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill import cli, fixtures
from gapfill import ngram as N

from conftest import (ODD_SENTENCES, UNK_CORPUS, random_corpus, random_model,
                      s3_model_with_unigram_renamed)


def model_for(corpus, order=2):
    return N.good_turing(N.train(corpus, order))


def reference_counts(corpus, order, mode):
    """train's counts by the plain nested loop over every position and
    order, as (counts, vocab, known, sentence_count)."""
    sents = N._as_sentences(corpus)
    known = frozenset()
    if mode == "words":
        low = Counter(t.lower() for s in sents for t in s)
        known = frozenset(w for w, c in low.items() if c >= N.KNOWN_MIN_COUNT)
    counts = {k: Counter() for k in range(1, order + 1)}
    vocab = {N.BOS, N.EOS, N.UNK}
    for sent in sents:
        toks = [N.classify_token(t, known) for t in sent] if mode == "words" else sent
        vocab.update(toks)
        stream = [N.BOS] * (order - 1) + toks + [N.EOS]
        for k in range(1, order + 1):
            for i in range(len(stream) - k + 1):
                gram = tuple(stream[i:i + k])
                if k == 1 and gram[0] == N.BOS:
                    continue
                counts[k][gram] += 1
    return counts, tuple(sorted(vocab)), known, len(sents)


class TestClassify:
    def test_numerals(self):
        assert N.classify_token("1994") == "NUM"
        assert N.classify_token("3,000") == "NUM"
        assert N.classify_token("40%") == "NUM"
        assert N.classify_token("2.5") == "NUM"

    def test_unknown_capitalized_is_name(self):
        assert N.classify_token("Perkin") == "NAME"
        assert N.classify_token("Perkin", known=frozenset(["perkin"])) == "perkin"

    def test_plain_word_lowercases(self):
        assert N.classify_token("company") == "company"
        assert N.classify_token("The", known=frozenset(["the"])) == "the"

    def test_punctuation_is_not_numeric(self):
        assert N.classify_token(".") == "."
        assert N.classify_token("%") == "%"


class TestTrain:
    def test_bigram_counts_with_padding(self):
        table = N.train(["a b"], 2)
        assert table.counts[2] == Counter({("<s>", "a"): 1, ("a", "b"): 1, ("b", "</s>"): 1})

    def test_duplicate_corpus_doubles_counts(self):
        t1 = N.train(["a b"], 2)
        t2 = N.train(["a b", "a b"], 2)
        assert all(t2.counts[2][g] == 2 * t1.counts[2][g] for g in t1.counts[2])

    def test_unigram_counts(self):
        table = N.train(["a b a"], 2)
        assert table.counts[1][("a",)] == 2
        assert table.counts[1][("b",)] == 1
        assert ("<s>",) not in table.counts[1]

    def test_empty_corpus_is_error(self):
        with pytest.raises(N.ModelError):
            N.train([], 2)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_counts_and_their_order_match_the_reference(self, rng, order):
        # good_turing sums in the order counts first appear, so the order
        # is compared too, not only the counts.
        words = [w for w in fixtures.letter_words() if w.strip()]
        for _ in range(5):
            corpora = [
                ("words", random_corpus(rng, 40) + ODD_SENTENCES),
                ("words", rng.sample(ODD_SENTENCES, 5) + random_corpus(rng, 10)),
                ("letters", [N.letters(w) for w in rng.sample(words, 30)] + [[]]),
            ]
            for mode, corpus in corpora:
                table = N.train(corpus, order, mode=mode)
                counts, vocab, known, n_sents = reference_counts(corpus, order, mode)
                for k in range(1, order + 1):
                    assert list(table.counts[k].items()) == list(counts[k].items())
                assert sorted(table.counts) == list(range(1, order + 1))
                assert (table.vocab, table.known, table.sentence_count) == (vocab, known, n_sents)

    def test_marginal_consistency(self, rng):
        # count(h) = sum of counts of its extensions, plus the times h
        # ended the padded stream.
        for _ in range(20):
            table = N.train(random_corpus(rng), 2)
            uni, bi = table.counts[1], table.counts[2]
            for (w,), c in uni.items():
                if w == "</s>":
                    continue
                ext = sum(cnt for g, cnt in bi.items() if g[0] == w)
                assert c == ext


class TestFreqOfFreq:
    def test_raw_adjusted_hand_value(self):
        # N_1=4, N_2=2 -> r*(1) = 2 * 2/4 = 1.0
        counts = Counter({"abcd"[i]: 1 for i in range(4)})
        counts.update({"e": 2, "f": 2})
        fof = N.FreqOfFreq(counts)
        assert fof.n_r == {1: 4, 2: 2}
        assert fof.raw_adjusted(1) == pytest.approx(1.0, abs=0)

    def test_raw_telescoping_identity_exact(self):
        # sum_r N_r * r* telescopes to N - N_1 (exact rational arithmetic).
        tables = [
            {1: 8, 2: 4, 3: 2, 4: 1},
            {1: 10, 2: 5, 3: 3, 4: 2, 5: 1},
            {1: 3, 2: 7, 3: 2},
        ]
        for n_r in tables:
            counter = Counter()
            k = 0
            for r, cnt in n_r.items():
                for _ in range(cnt):
                    counter["g%d" % k] = r
                    k += 1
            fof = N.FreqOfFreq(counter)
            total = Fraction(0)
            max_r = max(n_r)
            for r in sorted(n_r):
                r_star = Fraction(r + 1) * n_r.get(r + 1, 0) / Fraction(n_r[r])
                total += n_r[r] * r_star
                if r < max_r:
                    assert abs(fof.raw_adjusted(r) - float(r_star)) <= 1e-12
            n_tokens = sum(r * c for r, c in n_r.items())
            assert total == n_tokens - n_r.get(1, 0)

    def test_regression_needs_two_ranks(self):
        fof = N.FreqOfFreq(Counter({"a": 2, "b": 2}))
        with pytest.raises(N.ModelError):
            fof.fit()


class TestGoodTuring:
    def test_unseen_mass_is_n1_over_n(self):
        corpus = [
            "the company saw the plan",
            "a plan saw a company",
            "the agency made a law",
            "the law made the agency",
            "a market saw the reform",
            "the reform made a market",
            "the company made the law",
            "a agency saw a plan",
            "the market saw the company",
            "a reform made the plan",
        ]
        table = N.train(corpus, 2)
        model = N.good_turing(table)
        for k in (1, 2):
            fof = N.FreqOfFreq(table.counts[k])
            if fof.n_1 and len(fof.ranks) >= 2:
                assert model.unseen_mass[k] == pytest.approx(fof.n_1 / fof.total, abs=1e-12)

    def test_discounting_reserves_mass(self):
        model = model_for(["a b", "a b"])
        assert 10 ** N.logprob(model, "b", ["a"]) < 1.0
        assert "2:no-singletons" in model.warnings

    def test_all_singletons_fallback(self):
        model = model_for(["a b c d e"])
        assert any(w.endswith("degenerate-ranks") for w in model.warnings)
        assert 10 ** N.logprob(model, "b", ["a"]) < 1.0

    def test_counts_not_closed_under_suffixes_are_a_model_error(self, rng):
        table = N.train(random_corpus(rng), 3)
        gram = min(table.counts[3])
        del table.counts[2][gram[1:]]
        with pytest.raises(N.ModelError, match="suffix"):
            N.good_turing(table)

    def test_history_outside_the_model_is_a_model_error(self):
        # No unigram "a": save would have no line for the backoff weight
        # of the history ("a",), and the loaded model would lose it.
        table = N.CountTable(
            2,
            {1: Counter({("b",): 2, ("</s>",): 1}),
             2: Counter({("a", "b"): 1, ("<s>", "b"): 1, ("b", "</s>"): 1, ("b", "b"): 1})},
            ("</s>", "<s>", "<unk>", "b"), frozenset(), "words", 1)
        with pytest.raises(N.ModelError, match="stored history"):
            N.good_turing(table)

    def test_unseen_events_strictly_positive(self, rng):
        for _ in range(10):
            model = N.good_turing(N.train(random_corpus(rng), 2))
            assert N.logprob(model, "zzzz", ["qqqq"]) > -math.inf
            assert N.logprob(model, "zzzz", ["plan"]) > -math.inf


class TestLogprob:
    def test_normalization_over_sampled_histories(self, rng):
        for order in (2, 3):
            model = N.good_turing(N.train(random_corpus(rng, 30), order))
            vocab = model.vocab
            histories = [(w,) * (order - 1) for w in vocab[:5]]
            histories += [tuple(rng.choice(vocab) for _ in range(order - 1)) for _ in range(20)]
            for h in histories:
                total = sum(10 ** model.logprob_model(w, h) for w in vocab)
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_seen_bigram_beats_backoff_noise(self):
        model = model_for(["a b", "a b", "a c"])
        assert N.logprob(model, "b", ["a"]) > N.logprob(model, "c", ["a"])

    def test_duplicating_corpus_preserves_seen_ordering(self, rng):
        corpus = random_corpus(rng, 15)
        m1 = model_for(corpus)
        m2 = model_for(corpus * 2)
        bigrams = [g for g in N.train(corpus, 2).counts[2]]
        for a in bigrams[:10]:
            for b in bigrams[:10]:
                p1 = m1.logprob_model(a[1], (a[0],)) - m1.logprob_model(b[1], (b[0],))
                p2 = m2.logprob_model(a[1], (a[0],)) - m2.logprob_model(b[1], (b[0],))
                if abs(p1) > 1e-9:
                    assert p1 * p2 >= 0


class TestSentenceLogprob:
    def test_empty_sentence(self):
        model = model_for(["a b"])
        assert N.sentence_logprob(model, []) == model.logprob_model("</s>", ("<s>",))

    def test_hand_computed_ordering(self):
        model = model_for(["a b", "a b"])
        assert N.sentence_logprob(model, "a b") > N.sentence_logprob(model, "b a")

    def test_deterministic(self, rng):
        model = N.good_turing(N.train(random_corpus(rng), 2))
        s = "plan company new".split()
        assert N.sentence_logprob(model, s) == N.sentence_logprob(model, s)


def katz(model, token, context):
    """log10 p(token | context) read straight off probs and backoffs: the
    longest seen n-gram's probability, plus the backoff weight of every
    longer history passed over on the way down."""
    if token not in model.vocab:
        token = N.UNK
    if not context:
        return model.probs[1][(token,)]
    k = len(context) + 1
    seen = model.probs[k].get(context + (token,))
    if seen is not None:
        return seen
    return model.backoffs[k].get(context, 0.0) + katz(model, token, context[1:])


class TestAdvance:
    def test_equals_katz_backoff_bit_for_bit(self, rng):
        models = [fixtures.demo_model("s3"), fixtures.demo_model("s8"),
                  fixtures.letter_model(), random_model(rng, order=3)]
        for model in models:
            pool = list(model.vocab) + ["zebra", "Q", "Tanaka", "1994", ""]
            for _ in range(300):
                context = tuple(rng.choice(pool) for _ in range(model.order - 1))
                tokens = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
                incs, after = model.advance(context, tokens)
                want, ctx = [], context
                for t in tokens:
                    want.append(katz(model, t, ctx))
                    ctx = (ctx + (t,))[1:]
                assert (incs, after) == (want, ctx)

    def test_unknown_token_stays_raw_in_the_context(self):
        model = model_for(UNK_CORPUS)
        incs, after = model.advance(("a",), ["zebra", "b"])
        assert after == ("b",)
        assert incs == [model.logprob_model(N.UNK, ("a",)), model.logprob_model("b", ("zebra",))]
        assert round(model.logprob_model("b", ("zebra",)), 3) == -0.654
        assert round(model.logprob_model("b", ("<unk>",)), 3) == -0.030
        assert N.sentence_logprob(model, "a zebra b") == -1.5513401351448035

    def test_end_logprob_is_the_eos_step(self, rng):
        model = random_model(rng, order=3)
        for context in [model.start_context(), ("plan", "zebra"), ("zebra", "zebra")]:
            assert model.end_logprob(context) == katz(model, N.EOS, context)


class TestSaveLoad:
    def test_round_trip_scores_identical(self, rng):
        for order in (2, 3):
            model = N.good_turing(N.train(random_corpus(rng, 25), order))
            buf = io.StringIO()
            N.save(model, buf)
            buf.seek(0)
            again = N.load(buf)
            assert again.probs == model.probs and again.backoffs == model.backoffs
            for _ in range(50):
                sent = [rng.choice(model.vocab + ("qqq", "Xyz", "123"))
                        for _ in range(rng.randint(0, 6))]
                assert N.sentence_logprob(model, sent) == N.sentence_logprob(again, sent)

    def test_corrupted_header(self):
        with pytest.raises(N.ModelError):
            N.load(io.StringIO("NOPE v1 order=2 vocab=3\n"))

    def test_truncated_file(self, rng):
        model = N.good_turing(N.train(random_corpus(rng), 2))
        buf = io.StringIO()
        N.save(model, buf)
        text = buf.getvalue().rsplit("\\end", 1)[0]
        with pytest.raises(N.ModelError):
            N.load(io.StringIO(text))

    @pytest.mark.parametrize("number", ["nan", "inf", "x"])
    def test_non_finite_or_bad_log_prob_is_error(self, rng, number):
        model = N.good_turing(N.train(random_corpus(rng), 2))
        buf = io.StringIO()
        N.save(model, buf)
        head, grams = buf.getvalue().split("\\2-grams\n", 1)
        line, rest = grams.split("\n", 1)
        text = head + "\\2-grams\n" + " ".join([number] + line.split(" ")[1:]) + "\n" + rest
        with pytest.raises(N.ModelError):
            N.load(io.StringIO(text))

    @pytest.mark.parametrize("old, new, message", [
        ("order=2", "order=two", "bad model header"),
        ("order=2", "order=1", "order must be at least 2"),
        ("mode=words", "mode=foo", "unknown model mode"),
        ("\\meta", "\\beta", "missing meta line"),
        ("unseen=1:", "unseen=1:x,1:", "bad unseen mass"),
        ("vocab=40", "vocab=41", "vocab size mismatch"),
        ("\\2-grams", "\\3-grams", "unexpected section"),
        ("\\known\n", "", "content before any section"),
        ("\\2-grams\n", "\\2-grams\n-1.0 a b c d\n", "bad 2-gram line"),
    ])
    def test_damaged_header_or_line_is_error(self, old, new, message):
        text = fixtures.path("s3.lm").read_text()
        assert old in text
        with pytest.raises(N.ModelError, match=message):
            N.load(io.StringIO(text.replace(old, new, 1)))

    def test_missing_section_is_error(self):
        text = fixtures.path("s3.lm").read_text(encoding="utf-8")
        bigrams = text.index("\\2-grams\n")
        with pytest.raises(N.ModelError, match=r"^missing \\2-grams section$"):
            N.load(io.StringIO(text[:bigrams] + "\\end\n"))

    def test_huge_order_fails_before_allocating(self):
        text = "NGRAM v1 order=1000000 vocab=3\n\\meta mode=words\n\\end\n"
        tracemalloc.start()
        try:
            with pytest.raises(N.ModelError, match=r"^missing \\1-grams section$"):
                N.load(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("token", [N.EOS, N.UNK])
    def test_missing_special_unigram_is_error(self, token):
        with pytest.raises(N.ModelError, match="lacks the %s unigram" % token):
            N.load(io.StringIO(s3_model_with_unigram_renamed(token)))

    def test_unclassified_word_model_is_error(self):
        text = fixtures.path("s3.lm").read_text()
        assert " mode=words classify=1 " in text
        with pytest.raises(N.ModelError, match="classify=0"):
            N.load(io.StringIO(text.replace(" classify=1 ", " classify=0 ", 1)))

    def test_classify_flag_follows_mode(self):
        for name, mode, flag in (("s3.lm", "words", 1), ("letters.lm", "letters", 0)):
            with fixtures.path(name).open() as f:
                model = N.load(f)
            buf = io.StringIO()
            N.save(model, buf)
            assert buf.getvalue().splitlines()[1].startswith(
                "\\meta mode=%s classify=%d " % (mode, flag))

    def test_empty_vocabulary_refuses_to_save(self):
        model = N.good_turing(N.train([[]], 2))
        with pytest.raises(N.ModelError):
            N.save(model, io.StringIO())

    @pytest.mark.parametrize("corpus, message", [
        ([("New York", "law")], "token 'New York' is empty or holds whitespace"),
        ([("a", "")], "token '' is empty or holds whitespace"),
        (["plan \\end", "\\END law"], "known word '\\\\end' reads as a section line of a model file"),
        (["\\2-grams a", "\\2-grams"], "known word '\\\\2-grams' reads as a section line of a model file"),
    ])
    def test_train_refuses_tokens_a_model_file_cannot_hold(self, corpus, message):
        with pytest.raises(N.ModelError) as e:
            N.train(corpus, 2)
        assert str(e.value) == message


# Tokens a model file could misread: spaces, line breaks, empty, and known
# words that look like section lines; plain words among them.
ROUND_TRIP_TOKENS = st.one_of(
    st.sampled_from(["new york", " a", "a ", "a\nb", "a\rb", "a\t", "", "\\end", "\\END",
                     "\\1-grams", "\\known", "\\x", "Tanaka", "1994", "<s>", "plan"]),
    st.text(alphabet="aB \t\n\r\\-1\u00e9#", max_size=4))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(corpus=st.lists(st.lists(ROUND_TRIP_TOKENS, min_size=1, max_size=5).map(tuple),
                       min_size=1, max_size=6),
       order=st.sampled_from([2, 3]))
def test_saved_model_loads_back_equal_or_train_refuses(tmp_path_factory, corpus, order):
    try:
        model = N.good_turing(N.train(corpus + [("new", "law")], order))
    except N.ModelError:
        return
    path = tmp_path_factory.getbasetemp() / "round_trip.lm"
    with open(path, "w", encoding="utf-8") as f:
        N.save(model, f)
    with cli._open_read(path) as f:
        from_file = N.load(f)
    from_text = N.load(io.StringIO(path.read_text(encoding="utf-8")))
    for again in (from_file, from_text):
        assert again.probs == model.probs and again.backoffs == model.backoffs
        assert list(again.vocab) == list(model.vocab) and again.known == model.known
