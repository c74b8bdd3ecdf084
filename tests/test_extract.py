import pytest

from gapfill import extract as X
from gapfill import fixtures
from gapfill import lattice as L
from gapfill import ngram as N

from conftest import UNK_CORPUS, WORDS, random_lattice, random_model


def tiny_model():
    return N.good_turing(N.train([
        "the plan is old", "the plan is old", "a plan was new",
        "the plans are old", "the company saw the plan",
    ], 2))


def single_path_lattice():
    lat = L.build([0, 1, 2], 0, 2, [(0, 1, L.word("the"), -0.1), (1, 2, L.word("plan"), -0.2)])
    L.validate(lat)
    return lat


class TestNBest:
    def test_single_path(self):
        lat = single_path_lattice()
        model = tiny_model()
        res = X.nbest(lat, model, 1)
        [(sentence, score)] = res.ranked
        assert sentence == "the plan"
        expected = N.sentence_logprob(model, ["the", "plan"]) + (-0.1 - 0.2)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_n_zero_is_error(self):
        with pytest.raises(X.ExtractError):
            X.nbest(single_path_lattice(), tiny_model(), 0)

    def test_beam_zero_is_error(self):
        with pytest.raises(X.ExtractError):
            X.nbest(single_path_lattice(), tiny_model(), 1, beam=0)

    def test_matches_brute_force_exhaustively(self, rng):
        for _ in range(150):
            lat = random_lattice(rng)
            if L.path_count(lat) > 5000:
                continue
            model = random_model(rng)
            exact = X.nbest(lat, model, 5)
            oracle = X.brute_force_nbest(lat, model, 5)
            assert [s for s, _ in exact.ranked] == [s for s, _ in oracle.ranked]
            for (_, a), (_, b) in zip(exact.ranked, oracle.ranked):
                assert a == pytest.approx(b, abs=1e-9)

    def test_duplicate_spellings_collapse_to_max(self):
        # Two paths spell "a b": weights -1 and 0; the better one wins.
        lat = L.build([0, 1, 2], 0, 2, [
            (0, 1, L.word("a"), 0.0), (1, 2, L.word("b"), 0.0),
            (0, 1, L.word("a"), -1.0),
        ])
        L.validate(lat)
        model = tiny_model()
        res = X.nbest(lat, model, 5)
        assert len(res.ranked) == 1
        assert res.ranked[0][1] == pytest.approx(
            N.sentence_logprob(model, ["a", "b"]), abs=1e-12)

    def test_trigram_context_merging(self, rng):
        for _ in range(30):
            lat = random_lattice(rng, max_states=9)
            if L.path_count(lat) > 3000:
                continue
            model = random_model(rng, order=3)
            exact = X.nbest(lat, model, 4)
            oracle = X.brute_force_nbest(lat, model, 4)
            assert exact.ranked == tuple(oracle.ranked) or all(
                s1 == s2 and abs(a - b) < 1e-9
                for (s1, a), (s2, b) in zip(exact.ranked, oracle.ranked))


class TestBeam:
    def test_monotone_top1_degradation(self, rng):
        for _ in range(25):
            lat = random_lattice(rng, max_states=10)
            model = random_model(rng)
            scores = []
            for beam in (1, 2, 4, 16, None):
                res = X.nbest(lat, model, 1, beam=beam)
                scores.append(res.ranked[0][1] if res.ranked else -float("inf"))
            for small, big in zip(scores, scores[1:]):
                assert small <= big + 1e-12

    def test_wide_beam_equals_exact(self, rng):
        for _ in range(20):
            lat = random_lattice(rng, max_states=8)
            if L.path_count(lat) > 2000:
                continue
            model = random_model(rng)
            assert X.nbest(lat, model, 3, beam=10000).ranked == X.nbest(lat, model, 3).ranked

    def test_empty_spelling_takes_one_beam_slot(self):
        # The start reaches state 1 by an *empty* arc and by an empty
        # fragment: one spelling, "", which must hold one beam slot, not
        # two, so that "x" at state 2 survives the beam of 2.
        lat = L.build([0, 1, 2, 3], 0, 3, [
            (0, 1, L.empty(), 0.0), (0, 1, L.fragment(""), 0.0),
            (0, 2, L.fragment("x"), 0.0),
            (1, 3, L.fragment("a"), 0.0), (2, 3, L.fragment("b"), 0.0),
        ])
        L.validate(lat)
        model = fixtures.letter_model()
        got = X.nbest(lat, model, 2, beam=2).ranked
        oracle = X.brute_force_nbest(lat, model, 2).ranked
        assert [s for s, _ in got] == [s for s, _ in oracle] == ["a", "xb"]
        for (_, a), (_, b) in zip(got, oracle):
            assert a == pytest.approx(b, abs=1e-9)


class TestUnknownContext:
    def test_unknown_word_enters_the_context_as_itself(self):
        # Scoring zebra as <unk> must not also put <unk> in the context.
        model = N.good_turing(N.train(UNK_CORPUS, 2))
        lat = L.build([0, 1, 2, 3], 0, 3, [(0, 1, L.word("a"), 0.0),
                                           (1, 2, L.word("zebra"), 0.0),
                                           (2, 3, L.word("b"), 0.0)])
        want = (("a zebra b", -1.5513401351448035),)
        assert X.nbest(lat, model, 1).ranked == want
        assert X.brute_force_nbest(lat, model, 1).ranked == want


class TestRandomPath:
    def test_single_path_any_seed(self):
        lat = single_path_lattice()
        for seed in range(10):
            assert X.random_path(lat, seed).spelled() == "the plan"

    def test_deterministic_per_seed(self, rng):
        lat = random_lattice(rng)
        for seed in (0, 7, 12345):
            a = X.random_path(lat, seed)
            b = X.random_path(lat, seed)
            assert a == b

    def test_nbest_top1_dominates_random(self, rng):
        for _ in range(20):
            lat = random_lattice(rng, max_states=8)
            if L.path_count(lat) > 2000:
                continue
            model = random_model(rng)
            top = X.nbest(lat, model, 1).ranked[0][1]
            for seed in range(5):
                p = X.random_path(lat, seed)
                score = N.sentence_logprob(model, p.spelled().split()) + p.weight
                assert top >= score - 1e-9


class TestClassSurfaceRestoration:
    def test_model_sees_class_output_shows_surface(self):
        corpus = ["the company saw NUM people", "Tanaka saw the company"]
        model = N.good_turing(N.train(corpus, 2))
        lat = L.build([0, 1, 2], 0, 2, [
            (0, 1, L.class_mark("NAME", "Perkin"), 0.0),
            (1, 2, L.word("saw"), 0.0),
        ])
        L.validate(lat)
        res = X.nbest(lat, model, 1)
        assert res.ranked[0][0] == "Perkin saw"
        # scoring agrees with classifying the surface word
        expected = N.sentence_logprob(model, ["Perkin", "saw"])
        assert res.ranked[0][1] == pytest.approx(expected, abs=1e-12)


class _Hyp:
    __slots__ = ("state", "context", "lm", "wt", "spelled", "ntokens")

    def __init__(self, state, context, lm, wt, spelled, ntokens):
        self.state = state
        self.context = context
        self.lm = lm
        self.wt = wt
        self.spelled = spelled
        self.ntokens = ntokens


def _combined(h, lm_weight, trans_weight):
    return lm_weight * h.lm + trans_weight * h.wt


def _extend_spelling(spelled, prev_frag, tok):
    """lattice.spell one token at a time. Returns (text, trailing_frag)."""
    if tok.kind == L.EMPTY:
        return spelled, prev_frag
    if tok.kind == L.FRAG:
        piece, frag = tok.text, True
    elif tok.kind == L.CLASS:
        piece, frag = (tok.surface or tok.text), False
    else:
        piece, frag = tok.text, False
    if spelled and not frag and not prev_frag:
        return spelled + " " + piece, frag
    return spelled + piece, frag


def _reference_nbest(lat, model, n, beam=None, lm_weight=1.0, trans_weight=1.0):
    """The same search one hypothesis object at a time, without shared
    edge steps: every hypothesis asks the model for the edge's tokens and
    LM increments, recomputes its combined score at each comparison, and
    tracks whether its spelling ends in a fragment; the beam path runs
    keep_top twice.  X.nbest must match it exactly, floats included."""
    csize = model.context_size
    start_ctx = model.start_context()
    rank = {s: 0 for s in lat.states}
    for s in lat._order:
        for (_a, dst, _t, _w) in lat.out_edges(s):
            rank[dst] = max(rank[dst], rank[s] + 1)
    pending = {s: {} for s in lat.states}
    pending[lat.start][(start_ctx, "", False)] = _Hyp(lat.start, start_ctx, 0.0, 0.0, "", 0)

    def combined(h):
        return _combined(h, lm_weight, trans_weight)

    def better(a, b):
        ca, cb = combined(a), combined(b)
        return ca > cb if ca != cb else a.ntokens < b.ntokens

    def keep_top(cands):
        by_ctx = {}
        for key, h in cands.items():
            group = by_ctx.setdefault(key[0], {})
            cur = group.get((key[1], key[2]))
            if cur is None or better(h, cur[1]):
                group[(key[1], key[2])] = (key, h)
        out = {}
        for group in by_ctx.values():
            if len(group) <= n:
                for key, h in group.values():
                    out[key] = h
                continue
            ordered = sorted(group.values(), key=lambda kh: (-combined(kh[1]), kh[0][1]))
            cutoff = combined(ordered[n - 1][1])
            for i, kh in enumerate(ordered):
                if i < n or combined(kh[1]) == cutoff:
                    out[kh[0]] = kh[1]
        return out

    layers = {}
    for s in lat._order:
        layers.setdefault(rank[s], []).append(s)
    finals = {}
    for r in sorted(layers):
        states = layers[r]
        if beam is not None:
            pool = []
            for s in states:
                pending[s] = keep_top(pending[s])
                pool.extend((s, key, h) for key, h in pending[s].items())
            if len(pool) > beam:
                pool.sort(key=lambda item: (-combined(item[2]), item[1][1], item[0]))
                keep = {(s, key) for s, key, _h in pool[:beam]}
                for s in states:
                    pending[s] = {key: h for key, h in pending[s].items() if (s, key) in keep}
        for s in states:
            hyps = keep_top(pending[s])
            if s == lat.final:
                for (_ctx, spelled, _pf), h in hyps.items():
                    done = _Hyp(s, h.context, h.lm + model.end_logprob(h.context), h.wt,
                                spelled, h.ntokens)
                    cur = finals.get(spelled)
                    if cur is None or better(done, cur):
                        finals[spelled] = done
            for (_a, dst, tok, w) in lat.out_edges(s):
                for (ctx, spelled, pf), h in hyps.items():
                    lm = h.lm
                    c = list(ctx)
                    for mt in model.tokens_for(tok):
                        lm += model.logprob_model(mt, tuple(c))
                        if csize:
                            c = (c + [mt])[-csize:]
                    ns, nf = _extend_spelling(spelled, pf, tok)
                    nf = nf and bool(ns)  # no space ever follows an empty spelling
                    nh = _Hyp(dst, tuple(c), lm, h.wt + w, ns, h.ntokens + 1)
                    cur = pending[dst].get((tuple(c), ns, nf))
                    if cur is None or better(nh, cur):
                        pending[dst][(tuple(c), ns, nf)] = nh
            pending[s] = {}
    ranked = sorted(finals.values(), key=lambda h: (-combined(h), h.spelled))
    return tuple((h.spelled, combined(h)) for h in ranked[:n])


def _word_token(rng):
    kind = rng.random()
    if kind < 0.6:
        # Out-of-vocabulary words all score as <unk>, so spellings tie.
        return L.word(rng.choice(WORDS + ["Tanaka", "1994", "the", "zebra", "quasar"]))
    if kind < 0.8:
        return L.class_mark("NAME", rng.choice(["Perkin", "Tanaka", ""]))
    if kind < 0.9:
        return L.class_mark("NUM", "1994")
    return L.morph("+plural")


def _fragment_token(rng):
    return L.fragment("".join(rng.choice("aeiknorst ") for _ in range(rng.randint(0, 4))))


class TestSharedEdgeSteps:
    """nbest scores each (context, edge) once and shares the step among
    the hypotheses that reach it; results must not change at all."""

    def test_matches_reference_decoder_exactly(self, rng):
        models = [(random_model(rng, order=2), _word_token),
                  (random_model(rng, order=3), _word_token),
                  (fixtures.letter_model(), _fragment_token)]
        for model, token in models:
            for _ in range(12):
                lat = random_lattice(rng, max_states=12, token=token)
                for beam in (None, 1, 3, 50):
                    for n in (1, 2, 5):
                        weights = {} if rng.random() < 0.5 else {"lm_weight": 0.5,
                                                                 "trans_weight": 0.5}
                        got = X.nbest(lat, model, n, beam=beam, **weights).ranked
                        assert got == _reference_nbest(lat, model, n, beam=beam, **weights)

    def test_tokens_for_called_once_per_expanded_edge(self, rng):
        class Counting:
            def __init__(self, model):
                self.model, self.calls = model, 0

            def tokens_for(self, tok):
                self.calls += 1
                return self.model.tokens_for(tok)

            def __getattr__(self, name):
                return getattr(self.model, name)

        for _ in range(10):
            lat = random_lattice(rng, max_states=10)
            model = Counting(random_model(rng))
            X.nbest(lat, model, 5)
            # Exact search reaches every state, so every edge is expanded.
            assert model.calls == len(lat.transitions)
            model.calls = 0
            X.nbest(lat, model, 5, beam=2)
            assert model.calls <= len(lat.transitions)
