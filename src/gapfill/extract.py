"""N-best extraction: beam search over a word lattice under an n-gram model.

Hypotheses are merged per (state, language-model context); within a
merge point only the best hypothesis per spelled prefix survives, and
each point keeps the top n spellings (plus exact score ties, so ranking
stays exact).  With the beam disabled the result provably equals
brute-force enumeration scored by the sentence model; the beam is a
speed knob that prunes each topological layer to its best B hypotheses.

Scores combine the model score and the lattice transition weights as
lm_weight * model + trans_weight * weights (both log10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import lattice as L
from . import ngram

__all__ = ["ExtractionResult", "nbest", "brute_force_nbest", "random_path", "ExtractError"]


class ExtractError(Exception):
    pass


@dataclass(frozen=True)
class ExtractionResult:
    """Ranked distinct sentences: (spelled text, combined log10 score)."""

    ranked: tuple  # of (str, float)

    def sentences(self):
        return [s for s, _ in self.ranked]

    def top(self):
        return self.ranked[0]


class _Hyp:
    __slots__ = ("state", "context", "lm", "wt", "spelled", "ntokens")

    def __init__(self, state, context, lm, wt, spelled, ntokens):
        self.state = state
        self.context = context
        self.lm = lm
        self.wt = wt
        self.spelled = spelled
        self.ntokens = ntokens  # transitions taken, the tie-break in _better


def _combined(h, lm_weight, trans_weight):
    return lm_weight * h.lm + trans_weight * h.wt


def _extend_spelling(spelled, prev_frag, tok):
    """Mirror lattice.spell incrementally. Returns (text, trailing_frag)."""
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


def nbest(lat, model, n, beam=None, lm_weight=1.0, trans_weight=1.0) -> ExtractionResult:
    """Top-n distinct spellings of the lattice under the model.

    beam=None searches exactly; beam=B keeps the best B hypotheses per
    topological layer.  Ties order lexicographically by spelled text.
    Expanding a state asks the model for each out-edge's tokens once, and
    scores the edge once per distinct context: hypotheses that share a
    (context, edge) share its LM increments and next context.
    """
    lat.ensure_validated()
    if n < 1:
        raise ExtractError("n must be at least 1")
    if beam is not None and beam < 1:
        raise ExtractError("beam width must be at least 1")

    csize = model.context_size
    start_ctx = model.start_context()

    # Longest-path rank from the start; hypotheses are pooled and pruned
    # per rank layer when the beam is on.  Final ranks last: every state
    # of a validated lattice reaches it.
    rank = [0] * lat.n
    for s in lat._order:
        for (_a, dst, _t, _w) in lat.out_edges(s):
            rank[dst] = max(rank[dst], rank[s] + 1)

    # state -> {(context, spelled, prev_frag): hyp}; prev_frag (the last
    # token was a fragment) decides whether the next piece gets a space.
    pending = [{} for _ in lat.states]
    start_h = _Hyp(lat.start, start_ctx, 0.0, 0.0, "", 0)
    pending[lat.start][(start_ctx, "", False)] = start_h

    def keep_top(cands):
        """Per (state, context): the top n spellings, keeping exact score
        ties with the n-th so the final ranking stays exact.  Keys are
        already unique per (context, spelling), the best hypothesis per
        spelling having won on insertion."""
        by_ctx = {}
        for key, h in cands.items():
            by_ctx.setdefault(key[0], []).append((key, h))
        out = {}
        for group in by_ctx.values():
            if len(group) <= n:
                for key, h in group:
                    out[key] = h
                continue
            ordered = sorted(group,
                             key=lambda kh: (-_combined(kh[1], lm_weight, trans_weight),
                                             kh[0][1]))
            cutoff = _combined(ordered[n - 1][1], lm_weight, trans_weight)
            for i, kh in enumerate(ordered):
                if i < n or _combined(kh[1], lm_weight, trans_weight) == cutoff:
                    out[kh[0]] = kh[1]
        return out

    def _better(a, b, lw, tw):
        ca, cb = _combined(a, lw, tw), _combined(b, lw, tw)
        if ca != cb:
            return ca > cb
        return a.ntokens < b.ntokens

    layers = [[] for _ in range(rank[lat.final] + 1)]
    for s in lat._order:
        layers[rank[s]].append(s)

    finals = {}
    for states in layers:
        for s in states:
            pending[s] = keep_top(pending[s])
        if beam is not None:
            pool = [(s, key, h) for s in states for key, h in pending[s].items()]
            if len(pool) > beam:
                pool.sort(key=lambda item: (-_combined(item[2], lm_weight, trans_weight),
                                            item[1][1], item[0]))
                keep = {(s, key) for s, key, _h in pool[:beam]}
                for s in states:
                    pending[s] = {key: h for key, h in pending[s].items() if (s, key) in keep}
        for s in states:
            hyps, pending[s] = pending[s], None
            if s == lat.final:
                for (_ctx, spelled, _pf), h in hyps.items():
                    score = h.lm + model.end_logprob(h.context)
                    done = _Hyp(s, h.context, score, h.wt, spelled, h.ntokens)
                    cur = finals.get(spelled)
                    if cur is None or _better(done, cur, lm_weight, trans_weight):
                        finals[spelled] = done
            if not hyps:  # the beam emptied this state: expand none of its edges
                continue
            for (_a, dst, tok, w) in lat.out_edges(s):
                mtoks = model.tokens_for(tok)
                steps = {}  # context -> (LM increment per model token, next context)
                into = pending[dst]
                for (ctx, spelled, pf), h in hyps.items():
                    step = steps.get(ctx)
                    if step is None:
                        incs = []
                        c = list(ctx)
                        for mt in mtoks:
                            incs.append(model.logprob_model(mt, tuple(c)))
                            if csize:
                                c = (c + [mt])[-csize:]
                        step = steps[ctx] = (incs, tuple(c))
                    incs, nctx = step
                    # One addition per token, as a per-hypothesis loop would
                    # do it: summing the increments first rounds differently.
                    lm = h.lm
                    for inc in incs:
                        lm += inc
                    ns, nf = _extend_spelling(spelled, pf, tok)
                    nh = _Hyp(dst, nctx, lm, h.wt + w, ns, h.ntokens + 1)
                    key = (nctx, ns, nf)
                    cur = into.get(key)
                    if cur is None or _better(nh, cur, lm_weight, trans_weight):
                        into[key] = nh

    ranked = sorted(finals.values(),
                    key=lambda h: (-_combined(h, lm_weight, trans_weight), h.spelled))
    out = tuple((h.spelled, _combined(h, lm_weight, trans_weight)) for h in ranked[:n])
    return ExtractionResult(out)


def brute_force_nbest(lat, model, n, lm_weight=1.0, trans_weight=1.0,
                      limit=100000) -> ExtractionResult:
    """Enumeration oracle: score every path, collapse duplicate spellings
    keeping the max, rank by (score desc, spelling)."""
    best = {}
    for path in L.enumerate_paths(lat, limit):
        spelled = path.spelled()
        if model.mode == "letters":
            toks = ngram.letters(spelled)
        else:
            toks = spelled.split()
        score = lm_weight * ngram.sentence_logprob(model, toks) + trans_weight * path.weight
        if spelled not in best or score > best[spelled]:
            best[spelled] = score
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return ExtractionResult(tuple(ranked[:n]))


def random_path(lat, seed) -> L.WordPath:
    """Uniform-over-transitions random walk from start to final."""
    lat.ensure_validated()
    rng = random.Random(seed)
    state = lat.start
    tokens = []
    weight = 0.0
    while state != lat.final:
        t = rng.choice(lat.out_edges(state))
        tokens.append(t[2])
        weight += t[3]
        state = t[1]
    return L.WordPath(tuple(tokens), weight)
