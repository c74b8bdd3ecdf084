"""N-best extraction: beam search over a word lattice under an n-gram model.

A hypothesis is keyed by (state, language-model context, spelled
prefix); only the best one per key survives (higher score, then fewer
transitions), and each (state, context) keeps its top n spellings (plus
exact score ties, so ranking stays exact).  Each hypothesis carries its
combined score, computed once when it is made.  Expanding a state takes
one LM step (NGramModel.advance) per (context, edge), which every
hypothesis of that context shares.  Spellings grow by one
rule: a token adds lattice.spelling(token), joined by nothing under a
letter model (fragments concatenate) and by a space under a word model.
With the beam disabled the result provably equals brute-force
enumeration scored by the sentence model; the beam is a speed knob that
prunes each topological layer to its best B hypotheses.

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

    def top(self):
        return self.ranked[0]


def nbest(lat, model, n, beam=None, lm_weight=1.0, trans_weight=1.0) -> ExtractionResult:
    """Top-n distinct spellings of the lattice under the model.

    beam=None searches exactly; beam=B keeps the best B hypotheses per
    topological layer.  Ties order lexicographically by spelled text.
    Expanding a state asks the model for each out-edge's tokens once, and
    takes one LM step (model.advance) per (context, edge): hypotheses
    that share a context share the edge's increments and next context.
    """
    if n < 1:
        raise ExtractError("n must be at least 1")
    if beam is not None and beam < 1:
        raise ExtractError("beam width must be at least 1")

    advance = model.advance
    # Letter models score fragments, which concatenate; word models score
    # words, which a space separates.
    sep = "" if model.mode == "letters" else " "

    # Longest-path rank from the start; hypotheses are pooled and pruned
    # per rank layer when the beam is on.  Final ranks last: every state
    # of a lattice reaches it.
    rank = [0] * lat.n
    for s in lat._order:
        for (_a, dst, _t, _w) in lat.out_edges(s):
            rank[dst] = max(rank[dst], rank[s] + 1)
    layers = [[] for _ in range(rank[lat.final] + 1)]
    for s in lat._order:
        layers[rank[s]].append(s)

    # state -> {context: {spelling: (score, ntokens, lm, wt)}}, the best
    # hypothesis per key: higher score, then fewer transitions taken.
    pending = [{} for _ in lat.states]
    pending[lat.start][model.start_context()] = {"": (0.0, 0, 0.0, 0.0)}

    finals = {}
    for states in layers:
        # Each (state, context) keeps its top n spellings, plus exact score
        # ties with the n-th, so the final ranking stays exact.  The survivors
        # go back in (-score, spelling) order, which the beam pool and later
        # ties see.
        count = 0
        for s in states:
            for group in pending[s].values():
                if len(group) > n:
                    cutoff = sorted([h[0] for h in group.values()], reverse=True)[n - 1]
                    top = sorted([(-h[0], sp, h) for sp, h in group.items() if h[0] >= cutoff])
                    group.clear()
                    group.update((sp, h) for _neg, sp, h in top)
                count += len(group)
        if beam is not None and count > beam:
            pool = [(s, ctx, spelled, h[0]) for s in states
                    for ctx, group in pending[s].items() for spelled, h in group.items()]
            pool.sort(key=lambda item: (-item[3], item[2], item[0]))
            keep = {item[:3] for item in pool[:beam]}
            for s in states:
                kept = {}
                for ctx, group in pending[s].items():
                    group = {sp: h for sp, h in group.items() if (s, ctx, sp) in keep}
                    if group:
                        kept[ctx] = group
                pending[s] = kept
        for s in states:
            groups, pending[s] = pending[s], None
            if s == lat.final:
                for ctx, group in groups.items():
                    end = model.end_logprob(ctx)
                    for spelled, (_score, k, lm, wt) in group.items():
                        score = lm_weight * (lm + end) + trans_weight * wt
                        cur = finals.get(spelled)
                        if cur is None or score > cur[0] or (score == cur[0] and k < cur[1]):
                            finals[spelled] = (score, k)
            if not groups:  # the beam emptied this state: expand none of its edges
                continue
            for (_a, dst, tok, w) in lat.out_edges(s):
                mtoks = model.tokens_for(tok)
                piece = L.spelling(tok)
                joint = sep + piece if piece else ""
                into = pending[dst]
                for ctx, group in groups.items():
                    incs, nxt = advance(ctx, mtoks)
                    target = into.get(nxt)
                    if target is None:
                        target = into[nxt] = {}
                    for spelled, (_score, k, lm, wt) in group.items():
                        # One addition per token, as a per-hypothesis loop
                        # would do it: summing the increments first rounds
                        # differently.
                        for inc in incs:
                            lm += inc
                        wt += w
                        score = lm_weight * lm + trans_weight * wt
                        grown = spelled + joint if spelled else piece
                        k += 1
                        cur = target.get(grown)
                        if cur is None or score > cur[0] or (score == cur[0] and k < cur[1]):
                            target[grown] = (score, k, lm, wt)

    ranked = sorted(finals.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return ExtractionResult(tuple((spelled, h[0]) for spelled, h in ranked[:n]))


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
