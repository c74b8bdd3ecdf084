"""N-gram language models with Good-Turing smoothing and Katz backoff.

Counts are classified before estimation: numerals collapse to NUM and
capitalized out-of-lexicon tokens to NAME, so the sparse proper-name tail
shares statistics.  Discounted mass flows to unseen events through
lower-order models, bottoming out at a uniform distribution, so no token
ever scores zero.  All scores are log10.

Models come in two token modes: "words" (sentence models over classified
words) and "letters" (models over single characters plus the word
boundary mark "_", used for transliteration scoring).
"""

from __future__ import annotations

import math
from collections import Counter

from . import lattice as L

__all__ = [
    "ModelError",
    "classify_token",
    "letters",
    "CountTable",
    "FreqOfFreq",
    "train",
    "good_turing",
    "NGramModel",
    "logprob",
    "sentence_logprob",
    "save",
    "load",
    "BOS",
    "EOS",
    "UNK",
    "NAME",
    "NUM",
    "BOUNDARY",
]

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
NAME = "NAME"
NUM = "NUM"
BOUNDARY = "_"

_NUM_CHARS = set("0123456789.,%")

# Held-out fraction used when Good-Turing cannot be applied (no
# singletons, or a degenerate frequency-of-frequencies table).
EPS_FALLBACK = 0.05
# Significance threshold (in standard errors) for switching from raw
# Turing estimates to the regressed ones.
SWITCH_SIGMAS = 1.65


class ModelError(Exception):
    """Bad training input or a damaged model file."""


def classify_token(text: str, known=frozenset()) -> str:
    """Map a surface token to its model token.

    Numerals (optionally with , . %) become NUM; capitalized tokens not
    in the known-word list become NAME; everything else is the
    lowercased word itself.
    """
    if text and all(c in _NUM_CHARS for c in text) and any(c.isdigit() for c in text):
        return NUM
    if text[:1].isupper() and text.lower() not in known:
        return NAME
    return text.lower()


def letters(text: str):
    """Character tokens for letter models; spaces become the boundary mark."""
    return [BOUNDARY if c == " " else c for c in text]


def _as_sentences(corpus):
    sents = []
    for item in corpus:
        if isinstance(item, str):
            toks = item.split()
            if not toks and not item:
                continue  # blank line
            sents.append(toks)
        else:
            sents.append(list(item))
    return sents


class CountTable:
    """Raw n-gram counts over classified tokens, all orders 1..order.

    Unigram counts exclude the start pad (it is never a continuation).
    """

    def __init__(self, order, counts, vocab, classify, known, mode, sentence_count):
        self.order = order
        self.counts = counts  # {k: Counter over k-tuples}
        self.vocab = vocab  # sorted tuple, includes BOS/EOS/UNK
        self.classify = classify
        self.known = known
        self.mode = mode
        self.sentence_count = sentence_count

    def n_tokens(self, k=None) -> int:
        k = self.order if k is None else k
        return sum(self.counts[k].values())


def train(corpus, order, classify=True, known_min_count=2, mode="words") -> CountTable:
    """Count n-grams of all orders up to `order` over a tokenized corpus.

    The known-word list used by classification is the corpus's own
    lowercase vocabulary at or above known_min_count, computed in a
    first pass.
    """
    if order < 2:
        raise ModelError("order must be at least 2")
    sents = _as_sentences(corpus)
    if not sents:
        raise ModelError("empty corpus")

    known = frozenset()
    if classify and mode == "words":
        low = Counter(t.lower() for s in sents for t in s)
        known = frozenset(w for w, c in low.items() if c >= known_min_count)

    def model_tokens(sent):
        if classify and mode == "words":
            return [classify_token(t, known) for t in sent]
        return list(sent)

    counts = {k: Counter() for k in range(1, order + 1)}
    vocab = {BOS, EOS, UNK}
    pad = [BOS] * (order - 1)
    for sent in sents:
        toks = model_tokens(sent)
        vocab.update(toks)
        stream = pad + toks + [EOS]
        for k in range(1, order + 1):
            for i in range(len(stream) - k + 1):
                gram = tuple(stream[i:i + k])
                if k == 1 and gram[0] == BOS:
                    continue
                counts[k][gram] += 1
    return CountTable(order, counts, tuple(sorted(vocab)), classify, known, mode, len(sents))


class FreqOfFreq:
    """Frequency-of-frequency table N_r with its log-log regression."""

    def __init__(self, counter):
        self.n_r = {}
        for c in counter.values():
            self.n_r[c] = self.n_r.get(c, 0) + 1
        self.ranks = tuple(sorted(self.n_r))
        self.total = sum(r * n for r, n in self.n_r.items())
        self._fit = None

    @property
    def n_1(self) -> int:
        return self.n_r.get(1, 0)

    def raw_adjusted(self, r: int) -> float:
        """Turing adjusted count (r+1) * N_{r+1} / N_r, before regression."""
        if r not in self.n_r:
            raise ModelError("no n-grams with count %d" % r)
        return (r + 1) * self.n_r.get(r + 1, 0) / self.n_r[r]

    def fit(self):
        """Least-squares line for log10 N_r on log10 r. Returns (a, b)."""
        if self._fit is None:
            xs = [math.log10(r) for r in self.ranks]
            ys = [math.log10(self.n_r[r]) for r in self.ranks]
            n = len(xs)
            mx = sum(xs) / n
            my = sum(ys) / n
            denom = sum((x - mx) ** 2 for x in xs)
            if denom == 0.0:
                raise ModelError("regression needs two distinct count ranks")
            b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
            self._fit = (my - b * mx, b)
        return self._fit

    def smoothed(self, r: int) -> float:
        """Regression estimate of N_r (the Z_r curve), defined for all r >= 1."""
        a, b = self.fit()
        return 10.0 ** (a + b * math.log10(r))


class _Smoother:
    """Per-order discounting policy derived from a FreqOfFreq table."""

    def __init__(self, fof: FreqOfFreq, eps: float):
        self.fof = fof
        self.warning = None
        n = fof.total
        if len(fof.ranks) < 2:
            if fof.n_1 == 0:
                self.mode = "add-eps"
                self.warning = "no-singletons"
            else:
                # All n-grams are singletons; raw GT would zero them out.
                self.mode = "held-out"
                self.warning = "degenerate-ranks"
            self.unseen_mass = eps
            self.eps = eps
            return
        if fof.n_1 == 0:
            self.mode = "add-eps"
            self.warning = "no-singletons"
            self.unseen_mass = eps
            self.eps = eps
            return
        _a, b = fof.fit()
        p0 = fof.n_1 / n
        if not (b < -1.0):
            # The regressed curve would not discount; keep GT's unseen
            # mass but spread the discount evenly over seen mass.
            self.mode = "held-out"
            self.warning = "sgt-slope"
            self.unseen_mass = p0
            return
        self.mode = "sgt"
        self.unseen_mass = p0
        self._adjusted = self._sgt_counts()

    def _sgt_counts(self):
        fof = self.fof
        adjusted = {}
        switched = False
        for r in fof.ranks:
            y = (r + 1) * fof.smoothed(r + 1) / fof.smoothed(r)
            if not switched:
                n_r = fof.n_r[r]
                n_r1 = fof.n_r.get(r + 1, 0)
                if n_r1 == 0:
                    switched = True
                else:
                    x = (r + 1) * n_r1 / n_r
                    sd = math.sqrt((r + 1) ** 2 * (n_r1 / n_r ** 2) * (1.0 + n_r1 / n_r))
                    if abs(x - y) <= SWITCH_SIGMAS * sd:
                        switched = True
                    else:
                        adjusted[r] = x
            if switched:
                adjusted[r] = y
        # Renormalize so seen mass is exactly 1 - N_1/N.
        seen = sum(fof.n_r[r] * adjusted[r] for r in fof.ranks)
        scale = (1.0 - self.unseen_mass) * fof.total / seen
        return {r: c * scale for r, c in adjusted.items()}

    def seen_prob(self, count: int, denom: int, n_seen_here: int, vocab_size: int) -> float:
        """Discounted conditional probability of a seen event."""
        if self.mode == "sgt":
            return self._adjusted[count] / denom
        if self.mode == "held-out":
            return (1.0 - self.unseen_mass) * count / denom
        # add-eps
        return (count + self.eps) / (denom + self.eps * vocab_size)


class NGramModel:
    """Smoothed conditional model with per-history backoff weights.

    probs[k] maps seen k-grams to log10 conditional probabilities;
    backoffs[k] maps (k-1)-token histories to log10 backoff weights.
    Unigram probabilities cover the whole vocabulary.
    """

    def __init__(self, order, vocab, probs, backoffs, classify, known, mode,
                 unseen_mass, warnings):
        self.order = order
        self.vocab = tuple(vocab)
        self._vocab_set = frozenset(vocab)
        self.probs = probs
        self.backoffs = backoffs
        self.classify = classify
        self.known = frozenset(known)
        self.mode = mode
        self.unseen_mass = dict(unseen_mass)  # {order: fraction}
        self.warnings = tuple(warnings)

    # -- token plumbing ----------------------------------------------------

    def model_token(self, surface: str) -> str:
        if self.mode == "words" and self.classify:
            return classify_token(surface, self.known)
        return surface

    def tokens_for(self, tok):
        """Model tokens consumed by one lattice transition."""
        if tok.kind == L.EMPTY:
            return []
        if self.mode == "letters":
            if tok.kind == L.FRAG:
                return [BOUNDARY if c == " " else c for c in tok.text]
            raise ModelError("letter models only score fragment lattices (got %s)" % tok.kind)
        if tok.kind == L.CLASS:
            return [tok.text]
        if tok.kind in (L.WORD, L.MORPH):
            return [self.model_token(tok.text)]
        raise ModelError("word models cannot score %s tokens" % tok.kind)

    @property
    def context_size(self) -> int:
        return self.order - 1

    def start_context(self):
        return (BOS,) * (self.order - 1)

    # -- scoring -----------------------------------------------------------

    def logprob_model(self, token: str, context: tuple) -> float:
        """log10 p(token | context) over model tokens."""
        w = token if token in self._vocab_set else UNK
        ctx = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self._lookup(w, ctx)

    def _lookup(self, w, ctx):
        k = len(ctx) + 1
        if k == 1:
            return self.probs[1][(w,)]
        entry = self.probs[k].get(ctx + (w,))
        if entry is not None:
            return entry
        alpha = self.backoffs[k].get(ctx, 0.0)
        return alpha + self._lookup(w, ctx[1:])

    def end_logprob(self, context: tuple) -> float:
        return self.logprob_model(EOS, context)


def good_turing(table: CountTable, eps: float = EPS_FALLBACK) -> NGramModel:
    """Build the smoothed backoff model from a count table.

    Discounting per order is Simple Good-Turing where the table allows
    it; the unseen mass N_1/N flows to unseen events in proportion to
    the next model down, ending in a uniform distribution over the
    vocabulary.
    """
    vocab = list(table.vocab)
    vsize = len(vocab)
    smoothers = {}
    warnings = []
    for k in range(1, table.order + 1):
        sm = _Smoother(FreqOfFreq(table.counts[k]), eps)
        smoothers[k] = sm
        if sm.warning:
            warnings.append("%d:%s" % (k, sm.warning))

    probs = {}
    backoffs = {}

    # Unigrams: seen tokens take discounted mass, the unseen share the rest
    # uniformly (the uniform distribution is the base of the recursion).
    sm = smoothers[1]
    uni = table.counts[1]
    denom = table.n_tokens(1)
    seen_ps = {}
    for (w,), c in uni.items():
        seen_ps[w] = sm.seen_prob(c, denom, len(uni), vsize)
    unseen = [w for w in vocab if w not in seen_ps]
    rest = 1.0 - sum(seen_ps.values())
    if unseen:
        share = rest / len(unseen)
        for w in unseen:
            seen_ps[w] = share
    else:
        scale = 1.0 / sum(seen_ps.values())
        seen_ps = {w: p * scale for w, p in seen_ps.items()}
    probs[1] = {(w,): math.log10(p) for w, p in seen_ps.items()}
    lower_linear = seen_ps  # {token: prob}, full vocabulary

    for k in range(2, table.order + 1):
        sm = smoothers[k]
        grams = table.counts[k]
        by_hist = {}
        for gram, c in grams.items():
            by_hist.setdefault(gram[:-1], []).append((gram[-1], c))
        level = {}
        alphas = {}
        next_linear_cache = {}
        for hist in sorted(by_hist):
            pairs = by_hist[hist]
            denom = sum(c for _w, c in pairs)
            ps = {w: sm.seen_prob(c, denom, len(pairs), vsize) for w, c in pairs}
            total_seen = sum(ps.values())
            if total_seen >= 1.0 - 1e-9:
                # Numerical guard: leave a sliver for unseen events so
                # strict positivity survives aggressive smoothing.
                scale = (1.0 - 1e-9) / total_seen
                ps = {w: p * scale for w, p in ps.items()}
                total_seen = 1.0 - 1e-9
            leftover = 1.0 - total_seen
            seen_lower = sum(_linear_prob(lower_linear, probs, backoffs, k - 1, w, hist[1:])
                             for w in ps)
            d = 1.0 - seen_lower
            alphas[hist] = math.log10(leftover) - math.log10(d)
            for w, p in ps.items():
                level[hist + (w,)] = math.log10(p)
        probs[k] = level
        backoffs[k] = alphas
        lower_linear = None  # only the unigram level keeps a dense map

    return NGramModel(table.order, vocab, probs, backoffs, table.classify,
                      table.known, table.mode,
                      {k: smoothers[k].unseen_mass for k in smoothers},
                      warnings)


def _linear_prob(uni_linear, probs, backoffs, k, w, ctx):
    """Linear-space p(w | ctx) against the already-built order-k level."""
    if k == 1:
        if uni_linear is not None:
            return uni_linear[w]
        return 10.0 ** probs[1][(w,)]
    entry = probs[k].get(tuple(ctx) + (w,))
    if entry is not None:
        return 10.0 ** entry
    alpha = backoffs[k].get(tuple(ctx), 0.0)
    return 10.0 ** alpha * _linear_prob(uni_linear, probs, backoffs, k - 1, w, ctx[1:])


def logprob(model: NGramModel, token: str, history) -> float:
    """log10 p(token | history) for surface tokens."""
    ctx = tuple(model.model_token(t) for t in history)
    return model.logprob_model(model.model_token(token), ctx)


def sentence_logprob(model: NGramModel, tokens) -> float:
    """log10 probability of a padded token sequence.

    Tokens are surface forms: words for word models, characters (with
    spaces already turned into boundary marks) for letter models.
    """
    if isinstance(tokens, str):
        tokens = tokens.split()
    ctx = list(model.start_context())
    total = 0.0
    for t in list(tokens) + [EOS]:
        mt = t if t == EOS else model.model_token(t)
        total += model.logprob_model(mt, tuple(ctx))
        if model.order > 1:
            ctx = (ctx + [mt])[-(model.order - 1):]
    return total


# ---------------------------------------------------------------------------
# Model files:
#   NGRAM v1 order=<k> vocab=<V>
#   \meta ...            flags and per-order unseen mass
#   \known               one known word per line (word models only)
#   \1-grams ... \k-grams    <log10p> <tokens...> [<backoff>]
#   \end

def save(model: NGramModel, fp):
    if not any(w not in (BOS, EOS, UNK) for w in model.vocab):
        raise ModelError("refusing to save a model with an empty vocabulary")
    fp.write("NGRAM v1 order=%d vocab=%d\n" % (model.order, len(model.vocab)))
    mass = ",".join("%d:%s" % (k, repr(v)) for k, v in sorted(model.unseen_mass.items()))
    fp.write("\\meta mode=%s classify=%d warnings=%s unseen=%s\n"
             % (model.mode, int(model.classify), ",".join(model.warnings), mass))
    if model.known:
        fp.write("\\known\n")
        for w in sorted(model.known):
            fp.write(w + "\n")
    for k in range(1, model.order + 1):
        fp.write("\\%d-grams\n" % k)
        level = model.probs[k]
        backs = model.backoffs.get(k + 1, {})
        for gram in sorted(level):
            parts = [repr(level[gram])] + list(gram)
            if k < model.order and gram in backs:
                parts.append(repr(backs[gram]))
            fp.write(" ".join(parts) + "\n")
        # Histories can carry backoff weights without being stored
        # n-grams themselves (they always are here, but keep load simple).
    fp.write("\\end\n")


def load(fp) -> NGramModel:
    header = fp.readline().split()
    if len(header) != 4 or header[0] != "NGRAM" or header[1] != "v1":
        raise ModelError("bad model header")
    try:
        order = int(header[2].split("=", 1)[1])
        vsize = int(header[3].split("=", 1)[1])
    except (IndexError, ValueError):
        raise ModelError("bad model header")
    meta = fp.readline().split()
    if not meta or meta[0] != "\\meta":
        raise ModelError("missing meta line")
    fields = dict(f.split("=", 1) for f in meta[1:] if "=" in f)
    mode = fields.get("mode", "words")
    classify = fields.get("classify", "1") == "1"
    warnings = tuple(w for w in fields.get("warnings", "").split(",") if w)
    unseen = {}
    for item in fields.get("unseen", "").split(","):
        if item:
            k, _, v = item.partition(":")
            unseen[int(k)] = float(v)

    known = set()
    probs = {k: {} for k in range(1, order + 1)}
    backoffs = {k: {} for k in range(2, order + 1)}
    section = None
    ended = False
    for line in fp:
        line = line.rstrip("\n")
        if not line:
            continue
        if line == "\\end":
            ended = True
            break
        if line == "\\known":
            section = "known"
            continue
        if line.startswith("\\") and line.endswith("-grams"):
            section = int(line[1:-6])
            if section < 1 or section > order:
                raise ModelError("unexpected section %r" % line)
            continue
        if section == "known":
            known.add(line.strip())
            continue
        if section is None:
            raise ModelError("content before any section: %r" % line)
        parts = line.split(" ")
        k = section
        if len(parts) == k + 1:
            lp, gram = float(parts[0]), tuple(parts[1:])
        elif len(parts) == k + 2 and k < order:
            lp, gram = float(parts[0]), tuple(parts[1:-1])
            backoffs[k + 1][gram] = float(parts[-1])
        else:
            raise ModelError("bad %d-gram line: %r" % (k, line))
        probs[k][gram] = lp
    if not ended:
        raise ModelError("truncated model file (missing \\end)")
    vocab = sorted({g[0] for g in probs[1]})
    if len(vocab) != vsize:
        raise ModelError("vocab size mismatch: header %d, file %d" % (vsize, len(vocab)))
    return NGramModel(order, vocab, probs, backoffs, classify, known, mode,
                      unseen, warnings)
