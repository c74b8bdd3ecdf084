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
from itertools import chain

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
# Word models classify a capitalized token as NAME unless its lowercase
# form occurs at least this often in the training corpus.
KNOWN_MIN_COUNT = 2
# Significance threshold (in standard errors) for switching from raw
# Turing estimates to the regressed ones.
SWITCH_SIGMAS = 1.65


def _sum(values):
    """Left-to-right float sum; from Python 3.12 on, sum() compensates rounding."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    """Token lists of the corpus.  A str sentence splits at whitespace; a
    tuple or list sentence is taken as it is, so each of its distinct
    tokens is checked once: a model file cannot hold an empty token or
    one with whitespace in it."""
    sents, listed = [], []
    for item in corpus:
        if isinstance(item, str):
            toks = item.split()
            if not toks and not item:
                continue  # blank line
            sents.append(toks)
        else:
            sents.append(list(item))
            listed.append(sents[-1])
    for t in dict.fromkeys(chain.from_iterable(listed)):
        if t.split() != [t]:
            raise ModelError("token %r is empty or holds whitespace" % (t,))
    return sents


class CountTable:
    """Raw n-gram counts over classified tokens, all orders 1..order.

    Unigram counts exclude the start pad (it is never a continuation).
    """

    def __init__(self, order, counts, vocab, known, mode, sentence_count):
        self.order = order
        self.counts = counts  # {k: Counter over k-tuples}
        self.vocab = vocab  # sorted tuple, includes BOS/EOS/UNK
        self.known = known
        self.mode = mode
        self.sentence_count = sentence_count

    def n_tokens(self, k=None) -> int:
        k = self.order if k is None else k
        return sum(self.counts[k].values())


def train(corpus, order, mode="words") -> CountTable:
    """Count n-grams of all orders up to `order` over a tokenized corpus.

    A word model counts classified tokens (classify_token).  Its
    known-word list is the corpus's own lowercase vocabulary at or above
    KNOWN_MIN_COUNT, computed in a first pass.  A letter model counts its
    tokens as they are.

    Each sentence is padded with order-1 BOS marks and one EOS.  The order
    in which each counter's keys first appear is part of the output:
    sentence by sentence, left to right through the padded stream.
    good_turing sums probabilities in that order, so it reaches the bytes
    of a saved model.

    Refuses (ModelError) what a saved model could not hold: an empty
    token or one with whitespace, and a known word that reads as a
    section line such as `\\end`.
    """
    if order < 2:
        raise ModelError("order must be at least 2")
    sents = _as_sentences(corpus)
    if not sents:
        raise ModelError("empty corpus")

    known = frozenset()
    pad = [BOS] * (order - 1)
    end = [EOS]
    if mode == "words":
        surface = Counter(chain.from_iterable(sents))
        low = Counter()
        for t, c in surface.items():
            low[t.lower()] += c
        known = frozenset(w for w, c in low.items() if c >= KNOWN_MIN_COUNT)
        # load would read these known words as section lines.
        marks = sorted(w for w in known if w in ("\\end", "\\known")
                       or (w[:1] == "\\" and w.endswith("-grams")))
        if marks:
            raise ModelError("known word %r reads as a section line of a model file"
                             % marks[0])
        model_token = {t: classify_token(t, known) for t in surface}.__getitem__
        streams = [pad + list(map(model_token, s)) + end for s in sents]
    else:
        streams = [pad + s + end for s in sents]

    tokens = Counter(chain.from_iterable(streams))
    vocab = tuple(sorted({*tokens, UNK}))
    del tokens[BOS]  # the start pad is never a continuation
    counts = {1: Counter({(w,): c for w, c in tokens.items()})}
    for k in range(2, order + 1):
        counts[k] = Counter(chain.from_iterable(
            zip(*[s[i:] for i in range(k)]) for s in streams))
    return CountTable(order, counts, vocab, known, mode, len(sents))


class FreqOfFreq:
    """Frequency-of-frequency table N_r with its log-log regression."""

    def __init__(self, counter):
        self.n_r = Counter(counter.values())
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
            mx = _sum(xs) / n
            my = _sum(ys) / n
            denom = _sum((x - mx) ** 2 for x in xs)
            if denom == 0.0:
                raise ModelError("regression needs two distinct count ranks")
            b = _sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
            self._fit = (my - b * mx, b)
        return self._fit

    def smoothed(self, r: int) -> float:
        """N_r on the line fit() regresses on raw log10 N_r, for all r >= 1."""
        a, b = self.fit()
        return 10.0 ** (a + b * math.log10(r))


class _Smoother:
    """Per-order discounting policy derived from a FreqOfFreq table."""

    def __init__(self, fof: FreqOfFreq):
        self.fof = fof
        self.warning = None
        n = fof.total
        if fof.n_1 == 0:
            self.mode = "add-eps"
            self.warning = "no-singletons"
            self.unseen_mass = EPS_FALLBACK
            return
        if len(fof.ranks) < 2:
            # All n-grams are singletons; raw GT would zero them out.
            self.mode = "held-out"
            self.warning = "degenerate-ranks"
            self.unseen_mass = EPS_FALLBACK
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
        seen = _sum(fof.n_r[r] * adjusted[r] for r in fof.ranks)
        scale = (1.0 - self.unseen_mass) * fof.total / seen
        return {r: c * scale for r, c in adjusted.items()}

    def seen_probs(self, counts, denom: int, vocab_size: int) -> list:
        """Discounted conditional probabilities of seen events, one per count."""
        if self.mode == "sgt":
            adjusted = self._adjusted
            return [adjusted[c] / denom for c in counts]
        if self.mode == "held-out":
            seen = 1.0 - self.unseen_mass
            return [seen * c / denom for c in counts]
        # add-eps
        total = denom + EPS_FALLBACK * vocab_size
        return [(c + EPS_FALLBACK) / total for c in counts]


class NGramModel:
    """Smoothed conditional model with per-history backoff weights.

    probs[k] maps seen k-grams to log10 conditional probabilities;
    backoffs[k] maps (k-1)-token histories to log10 backoff weights.
    Unigram probabilities cover the whole vocabulary.
    """

    def __init__(self, order, vocab, probs, backoffs, known, mode, unseen_mass, warnings):
        self.order = order
        self.vocab = tuple(vocab)
        self._vocab_set = frozenset(vocab)
        self.probs = probs
        self.backoffs = backoffs
        self.known = frozenset(known)
        self.mode = mode
        self.unseen_mass = dict(unseen_mass)  # {order: fraction}
        self.warnings = tuple(warnings)

    # -- token plumbing ----------------------------------------------------

    def model_token(self, surface: str) -> str:
        if self.mode == "words":
            return classify_token(surface, self.known)
        return surface

    def tokens_for(self, tok):
        """Model tokens consumed by one lattice transition."""
        if tok.kind == L.EMPTY:
            return []
        if self.mode == "letters":
            if tok.kind == L.FRAG:
                return letters(tok.text)
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
        ctx = tuple(context)[-(self.order - 1):]
        return self._lookup(w, ctx)

    def advance(self, context: tuple, tokens):
        """One LM step: (increments, next context) for model tokens read
        left to right after `context`, a tuple of order - 1 model tokens.

        Each increment is log10 p(token | context so far).  A token outside
        the vocabulary scores as <unk> but enters the next context as
        itself, so an unknown word backs off to the history it leaves,
        not to <unk>'s.
        """
        vocab, lookup = self._vocab_set, self._lookup
        incs = []
        for t in tokens:
            incs.append(lookup(t if t in vocab else UNK, context))
            context = context[1:] + (t,)
        return incs, context

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
        """log10 p(</s> | context), context a tuple of order - 1 model tokens."""
        return self.advance(context, (EOS,))[0][0]


def good_turing(table: CountTable) -> NGramModel:
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
        sm = _Smoother(FreqOfFreq(table.counts[k]))
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
    seen_ps = dict(zip([g[0] for g in uni], sm.seen_probs(uni.values(), denom, vsize)))
    unseen = [w for w in vocab if w not in seen_ps]
    rest = 1.0 - _sum(seen_ps.values())
    if unseen:
        share = rest / len(unseen)
        for w in unseen:
            seen_ps[w] = share
    else:
        scale = 1.0 / _sum(seen_ps.values())
        seen_ps = {w: p * scale for w, p in seen_ps.items()}
    probs[1] = {(w,): math.log10(p) for w, p in seen_ps.items()}
    uni_linear = seen_ps  # {token: prob}, full vocabulary

    log10 = math.log10
    for k in range(2, table.order + 1):
        seen_probs = smoothers[k].seen_probs
        grams = table.counts[k]
        lower = probs[k - 1]
        by_hist = {}
        for gram in grams:
            by_hist.setdefault(gram[:-1], []).append(gram)
        level = {}
        alphas = {}
        for hist in sorted(by_hist):
            if hist not in lower:
                # save writes a backoff weight on its history's line only.
                raise ModelError("order %d counts after %r lack a stored history" % (k, hist))
            members = by_hist[hist]
            cs = list(map(grams.__getitem__, members))
            denom = sum(cs)
            ps = seen_probs(cs, denom, vsize)
            total_seen = _sum(ps)
            if total_seen >= 1.0 - 1e-9:
                # Numerical guard: leave a sliver for unseen events so
                # strict positivity survives aggressive smoothing.
                scale = (1.0 - 1e-9) / total_seen
                ps = [p * scale for p in ps]
                total_seen = 1.0 - 1e-9
            leftover = 1.0 - total_seen
            # Each seen k-gram's suffix is a seen (k-1)-gram of the same
            # stream, so the lower order needs no backoff here.
            try:
                if k == 2:
                    seen_lower = _sum([uni_linear[g[1]] for g in members])
                else:
                    seen_lower = _sum([10.0 ** lower[g[1:]] for g in members])
            except KeyError:
                raise ModelError("order %d counts after %r lack a lower-order suffix"
                                 % (k, hist))
            d = 1.0 - seen_lower
            alphas[hist] = log10(leftover) - log10(d)
            level.update(zip(members, map(log10, ps)))
        probs[k] = level
        backoffs[k] = alphas

    return NGramModel(table.order, vocab, probs, backoffs, table.known, table.mode,
                      {k: smoothers[k].unseen_mass for k in smoothers}, warnings)


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
    mtoks = [t if t == EOS else model.model_token(t) for t in tokens]
    incs, _ctx = model.advance(model.start_context(), mtoks + [EOS])
    return _sum(incs)


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
             % (model.mode, int(model.mode == "words"), ",".join(model.warnings), mass))
    if model.known:
        fp.write("\\known\n" + "".join(w + "\n" for w in sorted(model.known)))
    for k in range(1, model.order + 1):
        level = model.probs[k]
        backs = model.backoffs.get(k + 1, {})
        fp.write("\\%d-grams\n" % k + "".join(
            "%r %s %r\n" % (level[gram], " ".join(gram), backs[gram]) if gram in backs
            else "%r %s\n" % (level[gram], " ".join(gram))
            for gram in sorted(level)))
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
    if order < 2:
        raise ModelError("order must be at least 2")
    meta = fp.readline().split()
    if not meta or meta[0] != "\\meta":
        raise ModelError("missing meta line")
    fields = dict(f.split("=", 1) for f in meta[1:] if "=" in f)
    mode = fields.get("mode", "words")
    if mode not in ("words", "letters"):
        raise ModelError("unknown model mode %r" % mode)
    if mode == "words" and fields.get("classify", "1") != "1":
        raise ModelError("word models always classify tokens (classify=%s)" % fields["classify"])
    warnings = tuple(w for w in fields.get("warnings", "").split(",") if w)
    unseen = {}
    for item in fields.get("unseen", "").split(","):
        if item:
            k, _, v = item.partition(":")
            try:
                unseen[int(k)] = float(v)
            except ValueError:
                raise ModelError("bad unseen mass %r" % item)

    known = set()
    probs, backoffs = {}, {}  # each level's tables appear with its section line
    section = None
    ended = False
    for line in fp:
        line = line.rstrip("\n")
        if not line:
            continue
        if line[0] == "\\":
            if line == "\\end":
                ended = True
                break
            if line == "\\known":
                section = "known"
                continue
            if line.endswith("-grams"):
                section = int(line[1:-6]) if line[1:-6].isdecimal() else 0
                if section < 1 or section > order:
                    raise ModelError("unexpected section %r" % line)
                level = probs.setdefault(section, {})
                backs = backoffs.setdefault(section + 1, {}) if section < order else None
                width = section + 1
                continue
        if section == "known":
            known.add(line.strip())
            continue
        if section is None:
            raise ModelError("content before any section: %r" % line)
        parts = line.split(" ")
        try:
            if len(parts) == width:
                level[tuple(parts[1:])] = float(parts[0])
            elif len(parts) == width + 1 and backs is not None:
                gram = tuple(parts[1:-1])
                backs[gram] = float(parts[-1])
                level[gram] = float(parts[0])
            else:
                raise ValueError
        except ValueError:
            raise ModelError("bad %d-gram line: %r" % (section, line))
    if not ended:
        raise ModelError("truncated model file (missing \\end)")
    if len(probs) < order:
        missing = next(k for k in range(1, order + 1) if k not in probs)
        raise ModelError("missing \\%d-grams section" % missing)
    for level in (unseen, *probs.values(), *backoffs.values()):
        if not all(map(math.isfinite, level.values())):
            raise ModelError("model file holds a non-finite number")
    vocab = sorted({g[0] for g in probs[1]})
    if len(vocab) != vsize:
        raise ModelError("vocab size mismatch: header %d, file %d" % (vsize, len(vocab)))
    for token in (BOS, EOS, UNK):
        if (token,) not in probs[1]:
            raise ModelError("model lacks the %s unigram" % token)
    return NGramModel(order, vocab, probs, backoffs, known, mode, unseen, warnings)
