"""Decision-tree article insertion for article-free English text.

Training data comes straight from ordinary English: every article is
deleted and becomes a labelled instance (DEF for "the", INDEF for
"a"/"an"), and every bare noun-phrase slot becomes a NONE instance.
Features are computed over the stripped text only, so the trained tree
can run on generator output that never had articles.  Induction is
greedy information gain over categorical features with a default branch
for unseen values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .ngram import _sum
from .records import records

__all__ = [
    "PosteditError",
    "NounLexicon",
    "load_noun_lexicon",
    "ArticleInstance",
    "prepare",
    "DecisionTree",
    "train_tree",
    "classify",
    "insert_articles",
    "evaluate",
    "save_tree",
    "load_tree",
    "write_instances",
    "read_instances",
    "FEATURES",
    "LABELS",
]

LABELS = ("DEF", "INDEF", "NONE")
ARTICLES = {"the": "DEF", "a": "INDEF", "an": "INDEF"}
DETERMINERS = {
    "this", "that", "these", "those", "my", "your", "his", "her", "its",
    "our", "their", "some", "any", "no", "each", "every",
}
SENTENCE_ENDS = {".", "!", "?"}
MISSING = "<none>"

FEATURES = (
    "head",            # head noun (last noun of the run), lowercased
    "head_plural",     # yes/no from the noun lexicon
    "prev_word",       # word before the slot in stripped text
    "next_word",       # first word of the noun phrase
    "head_seen",       # head noun occurred earlier in the document
    "sent_initial",    # slot opens a sentence
)


class PosteditError(Exception):
    pass


class NounLexicon:
    """word -> kind, where kind is sg, pl, or adj."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def kind(self, word):
        return self.entries.get(word.lower())

    def is_noun(self, word):
        return self.kind(word) in ("sg", "pl")

    def in_phrase(self, word):
        return self.kind(word) in ("sg", "pl", "adj")


def load_noun_lexicon(fp) -> NounLexicon:
    entries = {}
    for lineno, line in records(fp):
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] not in ("sg", "pl", "adj"):
            raise PosteditError("noun lexicon line %d: expected word<TAB>sg|pl|adj" % lineno)
        entries[parts[0].lower()] = parts[1]
    return NounLexicon(entries)


@dataclass
class ArticleInstance:
    label: str
    features: dict
    position: int = -1     # slot position in the stripped token sequence
    article: str = ""      # surface form of the deleted article, if any


def _phrases(tokens, lexicon):
    """Maximal adjective*/noun runs containing at least one noun.

    Yields (start, end, head_index) over token positions.
    """
    i = 0
    n = len(tokens)
    while i < n:
        if lexicon.in_phrase(tokens[i]):
            j = i
            head = None
            while j < n and lexicon.in_phrase(tokens[j]):
                if lexicon.is_noun(tokens[j]):
                    head = j
                j += 1
            if head is not None:
                yield (i, head, j)
            i = j
        else:
            i += 1


def _features_at(stripped, start, head, lexicon, seen_heads):
    headword = stripped[head].lower()
    prev = stripped[start - 1].lower() if start > 0 else MISSING
    return {
        "head": headword,
        "head_plural": "yes" if lexicon.kind(stripped[head]) == "pl" else "no",
        "prev_word": prev,
        "next_word": stripped[start].lower(),
        "head_seen": "yes" if headword in seen_heads else "no",
        "sent_initial": "yes" if start == 0 or stripped[start - 1] in SENTENCE_ENDS else "no",
    }


def prepare(corpus, lexicon: NounLexicon):
    """Strip articles and collect labelled instances.

    corpus: an iterable of documents, each a whitespace-tokenized line.
    Returns (stripped documents, instances).  Features are computed from
    the stripped text only; stripping keeps every non-article token, so
    the original is recoverable from the stripped text plus instances.
    """
    docs = [d.split() if isinstance(d, str) else list(d) for d in corpus]
    docs = [d for d in docs if d]
    if not docs:
        raise PosteditError("empty corpus")
    stripped_docs = []
    instances = []
    for doc in docs:
        stripped = []
        deleted = {}  # stripped position -> article surface
        for tok in doc:
            if tok.lower() in ARTICLES:
                deleted[len(stripped)] = tok
            else:
                stripped.append(tok)
        seen_heads = set()
        occupied = set()
        for (start, head, _end) in _phrases(stripped, lexicon):
            feats = _features_at(stripped, start, head, lexicon, seen_heads)
            seen_heads.add(stripped[head].lower())
            occupied.add(start)
            if start in deleted:
                label = ARTICLES[deleted[start].lower()]
                instances.append(ArticleInstance(label, feats, start, deleted[start]))
            elif start > 0 and stripped[start - 1].lower() in DETERMINERS:
                continue  # determiner already fills the slot
            else:
                instances.append(ArticleInstance("NONE", feats, start))
        # Articles stranded away from any detected phrase still train the
        # tree; their features describe the slot as best we can.
        for pos in sorted(deleted):
            if pos not in occupied:
                feats = {
                    "head": stripped[pos].lower() if pos < len(stripped) else MISSING,
                    "head_plural": "no",
                    "prev_word": stripped[pos - 1].lower() if pos > 0 else MISSING,
                    "next_word": stripped[pos].lower() if pos < len(stripped) else MISSING,
                    "head_seen": "no",
                    "sent_initial": "yes" if pos == 0 or stripped[pos - 1] in SENTENCE_ENDS else "no",
                }
                instances.append(ArticleInstance(ARTICLES[deleted[pos].lower()], feats,
                                                 pos, deleted[pos]))
        stripped_docs.append(stripped)
    return stripped_docs, instances


# ---------------------------------------------------------------------------
# decision tree

@dataclass
class DecisionTree:
    feature: str = None
    branches: dict = field(default_factory=dict)  # value -> DecisionTree
    default: str = None  # branch value used for unseen feature values
    counts: Counter = field(default_factory=Counter)  # label distribution here

    @property
    def is_leaf(self):
        return self.feature is None

    def majority(self):
        best = min(self.counts.items(), key=lambda kv: (-kv[1], LABELS.index(kv[0])))
        return best[0]


def _entropy(counts: Counter) -> float:
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def train_tree(instances, max_depth: int = 8) -> DecisionTree:
    """Greedy information-gain induction over categorical features.

    Splitting stops at zero gain or at the depth bound.  Gain ties break
    on the lexicographically first feature name.
    """
    instances = list(instances)
    if not instances:
        raise PosteditError("need at least one training instance")
    features = sorted({f for inst in instances for f in inst.features})
    return _grow(instances, features, max_depth)


def _grow(instances, features, depth):
    node = DecisionTree(counts=Counter(inst.label for inst in instances))
    if depth <= 0 or len(node.counts) == 1 or not features:
        return node
    base = _entropy(node.counts)
    total = len(instances)
    best = None
    for feat in features:
        groups = {}
        for inst in instances:
            groups.setdefault(inst.features.get(feat, MISSING), []).append(inst)
        if len(groups) < 2:
            continue
        rem = _sum(len(g) / total * _entropy(Counter(i.label for i in g))
                   for g in groups.values())
        gain = base - rem
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, feat, groups)
    if best is None:
        return node
    _gain, feat, groups = best
    node.feature = feat
    rest = [f for f in features if f != feat]
    for value, group in sorted(groups.items()):
        node.branches[value] = _grow(group, rest, depth - 1)
    node.default = max(sorted(groups), key=lambda v: len(groups[v]))
    return node


def classify(tree: DecisionTree, features: dict) -> str:
    node = tree
    while not node.is_leaf:
        value = features.get(node.feature, MISSING)
        node = node.branches.get(value) or node.branches[node.default]
    return node.majority()


def evaluate(tree: DecisionTree, instances) -> float:
    instances = list(instances)
    if not instances:
        raise PosteditError("empty held-out set")
    hits = sum(1 for inst in instances if classify(tree, inst.features) == inst.label)
    return hits / len(instances)


_VOWELS = "aeiou"


def insert_articles(tokens, tree: DecisionTree, lexicon: NounLexicon):
    """Insert the/a/an into article-free tokenized text.

    Slots are the starts of noun phrases not already preceded by a
    determiner; INDEF renders as "an" before a vowel-initial word.
    """
    if isinstance(tokens, str):
        tokens = tokens.split()
    inserts = {}
    seen_heads = set()
    for (start, head, _end) in _phrases(tokens, lexicon):
        feats = _features_at(tokens, start, head, lexicon, seen_heads)
        seen_heads.add(tokens[head].lower())
        if start > 0 and tokens[start - 1].lower() in DETERMINERS:
            continue
        label = classify(tree, feats)
        if label == "DEF":
            inserts[start] = "the"
        elif label == "INDEF":
            inserts[start] = "an" if tokens[start][:1].lower() in _VOWELS else "a"
    out = []
    for i, tok in enumerate(tokens):
        if i in inserts:
            out.append(inserts[i])
        out.append(tok)
    return out


# ---------------------------------------------------------------------------
# file formats

def save_tree(tree: DecisionTree, fp):
    """Write the tree as indented lines, two spaces a level, that load_tree
    reads.  Subtrees wait on a work stack, so any depth works."""
    stack = [(tree, 0, "")]  # (subtree, indent, the value line before it)
    while stack:
        tree, indent, head = stack.pop()
        pad = "  " * indent
        dist = " ".join("%s:%d" % (label, tree.counts.get(label, 0)) for label in LABELS)
        if tree.is_leaf:
            fp.write("%s%sleaf %s\n" % (head, pad, dist))
            continue
        fp.write("%s%snode %s default=%s %s\n" % (head, pad, tree.feature, tree.default, dist))
        for value in reversed(sorted(tree.branches)):
            stack.append((tree.branches[value], indent + 2,
                          "%svalue %s\n" % ("  " * (indent + 1), value)))


def load_tree(fp) -> DecisionTree:
    """Read what save_tree writes; any malformed line raises PosteditError.
    Nodes wait for their value lines on a work stack, so any depth works."""
    lines = [(lineno, (len(raw) - len(raw.lstrip(" "))) // 2, raw.split())
             for lineno, raw in enumerate(fp, start=1) if raw.strip()]
    if not lines:
        raise PosteditError("empty tree file")

    def read_tree(i, depth):
        """The leaf or node that lines[i] opens."""
        lineno, d, parts = lines[i]
        is_leaf = parts[0] == "leaf"
        is_node = parts[0] == "node" and len(parts) >= 3 and parts[2].startswith("default=")
        counts = Counter()
        for item in parts[1 if is_leaf else 3:]:
            label, _, num = item.partition(":")
            if label not in LABELS or not num.isdecimal():
                raise PosteditError("tree line %d: bad label count %r" % (lineno, item))
            counts[label] = int(num)
        if d != depth or not (is_leaf or is_node) or not counts:
            raise PosteditError("tree line %d: expected 'leaf COUNTS' or 'node FEATURE"
                                " default=VALUE COUNTS' at depth %d" % (lineno, depth))
        if is_leaf:
            return DecisionTree(counts=counts)
        return DecisionTree(feature=parts[1], default=parts[2][len("default="):], counts=counts)

    tree = read_tree(0, 0)
    i = 1
    stack = [] if tree.is_leaf else [(tree, 0)]  # nodes still reading value lines
    while stack:
        node, depth = stack[-1]
        if i < len(lines) and lines[i][1] == depth + 1 and lines[i][2][0] == "value":
            if len(lines[i][2]) != 2 or i + 1 == len(lines):
                raise PosteditError("tree line %d: expected 'value V' and a subtree" % lines[i][0])
            child = node.branches[lines[i][2][1]] = read_tree(i + 1, depth + 2)
            i += 2
            if not child.is_leaf:
                stack.append((child, depth + 2))
        else:
            stack.pop()
            if node.default not in node.branches:
                raise PosteditError("tree node %s: default=%s is not one of its values"
                                    % (node.feature, node.default))
    if i != len(lines):
        raise PosteditError("tree line %d: trailing content" % lines[i][0])
    return tree


def write_instances(instances, fp):
    fp.write("label\t" + "\t".join(FEATURES) + "\n")
    for inst in instances:
        fp.write(inst.label + "\t" + "\t".join(inst.features.get(f, MISSING)
                                               for f in FEATURES) + "\n")


def read_instances(fp):
    header = fp.readline().rstrip("\n").split("\t")
    if header[0] != "label":
        raise PosteditError("instances file must start with a label column")
    feats = header[1:]
    out = []
    for lineno, line in records(fp, start=2):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise PosteditError("instances line %d: wrong field count" % lineno)
        if parts[0] not in LABELS:
            raise PosteditError("instances line %d: unknown label %r" % (lineno, parts[0]))
        out.append(ArticleInstance(parts[0], dict(zip(feats, parts[1:]))))
    return out
