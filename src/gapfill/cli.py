"""Batch command line: gloss, lm, extract, prefsem, translit, skipparse,
postedit, and demo subcommands.

Exit status: 0 success, 2 usage, 3 I/O, 4 file format, 5 domain error.
GAPFILL_SEED overrides the default random seeds.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import extract, fixtures, gloss, lattice, ngram, postedit, prefsem, skipparse, translit
from .records import record_lines

USAGE_STATUS = 2
IO_STATUS = 3
FORMAT_STATUS = 4
DOMAIN_STATUS = 5

# Errors raised while reading a file are format errors; errors raised by
# the algorithms afterwards are domain errors.
_FORMAT_ERRORS = (gloss.GlossError, lattice.LatticeError, ngram.ModelError,
                  prefsem.OntologyError, prefsem.InterlinguaError,
                  translit.TranslitError, skipparse.GrammarError,
                  postedit.PosteditError)


class _Fail(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


def _open_read(path):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as e:
        raise _Fail(IO_STATUS, "cannot read %s: %s" % (path, e.strerror))


def _write(args, writer, obj):
    """writer(obj, fp) into the -o file, or onto stdout without one."""
    if not args.output:
        writer(obj, sys.stdout)
        return
    try:
        out = open(args.output, "w", encoding="utf-8")
    except OSError as e:
        raise _Fail(IO_STATUS, "cannot write %s: %s" % (args.output, e.strerror))
    with out:
        writer(obj, out)


def _load(path, reader):
    with _open_read(path) as f:
        try:
            return reader(f)
        except _FORMAT_ERRORS as e:
            raise _Fail(FORMAT_STATUS, "%s: %s" % (path, e))
        except UnicodeDecodeError as e:
            if f.seekable():  # e.start counts from the decoder's chunk: find the line
                f.buffer.seek(0)
                list(_decoded_lines(f.buffer, path))  # raises at the bad line
            raise _Fail(FORMAT_STATUS, "%s: not UTF-8 text (%s)" % (path, e.reason))


def _decoded_lines(stream, name):
    """Lines of a binary stream as text mode splits them (universal
    newlines, each ending read as "\n"), decoded as strict UTF-8 whatever
    the locale.  A line that is not UTF-8 fails with exit 4, naming the
    stream, the line and the byte."""
    lineno = 0
    for chunk in stream:
        for raw in chunk.splitlines(keepends=True):
            lineno += 1
            body = raw.rstrip(b"\r\n")
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError as e:
                raise _Fail(FORMAT_STATUS, "%s line %d: not UTF-8 text (byte %d: %s)"
                            % (name, lineno, e.start, e.reason))
            yield text + "\n" if len(body) < len(raw) else text


def _seed(default):
    env = os.environ.get("GAPFILL_SEED")
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise _Fail(USAGE_STATUS, "GAPFILL_SEED must be an integer")


def _count(text):
    """argparse type of a count: an integer of 0 or more."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected an integer of 0 or more, got %r" % text)


def _tree_text(tree):
    """repr(tree) for nested non-empty tuples, from a work stack of text and
    tuples to expand: tuple repr recurses in C and fails near depth 1000."""
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        todo.append(",)" if len(node) == 1 else ")")
        for k in reversed(range(len(node))):
            todo.append(node[k] if isinstance(node[k], tuple) else repr(node[k]))
            todo.append(", " if k else "(")
    return "".join(out)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gloss(args):
    records = _load(args.input, gloss.parse_gloss_file)
    if len(records) != 1:
        raise _Fail(DOMAIN_STATUS, "%s: expected exactly one gloss record, found %d"
                    % (args.input, len(records)))
    lat = gloss.compile_gloss(records[0])
    table = _load(args.morph, gloss.load_plural_table) if args.morph else None
    _write(args, lattice.write_lattice, gloss.apply_morphology(lat, table))
    return 0


def _cmd_lm(args):
    if args.action == "train":
        corpus = _load(args.corpus, record_lines)
        model = ngram.good_turing(ngram.train(corpus, args.order))
        for warning in model.warnings:
            order, fallback = warning.split(":", 1)
            sys.stderr.write("gapfill: warning: order %s smoothing fallback %s\n"
                             % (order, fallback))
        _write(args, ngram.save, model)
        return 0
    model = _load(args.model, ngram.load)
    for line in _decoded_lines(sys.stdin.buffer, "<stdin>"):
        line = line.strip()
        if not line:
            continue
        score = ngram.sentence_logprob(model, line.split())
        sys.stdout.write("%s\t%s\n" % (repr(score), line))
    return 0


def _cmd_extract(args):
    model = _load(args.model, ngram.load)
    lat = _load(args.lattice, lattice.read_lattice)
    result = extract.nbest(lat, model, args.n, beam=args.beam)
    for sentence, score in result.ranked:
        sys.stdout.write("%s\t%s\n" % (repr(score), sentence))
    return 0


def _cmd_prefsem(args):
    onto = _load(args.ontology, prefsem.load_ontology)
    exprs = _load(args.exprs, prefsem.parse_interlingua_file)
    if args.action == "score":
        for expr in exprs:
            s = prefsem.score(expr, onto)
            sys.stdout.write("%s\t%s\n" % (repr(s.value), expr.root))
            for triple, kind, t in s.factors:
                sys.stdout.write("  %.2f  %s  <%s, %s, %s>\n"
                                 % (t, kind, triple.head, triple.relation, triple.filler))
    else:
        for expr, s in prefsem.rank(exprs, onto):
            sys.stdout.write("%s\t%s\n" % (repr(s.value), expr.root))
    return 0


def _cmd_translit(args):
    if args.action == "train":
        pairs = _load(args.pairs, translit.read_pairs)
        _write(args, translit.write_table, translit.train_table(pairs))
        return 0
    table = _load(args.table, translit.read_table)
    model = _load(args.lm, ngram.load)
    ranked = translit.back_transliterate(args.text, table, model, n=args.n, lam=args.lam)
    for s, score in ranked:
        sys.stdout.write("%s\t%s\n" % (repr(score), s))
    return 0


def _cmd_skipparse(args):
    grammar = _load(args.grammar, skipparse.load_grammar)
    if args.suspicion:
        table = _load(args.suspicion, skipparse.read_suspicion)
    elif args.parsed and args.unparsed:
        table = skipparse.suspicion_train(_load(args.parsed, record_lines),
                                          _load(args.unparsed, record_lines), grammar)
    else:
        table = skipparse.SuspicionTable({}, 0.0)
    budget = skipparse.SkipBudget(max_skips=args.max_skips)
    result = skipparse.skip_parse(args.tokens, grammar, table, budget)
    if result.budget_exhausted:
        sys.stdout.write("no parse: budget of %d candidates exhausted\n"
                         % budget.max_candidates)
        return 0
    if not result.ok:
        sys.stdout.write("no parse within %d skips (explored %d candidates)\n"
                         % (budget.max_skips, result.explored))
        return 0
    skipped = " ".join(args.tokens[i] for i in result.skipped) or "-"
    sys.stdout.write("skipped:\t%s\n" % skipped)
    sys.stdout.write("tree:\t%s\n" % _tree_text(result.tree))
    return 0


def _cmd_postedit(args):
    lexicon = _load(args.lexicon, postedit.load_noun_lexicon) if args.lexicon \
        else fixtures.noun_lexicon()
    if args.action == "train":
        _stripped, instances = postedit.prepare(_load(args.corpus, record_lines), lexicon)
        _write(args, postedit.save_tree, postedit.train_tree(instances))
        return 0
    tree = _load(args.tree, postedit.load_tree)
    if args.action == "eval":
        instances = _load(args.heldout, postedit.read_instances)
        sys.stdout.write("accuracy\t%s\n" % repr(postedit.evaluate(tree, instances)))
        return 0
    for line in _decoded_lines(sys.stdin.buffer, "<stdin>"):
        if not line.strip():
            sys.stdout.write(line)
            continue
        tokens = postedit.insert_articles(line.split(), tree, lexicon)
        sys.stdout.write(" ".join(tokens) + "\n")
    return 0


def _cmd_demo(args):
    try:
        if args.name in ("s3", "s8"):
            rand, rs, best, bs = fixtures.demo_pair(args.name, seed=_seed(None))
            sys.stdout.write("(random extractor)   log10 P = %.4f\n" % rs)
            sys.stdout.write("%s\n" % rand)
            sys.stdout.write("(bigram extractor)   log10 P = %.4f\n" % bs)
            sys.stdout.write("%s\n" % best)
            return 0
        table = fixtures.translit_table()
        model = fixtures.letter_model()
    except FileNotFoundError as e:
        raise _Fail(IO_STATUS, "missing bundled fixture: %s" % e)
    for text in ("kurinton", "suteppaa mootaa"):
        ranked = translit.back_transliterate(text, table, model, n=3)
        sys.stdout.write("%s\n" % text)
        for s, score in ranked:
            sys.stdout.write("  %-24s %.4f\n" % ('"%s"' % s, score))
    return 0


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gapfill",
                                description="statistical gap fillers for an MT pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gloss", help="compile a gloss file to a word lattice")
    gs = g.add_subparsers(dest="action", required=True)
    gc = gs.add_parser("compile")
    gc.add_argument("input")
    gc.add_argument("-o", "--output")
    gc.add_argument("--morph", help="TSV of irregular singular/plural pairs")
    gc.set_defaults(func=_cmd_gloss)

    lm = sub.add_parser("lm", help="train or apply an n-gram model")
    lms = lm.add_subparsers(dest="action", required=True)
    lt = lms.add_parser("train")
    lt.add_argument("corpus")
    lt.add_argument("--order", type=int, choices=(2, 3), default=2)
    lt.add_argument("-o", "--output")
    lt.set_defaults(func=_cmd_lm)
    lsc = lms.add_parser("score")
    lsc.add_argument("model")
    lsc.set_defaults(func=_cmd_lm)

    ex = sub.add_parser("extract", help="n-best paths from a lattice")
    ex.add_argument("lattice")
    ex.add_argument("--model", required=True)
    ex.add_argument("--n", type=int, default=5)
    ex.add_argument("--beam", type=int, default=None)
    ex.set_defaults(func=_cmd_extract)

    ps = sub.add_parser("prefsem", help="score or rank interlingua expressions")
    pss = ps.add_subparsers(dest="action", required=True)
    for name in ("score", "rank"):
        sp = pss.add_parser(name)
        sp.add_argument("exprs")
        sp.add_argument("--ontology", required=True)
        sp.set_defaults(func=_cmd_prefsem)

    tr = sub.add_parser("translit", help="back-transliterate romanized katakana")
    trs = tr.add_subparsers(dest="action", required=True)
    tt = trs.add_parser("train")
    tt.add_argument("pairs")
    tt.add_argument("-o", "--output")
    tt.set_defaults(func=_cmd_translit)
    td = trs.add_parser("decode")
    td.add_argument("text")
    td.add_argument("--table", required=True)
    td.add_argument("--lm", required=True)
    td.add_argument("--n", type=int, default=5)
    td.add_argument("--lam", type=float, default=0.5)
    td.set_defaults(func=_cmd_translit)

    sk = sub.add_parser("skipparse", help="parse with word skipping")
    sk.add_argument("tokens", nargs="+")
    sk.add_argument("--grammar", required=True)
    sk.add_argument("--suspicion", help="suspicion table TSV")
    sk.add_argument("--parsed", help="parsed corpus, to train suspicion on the fly")
    sk.add_argument("--unparsed", help="unparsed corpus, to train suspicion on the fly")
    sk.add_argument("--max-skips", type=_count, default=3)
    sk.set_defaults(func=_cmd_skipparse)

    pe = sub.add_parser("postedit", help="article insertion")
    pes = pe.add_subparsers(dest="action", required=True)
    pt = pes.add_parser("train")
    pt.add_argument("corpus")
    pt.add_argument("-o", "--output")
    pt.add_argument("--lexicon")
    pt.set_defaults(func=_cmd_postedit)
    pr = pes.add_parser("run")
    pr.add_argument("tree")
    pr.add_argument("--lexicon")
    pr.set_defaults(func=_cmd_postedit)
    pv = pes.add_parser("eval")
    pv.add_argument("tree")
    pv.add_argument("heldout")
    pv.add_argument("--lexicon")
    pv.set_defaults(func=_cmd_postedit)

    dm = sub.add_parser("demo", help="reproduce the bundled showcase outputs")
    dm.add_argument("name", choices=("s3", "s8", "translit"))
    dm.set_defaults(func=_cmd_demo)

    return p


def dispatch(argv) -> int:
    """Run one subcommand; returns the exit status instead of exiting."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_STATUS if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Fail as e:
        sys.stderr.write("gapfill: %s\n" % e)
        return e.status
    except _FORMAT_ERRORS + (extract.ExtractError,) as e:
        sys.stderr.write("gapfill: %s\n" % e)
        return DOMAIN_STATUS


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
