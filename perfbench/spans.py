"""Spans for the traced run, and the statistics the benchmark reports.

The tracer replaces public functions of gapfill modules with wrappers
that record one span per call.  gapfill calls across layers through
module attributes (``lattice.concat``, ``extract.nbest``), so a wrapper
installed on the module also sees the calls other layers make.  The
wrappers exist only inside ``Tracer.installed``; untraced runs execute
the unmodified program.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager

# ---------------------------------------------------------------------------
# statistics

MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest value with at least
    p percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples ranked strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def reportable_percentile(values, p):
    """The p-th percentile, refused unless at least MIN_BEYOND samples
    lie beyond it (so a single outlier cannot set it)."""
    if samples_beyond(len(values), p) < MIN_BEYOND:
        raise ValueError("%d samples leave fewer than %d beyond p%g"
                         % (len(values), MIN_BEYOND, p))
    return percentile(values, p)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# spans

NAME, START, END, PARENT, ITEM = range(5)


class Tracer:
    """In-memory span recorder.

    Each span is [name, start, end, parent index or -1, item id].  Spans
    are recorded only while ``recording`` is true, so output checks made
    between items leave no spans.  A call re-entering the function of
    its innermost open span (recursion) adds no span of its own.
    """

    def __init__(self):
        self.spans = []
        self.errors = Counter()  # module -> exceptions raised in it
        self.item = None
        self.recording = False
        self._open = []
        self._last_error = None

    def wrap(self, fn, module, name, name_of=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_name = name_of(name, args, kwargs) if name_of else name
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][NAME] == span_name:
                return fn(*args, **kwargs)
            rec = [span_name, time.perf_counter(), 0.0, parent, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # Count an exception once, in the innermost layer it
                # passed through, not again in every caller.
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[module] += 1
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each (module, attribute, name_of) target with a traced
        wrapper for the duration of the block, then restore the originals
        even if the block raises."""
        saved = []
        try:
            for module, attr, name_of in targets:
                original = getattr(module, attr)
                short = module.__name__.rsplit(".", 1)[-1]
                saved.append((module, attr, original))
                setattr(module, attr,
                        self.wrap(original, short, "%s.%s" % (short, attr), name_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """Per-span self time: its duration minus the union of the intervals
    its direct children cover (clipped to the span itself)."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            a = max(spans[c][START], reach)
            b = min(spans[c][END], end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Totals per span name, overall and per item:
    ({name: [self s, calls, inclusive s]}, {item: {name: [...]}})."""
    totals = {}
    per_item = {}
    for s, own in zip(spans, self_times(spans)):
        for acc in (totals.setdefault(s[NAME], [0.0, 0, 0.0]),
                    per_item.setdefault(s[ITEM], {}).setdefault(s[NAME], [0.0, 0, 0.0])):
            acc[0] += own
            acc[1] += 1
            acc[2] += s[END] - s[START]
    return totals, per_item
