"""gapfill benchmark: one seeded batch workload per invocation.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 18 --trace 0

Run from the root of a gapfill checkout.  Each run is a closed loop: one
caller, one thread, each item submitted after the previous one returns.
The clock runs only while an item is in flight; output checks between
items are off the clock.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from a traced replay of the same items.  The line before
it records the machine, the Python version, the commit and the models'
smoothing warnings.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ITEMS = 100      # so that ten samples lie beyond the 90th percentile
SETUP_SAMPLES = 5    # set-ups per run (one here, the rest in fresh processes)
SETUP_PROBES = 5     # speed probes before and after each set-up
PROBE_TIMEOUT_S = 60
CHUNK = 500          # items generated at a time, off the clock
# Seconds one speed_probe() takes on the reference machine (a 2-vCPU
# Intel Xeon VM, Python 3.11, while no other tenant slowed it).  Item and
# set-up times are reported at this speed; see speed_factor.
PROBE_REF_S = 0.25e-3
SAMPLE_EVERY_S = 0.01  # wall time between speed probes while an item runs
# An item whose previous item's probe ended at most this long before it
# starts (its output check was quick) reuses that probe as its own.
PROBE_REUSE_S = 0.001
WORKLOAD_NAMES = ("generate", "translit", "skipparse", "train_load")

# End-to-end metrics (--trace 0) and their units.  The last four are the
# workloads' quality figures (see quality_metrics).
END_TO_END = {
    "throughput_items_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "beam_top1_agreement": "ratio",
    "translit_top1": "ratio",
    "parse_rate": "ratio",
    "postedit_accuracy": "ratio",
}


def _die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this fresh process and print it")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Put this checkout's src/ first on the path; refuse to run anything
    else (an installed copy, or no program at all)."""
    sys.path.insert(0, str(SRC))
    import work
    import gapfill
    if Path(gapfill.__file__).resolve().parent != (SRC / "gapfill").resolve():
        _die("imported gapfill from %s, not from %s" % (gapfill.__file__, SRC))
    return work


def _median_probe():
    return spans.median([speed_probe() for _ in range(SETUP_PROBES)])


def _timed_setup(name, seed):
    """(wall seconds to import gapfill and build the workload's state, the
    same at the reference speed, work module, state).  The seeded set-up
    inputs are made, and the machine's speed probed, before the clock."""
    inputs = gen.setup_inputs(name, seed)
    before = _median_probe()
    t0 = time.perf_counter()
    work = _import_program()
    state = work.WORKLOADS[name].setup(inputs)
    wall = time.perf_counter() - t0
    return wall, wall * speed_factor(before, _median_probe()), work, state


def _setup_in_fresh_process(name, seed):
    """(wall, adjusted) seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=str(ROOT), check=True)
    wall, adjusted = done.stdout.split()[-2:]
    return float(wall), float(adjusted)


# ---------------------------------------------------------------------------
# the closed loop

class Pass:
    """Latencies and aggregated check facts of one pass over the stream.

    Facts are summed as they arrive rather than kept per item, so the
    benchmark's own memory does not grow with the number of items.
    """

    def __init__(self, keep_items=False):
        self.items = [] if keep_items else None
        self.latencies = []  # wall seconds per item
        self.adjusted = []   # the same at the reference speed (speed_factor)
        self.failed = 0
        self.sums = Counter()
        self.counts = Counter()
        self.warnings = []  # smoothing warnings of the models items built
        self.errors = []
        self.peak_rss_mb = None  # ru_maxrss once MIN_ITEMS items are done
        self.probes = []  # seconds per speed_probe(), off the clock
        self.last_probe = None  # (seconds, when it ended) of the latest probe

    @property
    def n(self):
        return len(self.latencies)

    @property
    def busy(self):
        return sum(self.latencies)

    @property
    def adjusted_busy(self):
        return sum(self.adjusted)

    def mean(self, key):
        return self.sums[key] / self.counts[key] if self.counts[key] else 0.0

    def add(self, facts):
        self.failed += not facts["ok"]
        for key, value in facts.items():
            if key == "warnings":
                self.warnings.append(list(value))
            elif key != "ok":
                self.sums[key] += value
                self.counts[key] += 1


def run_items(workload, state, items, seconds=None, tracer=None, keep_items=False,
              in_flight=True):
    """Run items in stream order until the clock has run `seconds` (and
    at least MIN_ITEMS items are done), or, without `seconds`, all of them.
    With `in_flight`, InFlightProbes sample the machine's speed while
    each item runs.

    Items are taken from the stream CHUNK at a time, off the clock, and a
    full garbage collection follows each chunk, so that the inputs the
    benchmark holds do not set off collections inside timed items.
    """
    done = Pass(keep_items)
    sampler = InFlightProbes() if in_flight else None
    clock = 0.0
    items = iter(items)
    while seconds is None or clock < seconds or done.n < MIN_ITEMS:
        chunk = list(itertools.islice(items, CHUNK))
        if not chunk:
            break
        gc.collect()
        for item in chunk:
            if seconds is not None and clock >= seconds and done.n >= MIN_ITEMS:
                break
            clock += _run_one(workload, state, item, done, tracer, sampler)
    return done


def speed_probe():
    """Seconds for a fixed pure-Python task that runs no gapfill code,
    with the garbage collector off so that the program's heap does not
    change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts = {}
        for i in range(400):
            key = (i % 97, str(i % 13))
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        sorted([(i * 7919) % 2003, (i, i + 1)] for i in range(250))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class InFlightProbes:
    """Speed probes taken while an item runs: a SIGALRM handler runs
    speed_probe() every SAMPLE_EVERY_S of wall time.  An item longer than
    the host's bursts of slowness lives through several speeds, which
    these probes sample in proportion to time.  The handler's own time
    is taken off the item's clock (see spent)."""

    def __init__(self):
        self.probes = []
        self.intervals = []

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.probes.append(speed_probe())
        self.intervals.append((t0, time.perf_counter()))

    @contextmanager
    def armed(self):
        self.probes, self.intervals = [], []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self, start, end):
        """Seconds the handler ran between start and end."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.intervals)


def speed_factor(*probes):
    """Reference speed over the machine's speed during a measurement,
    from the probes taken just before, while (InFlightProbes) and just
    after it.

    A VM on a shared host can run twice as slow or worse, in bursts of
    milliseconds to seconds, while other tenants load its physical
    cores; a fixed task run next to an item slows with it.  A time multiplied by this factor
    is what it would have been at the reference speed (PROBE_REF_S).
    The probe runs no gapfill code, so a change to the program moves
    the adjusted time as it moves the wall time.
    """
    return PROBE_REF_S * len(probes) / sum(probes)


def _run_one(workload, state, item, done, tracer, sampler=None):
    """Time one item, check its output off the clock, record both."""
    i = done.n
    if done.items is not None:
        done.items.append(item)
    if tracer is not None:
        tracer.item = i
        tracer.recording = True
    last = done.last_probe
    if last is not None and time.perf_counter() - last[1] <= PROBE_REUSE_S:
        before = last[0]
    else:
        before = speed_probe()
    with sampler.armed() if sampler is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            out = workload.run(state, item.payload)
            err = None
        except Exception as exc:  # an item that raises counts as failed
            out, err = None, exc
        t1 = time.perf_counter()
    elapsed = t1 - t0
    in_flight = []
    if sampler is not None:
        elapsed -= sampler.spent(t0, t1)
        in_flight = sampler.probes
    if tracer is not None:
        tracer.recording = False
    after = speed_probe()
    done.last_probe = (after, time.perf_counter())
    done.latencies.append(elapsed)
    done.adjusted.append(elapsed * speed_factor(before, after, *in_flight))
    done.probes.append(before)
    if err is None:
        try:
            facts = workload.check(state, item, out)
        except Exception as exc:
            facts, err = {"ok": False}, exc
    else:
        facts = {"ok": False}
    if err is not None and len(done.errors) < 5:
        done.errors.append("item %d: %r" % (i, err))
    done.add(facts)
    if done.n == MIN_ITEMS:
        done.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return elapsed


PROBE_SEED = 0


def quality_metrics(work, name, own):
    """Each workload's quality figure: over all its items when it is the
    workload running, else over its fixed probe (the first block of its
    stream for PROBE_SEED, or the bundled pairs), run here off the clock.
    The probe does not depend on --seed, so on the other workloads the
    figure is a tripwire that moves only when the program's output does."""
    out = {}
    for other in work.WORKLOADS.values():
        if other.name == name:
            done = own
        else:
            state = other.setup(gen.setup_inputs(other.name, PROBE_SEED))
            done = run_items(other, state, other.probe(other.items(PROBE_SEED)))
        out[other.QUALITY] = other.quality(done)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from a traced replay

def _nbest_span(name, args, kwargs):
    model = args[1] if len(args) > 1 else kwargs["model"]
    beam = kwargs.get("beam", args[3] if len(args) > 3 else None)
    if model.mode == "letters":
        return "%s.letter%d" % (name, model.order)
    order = {2: "bigram", 3: "trigram"}.get(model.order, "o%d" % model.order)
    return "%s.%s_%s" % (name, order, "exact" if beam is None else "beam")


TRACED = (
    ("prefsem", ("parse_interlingua", "rank")),
    ("gloss", ("parse_gloss", "compile_gloss", "apply_morphology")),
    ("lattice", ("concat", "union", "validate")),
    ("extract", ("nbest",)),
    ("ngram", ("train", "good_turing", "save", "load")),
    ("translit", ("segment", "candidate_lattice", "back_transliterate", "train_table",
                  "read_table", "write_table")),
    ("skipparse", ("chart_parse", "skip_parse", "respects_constraints", "suspicion_train",
                   "read_suspicion", "write_suspicion")),
    ("postedit", ("prepare", "train_tree", "evaluate", "insert_articles", "save_tree",
                  "load_tree")),
)
LAYERS = tuple(module for module, _fns in TRACED)
NBEST_TAGS = ("bigram_exact", "trigram_beam", "letter4")

# (span name, bucket key, bucket labels, statistic): per-item means over
# the items in each size bucket.  total_ms includes the span's children.
BUCKETED = (
    ("gloss.compile_gloss", "k", ("k8", "k16", "k32", "k64"), "self_ms"),
    ("gloss.compile_gloss", "k", ("k8", "k16", "k32", "k64"), "total_ms"),
    ("skipparse.chart_parse", "n", ("n3-6", "n7-10", "n11-14"), "self_ms"),
    ("skipparse.chart_parse", "n", ("n3-6", "n7-10", "n11-14"), "calls_per_item"),
    ("extract.nbest.letter4", "u", ("u2-6", "u7-12", "u13-24", "u25-36"), "self_ms"),
    ("ngram.train", "o", ("o2", "o3", "o4"), "self_ms"),
    ("ngram.good_turing", "o", ("o2", "o3", "o4"), "self_ms"),
    ("ngram.train", "c", ("c200-799", "c800-1399", "c1400-2000"), "self_ms"),
)


def span_names():
    names = []
    for module, fns in TRACED:
        for fn in fns:
            if fn == "nbest":
                names.extend("extract.nbest.%s" % tag for tag in NBEST_TAGS)
            else:
                names.append("%s.%s" % (module, fn))
    return names


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[name + ".self_ms"] = "ms"
        units[name + ".calls"] = "calls/item"
    for span, _key, labels, stat in BUCKETED:
        for label in labels:
            unit = "calls/item" if stat == "calls_per_item" else "ms"
            units["%s.%s.%s" % (span, stat, label)] = unit
    units.update({
        "lattice.arcs.mean": "arcs",
        "translit.lattice_arcs.mean": "arcs",
        "skipparse.explored": "candidates/item",
        "skipparse.useful_ratio": "ratio",
        "ngram.smoothing_fallbacks": "warnings/model",
        "tracing_overhead": "ratio",
        "extract.tie_swaps": "count",
    })
    for layer in LAYERS:
        units["%s.errors" % layer] = "count"
        units["%s.share" % layer] = "ratio"
    return units


def _at_reference_speed(per_item, done):
    """Span sums per item and in total, with each item's times scaled by
    its speed factor as its wall time was (see speed_factor)."""
    totals, scaled = {}, {}
    for i, by_name in per_item.items():
        factor = done.adjusted[i] / done.latencies[i] if done.latencies[i] > 0 else 1.0
        for name, (own, calls, inclusive) in by_name.items():
            row = [own * factor, calls, inclusive * factor]
            scaled.setdefault(i, {})[name] = row
            acc = totals.setdefault(name, [0.0, 0, 0.0])
            for k in range(3):
                acc[k] += row[k]
    return totals, scaled


def per_layer_metrics(tracer, items_run, traced, untraced, model_warnings):
    """Per-layer metrics of a traced pass; times are at the reference
    speed, like the end-to-end ones."""
    totals, per_item = _at_reference_speed(spans.summarize(tracer.spans)[1], traced)
    n = len(items_run)
    values = {}
    for name in span_names():
        own, calls, _inclusive = totals.get(name, (0.0, 0, 0.0))
        values[name + ".self_ms"] = own * 1e3 / n
        values[name + ".calls"] = calls / n
    column = {"self_ms": 0, "calls_per_item": 1, "total_ms": 2}
    for span, key, labels, stat in BUCKETED:
        for label in labels:
            ids = [i for i, it in enumerate(items_run) if it.buckets.get(key) == label]
            got = sum(per_item.get(i, {}).get(span, (0.0, 0, 0.0))[column[stat]] for i in ids)
            scale = 1 if stat == "calls_per_item" else 1e3
            values["%s.%s.%s" % (span, stat, label)] = got * scale / len(ids) if ids else 0.0
    chart_calls = totals.get("skipparse.chart_parse", (0.0, 0, 0.0))[1]
    warnings = model_warnings + traced.warnings
    busy = traced.adjusted_busy
    values.update({
        "lattice.arcs.mean": traced.mean("arcs"),
        "translit.lattice_arcs.mean": traced.mean("lattice_arcs"),
        "skipparse.explored": traced.mean("explored"),
        "skipparse.useful_ratio": traced.sums["parsed"] / chart_calls if chart_calls else 0.0,
        "ngram.smoothing_fallbacks": (sum(len(w) for w in warnings) / len(warnings)
                                      if warnings else 0.0),
        "tracing_overhead": busy / untraced.adjusted_busy,
        "extract.tie_swaps": float(traced.sums["tie_swap"]),
    })
    for layer in LAYERS:
        values["%s.errors" % layer] = float(tracer.errors.get(layer, 0))
        own = sum(t[0] for name, t in totals.items() if name.split(".")[0] == layer)
        values["%s.share" % layer] = own / busy
    return values


# ---------------------------------------------------------------------------
# the record that goes with every result

def _commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gapfill").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(args, setup_samples, model_warnings, passes):
    return {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "samples": [p.n for p in passes],
        "setup_samples_s": setup_samples,
        # wall-clock figures before the speed adjustment, and the median
        # speed probe of each pass (PROBE_REF_S is the reference)
        "wall_throughput_items_s": [p.n / p.busy for p in passes],
        "wall_latency_p50_ms": [spans.percentile(p.latencies, 50) * 1e3 for p in passes],
        "wall_setup_s": spans.median(setup_samples),
        "speed_probe_ms": [spans.median(p.probes) * 1e3 for p in passes],
        # warnings of the models set-up built or loaded, and how many of
        # the models items trained had each set of warnings
        "smoothing_warnings": model_warnings,
        "item_model_warnings": Counter(",".join(w) for p in passes for w in p.warnings),
        "errors": [e for p in passes for e in p.errors],
        # n-best lists that match the oracle's scores but not its
        # spelling order among exactly tied candidates
        "tie_swaps": sum(p.sums["tie_swap"] for p in passes),
    }


def _write_spans(args, tracer, items_run):
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s-seed%d.json.gz" % (args.workload, args.seed))
    with gzip.open(path, "wt") as fp:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "item"],
                   "spans": tracer.spans,
                   "buckets": [it.buckets for it in items_run]}, fp)


# ---------------------------------------------------------------------------

def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "gapfill" / "__init__.py").is_file():
        _die("no gapfill sources under %s; run from a gapfill checkout" % SRC)
    setup_wall, setup_s, work, state = _timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_wall), repr(setup_s))
        return 0

    workload = work.WORKLOADS[args.workload]
    items = workload.items(args.seed)
    model_warnings = {name: list(m.warnings) for name, m in workload.models(state)}

    if args.trace == 0:
        timed = run_items(workload, state, items, seconds=args.seconds)
        passes = [timed]
        quality = quality_metrics(work, args.workload, timed)
        samples = [(setup_wall, setup_s)] + [_setup_in_fresh_process(args.workload, args.seed)
                                             for _ in range(SETUP_SAMPLES - 1)]
        setup_samples = [wall for wall, _adjusted in samples]
        lat = timed.adjusted
        values = dict(quality,
                      throughput_items_s=len(lat) / timed.adjusted_busy,
                      latency_p50_ms=spans.percentile(lat, 50) * 1e3,
                      latency_p90_ms=spans.reportable_percentile(lat, 90) * 1e3,
                      setup_s=spans.median([adjusted for _wall, adjusted in samples]),
                      peak_rss_mb=timed.peak_rss_mb)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        # Untraced first, for half the time; then the same items traced.
        # Both passes keep to the probes around each item, so that no
        # probe time falls inside a span and tracing_overhead compares
        # like with like.
        untraced = run_items(workload, state, items, seconds=args.seconds / 2.0, in_flight=False,
                             keep_items=True)
        items_run = untraced.items
        tracer = spans.Tracer()
        targets = [(importlib.import_module("gapfill." + module), fn,
                    _nbest_span if fn == "nbest" else None)
                   for module, fns in TRACED for fn in fns]
        with tracer.installed(targets):
            traced = run_items(workload, state, items_run, tracer=tracer, in_flight=False)
        passes = [untraced, traced]
        setup_samples = [setup_wall]
        values = per_layer_metrics(tracer, items_run, traced, untraced,
                                   [list(w) for w in model_warnings.values()])
        units = per_layer_units()
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        _write_spans(args, tracer, items_run)

    failed = sum(p.failed for p in passes)
    attempted = sum(p.n for p in passes)
    print(json.dumps(machine_record(args, setup_samples, model_warnings, passes)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
