"""The record rule shared by the line-format readers and the corpora.

A record is one line of a text file, stripped of surrounding whitespace.
Blank lines and lines that start with `#` once stripped are not records.
Each reader splits its records into fields and checks them itself; a
corpus is just its records, one sentence or word each.  finite() reads
a number field.
"""

import math


def records(fp, start=1):
    """Yield (lineno, line) for every record of fp, with line stripped;
    start is the number of fp's next line."""
    for lineno, line in enumerate(fp, start=start):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def finite(field):
    """float(field), raising ValueError unless it is a finite number."""
    value = float(field)
    if not math.isfinite(value):
        raise ValueError("not a finite number: %r" % field)
    return value


def record_lines(fp):
    """The records of fp as a list of lines: a corpus file's sentences."""
    return [line for _lineno, line in records(fp)]
