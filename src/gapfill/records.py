"""The record rule shared by the line-format readers.

A record is one line of a text file, stripped of surrounding whitespace.
Blank lines and lines that start with `#` once stripped are not records.
Each reader splits its records into fields and checks them itself.
"""


def records(fp, start=1):
    """Yield (lineno, line) for every record of fp, with line stripped;
    start is the number of fp's next line."""
    for lineno, line in enumerate(fp, start=start):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line
