"""The one s-expression reader, shared by glosses and interlingua.

A datum is a list, a quoted string ('"', text), or a bare symbol: a run
of characters other than whitespace, parentheses, `"` and `;`.  A `;`
starts a comment that runs to the end of the line.  Strings have no
escapes: one ends at the next `"`.  Lists are built on a work stack, so
nesting depth is limited only by memory.
"""

from __future__ import annotations

import re

__all__ = ["read_all"]

_TOKEN = re.compile(r'\s+|;[^\n]*|(?P<open>\()|(?P<close>\))'
                    r'|"(?P<string>[^"]*)"|(?P<symbol>[^\s()";]+)|(?P<quote>")')


def read_all(text: str, error) -> list:
    """Every datum in `text`, in order; malformed text raises `error`."""
    lists = [[]]
    opened = []  # offset of each "(" still open
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "symbol":
            lists[-1].append(m.group(kind))
        elif kind == "string":
            lists[-1].append(('"', m.group(kind)))
        elif kind == "open":
            lists.append([])
            opened.append(m.start())
        elif kind == "close":
            if not opened:
                raise error("unexpected ')' at offset %d" % m.start())
            done = lists.pop()
            opened.pop()
            lists[-1].append(done)
        elif kind == "quote":
            raise error("unterminated string at offset %d" % m.start())
    if opened:
        raise error("unbalanced parentheses: '(' at offset %d is never closed" % opened[-1])
    return lists[0]
