"""Bulk parsing and formatting of the line-based text tables behind the
dataset, code and rankings files.

Readers take a file CHUNK_ROWS lines at a time (`read_chunks`) and hand a
whole run of lines to numpy's C tokenizer (`parse_rows`), so whether the
run is well formed is decided once; only a rejected run is rescanned line
by line, to name the offending line.  Numeric tokens follow numpy's
parser: ASCII digits with an optional sign, and for floats Python's float
syntax without underscores; integers must fit their dtype.  Writers format
CHUNK_ROWS rows of an integer table with one `%` operation (`write_rows`).
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

CHUNK_ROWS = 1024


def read_chunks(fh, comment: str | None = None):
    """Yield (line numbers, lines) for each run of CHUNK_ROWS lines of an
    open text file, leaving out blank lines and, when `comment` is given,
    lines whose first non-blank text starts with it."""
    numbered = enumerate(fh, start=1)
    while raw := list(itertools.islice(numbered, CHUNK_ROWS)):
        kept = [(lineno, line) for lineno, line in raw
                if not line.isspace()
                and not (comment and line.lstrip().startswith(comment))]
        if kept:
            linenos, lines = zip(*kept)
            yield linenos, lines


def parse_rows(lines, dtype, delimiter=None):
    """The lines as a 2-D `dtype` table with one row per line, or None when
    a token does not parse or fit the dtype, a line is blank, the column
    count changes, or numpy warns.  `#` is not a comment marker here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter,
                               comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return table if table.shape[0] == len(lines) else None


def write_rows(fh, row_format: str, table) -> None:
    """Write each row of a 2-D integer table through row_format, one `%`
    operation per CHUNK_ROWS rows."""
    for start in range(0, len(table), CHUNK_ROWS):
        chunk = table[start:start + CHUNK_ROWS]
        fh.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))
