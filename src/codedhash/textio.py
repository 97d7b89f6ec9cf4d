"""Bulk parsing and formatting of the line-based text tables behind the
dataset, code and rankings files.

Readers take a file CHUNK_ROWS lines at a time (`read_chunks`) and run
each format's one rule, a `parse(lines, state)` that raises its reason, on
a whole run (`parse_run`); numeric fields go to numpy's C tokenizer in one
call (`parse_rows`) and 0/1 strings to `parse_bits`.  Only a rejected run
meets the same rule again, one line at a time, to name its bad line.
Numeric tokens follow numpy's parser: ASCII digits with an optional sign,
and for floats Python's float syntax without underscores; integers must
fit their dtype.  Writers format CHUNK_ROWS rows of an integer table with
one `%` operation (`write_rows`); the comma-separated reports go through
`write_report`.  Every text loader, the config file's too, opens its file
with `open_text`, which names the file when a byte does not decode.
"""

from __future__ import annotations

import itertools
import warnings
from contextlib import contextmanager

import numpy as np

CHUNK_ROWS = 1024


@contextmanager
def open_text(path, encoding=None):
    """The file open for reading text; a byte that does not decode, met
    anywhere in the `with` body, raises a ValueError starting `path:`."""
    with open(path, encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: byte 0x{err.object[err.start]:02x} is not "
                             f"{err.encoding} text ({err.reason})") from None


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


def parse_run(path, linenos, lines, parse, state):
    """parse(lines, state) of a whole run.  When that raises a ValueError,
    parse runs again line by line from the same state, and its first
    rejection is raised with its type as `path:lineno: reason`; the run's
    first line takes the bulk reason if every line passes alone."""
    try:
        return parse(lines, state)
    except ValueError as bulk:
        for lineno, line in zip(linenos, lines):
            try:
                _, state = parse([line], state)
            except ValueError as err:
                raise type(err)(f"{path}:{lineno}: {err}") from None
        raise type(bulk)(f"{path}:{linenos[0]}: {bulk}") from None


def parse_bits(text: str):
    """The uint8 0/1 vector of a string of '0' and '1' characters, or None
    when it holds any other character."""
    bits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
    return bits if (bits <= 1).all() else None


def write_rows(fh, row_format: str, table) -> None:
    """Write each row of a 2-D integer table through row_format, one `%`
    operation per CHUNK_ROWS rows."""
    for start in range(0, len(table), CHUNK_ROWS):
        chunk = table[start:start + CHUNK_ROWS]
        fh.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_report(path, header: str, rows) -> None:
    """A header line, then one line per row of `", "`-joined values: `str`
    of a string, `repr` of anything else."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(", ".join(v if isinstance(v, str) else repr(v)
                               for v in row) + "\n")
