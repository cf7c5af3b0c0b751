"""Small shared helpers: seeds, bit iteration, parallel map, CSV output."""

from __future__ import annotations

import csv
import hashlib
import os

from .errors import InputError


def derive_seed(*parts) -> int:
    """Derive a 64-bit integer seed from an arbitrary key.

    Every consumer of randomness in an experiment draws from its own stream,
    keyed by (root seed, purpose, indices...).  Streams keyed differently are
    independent, so adding trials or strategies never perturbs existing ones.
    """
    return int.from_bytes(seed_prefix(*parts).digest(), "big")


def seed_prefix(*parts):
    """The hash state ``derive_seed`` reaches after absorbing ``parts``.

    ``extend_seed(seed_prefix(*parts), last)`` equals
    ``derive_seed(*parts, last)``, so a caller deriving many seeds that share
    their leading parts hashes those parts once.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h


def extend_seed(prefix, last) -> int:
    """``derive_seed`` of the prefix's parts followed by ``last``."""
    h = prefix.copy()
    h.update(repr(last).encode() + b"\x1f")
    return int.from_bytes(h.digest(), "big")


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def worker_count(jobs: int) -> int:
    """``jobs`` capped at the machine's CPU count; below 1 is an error."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def parallel_map(fn, tasks, jobs: int = 1):
    """Yield ``fn(t)`` for each task, over up to ``jobs`` worker processes.

    Results come in task order, so nothing downstream depends on ``jobs``
    (capped by ``worker_count``); one job pulls a task per result.  ``fn``
    must be a module-level function; workers are spawned and import it afresh.
    """
    jobs = worker_count(jobs)
    if jobs == 1:
        yield from map(fn, tasks)
        return
    import multiprocessing  # only a pool needs it; a serial run skips the import

    with multiprocessing.get_context("spawn").Pool(processes=jobs) as pool:
        yield from pool.imap(fn, tasks)


def fmt_num(x) -> str:
    """Format a number for CSV output, deterministically and compactly."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".10g")


def csv_writer(fh):
    """A CSV writer to ``fh`` in the package's format: bare newline line ends."""
    return csv.writer(fh, lineterminator="\n")


def write_csv(path, columns, rows):
    """Write a UTF-8 CSV file: the ``columns`` header, then each of ``rows``.

    ``rows`` is read one row at a time, so a generator of rows need hold no
    more than the row being written.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv_writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
