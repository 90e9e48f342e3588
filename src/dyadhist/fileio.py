"""Text file formats: sample lists, piece-per-line hypothesis files and grid dumps.

Both formats are UTF-8 and share one line grammar.  CRLF and CR are read as
LF, and only LF ends a line.  Line 1 is the header:

    # dim=<d> domain=<unit | discrete <m>> [kind=<arbitrary|partial>]

with each key at most once and only spaces between fields.  After it, a
line that is empty or starts with ``#`` once spaces are stripped is
skipped.  Samples have one point per line (d comma-separated fields, made
only of ``0-9 . , + - e E`` and spaces); hypotheses have one piece per line
(d interval pairs lo,hi then the value, each field read by ``float``).
Floats are written with 12 significant digits, which is stable under
re-ingestion: writing a re-read file reproduces it byte for byte.  Every
writer formats its rows by one ``%`` on a repeated row template
(``_rows``).  A grid dump, for plotting only, has the header
``# dim=<d> resolution=<res>`` and one grid point and its value per line,
written in blocks of ``_WRITE_ROWS`` points; no reader takes it.

``read_samples`` blanks skipped lines in place, keeping their LF, so every
row keeps its line number; only the lines from the body's first ``#`` or
space to its last are scanned.  It then parses the file with one
``np.loadtxt`` call through an ``io.BytesIO`` that shares the buffer.  Only
when that parse fails (a byte outside the body's set, a bad field, a point
outside the domain, no rows) does a line walk run, to raise an error naming
``path:line``.  A file that is not UTF-8 fails as ``path:line: not valid
UTF-8``, naming the line of its first bad byte.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import Domain, EmpiricalDist, HistHypothesis, HistKind, Piece, Rect, piece_bounds, piece_coverage
from .errors import ConfigurationError, DomainViolationError, StructureError

# Every byte a sample body can hold once its skipped lines are blanked.
_BODY_BYTES = b"0123456789.,+-eE \n"

# A skipped line after the first: spaces, then nothing or a ``#`` comment.
_SKIPPED = re.compile(rb"\n(?=[ #]) *(?:#[^\n]*)?(?=\n|\Z)")

# Rows ``write_samples`` (distinct ones) and ``write_grid`` format with one ``%``.
_WRITE_ROWS = 1 << 15


def _coord_format(domain: Domain) -> str:
    """The ``%`` format of a coordinate or a piece bound: an integer on the discrete cube, else 12 digits."""
    return "%d" if domain.is_discrete else "%.12g"


def _rows(fields: list, table: np.ndarray) -> str:
    """The 2-d ``table`` as lines, by one ``%`` on a row template that joins ``fields`` by commas."""
    row = ",".join(fields) + "\n"
    return (row * len(table)) % tuple(table.ravel().tolist())


def _domain_header(domain: Domain) -> str:
    if domain.is_discrete:
        return f"dim={domain.dim} domain=discrete {domain.m}"
    return f"dim={domain.dim} domain=unit"


def _header_fields(line: str) -> tuple:
    if not line.startswith("#"):
        raise ValueError("missing '# dim=... domain=...' header")
    fields = iter(f for f in line[1:].split(" ") if f)  # only spaces separate fields
    kv = {}
    for field in fields:
        key, eq, val = field.partition("=")
        if not eq:
            raise ValueError(f"malformed header field {field!r}")
        if key in kv:
            raise ValueError(f"header key {key!r} given twice")
        if key == "domain" and val == "discrete":
            side = next(fields, None)
            if side is None:
                raise ValueError("discrete domain needs a side m")
            val = ("discrete", int(side))
        kv[key] = val
    if "dim" not in kv or "domain" not in kv:
        raise ValueError("header must declare dim and domain")
    if kv.get("kind", "arbitrary") not in ("arbitrary", "partial"):
        raise ValueError(f"unknown kind {kv['kind']!r}")
    dim = int(kv["dim"])
    dom = kv["domain"]
    if dom == "unit":
        domain = Domain.unit(dim)
    elif isinstance(dom, tuple):
        domain = Domain.discrete(dom[1], dim)
    else:
        raise ValueError(f"unknown domain {dom!r}")
    return domain, kv


def write_samples(path, emp: EmpiricalDist) -> None:
    """One line per sample, in blocks of ``_WRITE_ROWS`` distinct rows.

    Each block is formatted by ``_rows`` and its lines are repeated only
    when some count exceeds 1.
    """
    fields = [_coord_format(emp.domain)] * emp.domain.dim
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# {_domain_header(emp.domain)}\n")
        for start in range(0, emp.support_size, _WRITE_ROWS):
            counts = emp.counts[start : start + _WRITE_ROWS]
            text = _rows(fields, emp.points[start : start + _WRITE_ROWS])
            if counts.max() > 1:
                lines = text.splitlines(keepends=True)
                text = "".join([line * c for line, c in zip(lines, counts.tolist())])
            f.write(text)


def _read(path) -> tuple:
    """(bytes with CRLF and CR read as LF, Domain, header extras) of a file checked to be UTF-8."""
    raw = Path(path).read_bytes()
    if not raw:
        raise ConfigurationError(f"{path}: empty file")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}:{line}: not valid UTF-8") from None
    end = raw.find(b"\n")
    try:
        domain, kv = _header_fields((raw if end < 0 else raw[:end]).decode("utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{path}:1: {exc}") from None
    return raw, domain, kv


def _data_lines(path, raw: bytes, count: int, parse):
    """(line number, text stripped of spaces, fields) of each line after the header not skipped.

    Each line must split at commas into ``count`` fields, each read by
    ``parse``; the first that does not raises naming ``path:line``.
    """
    for ln, line in enumerate(raw.decode("utf-8").split("\n")[1:], start=2):
        line = line.strip(" ")
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != count:
            raise ValueError(f"{path}:{ln}: expected {count} fields, got {len(parts)}")
        try:
            fields = [parse(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        yield ln, line, fields


def read_samples(path) -> EmpiricalDist:
    """One sample per line; duplicate rows aggregate into counts."""
    raw, domain, _ = _read(path)
    body = raw.find(b"\n") + 1 or len(raw)  # the body's start, the end when no LF ends the header
    marks = [i for i in (raw.find(b"#", body), raw.find(b" ", body)) if i >= 0]
    if marks:  # blank the skipped lines, scanning only from the first line with a # or space to the last
        lo = raw.rfind(b"\n", 0, min(marks))
        hi = raw.find(b"\n", max(raw.rfind(b"#", body), raw.rfind(b" ", body)))
        hi = len(raw) if hi < 0 else hi
        with memoryview(raw) as view:  # joins the untouched parts without copying them first
            raw = b"".join((view[:lo], _SKIPPED.sub(b"\n", view[lo:hi]), view[hi:]))
    # deleting the allowed bytes leaves only the header's others exactly when every body byte is allowed
    if raw.translate(None, _BODY_BYTES) == raw[:body].translate(None, _BODY_BYTES):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # io.BytesIO shares the bytes instead of copying them
                pts = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1, ndmin=2,
                                 dtype=np.int64 if domain.is_discrete else np.float64)
        except (ValueError, Warning):
            pass
        else:
            if pts.shape[1] == domain.dim and domain.contains_points(pts).all():
                return EmpiricalDist.from_samples(domain, pts)
    _raise_bad_line(path, raw, domain)


def _raise_bad_line(path, raw: bytes, domain: Domain) -> NoReturn:
    """Raises naming the first line of the sample file ``raw`` that ``read_samples`` cannot take.

    Each line is checked for its field count, then parsed by ``int`` or
    ``float``, then checked against the domain, and only then for bytes
    outside ``_BODY_BYTES``.  With every line good, the file has no rows.
    """
    for ln, line, row in _data_lines(path, raw, domain.dim, int if domain.is_discrete else float):
        if not domain.contains_points(np.asarray([row])).all():
            raise DomainViolationError(f"{path}:{ln}: coordinate outside domain")
        bad = line.encode("utf-8").translate(None, _BODY_BYTES)
        if bad:
            raise ValueError(f"{path}:{ln}: unexpected character {bad.decode('utf-8')[0]!r}")
    raise ConfigurationError(f"{path}: no sample rows")


def write_hypothesis(path, h: HistHypothesis) -> None:
    """One piece per line: lo,hi per axis, then the value (12 sig. digits)."""
    kind = "partial" if h.kind is HistKind.PARTIAL else "arbitrary"
    fields = [_coord_format(h.domain)] * (2 * h.domain.dim) + ["%.12g"]
    table = np.column_stack((h.bounds.transpose(0, 2, 1).reshape(h.piece_count, 2 * h.domain.dim), h.values))
    Path(path).write_text(f"# {_domain_header(h.domain)} kind={kind}\n" + _rows(fields, table), encoding="utf-8")


def write_grid(path, h: HistHypothesis, res: int) -> None:
    """``h`` at the centers of a ``res``^d regular grid, one point and its value per line, for plotting.

    The points, in C order, are made from their flat indices, evaluated and
    written in blocks of ``_WRITE_ROWS``.
    """
    domain = h.domain
    centers = domain.lower + (np.arange(res) + 0.5) * (domain.upper - domain.lower) / res
    if domain.is_discrete:
        centers = np.clip(np.floor(centers).astype(np.int64), 1, domain.m)
    fields = [_coord_format(domain)] * domain.dim + ["%.12g"]
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# dim={domain.dim} resolution={res}\n")
        for start in range(0, res**domain.dim, _WRITE_ROWS):
            flat = np.arange(start, min(start + _WRITE_ROWS, res**domain.dim))
            pts = centers[np.stack(np.unravel_index(flat, (res,) * domain.dim), axis=1)]
            f.write(_rows(fields, np.column_stack((pts, h.value_at(pts)))))


def read_hypothesis(path) -> HistHypothesis:
    """Parse a hypothesis file, rejecting what no histogram can be.

    Numbers must be finite and, on discrete domains, bounds integral; pieces
    must lie in the domain and be pairwise disjoint, and an ``arbitrary``
    (total) file must cover the domain.  Errors name ``path:line``.  The
    pieces' coverage is computed once, by ``HistHypothesis``; only when it
    raises are the pieces searched for the line an overlap is on.
    """
    raw, domain, kv = _read(path)
    kind = HistKind.PARTIAL if kv.get("kind") == "partial" else HistKind.ARBITRARY
    pieces, lines = [], []
    for ln, _, nums in _data_lines(path, raw, 2 * domain.dim + 1, float):
        if not all(math.isfinite(x) for x in nums):
            raise ValueError(f"{path}:{ln}: non-finite number")
        bounds = nums[:-1]
        if domain.is_discrete:
            if any(x != int(x) for x in bounds):
                raise ValueError(f"{path}:{ln}: bounds on a discrete domain must be integers")
            bounds = [int(x) for x in bounds]
        lo, hi = tuple(bounds[0::2]), tuple(bounds[1::2])
        if any(l < domain.lower or v > domain.upper for l, v in zip(lo, hi)):
            raise DomainViolationError(f"{path}:{ln}: piece outside domain")
        try:
            pieces.append(Piece(Rect(lo, hi), nums[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        lines.append(ln)
    if not pieces:
        raise ConfigurationError(f"{path}: no pieces")
    try:
        return HistHypothesis(domain=domain, pieces=tuple(pieces), kind=kind)
    except StructureError as exc:  # pieces overlap, or a total file leaves a gap
        axes, counts = piece_coverage(domain, piece_bounds(domain, pieces))
        overlaps = np.argwhere(counts > 1)
        if not len(overlaps):
            raise ConfigurationError(f"{path}:1: {exc}") from None
        x = np.array([[(axes[a][c] + axes[a][c + 1]) / 2 for a, c in enumerate(overlaps[0])]])
        hits = [ln for p, ln in zip(pieces, lines) if p.rect.contains_points(x, domain)[0]]
        raise ConfigurationError(f"{path}:{hits[1]}: piece overlaps the piece on line {hits[0]}") from None


__all__ = [
    "write_samples",
    "read_samples",
    "write_hypothesis",
    "read_hypothesis",
    "write_grid",
]
