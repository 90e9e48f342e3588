"""Text file formats: sample lists and piece-per-line hypothesis files.

Both formats are UTF-8 with LF line endings and a single header line:

    # dim=<d> domain=<unit | discrete <m>> [kind=<arbitrary|partial>]

Samples have one point per line (d comma-separated fields); hypotheses have
one piece per line (d interval pairs lo,hi then the value).  Blank lines and
whole lines starting with ``#`` are skipped.  Floats are written with 12
significant digits, which is stable under re-ingestion: writing a re-read
file reproduces it byte for byte.

``write_samples`` formats blocks of ``_WRITE_ROWS`` distinct rows with one
``%`` each, through a row template of ``%d`` or ``%.12g`` fields (the same C
formatter as ``fmt_num``), and repeats a block's lines only when one of its
counts exceeds 1, so its memory stays flat whatever the row count.

``read_samples`` reads the file as bytes and turns CRLF and CR into LF.  It
parses them in one ``np.loadtxt`` call, through an ``io.BytesIO`` that shares
the buffer, when the body holds only digits, ``. , + - e E``, spaces and LF
(checked with one ``bytes.translate``), and every parsed row has ``dim``
fields and lies in the domain.  Otherwise it rescans the file line by line
(``_scan_samples``), which returns the same result for a file the fast parse
could not take, or raises an error naming ``path:line``.  Both readers
report a file that is not valid UTF-8 as ``path:line: not valid UTF-8``,
naming the line of the first bad byte.
"""

from __future__ import annotations

import io
import math
import warnings
from pathlib import Path

import numpy as np

from .core import Domain, EmpiricalDist, HistHypothesis, HistKind, Piece, Rect, piece_coverage
from .errors import ConfigurationError, DomainViolationError

# Every byte a sample body of plain number rows can hold.  A body with any
# other one (comments, ``nan``, ``1_0``, a line break other than LF that
# ``str.splitlines`` honours and ``np.loadtxt`` strips as whitespace, any
# non-ASCII byte) goes to the line scan.
_BODY_BYTES = b"0123456789.,+-eE \n"

# Distinct rows ``write_samples`` formats with one ``%``.
_WRITE_ROWS = 1 << 15


def fmt_num(x, discrete: bool) -> str:
    if discrete:
        return str(int(x))
    return f"{float(x):.12g}"


def _domain_header(domain: Domain) -> str:
    if domain.is_discrete:
        return f"dim={domain.dim} domain=discrete {domain.m}"
    return f"dim={domain.dim} domain=unit"


def _parse_header(line: str, path: str) -> tuple:
    """Returns (Domain, extras dict) from a '# key=value ...' header.

    Every error names ``path:1``, the header's line.
    """
    try:
        return _header_fields(line)
    except ValueError as exc:
        raise ConfigurationError(f"{path}:1: {exc}") from None


def _decode(raw: bytes, path: str) -> str:
    """``raw`` as UTF-8; a bad byte raises naming its line as ``str.splitlines`` counts it."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the "." stands for the bad byte, so its line counts even when it starts one
        line = len((raw[: exc.start].decode("utf-8") + ".").splitlines())
        raise ValueError(f"{path}:{line}: not valid UTF-8") from None


def _header_fields(line: str) -> tuple:
    if not line.startswith("#"):
        raise ValueError("missing '# dim=... domain=...' header")
    fields = line[1:].split()
    kv = {}
    i = 0
    while i < len(fields):
        if "=" not in fields[i]:
            raise ValueError(f"malformed header field {fields[i]!r}")
        key, val = fields[i].split("=", 1)
        if key == "domain" and val == "discrete":
            if i + 1 >= len(fields):
                raise ValueError("discrete domain needs a side m")
            kv["domain"] = ("discrete", int(fields[i + 1]))
            i += 2
            continue
        kv[key] = val
        i += 1
    if "dim" not in kv or "domain" not in kv:
        raise ValueError("header must declare dim and domain")
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

    Each block is formatted by one ``%`` on a repeated row template and its
    lines are repeated only when some count exceeds 1.  ``"%.12g" % x`` and
    ``fmt_num`` run the same C formatter, so the bytes are ``fmt_num``'s.
    """
    row = ",".join(["%d" if emp.domain.is_discrete else "%.12g"] * emp.domain.dim) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# {_domain_header(emp.domain)}\n")
        for start in range(0, emp.support_size, _WRITE_ROWS):
            pts = emp.points[start : start + _WRITE_ROWS]
            counts = emp.counts[start : start + _WRITE_ROWS]
            text = (row * len(pts)) % tuple(pts.ravel().tolist())
            if counts.max() > 1:
                lines = text.splitlines(keepends=True)
                text = "".join([line * c for line, c in zip(lines, counts.tolist())])
            f.write(text)


def read_samples(path) -> EmpiricalDist:
    """One sample per line; duplicate rows aggregate into counts."""
    path = str(path)
    raw = Path(path).read_bytes()
    if b"\r" in raw:  # CRLF and CR end lines as LF does, as in universal-newline text
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head = raw[: max(raw.find(b"\n"), 0)]
    header = _decode(head, path)  # a bad byte here is the file's first, as the scan would report
    # the header is the scan's first line unless another line break cuts it;
    # deleting the allowed bytes from the whole file leaves only the header's
    # others exactly when every body byte is allowed
    if ([header] != header.splitlines()
            or raw.translate(None, _BODY_BYTES) != head.translate(None, _BODY_BYTES)):
        return _scan_samples(path, raw)
    domain, _ = _parse_header(header, path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # io.BytesIO shares the bytes instead of copying them
            pts = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1, ndmin=2,
                             dtype=np.int64 if domain.is_discrete else np.float64)
    except (ValueError, Warning):
        return _scan_samples(path, raw)
    if pts.shape[1] != domain.dim or not len(pts) or not domain.contains_points(pts).all():
        return _scan_samples(path, raw)
    return EmpiricalDist.from_samples(domain, pts)


def _scan_samples(path: str, data: bytes) -> EmpiricalDist:
    """``read_samples`` on the file's ``data``, one line at a time; raises naming the first bad line."""
    raw = _decode(data, path).splitlines()
    if not raw:
        raise ConfigurationError(f"{path}: empty file")
    domain, _ = _parse_header(raw[0], path)
    rows = []
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != domain.dim:
            raise ValueError(f"{path}:{ln}: expected {domain.dim} fields, got {len(parts)}")
        try:
            row = [int(p) if domain.is_discrete else float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if not domain.contains_points(np.asarray([row], dtype=np.float64)).all():
            raise DomainViolationError(f"{path}:{ln}: coordinate outside domain")
        rows.append(row)
    if not rows:
        raise ConfigurationError(f"{path}: no sample rows")
    return EmpiricalDist.from_samples(domain, np.asarray(rows))


def write_hypothesis(path, h: HistHypothesis) -> None:
    """One piece per line: lo,hi per axis, then the value (12 sig. digits)."""
    kind = "partial" if h.kind is HistKind.PARTIAL else "arbitrary"
    disc = h.domain.is_discrete
    lines = [f"# {_domain_header(h.domain)} kind={kind}"]
    for p in h.pieces:
        cols = []
        for a in range(h.domain.dim):
            cols.append(fmt_num(p.rect.lo[a], disc))
            cols.append(fmt_num(p.rect.hi[a], disc))
        cols.append(f"{p.value:.12g}")
        lines.append(",".join(cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_hypothesis(path) -> HistHypothesis:
    """Parse a hypothesis file, rejecting what no histogram can be.

    Numbers must be finite and, on discrete domains, bounds integral; pieces
    must lie in the domain and be pairwise disjoint, and an ``arbitrary``
    (total) file must cover the domain.  Errors name ``path:line``.
    """
    path = str(path)
    raw = _decode(Path(path).read_bytes(), path).splitlines()
    if not raw:
        raise ConfigurationError(f"{path}: empty file")
    domain, kv = _parse_header(raw[0], path)
    kind = HistKind.PARTIAL if kv.get("kind") == "partial" else HistKind.ARBITRARY
    pieces, lines = [], []
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2 * domain.dim + 1:
            raise ValueError(
                f"{path}:{ln}: expected {2 * domain.dim + 1} fields, got {len(parts)}"
            )
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
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
    axes, counts = piece_coverage(domain, pieces)

    def center(cell) -> np.ndarray:
        return np.array([[(axes[a][c] + axes[a][c + 1]) / 2 for a, c in enumerate(cell)]])

    overlaps = np.argwhere(counts > 1)
    if len(overlaps):
        x = center(overlaps[0])
        hits = [ln for p, ln in zip(pieces, lines) if p.rect.contains_points(x, domain)[0]]
        raise ConfigurationError(f"{path}:{hits[1]}: piece overlaps the piece on line {hits[0]}")
    gaps = np.argwhere(counts == 0)
    if kind is HistKind.ARBITRARY and len(gaps):
        x = center(gaps[0])[0].tolist()
        raise ConfigurationError(f"{path}:1: kind=arbitrary pieces leave the point {x} uncovered")
    return HistHypothesis(domain=domain, pieces=tuple(pieces), kind=kind)


__all__ = [
    "fmt_num",
    "write_samples",
    "read_samples",
    "write_hypothesis",
    "read_hypothesis",
]
