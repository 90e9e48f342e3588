"""Text file formats: sample lists and piece-per-line hypothesis files.

Both formats are UTF-8 with LF line endings and a single header line:

    # dim=<d> domain=<unit | discrete <m>> [kind=<arbitrary|partial>]

Samples have one point per line (d comma-separated fields); hypotheses have
one piece per line (d interval pairs lo,hi then the value).  Blank lines and
whole lines starting with ``#`` are skipped.  Floats are written with 12
significant digits, which is stable under re-ingestion: writing a re-read
file reproduces it byte for byte.

``read_samples`` parses a sample body in one ``np.loadtxt`` call when the
body holds only digits, ``. , + - e E``, spaces and LF, and every parsed row
has ``dim`` fields and lies in the domain.  Otherwise it rescans the file
line by line (``_scan_samples``), which returns the same result for a file
the fast parse could not take, or raises an error naming ``path:line``.
"""

from __future__ import annotations

import io
import math
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import Domain, EmpiricalDist, HistHypothesis, HistKind, Piece, Rect, piece_coverage
from .errors import ConfigurationError, DomainViolationError

# Every character a sample body of plain number rows can hold.  A body with
# any other one (comments, ``nan``, ``1_0``, a line break other than LF that
# ``str.splitlines`` honours and ``np.loadtxt`` strips as whitespace) goes to
# the line scan.
_BODY_CHARS = "0123456789.,+-eE \n"


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
    """One line per sample: each distinct row is formatted once and repeated."""
    fields = map(fmt_num, emp.points.ravel().tolist(), repeat(emp.domain.is_discrete))
    rows = map(",".join, zip(*[fields] * emp.domain.dim))  # consecutive groups of dim fields
    body = "".join([(row + "\n") * cnt for row, cnt in zip(rows, emp.counts.tolist())])
    Path(path).write_text(f"# {_domain_header(emp.domain)}\n" + body, encoding="utf-8")


def read_samples(path) -> EmpiricalDist:
    """One sample per line; duplicate rows aggregate into counts."""
    path = str(path)
    header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    # the header is the scan's first line unless another line break cuts it;
    # the strip leaves nothing exactly when every body character is allowed
    if [header] != header.splitlines() or body.strip(_BODY_CHARS):
        return _scan_samples(path)
    domain, _ = _parse_header(header, path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2,
                             dtype=np.int64 if domain.is_discrete else np.float64)
    except (ValueError, Warning):
        return _scan_samples(path)
    if pts.shape[1] != domain.dim or not len(pts) or not domain.contains_points(pts).all():
        return _scan_samples(path)
    return EmpiricalDist.from_samples(domain, pts)


def _scan_samples(path: str) -> EmpiricalDist:
    """``read_samples`` one line at a time; raises with the first bad line's number."""
    raw = Path(path).read_text(encoding="utf-8").splitlines()
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
    raw = Path(path).read_text(encoding="utf-8").splitlines()
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
