"""Text file formats: sample lists and piece-per-line hypothesis files.

Both formats are UTF-8 with LF line endings and a single header line:

    # dim=<d> domain=<unit | discrete <m>> [kind=<arbitrary|partial>]

Samples have one point per line (d comma-separated fields); hypotheses have
one piece per line (d interval pairs lo,hi then the value).  Floats are
written with 12 significant digits, which is stable under re-ingestion:
writing a re-read file reproduces it byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import Domain, EmpiricalDist, HistHypothesis, HistKind, Piece, Rect, piece_coverage
from .errors import ConfigurationError, DomainViolationError


def fmt_num(x, discrete: bool) -> str:
    if discrete:
        return str(int(x))
    return f"{float(x):.12g}"


def _domain_header(domain: Domain) -> str:
    if domain.is_discrete:
        return f"dim={domain.dim} domain=discrete {domain.m}"
    return f"dim={domain.dim} domain=unit"


def _parse_header(line: str, path: str) -> tuple:
    """Returns (Domain, extras dict) from a '# key=value ...' header."""
    if not line.startswith("#"):
        raise ConfigurationError(f"{path}: missing '# dim=... domain=...' header")
    fields = line[1:].split()
    kv = {}
    i = 0
    while i < len(fields):
        if "=" not in fields[i]:
            raise ConfigurationError(f"{path}: malformed header field {fields[i]!r}")
        key, val = fields[i].split("=", 1)
        if key == "domain" and val == "discrete":
            if i + 1 >= len(fields):
                raise ConfigurationError(f"{path}: discrete domain needs a side m")
            kv["domain"] = ("discrete", int(fields[i + 1]))
            i += 2
            continue
        kv[key] = val
        i += 1
    if "dim" not in kv or "domain" not in kv:
        raise ConfigurationError(f"{path}: header must declare dim and domain")
    dim = int(kv["dim"])
    dom = kv["domain"]
    if dom == "unit":
        domain = Domain.unit(dim)
    elif isinstance(dom, tuple):
        domain = Domain.discrete(dom[1], dim)
    else:
        raise ConfigurationError(f"{path}: unknown domain {dom!r}")
    return domain, kv


def write_samples(path, emp: EmpiricalDist) -> None:
    lines = [f"# {_domain_header(emp.domain)}"]
    disc = emp.domain.is_discrete
    for row, cnt in zip(emp.points, emp.counts):
        text = ",".join(fmt_num(v, disc) for v in row)
        lines.extend([text] * int(cnt))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_samples(path, expected_domain: Domain | None = None) -> EmpiricalDist:
    """One sample per line; duplicate rows aggregate into counts."""
    path = str(path)
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    if not raw:
        raise ConfigurationError(f"{path}: empty file")
    domain, _ = _parse_header(raw[0], path)
    if expected_domain is not None and domain != expected_domain:
        raise ConfigurationError(f"{path}: header domain differs from the expected one")
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
    h = HistHypothesis(domain=domain, pieces=tuple(pieces), kind=kind)
    axes, counts = piece_coverage(h)

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
    return h


__all__ = [
    "fmt_num",
    "write_samples",
    "read_samples",
    "write_hypothesis",
    "read_hypothesis",
]
