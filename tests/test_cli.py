"""File formats, ground-truth generation, sampling, and the learn pipeline."""

import hashlib
import importlib
import io
import re
import subprocess
import sys
import tempfile
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadhist.cli import gen_truth, main, sample_from
from dyadhist import cli, core, ddist, fileio
from dyadhist.core import Domain, EmpiricalDist, HistKind, l1_dist, l2_sq_dist, mass, volume
from dyadhist.errors import ConfigurationError, DomainViolationError
from dyadhist.fileio import read_hypothesis, read_samples, write_hypothesis, write_samples
from dyadhist.oracle import opt_hier_l2, opt_partial_hier_dk
from dyadhist.split import SplitParams, greedy_split, greedy_split_l2

from conftest import make_rng, one_shot_sample_from


def grammar_twin(path):
    """``read_samples`` one line at a time, from the grammar the ``fileio`` docstring states.

    The header goes through the reader's own header parser.
    """
    lines = Path(path).read_bytes().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    try:
        domain, _ = fileio._header_fields(lines[0])
    except ValueError as exc:
        raise ConfigurationError(f"{path}:1: {exc}") from None
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip(" ")
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != domain.dim:
            raise ValueError(f"{path}:{ln}: expected {domain.dim} fields, got {len(parts)}")
        try:
            row = [int(p) if domain.is_discrete else float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if not all(domain.lower <= x <= (domain.m or 1.0) for x in row):  # nan fails too
            raise DomainViolationError(f"{path}:{ln}: coordinate outside domain")
        bad = [c for c in line if c not in "0123456789.,+-eE "]
        if bad:
            raise ValueError(f"{path}:{ln}: unexpected character {bad[0]!r}")
        rows.append(row)
    if not rows:
        raise ConfigurationError(f"{path}: no sample rows")
    return EmpiricalDist.from_samples(domain, np.array(rows))


def outcome(read, path):
    try:
        emp = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return emp.points.dtype, emp.points.shape, emp.points.tobytes(), emp.counts.tolist()


class TestIngest:
    def test_three_line_discrete_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# dim=2 domain=discrete 16\n3,7\n3,2\n9,2\n")
        emp = read_samples(p)
        assert emp.n == 3
        assert emp.domain == Domain.discrete(16, 2)

    def test_duplicates_aggregate_and_preserve_mass(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# dim=1 domain=discrete 4\n2\n2\n3\n")
        emp = read_samples(p)
        assert emp.support_size == 2
        assert mass(emp, emp.domain.full_rect()) == 1.0

    def test_out_of_domain_reports_line_number(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# dim=1 domain=unit\n0.5\n1.5\n")
        with pytest.raises(DomainViolationError, match=":3:"):
            read_samples(p)

    def test_dimension_mismatch_reports_line_number(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# dim=2 domain=unit\n0.5\n")
        with pytest.raises(ValueError, match=":2:"):
            read_samples(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0.5,0.5\n")
        with pytest.raises(ConfigurationError):
            read_samples(p)

    def test_samples_round_trip(self, tmp_path):
        rng = make_rng(3)
        d = Domain.unit(2)
        from dyadhist.core import EmpiricalDist

        emp = EmpiricalDist.from_samples(d, rng.random((50, 2)))
        p = tmp_path / "s.txt"
        write_samples(p, emp)
        emp2 = read_samples(p)
        p2 = tmp_path / "s2.txt"
        write_samples(p2, emp2)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("filler", [("", ""), ("# a comment", "   ")])  # the first keeps a whitelisted body
    @pytest.mark.parametrize(
        "header,bad,exc,detail",
        [
            ("dim=1 domain=unit", "0.5,0.5", ValueError, "expected 1 fields, got 2"),
            ("dim=2 domain=unit", "0.5", ValueError, "expected 2 fields, got 1"),
            ("dim=2 domain=discrete 8", "3,", ValueError, "invalid literal for int()"),
            ("dim=1 domain=unit", "0.5 # inline", ValueError, "could not convert string to float"),
            ("dim=1 domain=unit", "0.x", ValueError, "could not convert string to float"),
            ("dim=1 domain=discrete 8", "1.0", ValueError, "invalid literal for int()"),
            ("dim=1 domain=unit", "nan", DomainViolationError, "coordinate outside domain"),
            ("dim=1 domain=unit", "inf", DomainViolationError, "coordinate outside domain"),
            ("dim=1 domain=unit", "1e400", DomainViolationError, "coordinate outside domain"),
            ("dim=2 domain=unit", "0.5,-0.25", DomainViolationError, "coordinate outside domain"),
            ("dim=1 domain=discrete 8", "9", DomainViolationError, "coordinate outside domain"),
            ("dim=1 domain=discrete 8", "+0", DomainViolationError, "coordinate outside domain"),
        ],
    )
    def test_rejected_line_is_named(self, tmp_path, eol, filler, header, bad, exc, detail):
        good = ",".join(["1"] * int(header.split()[0].removeprefix("dim=")))
        lines = [f"# {header}", good, filler[0], "", filler[1], bad, good]
        p = tmp_path / "s.txt"
        p.write_bytes(eol.join(lines).encode() + eol.encode())
        with pytest.raises(exc) as err:
            read_samples(p)
        assert type(err.value) is exc
        assert str(err.value).startswith(f"{p}:6: ")
        assert detail in str(err.value)

    @pytest.mark.parametrize("side", [2**53, 2**60, 2**64])
    def test_side_of_2_53_or_more_is_refused_on_line_1(self, tmp_path, side):
        # grid boundaries are float64, which hold every integer only up to 2^53
        p = tmp_path / "s.txt"
        p.write_text(f"# dim=1 domain=discrete {side}\n1\n{side - 1}\n{side}\n")
        with pytest.raises(ConfigurationError) as err:
            read_samples(p)
        assert str(err.value) == f"{p}:1: discrete side m must be below 2^53, got {side}"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fast_parse_matches_line_scan(self, data):
        dim = data.draw(st.integers(1, 3))
        m = data.draw(st.sampled_from([None, 1, 7]))
        if m is None:
            header = f"# dim={dim} domain=unit"
            num = st.one_of(
                st.floats(0.0, 1.0).map(lambda x: f"{x:.12g}"),
                st.floats(0.0, 1.0).map(repr),
                st.sampled_from(["0", "1", "-0.0", "+.5", "5e-1", "0.25E0", " 0.5 "]),
            )
        else:
            header = f"# dim={dim} domain=discrete {m}"
            num = st.one_of(st.integers(1, m).map(str), st.sampled_from(["+1", "01", f" {m} "]))
        row = st.lists(num, min_size=dim, max_size=dim).map(",".join)
        junk = st.sampled_from([
            "", "   ", "# note", " #x", "0.5 # inline", "1_0", "+3", "1.0", "nan", "inf", "-inf", "1e400",
            "2", "-1", "0", "1.5", ",", "1,1", "1,1,1,1", "e", "1e", "1e3", "\t0.5", "\t# tab", "\uff11",
        ])
        breaks = ["\r\n", "\r", "\x0b", "\x0c", "\x1e", "\x85", "\u2028"]

        def cut(text):
            """The row with a tab or a break str.splitlines honours inserted, often at a comma."""
            at = data.draw(st.one_of(st.sampled_from([0, text.find(","), text.find(",") + 1]),
                                     st.integers(0, len(text))))
            return text[:at] + data.draw(st.sampled_from(breaks + ["\t"])) + text[at:]

        mode = data.draw(st.sampled_from(["clean", "one cut row", "mixed"]))
        lines = data.draw(st.lists(row if mode != "mixed" else st.one_of(row, row, junk), max_size=12))
        if mode != "clean" and lines:
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at] = cut(lines[at])
        eols = ["\n"] if mode != "mixed" else ["\n", "\n"] + breaks
        text = header + data.draw(st.sampled_from(eols))
        for line in lines:
            text += line + data.draw(st.sampled_from(eols))

        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "s.txt")
            Path(path).write_bytes(text.encode("utf-8"))
            assert outcome(read_samples, path) == outcome(grammar_twin, path)


def per_field_twin(emp) -> str:
    """The sample file written one field at a time, as before block formatting."""
    disc = emp.domain.is_discrete
    rows = ((",".join(str(int(v)) if disc else f"{float(v):.12g}" for v in row) + "\n") * c
            for row, c in zip(emp.points.tolist(), emp.counts.tolist()))
    domain = f"discrete {emp.domain.m}" if disc else "unit"
    return f"# dim={emp.domain.dim} domain={domain}\n" + "".join(rows)


class TestSampleFileText:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_per_field_twin(self, data):
        dim = data.draw(st.integers(1, 3))
        m = data.draw(st.sampled_from([None, 3, 1000]))
        if m is None:
            domain = Domain.unit(dim)
            edge = st.sampled_from([0.0, 1.0, 1e-05, 2.5e-9, 0.1, 1 / 3, 0.999999999999])  # 1e-05: exponent form
            coord = st.one_of(st.floats(0.0, 1.0), edge)
        else:
            domain = Domain.discrete(m, dim)
            coord = st.integers(1, m)
        rows = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=30))
        counts = data.draw(st.lists(st.sampled_from([1, 1, 1, 2, 7]), min_size=len(rows), max_size=len(rows)))
        emp = EmpiricalDist.from_samples(domain, np.repeat(np.array(rows), counts, axis=0))
        block = data.draw(st.sampled_from([1, 2, 5, fileio._WRITE_ROWS]))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_WRITE_ROWS", block)
            path = Path(tmp) / "s.txt"
            write_samples(path, emp)
            assert path.read_bytes() == per_field_twin(emp).encode()

    def test_writer_repeats_only_blocks_with_counts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_WRITE_ROWS", 4)
        pts = np.array([[i / 16] for i in range(14)] + [[1e-05], [1.0]])
        emp = EmpiricalDist.from_samples(Domain.unit(1), np.vstack([pts, pts[5:6], pts[5:6], pts[14:15]]))
        assert emp.support_size == 16 and emp.counts.tolist().count(1) == 14
        path = tmp_path / "s.txt"
        write_samples(path, emp)
        assert path.read_bytes() == per_field_twin(emp).encode()
        assert "1e-05\n1e-05\n" in path.read_text()

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("char", [chr(b) for b in range(0x80)] + ["\x85", "\u2028", "\u00a0", "\uff11"])
    def test_bytes_guard_matches_strip(self, tmp_path, eol, char):
        """A row with one more character is read as the grammar twin reads it."""
        path = tmp_path / "s.txt"
        path.write_bytes(f"# dim=1 domain=unit{eol}0{char}5{eol}".encode())
        got = outcome(read_samples, path)
        assert got == outcome(grammar_twin, path)
        # the row is accepted, or named: line 2, or line 3 when the character is a line break
        line = 3 if char in "\n\r" else 2
        assert len(got) == 4 or got[1].startswith(f"{path}:{line}: ")
        assert (len(got) == 4) == (char in ".eE")

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_crlf_file_takes_the_fast_parse(self, tmp_path, monkeypatch, eol):
        def walk(*args):
            raise AssertionError("the error walk ran on a good file")

        path = tmp_path / "s.txt"
        lines = ["# dim=2 domain=discrete 8", "1,2", "", "# a comment", "  ", " 3, 4 ", "   # indented", "1,2", "#"]
        path.write_bytes(eol.join(lines).encode())
        monkeypatch.setattr(fileio, "_raise_bad_line", walk)
        emp = read_samples(path)
        assert emp.points.tolist() == [[1, 2], [3, 4]] and emp.counts.tolist() == [2, 1]

    def test_one_comment_costs_no_memory(self, tmp_path):
        emp = EmpiricalDist.from_samples(Domain.unit(1), make_rng(7).random((300_000, 1)))
        plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
        write_samples(plain, emp)
        header, body = plain.read_bytes().split(b"\n", 1)
        commented.write_bytes(header + b"\n# note\n" + body)
        peaks, reads = [], []
        for path in (plain, commented):
            tracemalloc.start()
            try:
                reads.append(read_samples(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert np.array_equal(reads[0].points, reads[1].points)
        assert np.array_equal(reads[0].counts, reads[1].counts)

    def test_comment_pass_scans_only_the_commented_lines(self, tmp_path, monkeypatch):
        # one comment among 999 rows: the blanking pass reads that line
        # alone, and the rows after it keep their line numbers
        scanned, skipped = [], fileio._SKIPPED

        class Spy:
            def sub(self, repl, text):
                scanned.append(bytes(text))
                return skipped.sub(repl, text)

        monkeypatch.setattr(fileio, "_SKIPPED", Spy())
        lines = ["# dim=1 domain=unit"] + [f"{i / 1000:.3f}" for i in range(1, 1000)]
        lines.insert(502, "  # note")  # line 503
        path = tmp_path / "s.txt"
        path.write_bytes("\n".join(lines).encode())
        emp = read_samples(path)
        assert scanned == [b"\n  # note"]
        assert emp.n == 999 and emp.points[:, 0].tolist() == [i / 1000 for i in range(1, 1000)]
        for ln in (502, 504, 701, 1001):  # the line before the comment, the one after, and two further on
            bad = lines[:]
            bad[ln - 1] = "0.5x"
            path.write_bytes("\n".join(bad).encode())
            with pytest.raises(ValueError, match=re.escape(f"{path}:{ln}: ")):
                read_samples(path)

    def test_writer_memory_stays_below_file_size(self, tmp_path):
        emp = EmpiricalDist.from_samples(Domain.unit(1), make_rng(5).random((300_000, 1)))
        assert emp.support_size == 300_000
        path = tmp_path / "s.txt"
        tracemalloc.start()
        try:
            write_samples(path, emp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


class TestGenTruth:
    def test_k1_is_uniform(self):
        d = Domain.unit(2)
        h = gen_truth(1, d, seed=5)
        assert h.piece_count == 1
        assert h.pieces[0].value == pytest.approx(1.0)

    def test_round_trip_bit_exact(self, tmp_path):
        for domain in (Domain.unit(2), Domain.discrete(16, 2)):
            h = gen_truth(4, domain, seed=11)
            p1 = tmp_path / "a.hist"
            p2 = tmp_path / "b.hist"
            write_hypothesis(p1, h)
            write_hypothesis(p2, read_hypothesis(p1))
            assert p1.read_bytes() == p2.read_bytes()
            assert l1_dist(read_hypothesis(p1), read_hypothesis(p2)) == 0.0

    def test_mass_one_over_many_seeds(self):
        d = Domain.unit(2)
        for seed in range(100):
            h = gen_truth(3, d, seed=seed)
            assert abs(h.total_mass() - 1.0) <= 1e-12

    def test_pieces_partition_the_domain(self):
        d = Domain.unit(2)
        h = gen_truth(6, d, seed=2)
        total = sum(volume(p.rect, d) for p in h.pieces)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unconstructible_k_rejected(self):
        with pytest.raises(ValueError):
            gen_truth(3, Domain.discrete(1, 1), seed=0)


class TestSampleFrom:
    def test_zero_samples_rejected(self):
        h = gen_truth(2, Domain.unit(1), seed=1)
        with pytest.raises(ValueError):
            sample_from(h, 0, seed=1)

    def test_unnormalized_rejected(self):
        from dyadhist.core import HistHypothesis, Piece

        d = Domain.unit(1)
        h = HistHypothesis(d, (Piece(d.full_rect(), 2.0),), HistKind.ARBITRARY)
        with pytest.raises(ValueError):
            sample_from(h, 5, seed=1)

    def test_single_piece_containment(self):
        d = Domain.discrete(16, 2)
        h = gen_truth(1, d, seed=3)
        emp = sample_from(h, 500, seed=9)
        assert emp.domain.contains_points(emp.points).all()

    def test_deterministic_under_seed(self):
        h = gen_truth(3, Domain.unit(2), seed=4)
        a = sample_from(h, 200, seed=7)
        b = sample_from(h, 200, seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("block", [1, 2, 5, core._DRAW_ROWS])
    @pytest.mark.parametrize("m", [None, 9, 10])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_match_one_shot_twin(self, block, m, dim, monkeypatch):
        domain = Domain.unit(dim) if m is None else Domain.discrete(m, dim)
        h = gen_truth(4, domain, seed=dim)
        monkeypatch.setattr(core, "_DRAW_ROWS", block)
        ns = {1, block - 1, block, block + 1, 3 * block + 2} - {0}
        if m is not None:  # either side of the lattice threshold: m^d = 2n + 2 or 2n + 1, then 2n or 2n - 1
            cells = m**dim
            ns |= {(cells - 1) // 2, cells // 2, (cells + 1) // 2}
            assert {core._dense_lattice(domain, n) for n in ns} == {False, True}
        for n in sorted(ns):
            got, want = sample_from(h, n, seed=n), one_shot_sample_from(h, n, seed=n)
            assert got.points.dtype == want.points.dtype and got.counts.dtype == want.counts.dtype
            assert np.array_equal(got.points, want.points) and np.array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("n", [131_072, 131_071])  # 2^18 cells: m^d = 2n (counted as drawn), then 2n + 2
    def test_lattice_wider_than_a_block_matches_one_shot_twin(self, n):
        assert 512**2 > core._DRAW_ROWS
        h = gen_truth(4, Domain.discrete(512, 2), seed=5)
        got, want = sample_from(h, n, seed=n), one_shot_sample_from(h, n, seed=n)
        assert got.points.dtype == want.points.dtype and got.counts.dtype == want.counts.dtype
        assert np.array_equal(got.points, want.points) and np.array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("n", [1_000_000, 4_000_000])
    def test_peak_within_the_choices_and_fixed_blocks(self, n):
        # on a dense lattice each block of offsets is counted into the cells
        # as it is drawn, so only the n one-byte piece choices grow with n;
        # the rest is a few count arrays over the cells and a few blocks
        h = gen_truth(5, Domain.discrete(256, 2), seed=11)
        cells, block = 256**2, core._DRAW_ROWS * 2 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            emp = sample_from(h, n, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert emp.n == n
        assert peak <= n + 2 * cells * 8 + 4 * block, peak

    def test_piece_frequencies_within_4_sigma(self):
        h = gen_truth(4, Domain.unit(2), seed=8)
        n = 100_000
        emp = sample_from(h, n, seed=13)
        for p in h.pieces:
            mass_true = p.value * volume(p.rect, h.domain)
            got = mass(emp, p.rect)
            sigma = np.sqrt(mass_true * (1 - mass_true) / n)
            assert abs(got - mass_true) <= 4 * sigma + 1e-12


class TestRunLearn:
    def _learn(self, tmp_path, *options, k=2):
        """``learn`` from s.txt into h.hist and h.report; returns the report's fields."""
        argv = ["learn", "--in", str(tmp_path / "s.txt"), "--out", str(tmp_path / "h.hist"),
                "--report", str(tmp_path / "h.report"), "--k", str(k), *options]
        assert main(argv) == 0
        return dict(line.split(": ", 1) for line in (tmp_path / "h.report").read_text().splitlines())

    def _sampled(self, tmp_path, domain, k=2, n=400, seed=3):
        truth = gen_truth(k, domain, seed=seed)
        write_hypothesis(tmp_path / "truth.hist", truth)
        emp = sample_from(truth, n, seed=seed + 1)
        write_samples(tmp_path / "s.txt", emp)
        return truth

    # sha256 of the report, stdout and hypothesis file of ``learn``, each
    # followed by a NUL byte, for sampled inputs (domain, truth pieces, n)
    # and extra options.  The fixed-grid case reports both renorm_scale and
    # error.dk_vs_empirical; the l2 case's grid pads 12 cells to 16
    PINNED = {
        "adaptive-l1-truth": (
            Domain.unit(2), 3, 1_500, ["--k", "3", "--truth", "truth.hist"],
            "0187f76d786bb6bba45fd73d9ba6958113b69dcdb9f3b77a5356245d2ca1ea71",
        ),
        "fixed-normalize": (
            Domain.discrete(8, 2), 2, 80, ["--k", "2", "--xi", "0.5", "--grid", "fixed", "--normalize"],
            "40b60161c4be7a43593c381e99a117bf62d4dcb100d78e9c899e81a226ec8ee2",
        ),
        "l2-truth": (
            Domain.discrete(12, 1), 3, 500, ["--k", "3", "--metric", "l2", "--truth", "truth.hist"],
            "455a40295186a390d5d20c9311a275c58bc9c7c3d56b66fadc6e28b3212fe5e2",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_outputs_pinned_byte_for_byte(self, tmp_path, capsys, monkeypatch, case):
        domain, pieces, n, options, digest = self.PINNED[case]
        self._sampled(tmp_path, domain, k=pieces, n=n, seed=7)
        monkeypatch.chdir(tmp_path)  # the report echoes the input path
        argv = ["learn", "--in", "s.txt", "--out", "h.hist", "--report", "h.report"] + options
        assert main(argv) == 0
        report = (tmp_path / "h.report").read_bytes()
        stdout = capsys.readouterr().out.encode("utf-8")
        hist = (tmp_path / "h.hist").read_bytes()
        sha = hashlib.sha256()
        for part in (report, stdout, hist):
            sha.update(part + b"\x00")
        assert sha.hexdigest() == digest

    def test_timing_sidecar_keys(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        assert main(["learn", "--in", str(tmp_path / "s.txt"), "--k", "2",
                     "--report", str(tmp_path / "h.report")]) == 0
        lines = (tmp_path / "h.report.timing").read_text().splitlines()
        assert [line.split(": ")[0] for line in lines] == ["time.ingest", "time.learn", "time.evaluate"]

    @pytest.mark.parametrize("args, message", [
        (["--m", "4"], "--m sets the cells of a fixed grid; the adaptive l1 grid takes none"),
        (["--k", "0"], "k must be >= 1, got 0"),
        (["--xi", "0"], "xi must be positive and finite, got 0.0"),
    ], ids=["m", "k", "xi"])
    def test_options_checked_before_reading(self, tmp_path, capsys, args, message):
        assert main(["learn", "--in", str(tmp_path / "missing.txt"), "--k", "1"] + args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("args", [["--metric", "l3"], ["--grid", "dense"]], ids=["metric", "grid"])
    def test_unknown_choice_exits_2(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--in", str(tmp_path / "s.txt"), "--k", "1"] + args)
        assert exc.value.code == 2
        assert f"invalid choice: '{args[1]}'" in capsys.readouterr().err

    def test_report_fields_and_piece_bound(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        fields = self._learn(tmp_path, "--truth", str(tmp_path / "truth.hist"))
        hyp = read_hypothesis(tmp_path / "h.hist")
        assert int(fields["pieces"]) == hyp.piece_count <= int(fields["piece_bound"])
        assert fields["n"] == "400"
        assert "error.l1_vs_truth" in fields
        # the adaptive grid has 512 cells a side, 349,525 dyadic rectangles:
        # too many for the exact D_k oracle, so its line is left out
        assert fields["grid.M"] == "512" and "error.dk_vs_empirical" not in fields
        text = (tmp_path / "h.report").read_text()
        assert "pieces:" in text and "time" not in text

    def test_dk_error_reported_on_small_instances(self, tmp_path):
        self._sampled(tmp_path, Domain.discrete(16, 2), n=60)
        fields = self._learn(tmp_path, "--metric", "l1", "--grid", "fixed", "--m", "16")
        assert float(fields["error.dk_vs_empirical"]) >= 0.0

    def test_l2_learner_requires_discrete(self, tmp_path, capsys):
        self._sampled(tmp_path, Domain.unit(2))
        assert main(["learn", "--in", str(tmp_path / "s.txt"), "--k", "2", "--metric", "l2"]) == 2
        assert capsys.readouterr().err == "error: the l2 learner requires a discrete domain\n"

    def test_determinism_byte_identical_outputs(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        self._learn(tmp_path)
        hyp1 = (tmp_path / "h.hist").read_bytes()
        rep1 = (tmp_path / "h.report").read_bytes()
        self._learn(tmp_path)
        assert (tmp_path / "h.hist").read_bytes() == hyp1
        assert (tmp_path / "h.report").read_bytes() == rep1

    def test_hypothesis_file_round_trips_zero_l1(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        self._learn(tmp_path)
        reread = read_hypothesis(tmp_path / "h.hist")
        p2 = tmp_path / "h2.hist"
        write_hypothesis(p2, reread)
        assert (tmp_path / "h.hist").read_bytes() == p2.read_bytes()
        assert l1_dist(reread, read_hypothesis(p2)) == 0.0

    def test_normalize_flag_scales_output(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        fields = self._learn(tmp_path, "--normalize")
        assert read_hypothesis(tmp_path / "h.hist").total_mass() == pytest.approx(1.0, abs=1e-12)
        assert "renorm_scale" in fields
        # the reported mass is the pre-normalization one
        assert float(fields["total_mass"]) != 1.0 or float(fields["renorm_scale"]) == 1.0

    def test_end_to_end_median_error_at_50k(self, tmp_path):
        # frozen from a calibration run: median l1 over seeds 1..5 was 0.081
        truth = gen_truth(3, Domain.unit(2), seed=99)
        write_hypothesis(tmp_path / "t.hist", truth)
        errs = []
        for seed in range(1, 6):
            emp = sample_from(truth, 50_000, seed)
            write_samples(tmp_path / "s.txt", emp)
            fields = self._learn(tmp_path, "--truth", str(tmp_path / "t.hist"), k=3)
            errs.append(float(fields["error.l1_vs_truth"]))
        assert float(np.median(errs)) <= 0.15


class TestCommandLine:
    def test_full_pipeline_exit_codes(self, tmp_path):
        truth = tmp_path / "t.hist"
        samples = tmp_path / "s.txt"
        out = tmp_path / "h.hist"
        assert main(["gen", "--k", "3", "--dim", "2", "--seed", "1",
                     "--out", str(truth)]) == 0
        assert main(["sample", "--in", str(truth), "--n", "300", "--seed", "2",
                     "--out", str(samples)]) == 0
        assert main(["learn", "--in", str(samples), "--k", "3",
                     "--out", str(out)]) == 0
        assert main(["eval", "--in", str(out), "--truth", str(truth)]) == 0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sample", "--in", "{truth}", "--n", "0", "--seed", "1", "--out", "{tmp}/s.txt"],
             "sample count must be >= 1"),
            (["gen", "--k", "2", "--dim", "1", "--domain", "discrete", "--out", "{tmp}/d.hist"],
             "--domain discrete requires --m"),
            (["eval", "--in", "{truth}", "--dump-grid", "8"], "--dump-grid needs --out"),
        ],
        ids=["sample-n-0", "gen-discrete-without-m", "eval-dump-grid-without-out"],
    )
    def test_validation_error_exit_2(self, tmp_path, capsys, argv, message):
        truth = tmp_path / "t.hist"
        main(["gen", "--k", "2", "--dim", "1", "--seed", "1", "--out", str(truth)])
        capsys.readouterr()
        rc = main([a.format(truth=truth, tmp=tmp_path) for a in argv])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.hist"]

    @pytest.mark.parametrize("side", [2**53 - 1, 2**53, 2**60])
    def test_discrete_side_below_2_53_learns_and_larger_exits_2(self, tmp_path, capsys, side):
        # rows 1, m - 1 and m: at 2^53 and past, some of them would share a
        # float64 grid boundary and lose their mass, so the header is refused
        samples, truth = tmp_path / "s.txt", tmp_path / "t.hist"
        samples.write_text(f"# dim=1 domain=discrete {side}\n1\n{side - 1}\n{side}\n")
        rc = main(["learn", "--in", str(samples), "--k", "1"])
        out, err = capsys.readouterr()
        gen = main(["gen", "--k", "2", "--dim", "1", "--domain", "discrete", "--m", str(side), "--out", str(truth)])
        if side < 2**53:
            assert (rc, err) == (0, "") and "total_mass: 1\n" in out
            assert gen == 0 and read_hypothesis(truth).domain.m == side
        else:
            refusal = f"discrete side m must be below 2^53, got {side}\n"
            assert (rc, out, err) == (2, "", f"error: {samples}:1: {refusal}")
            assert gen == 2 and not truth.exists()
            assert capsys.readouterr() == ("", f"error: {refusal}")

    @pytest.mark.parametrize(
        "args,grid",
        [
            (["--metric", "l2"], "fixed"),
            (["--metric", "l2", "--grid", "adaptive"], "fixed"),
            (["--metric", "l1", "--grid", "fixed"], "fixed"),
            (["--metric", "l1"], "adaptive"),
        ],
    )
    def test_report_echoes_the_grid_used(self, tmp_path, capsys, args, grid):
        # the l2 learner always runs on the fixed grid; learn and eval both
        # measure the truth error in the run's metric
        truth, samples = tmp_path / "t.hist", tmp_path / "s.txt"
        assert main(["gen", "--k", "3", "--dim", "1", "--domain", "discrete", "--m", "16",
                     "--seed", "1", "--out", str(truth)]) == 0
        assert main(["sample", "--in", str(truth), "--n", "200", "--seed", "2", "--out", str(samples)]) == 0
        capsys.readouterr()
        assert main(["learn", "--in", str(samples), "--k", "2", "--truth", str(truth)] + args) == 0
        report = capsys.readouterr().out
        assert f"config.grid: {grid}\n" in report
        if grid == "fixed":
            assert "grid.M: 16\ngrid.levels: 4\ngrid.padded_cells: 0\n" in report
        metric = args[1]
        error = "l2sq_vs_truth" if metric == "l2" else "l1_vs_truth"
        want = (l2_sq_dist if metric == "l2" else l1_dist)(read_hypothesis(truth), read_hypothesis(f"{samples}.hyp"))
        assert f"error.{error}: {want:.12g}\n" in report
        assert main(["eval", "--in", f"{samples}.hyp", "--truth", str(truth), "--metric", metric]) == 0
        assert f"{error}: {want:.12g}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["learn", "oracle"])
    @pytest.mark.parametrize(
        "domain,m,message",
        [
            ("discrete 16", ["--m", "8"], "--m 8 disagrees with the sample domain [16]"),
            ("unit", [], "a fixed grid on the unit cube needs --m (cells per axis)"),
            ("unit", ["--m", "6"], "cell count per axis must be a power of 2, got 6"),
            ("unit", ["--m", "0"], "cell count per axis must be a power of 2, got 0"),
            ("unit", ["--m", "-4"], "cell count per axis must be a power of 2, got -4"),
        ],
    )
    def test_fixed_grid_rejects_bad_m(self, tmp_path, capsys, command, domain, m, message):
        # learn's fixed grid and the oracle's grid follow one --m rule
        samples = tmp_path / "s.txt"
        samples.write_text(f"# dim=1 domain={domain}\n1\n1\n")
        args = ["--grid", "fixed"] if command == "learn" else []
        assert main([command, "--in", str(samples), "--k", "1"] + args + m) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # k = 1 at d = 2: on a 16^2 grid the D_k oracle enumerates far more unions at k = 2
    @pytest.mark.parametrize("m, dim, k", [(6, 1, 2), (12, 2, 1)])
    def test_fixed_grid_pads_a_discrete_side_to_a_power_of_2(self, tmp_path, capsys, m, dim, k):
        # gen and sample write {1..m}^dim; the fixed-grid commands pad each
        # axis with zero-width cells at the top and answer as the library
        # does on that padded grid, given explicitly
        truth, samples = tmp_path / "t.hist", tmp_path / "s.txt"
        assert main(["gen", "--k", "3", "--dim", str(dim), "--domain", "discrete", "--m", str(m),
                     "--seed", "1", "--out", str(truth)]) == 0
        assert main(["sample", "--in", str(truth), "--n", "300", "--seed", "2", "--out", str(samples)]) == 0
        emp = read_samples(samples)
        side = 1 << (m - 1).bit_length()
        axis = np.r_[np.arange(1.0, m + 2), np.full(side - m, m + 1.0)]
        grid = core.GridSpec(emp.domain, (axis,) * dim)
        capsys.readouterr()
        for args, learner in ((["--grid", "fixed"], greedy_split), (["--metric", "l2"], greedy_split_l2)):
            out, want = tmp_path / "h.hist", tmp_path / "want.hist"
            assert main(["learn", "--in", str(samples), "--k", str(k), "--out", str(out)] + args) == 0
            assert f"grid.M: {side}\n" in capsys.readouterr().out
            write_hypothesis(want, learner(emp, grid, SplitParams(k=k, xi=1.0))[0])
            assert out.read_bytes() == want.read_bytes(), args
        assert main(["oracle", "--in", str(samples), "--k", str(k)]) == 0
        assert capsys.readouterr().out == f"opt_partial_hier_dk: {opt_partial_hier_dk(emp, grid, k):.12g}\n"
        assert main(["oracle", "--in", str(samples), "--k", str(k), "--metric", "l2"]) == 0
        assert capsys.readouterr().out == f"opt_hier_l2: {opt_hier_l2(emp, grid, k)[0]:.12g}\n"

    def test_guard_overflow_exit_3(self, tmp_path):
        truth = tmp_path / "t.hist"
        samples = tmp_path / "s.txt"
        main(["gen", "--k", "2", "--dim", "2", "--seed", "1", "--out", str(truth)])
        main(["sample", "--in", str(truth), "--n", "50", "--seed", "2",
              "--out", str(samples)])
        rc = main(["oracle", "--in", str(samples), "--k", "2", "--m", "4096"])
        assert rc == 3

    def test_l2_oracle_on_unit_cube_exit_2(self, tmp_path, capsys):
        truth = tmp_path / "t.hist"
        samples = tmp_path / "s.txt"
        main(["gen", "--k", "2", "--dim", "1", "--seed", "1", "--out", str(truth)])
        main(["sample", "--in", str(truth), "--n", "50", "--seed", "2", "--out", str(samples)])
        capsys.readouterr()
        assert main(["oracle", "--in", str(samples), "--k", "2", "--m", "4", "--metric", "l2"]) == 2
        captured = capsys.readouterr()
        assert "opt_hier_l2" not in captured.out
        assert "needs a discrete cube" in captured.err

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # a --dump-grid of 70000 on a 2-d hypothesis asks numpy for 36.5 GiB;
        # the test raises the MemoryError without allocating
        def no_memory(path, h, res):
            raise MemoryError("Unable to allocate 36.5 GiB")

        truth = tmp_path / "t.hist"
        main(["gen", "--k", "2", "--dim", "2", "--seed", "1", "--out", str(truth)])
        monkeypatch.setattr(cli, "write_grid", no_memory)
        capsys.readouterr()
        rc = main(["eval", "--in", str(truth), "--dump-grid", "70000", "--out", str(tmp_path / "g.csv")])
        assert rc == 2
        assert "error: Unable to allocate 36.5 GiB" in capsys.readouterr().err

    def test_support_too_large_to_index_exits_2(self, tmp_path, capsys, monkeypatch):
        # the index refuses 2^30 support points; the limit is lowered to 3
        samples = tmp_path / "s.txt"
        samples.write_text("# dim=1 domain=discrete 8\n1\n2\n5\n5\n")
        monkeypatch.setattr(ddist, "_MAX_POINTS", 3)
        rc = main(["learn", "--in", str(samples), "--k", "1"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot index a support of 3 points") and err.count("\n") == 1, err

    @pytest.mark.parametrize("k", ["2", "0", "-1"])
    @pytest.mark.parametrize("metric, name", [("l1", "opt_partial_hier_dk"), ("l2", "opt_hier_l2")])
    def test_oracle_subcommand_values(self, tmp_path, capsys, metric, name, k):
        truth = tmp_path / "t.hist"
        samples = tmp_path / "s.txt"
        main(["gen", "--k", "2", "--dim", "1", "--domain", "discrete", "--m", "8",
              "--seed", "1", "--out", str(truth)])
        main(["sample", "--in", str(truth), "--n", "40", "--seed", "2",
              "--out", str(samples)])
        capsys.readouterr()
        rc = main(["oracle", "--in", str(samples), "--k", k, "--metric", metric])
        out, err = capsys.readouterr()
        if k == "2":
            assert (rc, err) == (0, "") and out.startswith(f"{name}: ")
        else:  # both oracles refuse an empty budget
            assert (rc, out, err) == (2, "", "error: k must be >= 1\n")

    def test_eval_dump_grid(self, tmp_path):
        truth = tmp_path / "t.hist"
        dump = tmp_path / "grid.csv"
        main(["gen", "--k", "2", "--dim", "1", "--seed", "1", "--out", str(truth)])
        assert main(["eval", "--in", str(truth), "--dump-grid", "16",
                     "--out", str(dump)]) == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 17  # header + 16 cells

    @pytest.mark.parametrize("res", ["-3", "0"])
    def test_eval_rejects_dump_resolution_below_one(self, tmp_path, capsys, res):
        truth = tmp_path / "t.hist"
        dump = tmp_path / "grid.csv"
        main(["gen", "--k", "2", "--dim", "1", "--seed", "1", "--out", str(truth)])
        capsys.readouterr()
        assert main(["eval", "--in", str(truth), "--dump-grid", res, "--out", str(dump)]) == 2
        assert f"--dump-grid must be at least 1, got {res}" in capsys.readouterr().err
        assert not dump.exists()

    @pytest.mark.parametrize("command", ["learn", "eval"])
    @pytest.mark.parametrize(
        "header",
        [
            "dim=x domain=unit", "dim=0 domain=unit", "dim=1 domain=discrete x", "dim=1 domain=discrete 0",
            "dim=1 domain=unit kind=partail", "dim=1 dim=2 domain=unit", "dim=1 domain=discrete 4 domain=unit",
            "dim=1 domain=discrete",
            # only spaces separate header fields
            "dim=1\x0bdomain=unit", "dim=1\x0cdomain=unit", "dim=1\x85domain=unit", "dim=1\xa0domain=unit",
            "dim=1\u2028domain=unit", "dim=1\tdomain=unit", "dim=1 domain=discrete\t4",
        ],
    )
    def test_bad_header_names_line_1(self, tmp_path, capsys, command, header):
        path = tmp_path / "in.txt"
        path.write_bytes((f"# {header}\n" + ("1\n" if command == "learn" else "1,2,1\n")).encode("utf-8"))
        args = ["--k", "1"] if command == "learn" else []
        assert main([command, "--in", str(path)] + args) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:1: ")

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--xi", "inf"], "xi must be positive and finite, got inf"),
            (["--xi", "nan"], "xi must be positive and finite, got nan"),
            (["--xi", "0"], "xi must be positive and finite, got 0.0"),
            (["--k", "0"], "k must be >= 1, got 0"),
            (["--m", "16"], "--m sets the cells of a fixed grid; the adaptive l1 grid takes none"),
        ],
    )
    def test_learn_rejects_bad_options(self, tmp_path, capsys, args, message):
        samples = tmp_path / "s.txt"
        samples.write_text("# dim=1 domain=unit\n0.25\n0.75\n")
        assert main(["learn", "--in", str(samples), "--k", "1"] + args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        # a fixed grid takes --m
        assert main(["learn", "--in", str(samples), "--k", "1", "--grid", "fixed", "--m", "16"]) == 0

    @pytest.mark.parametrize(
        "command,data,line",
        [
            ("learn", b"# dim=1 domain=unit \xff\n0.5\n", 1),
            ("learn", b"# dim=1 domain=unit\n0.5\n\n0.\xff\n0.5\n", 4),
            ("learn", b"# dim=1 domain=unit\r\n0.5\r\n\xff0.5\r\n", 3),
            ("eval", b"# dim=1 domain=unit kind=arbitrary\n0,0.5,1\n0.5,1,1\xff\n", 3),
        ],
    )
    def test_invalid_utf8_names_line(self, tmp_path, capsys, command, data, line):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        args = ["--k", "1"] if command == "learn" else []
        assert main([command, "--in", str(path)] + args) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: not valid UTF-8")

    @pytest.mark.parametrize(
        "text,where",
        [
            ("# dim=1 domain=unit kind=arbitrary\n0,1,1\n0,0.6,1\n", ":3:"),  # overlap
            ("# dim=1 domain=unit kind=arbitrary\n0,1,nan\n", ":2:"),
            ("# dim=1 domain=unit kind=arbitrary\n0,1,inf\n", ":2:"),
            ("# dim=1 domain=unit kind=arbitrary\n0,0.5,1\n0.6,1,1\n", ":1:"),  # gap
            ("# dim=1 domain=discrete 4 kind=arbitrary\n1,2.5,1\n2.5,5,1\n", ":2:"),
            ("# dim=2 domain=unit kind=partial\n0,0.5,0,1,1\n0.2,0.7,0.2,0.4,3\n", ":3:"),
            ("# dim=1 domain=unit kind=arbitrary\n0,1.5,1\n", ":2:"),  # outside the domain
            ("# dim=1 domain=unit kind=arbitrary\n0,1,-1\n", ":2:"),  # negative value
            ("# dim=1 domain=unit kind=arbitrary\n0.5,0.2,1\n", ":2:"),  # lo > hi
            ("# dim=1 domain=unit kind=arbitrary\n", ": no pieces"),
            ("", ": empty file"),
        ],
    )
    def test_eval_rejects_bad_hypothesis_file(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.hist"
        path.write_text(text)
        assert main(["eval", "--in", str(path)]) == 2
        assert f"{path}{where}" in capsys.readouterr().err

    def test_partial_file_may_leave_gaps(self, tmp_path):
        path = tmp_path / "part.hist"
        path.write_text("# dim=1 domain=unit kind=partial\n0,0.5,1\n0.75,1,2\n")
        assert read_hypothesis(path).total_mass() == 1.0

    def test_import_leaves_scipy_unloaded(self):
        # nor the CLI module, which ``python -m dyadhist.cli`` must find unimported
        code = "import sys, dyadhist; print('scipy' in sys.modules, 'dyadhist.cli' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    def test_module_run_leaves_stderr_empty(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dyadhist.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "gen" in proc.stdout

    def test_console_script_installed(self):
        # the entry point an install would write the ``dyadhist`` script for
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"dyadhist": "dyadhist.cli:main"}
        module, _, attr = scripts["dyadhist"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
