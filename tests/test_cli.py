"""File formats, ground-truth generation, sampling, and the learn pipeline."""

import io
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadhist.cli import LearnReport, RunConfig, gen_truth, main, run_learn, sample_from
from dyadhist import fileio
from dyadhist.core import Domain, EmpiricalDist, HistKind, l1_dist, mass, volume
from dyadhist.errors import ConfigurationError, DomainViolationError
from dyadhist.fileio import fmt_num, read_hypothesis, read_samples, write_hypothesis, write_samples

from conftest import make_rng


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

    def test_coordinate_beyond_int64_is_named(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(f"# dim=1 domain=discrete {2**64}\n1\n{2**63 - 1}\n{2**63}\n")
        with pytest.raises(ValueError) as err:
            read_samples(p)
        assert str(err.value) == f"{p}:4: coordinate does not fit in a 64-bit integer"

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
    """The sample file written one ``fmt_num`` call per field, as before block formatting."""
    disc = emp.domain.is_discrete
    rows = ((",".join(fmt_num(v, disc) for v in row) + "\n") * c
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
    def _config(self, tmp_path, **kw):
        base = dict(
            input_path=str(tmp_path / "s.txt"),
            out_path=str(tmp_path / "h.hist"),
            report_path=str(tmp_path / "h.report"),
            k=2,
        )
        base.update(kw)
        return RunConfig(**base)

    def _sampled(self, tmp_path, domain, k=2, n=400, seed=3):
        truth = gen_truth(k, domain, seed=seed)
        write_hypothesis(tmp_path / "truth.hist", truth)
        emp = sample_from(truth, n, seed=seed + 1)
        write_samples(tmp_path / "s.txt", emp)
        return truth

    def test_report_fields_and_piece_bound(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        cfg = self._config(tmp_path, truth_path=str(tmp_path / "truth.hist"))
        report, hyp = run_learn(cfg)
        assert report.pieces == hyp.piece_count <= report.bound
        assert report.n == 400
        keys = [k for k, _ in report.errors]
        assert "l1_vs_truth" in keys
        text = (tmp_path / "h.report").read_text()
        assert "pieces:" in text and "time" not in text

    def test_dk_error_reported_on_small_instances(self, tmp_path):
        self._sampled(tmp_path, Domain.discrete(16, 2), n=60)
        cfg = self._config(tmp_path, metric="l1", grid_mode="fixed", m=16)
        report, _ = run_learn(cfg)
        assert dict(report.errors)["dk_vs_empirical"] >= 0.0

    def test_l2_learner_requires_discrete(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        cfg = self._config(tmp_path, metric="l2")
        from dyadhist.errors import UnsupportedDomainError

        with pytest.raises(UnsupportedDomainError):
            run_learn(cfg)

    def test_determinism_byte_identical_outputs(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        cfg = self._config(tmp_path)
        run_learn(cfg)
        hyp1 = (tmp_path / "h.hist").read_bytes()
        rep1 = (tmp_path / "h.report").read_bytes()
        run_learn(cfg)
        assert (tmp_path / "h.hist").read_bytes() == hyp1
        assert (tmp_path / "h.report").read_bytes() == rep1

    def test_hypothesis_file_round_trips_zero_l1(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        report, hyp = run_learn(self._config(tmp_path))
        reread = read_hypothesis(tmp_path / "h.hist")
        p2 = tmp_path / "h2.hist"
        write_hypothesis(p2, reread)
        assert (tmp_path / "h.hist").read_bytes() == p2.read_bytes()
        assert l1_dist(reread, read_hypothesis(p2)) == 0.0

    def test_normalize_flag_scales_output(self, tmp_path):
        self._sampled(tmp_path, Domain.unit(2))
        cfg = self._config(tmp_path, normalize=True)
        report, hyp = run_learn(cfg)
        assert hyp.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert report.renorm_scale is not None
        # the reported mass is the pre-normalization one
        assert report.total_mass != pytest.approx(1.0, abs=0) or report.renorm_scale == 1.0

    def test_end_to_end_median_error_at_50k(self, tmp_path):
        # frozen from a calibration run: median l1 over seeds 1..5 was 0.081
        from dyadhist.cli import gen_truth, sample_from

        truth = gen_truth(3, Domain.unit(2), seed=99)
        write_hypothesis(tmp_path / "t.hist", truth)
        errs = []
        for seed in range(1, 6):
            emp = sample_from(truth, 50_000, seed)
            write_samples(tmp_path / "s.txt", emp)
            cfg = self._config(
                tmp_path, k=3, truth_path=str(tmp_path / "t.hist")
            )
            report, _ = run_learn(cfg)
            errs.append(dict(report.errors)["l1_vs_truth"])
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

    def test_validation_error_exit_2(self, tmp_path, capsys):
        truth = tmp_path / "t.hist"
        main(["gen", "--k", "2", "--dim", "1", "--seed", "1", "--out", str(truth)])
        rc = main(["sample", "--in", str(truth), "--n", "0", "--seed", "1",
                   "--out", str(tmp_path / "s.txt")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_guard_overflow_exit_3(self, tmp_path):
        truth = tmp_path / "t.hist"
        samples = tmp_path / "s.txt"
        main(["gen", "--k", "2", "--dim", "2", "--seed", "1", "--out", str(truth)])
        main(["sample", "--in", str(truth), "--n", "50", "--seed", "2",
              "--out", str(samples)])
        rc = main(["oracle", "--in", str(samples), "--k", "2", "--m", "4096"])
        assert rc == 3

    def test_oracle_subcommand_values(self, tmp_path, capsys):
        truth = tmp_path / "t.hist"
        samples = tmp_path / "s.txt"
        main(["gen", "--k", "2", "--dim", "1", "--domain", "discrete", "--m", "8",
              "--seed", "1", "--out", str(truth)])
        main(["sample", "--in", str(truth), "--n", "40", "--seed", "2",
              "--out", str(samples)])
        assert main(["oracle", "--in", str(samples), "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "opt_partial_hier_dk:" in out
        assert main(["oracle", "--in", str(samples), "--k", "2", "--metric", "l2"]) == 0
        assert "opt_hier_l2:" in capsys.readouterr().out

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
            (["--m", "16"], "--m sets the cells of a fixed grid; the adaptive l1 grid takes none"),
        ],
    )
    def test_learn_rejects_bad_options(self, tmp_path, capsys, args, message):
        samples = tmp_path / "s.txt"
        samples.write_text("# dim=1 domain=unit\n0.25\n0.75\n")
        assert main(["learn", "--in", str(samples), "--k", "1"] + args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(ValueError, match="positive and finite"):
            RunConfig(input_path=str(samples), xi=float("inf")).validate()
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
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, dyadhist; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_run_leaves_stderr_empty(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dyadhist.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dyadhist.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout
