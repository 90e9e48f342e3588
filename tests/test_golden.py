"""Golden traces: the learners' traces and hypothesis files over a seed sweep.

Each case hashes ``SplitTrace.to_text()`` together with the hypothesis file
``write_hypothesis`` writes.  The digests were produced by the tree that
regrouped each leaf's points level by level (before the Morton-ordered
index), by running ``python tests/test_golden.py`` against that source; any
refactor of the tree or the splitting loop must reproduce them byte for byte.
No sample coordinate sits at 1.0, where the adaptive grid's top cell was
changed on purpose.

``GOLDEN_SAMPLES`` holds the sha256 of sample files ``write_samples`` writes
and of the points and counts ``read_samples`` reads back from them.  They
were produced by the line-at-a-time reader and writer (before the
whole-buffer parse), so sample-file I/O must reproduce them byte for byte.

``GOLDEN_EVAL`` holds the sha256 of the plotting dump ``eval --dump-grid``
writes and the ``repr`` of ``l2_sq_dist`` between samples and hypotheses.
They were produced by the per-piece point evaluation (before the overlay
lookup of ``HistHypothesis.value_at``), so point evaluation must reproduce
them bit for bit.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from dyadhist.cli import _dump_grid, gen_truth, sample_from
from dyadhist.core import Domain, EmpiricalDist, GridSpec, l2_sq_dist
from dyadhist.fileio import read_samples, write_hypothesis, write_samples
from dyadhist.split import SplitParams, adaptive_greedy_split, greedy_split, greedy_split_l2

from conftest import make_rng, random_partial_hist


def _discrete_samples(rng, m, dim, n):
    """Half uniform, half clustered in one corner, so splits go deep."""
    pts = rng.integers(1, m + 1, size=(n, dim))
    hot = rng.integers(1, max(2, m // 4) + 1, size=(n // 2, dim))
    return np.vstack([pts, hot])


def _unit_samples(rng, dim, n, q):
    """Coordinates on the lattice j/q (j < q) mixed with continuous ones."""
    lattice = rng.integers(0, q, size=(n, dim)) / q
    cont = rng.random((n // 3, dim)) * 0.999
    return np.vstack([lattice, lattice[: n // 4], cont])


def sweep_cases():
    """(name, thunk) pairs; each thunk returns (hypothesis, trace)."""
    cases = []
    params = [(1, 1.0), (2, 0.5), (3, 2.0)]
    for dim, m in ((1, 8), (1, 32), (2, 8), (2, 16)):
        for seed in range(3):
            k, xi = params[seed]
            rng = make_rng(7_000 + 97 * dim + m + seed)
            dom = Domain.discrete(m, dim)
            emp = EmpiricalDist.from_samples(dom, _discrete_samples(rng, m, dim, 60 + 40 * seed))
            grid = GridSpec.uniform(dom, m)
            p = SplitParams(k=k, xi=xi)
            cases.append((f"l1-d{dim}-m{m}-s{seed}", lambda e=emp, g=grid, p=p: greedy_split(e, g, p)))
            cases.append((f"l2-d{dim}-m{m}-s{seed}", lambda e=emp, g=grid, p=p: greedy_split_l2(e, g, p)))
    for dim, q in ((1, 9), (2, 7), (2, 40), (3, 5)):
        for seed in range(3):
            k, xi = params[seed]
            rng = make_rng(9_000 + 31 * dim + q + seed)
            dom = Domain.unit(dim)
            emp = EmpiricalDist.from_samples(dom, _unit_samples(rng, dim, 90 + 30 * seed, q))
            p = SplitParams(k=k, xi=xi)
            cases.append((f"adaptive-unit-d{dim}-q{q}-s{seed}", lambda e=emp, p=p: adaptive_greedy_split(e, p)))
    for dim in (1, 2, 3):
        rng = make_rng(11_000 + dim)
        dom = Domain.discrete(12, dim)
        emp = EmpiricalDist.from_samples(dom, _discrete_samples(rng, 12, dim, 80))
        p = SplitParams(k=2, xi=1.0)
        cases.append((f"adaptive-discrete-d{dim}", lambda e=emp, p=p: adaptive_greedy_split(e, p)))
    return cases


def case_digest(thunk) -> str:
    hyp, trace = thunk()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.hist"
        write_hypothesis(path, hyp)
        hist = path.read_bytes()
    sha = hashlib.sha256()
    sha.update(trace.to_text().encode("utf-8"))
    sha.update(b"\x00")
    sha.update(hist)
    return sha.hexdigest()


GOLDEN = {
    "l1-d1-m8-s0": "1751a2f1ef6967ce1ab488a47b4fed00733ae273c13d983d5099b5ff0aac0a93",
    "l2-d1-m8-s0": "1bf923b4f222621e787db2769b2a7256c8c2042816f0213efc9b420189f671f0",
    "l1-d1-m8-s1": "f3c3a31ade8030f62bdc083640c5a6cc5624a8f6c9bf3fa86931f850f3fa8c8f",
    "l2-d1-m8-s1": "8e30b8bdda3e77c3911139008747164afa77967d70c59b602e9732d98eb9d6b8",
    "l1-d1-m8-s2": "5dc2da4ad328b6dce55091f736de84a8e423ff2a5cc90d0746f90dfea1776210",
    "l2-d1-m8-s2": "027651a926fec6ca7ed1646f748e60d0a4c0a9c509520d35d74ad3a2ad2c8972",
    "l1-d1-m32-s0": "6d6b6aef489c4b88a967b46b4ab15994b350c049c2f36ee16f0d9a955d2d24d3",
    "l2-d1-m32-s0": "3207b5b61c9fc9151cc1a9625a23a18508a9b40d6dfc771baff25dfcf0b84e16",
    "l1-d1-m32-s1": "fb85079b5c26037c8d882c2e29248831d0e985a890f6a89d0de1a3fbbbdf92e5",
    "l2-d1-m32-s1": "338f37e265d47c2d944889e8f1c673b48a46aa20c682a3253032675a9f275bec",
    "l1-d1-m32-s2": "c900b588ffa1b8c94ade1bf2d69e8aa0193dfe99db9648040168c8aa4887cdce",
    "l2-d1-m32-s2": "bcca3dde21367e2db1deb86615a0a7a521d74c52b048cae58520d1ac68d7782d",
    "l1-d2-m8-s0": "7b94426d94c8bb3f471520a20caa630a26746363a282ce2b11f48423c2321f26",
    "l2-d2-m8-s0": "2d47a4a856806d0f598dea933a04ff4bf9af1e5cda33e04a3fd2fe03ec79ea70",
    "l1-d2-m8-s1": "dc1d62c96b97b103fb8104530773cb86419829054195321934f061238a535d29",
    "l2-d2-m8-s1": "956a99869e1a596bce6b797e9f2fdac3daa6b6ca5001b39f37953262a1f527ad",
    "l1-d2-m8-s2": "88f2aa835303c00e9aff7714552f1829bc92a48e892478678a049d399a90414a",
    "l2-d2-m8-s2": "e1c8112eae9d828478e5e0f9904965429187ebb5615ab1c90ee83a13e763a86e",
    "l1-d2-m16-s0": "9d6be249b3ebc843d31bb4e93bf814497ccdbcf3e5a952947bbd927c53fa19b5",
    "l2-d2-m16-s0": "f703aeff7e515d48147c384002a0ca55b732d82414050640e6b50bccd9bf1cf7",
    "l1-d2-m16-s1": "c99226a062f505a61c00f3350448f6fcb9fa606dd1e3ca8972b1925a4eae027c",
    "l2-d2-m16-s1": "f724f6865c9dc320858162b9a1b326088164e202d26ef3856b28155f2c487bdf",
    "l1-d2-m16-s2": "aa731c79a4f9ff78b17d5c690788007e05ffd0861888558da9172812ff77aebb",
    "l2-d2-m16-s2": "fdb1b0150911b5184b5338a2dda487814be638d2bebf2a1e19b9479e6132968d",
    "adaptive-unit-d1-q9-s0": "1f354b42f192db79fa960c69b2a543d6371e7ff0126661c9900b0a2d3f0dfc57",
    "adaptive-unit-d1-q9-s1": "e7108579d1ad5a00f52fcef88648ae5c29a73b8d7e7d0df82fcfa98675e5bbb4",
    "adaptive-unit-d1-q9-s2": "1c7914d3d07111b469155c8579c86a63ab8e8e9c8f8d06a1bae6d72cc8035e14",
    "adaptive-unit-d2-q7-s0": "864e35eaeb48a2ce80d921002c269dd720b85fdf49d376758310d43d8b15dfeb",
    "adaptive-unit-d2-q7-s1": "e347f5c9ebcef58126eeb8593bc3323c1bc32cd9d2869091c4363ab6cb45216e",
    "adaptive-unit-d2-q7-s2": "0bd1ecd111ec8a58f9e57707dedad681ccbadbf607f2131e208daf0c0417d52f",
    "adaptive-unit-d2-q40-s0": "0b276662a26c913e5f60457eef46630acd621c039619459f819bde5278fa5e5e",
    "adaptive-unit-d2-q40-s1": "e528d5bde52c31e2e5b27959be44ed24e344c3a5b8248d57a673b3f28a90da86",
    "adaptive-unit-d2-q40-s2": "5a9b4dccb8df5f9f5e3d0c930ba92091ed36c453277f24cc562659a7ba896655",
    "adaptive-unit-d3-q5-s0": "31c8530a5f9819f5087a675a3fb276927e5934c93152f121e23d0b603c1db8f8",
    "adaptive-unit-d3-q5-s1": "87e54286b7fee3b47449d4eec88d357262de2b05cb6e01f9e72dcdfdc6b8c5c5",
    "adaptive-unit-d3-q5-s2": "5c871b0cca0d303b71ee8dd5296ceee5317154d05103db7e9aaf5835420c3f61",
    "adaptive-discrete-d1": "56b21f7f965d30c087e42febffb1dac5f2003c7ea53bd0a6c9800723668098d6",
    "adaptive-discrete-d2": "c89f81955a08716c65b6c8d67c4f99b3d200dbdf2f3daf3d289b2cd557a540c7",
    "adaptive-discrete-d3": "b2abb502b25bd9c578ecfaa7bc664b539f0ff9b3279913fbd4b10524d6416ac7",
}


def dump_digest(h, res) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        _dump_grid(h, res, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def eval_cases():
    """(name, thunk) pairs; each thunk returns a dump digest or an ``l2_sq_dist`` repr."""
    cases = []
    params = SplitParams(k=5, xi=1.0)
    for dim, n, res in ((1, 30_000, 4096), (2, 20_000, 64)):
        emp = sample_from(gen_truth(5, Domain.unit(dim), seed=11), n, seed=3)
        cases.append((f"dump-unit-d{dim}-{res}",
                      lambda e=emp, res=res: dump_digest(adaptive_greedy_split(e, params)[0], res)))
    dom = Domain.discrete(64, 2)
    truth = gen_truth(5, dom, seed=11)
    emp, other = sample_from(truth, 20_000, seed=3), sample_from(truth, 15_000, seed=4)
    grid = GridSpec.uniform(dom, 64)
    hyp = greedy_split_l2(emp, grid, params)[0]
    partial = random_partial_hist(make_rng(5), grid, 6)
    cases += [
        ("dump-discrete-d2-48", lambda: dump_digest(hyp, 48)),
        ("l2-emp-hier", lambda: repr(l2_sq_dist(emp, hyp))),
        ("l2-hier-emp", lambda: repr(l2_sq_dist(hyp, emp))),
        ("l2-emp-partial", lambda: repr(l2_sq_dist(other, partial))),
        ("l2-emp-truth", lambda: repr(l2_sq_dist(other, truth))),
        ("l2-emp-emp", lambda: repr(l2_sq_dist(emp, other))),
        ("l2-emp-emp-swapped", lambda: repr(l2_sq_dist(other, emp))),
    ]
    d1 = Domain.discrete(1000, 1)
    a = EmpiricalDist.from_samples(d1, make_rng(6).integers(1, 1001, size=(5_000, 1)))
    b = EmpiricalDist.from_samples(d1, make_rng(7).integers(1, 300, size=(4_000, 1)))
    cases.append(("l2-emp-emp-d1", lambda: repr(l2_sq_dist(a, b))))
    return cases


GOLDEN_EVAL = {
    "dump-unit-d1-4096": "2b35d22f689adaa94c07b86f28a53553cf30859279ef8b9baf6717940938da10",
    "dump-unit-d2-64": "5ae00be5f9d7536a5deb93d229dab4aa0faa13629723e6d2a025e85dee05c21b",
    "dump-discrete-d2-48": "b69c7211bda52a5e75bd8d5506270535a244ea4778967c7a857bfee8b5224634",
    "l2-emp-hier": "5.424695312500013e-05",
    "l2-hier-emp": "5.424695312500013e-05",
    "l2-emp-partial": "0.035166918271818594",
    "l2-emp-truth": "6.189485244716922e-05",
    "l2-emp-emp": "0.00010896555555555554",
    "l2-emp-emp-swapped": "0.00010896555555555554",
    "l2-emp-emp-d1": "0.002824005",
}


def sample_file_cases():
    """(name, thunk) pairs; each thunk returns an EmpiricalDist to write and re-read."""
    unit3 = _unit_samples(make_rng(13_000), 3, 3_000, 5)
    return [
        ("samples-unit-d1", lambda: sample_from(gen_truth(5, Domain.unit(1), seed=11), 20_000, seed=3)),
        ("samples-discrete-d2", lambda: sample_from(gen_truth(5, Domain.discrete(64, 2), seed=11), 20_000, seed=3)),
        ("samples-unit-d3", lambda: EmpiricalDist.from_samples(Domain.unit(3), unit3)),
    ]


def sample_file_digests(thunk) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        write_samples(path, thunk())
        back = read_samples(path)
        text = path.read_bytes()
    read = back.points.dtype.str.encode() + back.points.tobytes() + back.counts.tobytes()
    return hashlib.sha256(text).hexdigest(), hashlib.sha256(read).hexdigest()


GOLDEN_SAMPLES = {
    "samples-unit-d1": (
        "421d8199647c01c6dee18118e03af3fe48698c09e5b2539a81af3f72c2517597",
        "a69a95820570cb3136309bea2e2d81e460b3ea89ac40535c05177b4f0273be80",
    ),
    "samples-discrete-d2": (
        "1ff9afc01e1e0a9a2f14097c6022fd44d69aba18f358a3840980b8e559e12b79",
        "0cd683ce5ee46bf8c77da8a10bc260a2042006dbb217e089d1cd73754bd2c9ae",
    ),
    "samples-unit-d3": (
        "1326295265ca6599169f2ddf053ed7a6dbc848b9d24b5261afee469fb7a2aa32",
        "6964686978c3a78fe8cd18359886b42449692a6c4625cfdc678f22ae5d7a6ac7",
    ),
}


def test_golden_traces_and_hypotheses():
    got = {name: case_digest(thunk) for name, thunk in sweep_cases()}
    assert set(got) == set(GOLDEN)
    differ = sorted(name for name in got if got[name] != GOLDEN[name])
    assert not differ, f"traces or hypothesis files changed: {differ}"


def test_golden_dumps_and_l2_distances():
    got = {name: thunk() for name, thunk in eval_cases()}
    assert got == GOLDEN_EVAL


def test_golden_sample_files():
    got = {name: sample_file_digests(thunk) for name, thunk in sample_file_cases()}
    assert got == GOLDEN_SAMPLES


if __name__ == "__main__":
    # prints the GOLDEN tables for the dyadhist found first on sys.path
    sys.stdout.write("GOLDEN = {\n")
    for name, thunk in sweep_cases():
        sys.stdout.write(f'    "{name}": "{case_digest(thunk)}",\n')
    sys.stdout.write("}\n\nGOLDEN_EVAL = {\n")
    for name, thunk in eval_cases():
        sys.stdout.write(f'    "{name}": "{thunk()}",\n')
    sys.stdout.write("}\n\nGOLDEN_SAMPLES = {\n")
    for name, thunk in sample_file_cases():
        file_sha, read_sha = sample_file_digests(thunk)
        sys.stdout.write(f'    "{name}": (\n        "{file_sha}",\n        "{read_sha}",\n    ),\n')
    sys.stdout.write("}\n")
