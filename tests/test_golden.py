"""Golden traces: the learners' traces and hypothesis files over a seed sweep.

Each case hashes ``SplitTrace.to_text()`` together with the hypothesis file
``write_hypothesis`` writes.  The ``l2-*`` digests were produced by the tree
that regrouped each leaf's points level by level (before the Morton-ordered
index), by running ``python tests/test_golden.py`` against that source.  The
``l1-*`` and ``adaptive-*`` digests were produced the same way by the first
exact constant fit (envelope crossing), which replaced the fit to a
tolerance and so changed the fitted values.  Any refactor of the tree, the
fit or the splitting loop must reproduce them byte for byte.  They also
depend on how ``fit_d1`` rounds the crossing of two lines: it is the one
float expression (m_p + m_q) / (v_p + v_q), which can land an ulp away from
the exact crossing, and ``test_ddist.py::TestFitD1::test_crossing_is_rounded_once``
pins it.  No sample
coordinate sits at 1.0, where the adaptive grid's top cell was changed on
purpose.

``GOLDEN_SAMPLES`` holds the sha256 of sample files ``write_samples`` writes
and of the points and counts ``read_samples`` reads back from them.  They
were produced by the line-at-a-time reader and writer (before the
whole-buffer parse), so sample-file I/O must reproduce them byte for byte.

``GOLDEN_EVAL`` holds the sha256 of the plotting dump ``eval --dump-grid``
writes and the ``repr`` of ``l2_sq_dist`` between samples and hypotheses.
They were produced by the per-piece point evaluation (before the overlay
lookup of ``HistHypothesis.value_at``), so point evaluation must reproduce
them bit for bit.  The two ``dump-unit-*`` dumps evaluate L1-learned
hypotheses, so they were regenerated with the ``adaptive-*`` digests.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from dyadhist.cli import gen_truth, sample_from
from dyadhist.core import Domain, EmpiricalDist, GridSpec, l2_sq_dist
from dyadhist.fileio import read_samples, write_grid, write_hypothesis, write_samples
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
    "l1-d1-m8-s0": "b085c1dcc9ed5bbd4ec648989b3e2a058eec0efb35be0de67b5b03a77350a6bf",
    "l2-d1-m8-s0": "1bf923b4f222621e787db2769b2a7256c8c2042816f0213efc9b420189f671f0",
    "l1-d1-m8-s1": "9337c68ab4ce78cb84a06ac7938822323b4d8ef55847cedb37ad8c92a7f06b6d",
    "l2-d1-m8-s1": "8e30b8bdda3e77c3911139008747164afa77967d70c59b602e9732d98eb9d6b8",
    "l1-d1-m8-s2": "7323af63235d0589fb67924aad499849810b16ce066bc702455a4a61a118aa84",
    "l2-d1-m8-s2": "027651a926fec6ca7ed1646f748e60d0a4c0a9c509520d35d74ad3a2ad2c8972",
    "l1-d1-m32-s0": "9cb9d54ecd9353478bdc360c60cde62c7c41d55fb9d9b8cbbc8e34fe83e8592b",
    "l2-d1-m32-s0": "3207b5b61c9fc9151cc1a9625a23a18508a9b40d6dfc771baff25dfcf0b84e16",
    "l1-d1-m32-s1": "439f5bb99f4871e4c2ff66d81413b2bdde1f664d1f5e306d55f38e675d842570",
    "l2-d1-m32-s1": "338f37e265d47c2d944889e8f1c673b48a46aa20c682a3253032675a9f275bec",
    "l1-d1-m32-s2": "2afb363ba7e75ca7ffdd16099c29b06cc2a498539ab13d9d161894759cf314ec",
    "l2-d1-m32-s2": "bcca3dde21367e2db1deb86615a0a7a521d74c52b048cae58520d1ac68d7782d",
    "l1-d2-m8-s0": "479854baa4c77bbfd1f9b0eed52ec4a96161b714fae97de29edad9e97f0c9416",
    "l2-d2-m8-s0": "2d47a4a856806d0f598dea933a04ff4bf9af1e5cda33e04a3fd2fe03ec79ea70",
    "l1-d2-m8-s1": "001f874897280d6997a5baadbccce4f3f9c905022c6c6a1182a9cef9be58b49b",
    "l2-d2-m8-s1": "956a99869e1a596bce6b797e9f2fdac3daa6b6ca5001b39f37953262a1f527ad",
    "l1-d2-m8-s2": "81c713862d24e317cda7786db471c43f9666ffa646dc3c4e62addb510d77f7f2",
    "l2-d2-m8-s2": "e1c8112eae9d828478e5e0f9904965429187ebb5615ab1c90ee83a13e763a86e",
    "l1-d2-m16-s0": "a99ee1a20a4500024517bf5a6782707a2057b6a07f1f96db984823021b027bc5",
    "l2-d2-m16-s0": "f703aeff7e515d48147c384002a0ca55b732d82414050640e6b50bccd9bf1cf7",
    "l1-d2-m16-s1": "5726b5fb9c32f22562d6e686f42751996b97b928b41b421459433babbf47b228",
    "l2-d2-m16-s1": "f724f6865c9dc320858162b9a1b326088164e202d26ef3856b28155f2c487bdf",
    "l1-d2-m16-s2": "a82c00e3cf1c8113c9e4bbb3c6168655fc8ab15b3ab11f7beb0d97aeb5533ae6",
    "l2-d2-m16-s2": "fdb1b0150911b5184b5338a2dda487814be638d2bebf2a1e19b9479e6132968d",
    "adaptive-unit-d1-q9-s0": "c198b5e14eeff24fbf91ec8057ebf8695797505f7c64094e23adb8f4cd8b1d55",
    "adaptive-unit-d1-q9-s1": "839b352e70353a78aa2b4ae9d1b9dbbb455e59e311462d8709f2332f077da831",
    "adaptive-unit-d1-q9-s2": "369dba9117e8acdf0f4d96bc85b2715225b19e53da973ddc4f5ef1c78336f386",
    "adaptive-unit-d2-q7-s0": "02233198d15d3d96ece77697351e0c1bd1fe43395b1f957b9cffc049ef749fb6",
    "adaptive-unit-d2-q7-s1": "237fb8798434e1f3916a863e066cd0670f1b1f447e954814c84829e56fb18b8d",
    "adaptive-unit-d2-q7-s2": "e5e957a1124c0108de24a9c3e2566361044f238abe05bee35370903abc6dbb21",
    "adaptive-unit-d2-q40-s0": "47ef355ffa16a2ad8fbf2e9af7e54600a84de58c1c282fc0b87747a522555925",
    "adaptive-unit-d2-q40-s1": "912f4eaf7013e8c1044f9e8d01dff0077e238940b603fefc9e990f07693364df",
    "adaptive-unit-d2-q40-s2": "293af4d60b29ac6a25216c3ecc978d7125443e39061a55f00c168cda258bed3b",
    "adaptive-unit-d3-q5-s0": "98bca4d92d4725cc200f9268f01c030309e71ba12c599ea9a29e9b270ab8138b",
    "adaptive-unit-d3-q5-s1": "dcb60cc58e0f8c0ac6ddeae6e34e21d9f416abca4b7da58c5882b461c45a5018",
    "adaptive-unit-d3-q5-s2": "c6cfc954355d8b46f536a646fdd00adda7f9656662ed8a935cdacae6da6a7f59",
    "adaptive-discrete-d1": "223c3a138d5ca8cf98305fbd9980150b8a3dc9cb8d3d8d44bb3268334e869a95",
    "adaptive-discrete-d2": "eeb39c8936e0c8718b3608a4b89eaed9ad30a2f15fa3ab76da465caf07b990eb",
    "adaptive-discrete-d3": "4abcfc425d81b16f935f0287a227849a003b5864ff5376f8e4ca700a58e15587",
}


def dump_digest(h, res) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        write_grid(path, h, res)
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
    "dump-unit-d1-4096": "6c81175f400a3c53c95ee213cf184b11b815098eacfbe86149d552bb99b7aced",
    "dump-unit-d2-64": "fbb12ea9f0d63d770e5f9849cd944311efeeb32f322ee529ce2f758ecee97a9f",
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
