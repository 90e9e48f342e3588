"""Hand-computed cases for the reference module.

Run with ``python3 -m pytest bench/test_reference.py``; ``run.py`` also runs
them before every benchmark run, so a broken reference never passes a check.
The parse tests write their files under ``tempfile.gettempdir()``.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

import reference as ref

UNIT1 = (1, None)
UNIT2 = (2, None)


def hist(rows):
    """Rows of (lo..., hi..., value) -> (lo, hi, val)."""
    rows = np.asarray(rows, dtype=np.float64)
    d = (rows.shape[1] - 1) // 2
    return rows[:, :d], rows[:, d : 2 * d], rows[:, -1]


def _write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def test_parse_samples_and_line_count():
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "s.txt", "# dim=2 domain=unit\n0.25,0.5\n1,0\n\n0.125,0.75\n")
        domain, pts = ref.parse_samples(path)
        assert domain == UNIT2
        assert pts.tolist() == [[0.25, 0.5], [1.0, 0.0], [0.125, 0.75]]
        assert ref.data_line_count(path) == 3


def test_parse_hypothesis():
    with tempfile.TemporaryDirectory() as d:
        text = "# dim=2 domain=discrete 4 kind=arbitrary\n1,3,1,5,0.125\n3,5,1,5,0.0625\n"
        domain, (lo, hi, val) = ref.parse_hypothesis(_write(d, "h.hist", text))
        assert domain == (2, 4)
        assert lo.tolist() == [[1, 1], [3, 1]]
        assert hi.tolist() == [[3, 5], [5, 5]]
        assert val.tolist() == [0.125, 0.0625]


def test_l1_distance_by_hand():
    # [0,.5) at 2 and [.5,1] at 0 against the uniform density: 0.5*1 + 0.5*1
    step = hist([[0.0, 0.5, 2.0], [0.5, 1.0, 0.0]])
    assert math.isclose(ref.l1_distance(UNIT1, step, ref.uniform(UNIT1)), 1.0)
    # left half 1.5, right half 0.5 on the square: 0.5*0.5 + 0.5*0.5
    halves = hist([[0, 0, 0.5, 1, 1.5], [0.5, 0, 1, 1, 0.5]])
    assert math.isclose(ref.l1_distance(UNIT2, halves, ref.uniform(UNIT2)), 0.5)
    # cuts that do not line up: [0,.25)@4 vs [0,.5)@2, rest 0 -> .25*2 + .25*2
    a = hist([[0.0, 0.25, 4.0], [0.25, 1.0, 0.0]])
    b = hist([[0.0, 0.5, 2.0], [0.5, 1.0, 0.0]])
    assert math.isclose(ref.l1_distance(UNIT1, a, b), 1.0)
    # on {1..4}: {1} at .5, {2,3,4} at 1/6, against 1/4 everywhere
    disc = hist([[1, 2, 0.5], [2, 5, 1 / 6]])
    assert math.isclose(ref.l1_distance((1, 4), disc, ref.uniform((1, 4))), 0.25 + 3 * (1 / 4 - 1 / 6))


def test_flatten_samples_by_hand():
    pts = np.array([[1.0], [2.0], [4.0]])
    counts = np.array([2, 1, 1])
    flat = ref.flatten_samples((1, 4), pts, counts, hist([[1, 3, 0], [3, 5, 0]]))
    assert flat.tolist() == [0.375, 0.125]  # 3/4 over 2 points, 1/4 over 2 points
    # the top face of the unit cube is closed: 1.0 belongs to [.5, 1]
    flat = ref.flatten_samples(UNIT1, np.array([[0.0], [1.0]]), np.array([1, 1]),
                               hist([[0.0, 0.5, 0], [0.5, 1.0, 0]]))
    assert flat.tolist() == [1.0, 1.0]


def test_lookup_by_hand():
    h = hist([[0.0, 0.5, 2.0], [0.5, 1.0, 0.25], [1.0, 1.0, 9.0]])  # last piece has no volume
    got = ref.lookup(UNIT1, h, np.array([[0.0], [0.4999], [0.5], [1.0]]))
    assert got.tolist() == [2.0, 2.0, 0.25, 0.25]
    try:
        ref.lookup(UNIT1, hist([[0.0, 0.5, 1.0]]), np.array([[0.75]]))
    except ref.CheckFailed:
        pass
    else:
        raise AssertionError("an uncovered point must fail the lookup")


def test_l2_by_hand():
    # one sample at 1 on {1,2} against 1/2 everywhere: (1-.5)^2 + (0-.5)^2
    half = hist([[1, 3, 0.5]])
    assert math.isclose(ref.l2_sq_samples((1, 2), np.array([[1.0]]), np.array([1]), half), 0.5)
    # {1}@.75,{2}@.25 against 1/2 everywhere: .25^2 * 2
    two = hist([[1, 2, 0.75], [2, 3, 0.25]])
    assert math.isclose(ref.l2_sq_hist((1, 2), two, half), 0.125)


def test_tiling_and_bounds():
    ref.check_tiling(UNIT2, hist([[0, 0, 0.5, 1, 1.5], [0.5, 0, 1, 1, 0.5]]), "halves")
    for bad in ([[0, 0, 0.6, 1, 1], [0.5, 0, 1, 1, 1]],   # overlap
                [[0, 0, 0.4, 1, 1], [0.5, 0, 1, 1, 1]]):  # gap
        try:
            ref.check_tiling(UNIT2, hist(bad), "bad")
        except ref.CheckFailed:
            continue
        raise AssertionError(f"{bad} must fail the tiling check")
    assert ref.total_mass(hist([[1, 3, 0.375], [3, 5, 0.125]])) == 1.0
    assert ref.piece_bound(5, 1.0, 2, 16) == 640
    assert ref.adaptive_levels(np.array([[0.1, 0.5], [0.2, 0.5], [0.3, 0.5]])) == 2  # 3 distinct -> M=4


def run_all() -> None:
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()


if __name__ == "__main__":
    run_all()
    print("reference tests passed")
