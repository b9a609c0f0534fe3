"""sampling.uniform_rows, the one rewind of a generator in the package,
against the one-row draws it stands for: the rows and the generator's end
state of count calls of its redraw, for its own rejections, for the
table's and the identity suite's, and for rejections that redraw would
not have made."""

import numpy as np
import pytest

from quatcalc import identities, tables
from quatcalc.sampling import make_rng, random_quaternion, uniform_rows

RANGES = [(-2.0, 2.0), (-2.0, 2.0)]
COUNT = 12


def _state(rng):
    """rng's state, its arrays as lists, so that == compares it."""
    def plain(x):
        if isinstance(x, dict):
            return {key: plain(value) for key, value in x.items()}
        return x.tolist() if isinstance(x, np.ndarray) else x
    return plain(rng.bit_generator.state)


def _one_by_one(rng, count, redraw):
    return np.array([redraw(rng) for _ in range(count)]).reshape(count, -1)


def _assert_same_draws(seed, count, ranges, keep, redraw, stream=0):
    bulk_rng, loop_rng = make_rng(seed, stream), make_rng(seed, stream)
    rows = uniform_rows(bulk_rng, count, ranges, keep, redraw)
    expected = _one_by_one(loop_rng, count, redraw)
    assert rows.shape == expected.shape
    assert [x.hex() for x in rows.ravel().tolist()] \
        == [x.hex() for x in expected.ravel().tolist()]
    assert _state(bulk_rng) == _state(loop_rng)
    return rows


def _rejecting_sampler(seed, count, rejected_rows):
    """keep and redraw for two quaternions a row, where redraw rejects the
    first draw of one quaternion of each row in rejected_rows (the first at
    even rows, the second at odd ones) and no other.  A draw is rejected
    when its real part is one of the values picked from the seed's stream,
    so the rejections fall on exactly those rows."""
    lo, hi = RANGES[0]
    rng = make_rng(seed)
    # The real part of each quaternion drawn in turn, as random_quaternion maps it.
    reals = [lo + (hi - lo) * u[0]
             for u in rng.random((2 * count + len(rejected_rows), 4)).tolist()]
    banned, slot = set(), 0
    for row in range(count):
        for part in range(2):
            if row in rejected_rows and part == row % 2:
                banned.add(reals[slot])
                slot += 1
            slot += 1

    def draw_one(rng):
        while True:
            q = random_quaternion(rng, lo, hi)
            if q.a not in banned:
                return q

    def redraw(rng):
        return [*draw_one(rng), *draw_one(rng)]

    def keep(rows):
        return ~np.isin(rows[:, 0], list(banned)) & ~np.isin(rows[:, 4], list(banned))

    return keep, redraw


def _spurious(keep, count, rows_to_reject):
    """keep, also rejecting the rows at rows_to_reject.  Every call draws
    the rows still missing, so its first row is row count - len(rows)."""
    def also(rows):
        start = count - len(rows)
        forced = np.isin(np.arange(start, count), list(rows_to_reject))
        return keep(rows) & ~forced
    return also


CASES = {"none": set(), "first": {0}, "middle": {5}, "last": {COUNT - 1},
         "two_in_a_row": {3, 4}, "every_kind": {0, 5, 6, 7, COUNT - 1}}


@pytest.mark.parametrize("rejected", CASES.values(), ids=CASES.keys())
def test_rejections_redraw_as_one_row_draws_do(rejected):
    keep, redraw = _rejecting_sampler(3, COUNT, rejected)
    rows = _assert_same_draws(3, COUNT, RANGES, keep, redraw)
    # Each rejected row moves every later row one quaternion on.
    plain = uniform_rows(make_rng(3), COUNT, RANGES, lambda r: np.ones(len(r), bool), redraw)
    moved = [k for k in range(COUNT) if rows[k].tolist() != plain[k].tolist()]
    assert moved == ([] if not rejected else list(range(min(rejected), COUNT)))


@pytest.mark.parametrize("rejected", CASES.values(), ids=CASES.keys())
def test_a_rejection_redraw_would_not_make_changes_no_row(rejected):
    keep, redraw = _rejecting_sampler(3, COUNT, {5})
    expected = uniform_rows(make_rng(3), COUNT, RANGES, keep, redraw)
    rows = _assert_same_draws(3, COUNT, RANGES, _spurious(keep, COUNT, rejected), redraw)
    assert rows.tolist() == expected.tolist()


def test_no_rows_draw_nothing():
    rng = make_rng(3)
    state = _state(rng)
    rows = uniform_rows(rng, 0, RANGES, None, None)
    assert rows.shape == (0, 8) and _state(rng) == state


def _catching():
    """A uniform_rows that keeps the ranges, keep and redraw it is called with."""
    caught = {}

    def catch(rng, count, ranges, keep, redraw):
        caught.update(ranges=ranges, keep=keep, redraw=redraw)
        return uniform_rows(rng, count, ranges, keep, redraw)

    return caught, catch


# Families whose admissible test rejects points, and two that admit all.
TABLE_FAMILIES = ["inverse", "linear_unit_vector", "arctan_arg", "unit_pure_axis",
                  "square", "linear_modulus_squared"]


@pytest.mark.parametrize("axis_modulus", [0.1, 1.5], ids=["default", "rejecting"])
@pytest.mark.parametrize("family", TABLE_FAMILIES)
def test_the_tables_rows_are_sample_one_calls(family, axis_modulus, monkeypatch):
    monkeypatch.setattr(tables, "AXIS_MODULUS", axis_modulus)
    caught, catch = _catching()
    monkeypatch.setattr(tables, "uniform_rows", catch)
    tables.sample_batch(tables.FAMILIES[family], make_rng(8, 2), 40)
    rows = _assert_same_draws(8, 40, caught["ranges"], caught["keep"], caught["redraw"],
                              stream=2)
    spurious = _spurious(caught["keep"], 40, {0, 17, 18, 39})
    again = _assert_same_draws(8, 40, caught["ranges"], spurious, caught["redraw"], stream=2)
    assert again.tolist() == rows.tolist()


@pytest.mark.parametrize("point_modulus", [0.1, 1.5], ids=["default", "rejecting"])
def test_the_identity_suites_rows_are_point_row_calls(point_modulus, monkeypatch):
    monkeypatch.setattr(identities, "POINT_MODULUS", point_modulus)
    monkeypatch.setattr(tables, "AXIS_MODULUS", point_modulus)
    args = (identities._ROW_RANGES, identities._kept_rows, identities._point_row)
    rows = _assert_same_draws(20240501, 60, *args)
    keep = _spurious(identities._kept_rows, 60, {0, 30, 31, 59})
    again = _assert_same_draws(20240501, 60, identities._ROW_RANGES, keep,
                               identities._point_row)
    assert again.tolist() == rows.tolist()
    if point_modulus > 0.1:
        # 17 of the 60 rows have a first draw to reject.
        replays = []
        redraw = lambda rng: replays.append(1) or identities._point_row(rng)
        uniform_rows(make_rng(20240501), 60, identities._ROW_RANGES,
                     identities._kept_rows, redraw)
        assert len(replays) > 10
