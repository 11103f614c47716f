"""The trajectory invariant, owned by ``MODFrame`` and by ``Trajectory(...)``.

A frame checks every row once, vectorised, whichever way it was built; the
public constructor checks one trajectory.  Both must accept and refuse the
same samples with the same message, and a frame row handed out as a view
must equal the trajectory the validating constructor builds from it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.frame import MODFrame, subtrajectory_from_slice
from repro.hermes.shm import ShmArena
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from tests.conftest import make_linear_trajectory


def raw_frame(rows: list[tuple[list[float], list[float], list[float]]]) -> tuple:
    """``(keys, xs, ys, ts, offsets)`` of unchecked per-row columns."""
    keys = [(f"o{i}", "0") for i in range(len(rows))]
    lengths = [len(ts) for _xs, _ys, ts in rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])

    def column(k: int) -> np.ndarray:
        return np.array([v for row in rows for v in row[k]], dtype=float)

    return keys, column(0), column(1), column(2), offsets


def constructor_error(rows) -> str | None:
    """The first row's ``Trajectory(...)`` error, in row order, or ``None``."""
    for i, (xs, ys, ts) in enumerate(rows):
        try:
            Trajectory(f"o{i}", "0", xs, ys, ts)
        except ValueError as exc:
            return str(exc)
    return None


def published_unchecked(payload: tuple, arena: ShmArena) -> tuple[str, dict]:
    """Publish columns that never went through a check, as a foreign writer could."""
    frame = MODFrame.__new__(MODFrame)
    frame.keys, frame.xs, frame.ys, frame.ts, frame.offsets = payload
    return frame.to_shm(arena)


def refusal(path: str, payload: tuple) -> str:
    """The message a frame construction path refuses ``payload`` with."""
    try:
        if path == "from_shm":
            with ShmArena() as arena:
                name, meta = published_unchecked(payload, arena)
                try:
                    MODFrame.from_shm(name, meta, arena=arena)
                except ValueError as exc:
                    # Leaving the handler drops the traceback and with it
                    # the views into the segment, before the arena closes it.
                    return str(exc)
        elif path == "from_payload":
            MODFrame.from_payload(payload)
        else:
            MODFrame._from_columns(*payload)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{path} accepted the payload")


ONE_SAMPLE = [([0.0, 1.0], [0.0, 1.0], [0.0, 1.0]), ([5.0], [5.0], [3.0])]
FLAT_T = [([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0])]
BACKWARDS_T = [([0.0, 1.0], [0.0, 0.0], [0.0, 1.0]), ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [2.0, 1.0, 3.0])]


class TestEveryConstructionPathChecks:
    @pytest.mark.parametrize(
        "rows, reason",
        [
            (ONE_SAMPLE, "a trajectory needs at least two samples"),
            (FLAT_T, "timestamps must be strictly increasing"),
            (BACKWARDS_T, "timestamps must be strictly increasing"),
        ],
        ids=["one-sample", "flat-t", "backwards-t"],
    )
    @pytest.mark.parametrize("path", ["_from_columns", "from_payload", "from_shm"])
    def test_rejects_what_the_constructor_rejects(self, rows, reason, path):
        expected = constructor_error(rows)
        assert expected is not None and expected.endswith(reason)
        assert refusal(path, raw_frame(rows)) == expected

    def test_error_names_the_first_failing_row(self):
        rows = [
            ([0.0, 1.0], [0.0, 0.0], [0.0, 1.0]),
            ([0.0, 1.0], [0.0, 0.0], [4.0, 4.0]),
            ([0.0], [0.0], [9.0]),
        ]
        with pytest.raises(ValueError, match=r"\('o1', '0'\): timestamps"):
            MODFrame._from_columns(*raw_frame(rows))

    def test_columns_that_disagree_with_the_offsets(self):
        keys, xs, ys, ts, offsets = raw_frame(FLAT_T)
        with pytest.raises(ValueError, match="do not match its offsets"):
            MODFrame._from_columns(keys, xs, ys[:-1], ts, offsets)
        with pytest.raises(ValueError, match="do not match its offsets"):
            MODFrame._from_columns(keys + keys, xs, ys, ts, offsets)

    def test_valid_columns_and_the_empty_frame_pass(self):
        rows = [([0.0, 1.0], [0.0, 0.0], [0.0, 1.0]), ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0])]
        assert len(MODFrame.from_payload(raw_frame(rows))) == 2
        assert len(MODFrame.from_payload(raw_frame([]))) == 0

    def test_extend_checks_the_delta(self):
        frame = MODFrame.from_trajectories([make_linear_trajectory("a")])
        with pytest.raises(ValueError, match="at least two samples"):
            frame.extend(MODFrame.from_payload(raw_frame(ONE_SAMPLE)))
        assert len(frame) == 1


class TestNonFiniteSamples:
    @pytest.mark.parametrize("column", ["xs", "ys", "ts"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor_and_frame_refuse_them_alike(self, column, bad):
        samples = {"xs": [0.0, 1.0, 2.0], "ys": [0.0, 1.0, 2.0], "ts": [0.0, 1.0, 2.0]}
        samples[column][2 if bad == math.inf else 1] = bad
        row = (samples["xs"], samples["ys"], samples["ts"])
        with pytest.raises(ValueError, match=r"\('o0', '0'\)") as excinfo:
            Trajectory("o0", "0", *row)
        with pytest.raises(ValueError) as frame_excinfo:
            MODFrame.from_payload(raw_frame([row]))
        assert str(frame_excinfo.value) == str(excinfo.value)

    def test_nan_time_reads_as_not_increasing_and_inf_as_not_finite(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory("o", "1", [0, 1, 2], [0, 1, 2], [0, math.nan, 2])
        with pytest.raises(ValueError, match="must be finite"):
            Trajectory("o", "1", [0, 1, 2], [0, 1, 2], [0, 1, math.inf])
        with pytest.raises(ValueError, match="must be finite"):
            Trajectory("o", "1", [0, 1, math.nan], [0, 1, 2], [0, 1, 2])

    def test_extreme_finite_magnitudes_are_accepted(self):
        big = np.finfo(float).max
        traj = Trajectory("o", "1", [big, big, -big], [-big, big, big], [0.0, 1.0, 2.0])
        assert MODFrame.from_trajectories([traj]).trajectory_of(0) == traj


sample = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
any_sample = st.one_of(sample, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def row_columns(draw, values=sample, min_size=2):
    n = draw(st.integers(min_value=min_size, max_value=8))
    xs = draw(st.lists(values, min_size=n, max_size=n))
    ys = draw(st.lists(values, min_size=n, max_size=n))
    order = draw(st.sampled_from(["rising", "sorted", "drawn"]))
    if order == "rising":
        steps = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
        ts = list(draw(sample) + np.cumsum(steps))
    else:
        ts = draw(st.lists(values, min_size=n, max_size=n))
        if order == "sorted":
            ts = sorted(ts)  # may repeat an instant
    return xs, ys, ts


class TestVectorisedCheckEqualsConstructor:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(row_columns(values=any_sample, min_size=1), max_size=5))
    def test_same_verdict_same_message(self, rows):
        expected = constructor_error(rows)
        try:
            MODFrame._from_columns(*raw_frame(rows))
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    @settings(max_examples=80, deadline=None)
    @given(st.lists(row_columns(), min_size=1, max_size=6))
    def test_views_equal_validated_trajectories(self, rows):
        rows = [row for row in rows if constructor_error([row]) is None]
        frame = MODFrame._from_columns(*raw_frame(rows))
        for r in range(len(frame)):
            view = frame.trajectory_of(r)
            validated = Trajectory(*frame.keys[r], frame.xs_of(r), frame.ys_of(r), frame.ts_of(r))
            assert type(view) is Trajectory
            assert view == validated
            assert view.bbox == validated.bbox == frame.bbox_of(r)


class TestViewsAreNotRechecked:
    def test_trajectory_of_and_subtrajectory_from_slice_skip_the_constructor(self, monkeypatch):
        frame = MODFrame.from_trajectories([make_linear_trajectory("a"), make_linear_trajectory("b")])
        sliced, _rows = frame.slice_period_rows(Period(12.5, 61.0))
        calls = []
        real = Trajectory.__init__
        monkeypatch.setattr(
            Trajectory, "__init__", lambda self, *a: calls.append(a) or real(self, *a)
        )
        parent = frame.trajectory_of(0)
        sub = subtrajectory_from_slice(parent, sliced.trajectory_of(0))
        assert calls == []
        assert sub.traj.key == ("a", f"0#{sub.start_idx}-{sub.end_idx}")
        assert sub.traj == Trajectory(*sub.traj.key, sub.traj.xs, sub.traj.ys, sub.traj.ts)
        assert sub.traj.xs.base is not None  # a view of the sliced frame's column
