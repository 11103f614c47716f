"""Unit tests for (sub-)trajectory record serialisation."""

import numpy as np
import pytest

from repro.storage.records import encode_record
from tests.conftest import make_linear_trajectory
from tests.storage.oracles import decode_record


class TestTrajectoryRecords:
    def test_round_trip_whole_trajectory(self):
        traj = make_linear_trajectory("aircraft-1", "run/7")
        record = decode_record(encode_record(traj))
        assert record.obj_id == "aircraft-1"
        assert record.traj_id == "run/7"
        assert not record.is_subtrajectory
        np.testing.assert_allclose(record.xs, traj.xs)
        np.testing.assert_allclose(record.ys, traj.ys)
        np.testing.assert_allclose(record.ts, traj.ts)

    def test_round_trip_subtrajectory(self):
        traj = make_linear_trajectory("a", "0")
        sub = traj.subtrajectory(2, 7)
        record = decode_record(encode_record(sub))
        assert record.is_subtrajectory
        assert record.parent_start == 2 and record.parent_end == 7
        assert record.obj_id == "a" and record.traj_id == "0"
        np.testing.assert_allclose(record.xs, sub.traj.xs)

    def test_to_trajectory_materialisation(self):
        traj = make_linear_trajectory("m", "1")
        restored = decode_record(encode_record(traj)).to_trajectory()
        assert restored == traj

    def test_unicode_identifiers(self):
        traj = make_linear_trajectory("Ωμέγα", "τ-1")
        record = decode_record(encode_record(traj))
        assert record.obj_id == "Ωμέγα"
        assert record.traj_id == "τ-1"

    def test_identifier_length_limit(self):
        traj = make_linear_trajectory("x" * 70000, "0")
        with pytest.raises(ValueError):
            encode_record(traj)

    def test_float_precision_preserved(self):
        traj = make_linear_trajectory("p", "0", (0.123456789012345, 0), (9.87654321098765, 0))
        record = decode_record(encode_record(traj))
        assert record.xs[0] == traj.xs[0]
        assert record.xs[-1] == traj.xs[-1]
