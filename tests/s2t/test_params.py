"""Unit tests for S2T parameter handling."""

import pytest

from repro.s2t.params import S2TParams


class TestS2TParams:
    def test_defaults_are_valid(self):
        params = S2TParams()
        assert params.sigma is None and params.eps is None

    def test_validation(self):
        with pytest.raises(ValueError):
            S2TParams(voting_kernel="boxcar")
        with pytest.raises(ValueError):
            S2TParams(segmentation_method="magic")
        with pytest.raises(ValueError):
            S2TParams(min_segment_samples=1)
        with pytest.raises(ValueError):
            S2TParams(gain_threshold=1.5)
        with pytest.raises(ValueError):
            S2TParams(min_cluster_support=0)

    def test_resolved_fills_data_driven_defaults(self, small_mod):
        resolved = S2TParams().resolved(small_mod)
        assert resolved.sigma is not None and resolved.sigma > 0
        assert resolved.eps is not None and resolved.eps > 0
        assert resolved.coverage_radius == pytest.approx(2.0 * resolved.eps)

    def test_resolved_respects_explicit_values(self, small_mod):
        resolved = S2TParams(sigma=1.5, eps=2.5, coverage_radius=9.0).resolved(small_mod)
        assert resolved.sigma == 1.5
        assert resolved.eps == 2.5
        assert resolved.coverage_radius == 9.0

    def test_resolved_is_idempotent(self, small_mod):
        once = S2TParams().resolved(small_mod)
        twice = once.resolved(small_mod)
        assert once == twice

    def test_from_dict_names_an_unknown_key(self):
        data = S2TParams(eps=2.0).to_dict()
        assert S2TParams.from_dict(data) == S2TParams(eps=2.0)
        with pytest.raises(ValueError, match="use_index"):
            S2TParams.from_dict({**data, "use_index": True})

    def test_from_dict_refuses_dense_voting(self):
        data = S2TParams().to_dict()
        assert data["voting_strategy"] == "batched"
        with pytest.raises(ValueError, match="'dense'.*tests/s2t/oracles.py"):
            S2TParams.from_dict({**data, "voting_strategy": "dense"})

    def test_retired_voting_samples_is_refused_by_name(self):
        # Trees stored before the field went carry it; their reopen relies
        # on this refusal to fall back to a rebuild.
        data = S2TParams().to_dict()
        with pytest.raises(ValueError, match="unknown S2T parameter.*voting_samples"):
            S2TParams.from_dict({**data, "voting_samples": 64})
        with pytest.raises(TypeError, match="voting_samples"):
            S2TParams(voting_samples=64)  # type: ignore[call-arg]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            S2TParams().sigma = 3.0  # type: ignore[misc]
