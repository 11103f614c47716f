"""Metamorphic relations of S2T: maps of space and time that keep the answer.

Hypothesis draws one of the five ``repro.datagen`` scenarios (60
trajectories, seed 3) and a map of it:

* **Exact maps of space** — a quarter turn ``(x, y) -> (-y, x)``, an axis
  reflection and a scaling by a power of two, composed.  Every vote stays
  ``np.array_equal`` and the memberships stay identical, because the
  arithmetic is exact under these maps: negation and power-of-two scaling
  round nothing, ``a + b == b + a`` makes the squared distance
  ``dx*dx + dy*dy`` blind to which axis is which, and sigma / eps (resolved
  from the spatial diagonal) scale exactly with the data.
* **Rounding maps** — a translation of space, and a time offset from 1e9 s
  (epoch seconds, where ``MODFrame``'s banded search key carries the
  fewest low bits).  Every coordinate is rounded, so votes may move in the
  last bits; the memberships and representatives must still be identical.
* **Relabelling maps** — a permutation of the MOD's trajectory order, and a
  renaming of its object ids.  Neither moves a sample, so the partition
  into clusters and outliers must be the same up to the relabelling.  A
  permutation is not exact for the votes: a target sums its voters in row
  order, so every vote may move in its last bits.
* **Duplication in time** — the MOD plus a copy of it shifted past its own
  lifespan, with sigma / eps given explicitly so that the wider time range
  resolves nothing differently.  No sample of one copy co-exists with a
  sample of the other, so the partition is the original one twice, and no
  cluster holds members of both copies.
* **A far outlier** — the MOD plus one trajectory whose box lies farther
  from the MOD's box than both the kernel support radius and ``eps``, within
  the MOD's lifespan, with sigma / eps given explicitly.  It votes on no one
  and no one votes on it, its one zero-mass piece is never sampled, and it
  is beyond ``eps`` of every representative: the other trajectories'
  memberships and representatives stay identical, and every piece of it is
  an outlier.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import datagen
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.voting import compute_voting, kernel_support_radius
from tests.conftest import membership_signature

SCENARIOS = ("lane", "aircraft", "orbit", "urban", "maritime")

scenarios = st.sampled_from(SCENARIOS)


@lru_cache(maxsize=len(SCENARIOS))
def scenario_mod(name: str) -> MOD:
    generate = getattr(datagen, f"{name}_scenario")
    return generate(n_trajectories=60, seed=3)[0]


def mapped(mod: MOD, space=None, time=None) -> MOD:
    """``mod`` with every sample moved by ``space(xs, ys)`` / ``time(ts)``."""
    trajectories = []
    for traj in mod:
        xs, ys = space(traj.xs, traj.ys) if space is not None else (traj.xs, traj.ys)
        ts = time(traj.ts) if time is not None else traj.ts
        trajectories.append(Trajectory(traj.obj_id, traj.traj_id, xs, ys, ts))
    return MOD(name=mod.name, trajectories=trajectories)


def answer(mod: MOD) -> tuple:
    """Memberships plus the representatives' keys, in cluster order."""
    result = S2TClustering(S2TParams()).fit(mod)
    return membership_signature(result), [c.representative.key for c in result.clusters]


@lru_cache(maxsize=len(SCENARIOS))
def scenario_answer(name: str) -> tuple:
    return answer(scenario_mod(name))


@lru_cache(maxsize=len(SCENARIOS))
def scenario_votes(name: str) -> dict:
    return compute_voting(scenario_mod(name), S2TParams()).votes


@settings(max_examples=25, deadline=None)
@given(
    name=scenarios,
    quarter_turns=st.integers(min_value=0, max_value=3),
    reflect=st.booleans(),
    exponent=st.integers(min_value=-40, max_value=40),
)
def test_rotation_reflection_and_power_of_two_scaling_keep_every_vote(
    name, quarter_turns, reflect, exponent
):
    scale = 2.0**exponent

    def space(xs, ys):
        for _ in range(quarter_turns):
            xs, ys = -ys, xs
        if reflect:
            xs = -xs
        return xs * scale, ys * scale

    moved = mapped(scenario_mod(name), space=space)
    votes = compute_voting(moved, S2TParams()).votes
    expected = scenario_votes(name)
    assert list(votes) == list(expected)
    for key, signal in expected.items():
        assert np.array_equal(votes[key], signal), key
    assert answer(moved) == scenario_answer(name)


@settings(max_examples=15, deadline=None)
@given(
    name=scenarios,
    dx=st.floats(min_value=-1e6, max_value=1e6),
    dy=st.floats(min_value=-1e6, max_value=1e6),
)
def test_translation_keeps_memberships(name, dx, dy):
    moved = mapped(scenario_mod(name), space=lambda xs, ys: (xs + dx, ys + dy))
    assert answer(moved) == scenario_answer(name)


@settings(max_examples=15, deadline=None)
@given(name=scenarios, offset=st.floats(min_value=1e9, max_value=2e9))
@example(name="aircraft", offset=1e9)
def test_epoch_time_offset_keeps_memberships(name, offset):
    moved = mapped(scenario_mod(name), time=lambda ts: ts + offset)
    assert answer(moved) == scenario_answer(name)


def partition(mod: MOD, original: dict | None = None) -> tuple:
    """Clusters as a set of member sets, plus the outliers, under ``original``.

    ``original`` maps a renamed object id back to its id in the scenario;
    cluster order is dropped, so two answers compare equal when they split
    the same sub-trajectories the same way.
    """
    result = S2TClustering(S2TParams()).fit(mod)
    back = original or {}

    def key(member) -> tuple:
        obj, *rest = member.key
        return (back.get(obj, obj), *rest)

    clusters = frozenset(frozenset(key(m) for m in c.members) for c in result.clusters)
    return clusters, frozenset(key(o) for o in result.outliers)


@lru_cache(maxsize=len(SCENARIOS))
def scenario_partition(name: str) -> tuple:
    return partition(scenario_mod(name))


@settings(max_examples=15, deadline=None)
@given(name=scenarios, data=st.data())
def test_permuting_trajectory_order_keeps_the_partition(name, data):
    mod = scenario_mod(name)
    order = data.draw(st.permutations(list(mod)))
    assert partition(MOD(name=mod.name, trajectories=order)) == scenario_partition(name)


@settings(max_examples=15, deadline=None)
@given(name=scenarios, data=st.data())
def test_renaming_object_ids_keeps_the_partition(name, data):
    mod = scenario_mod(name)
    ids = sorted({traj.obj_id for traj in mod})
    new_ids = data.draw(st.permutations([f"r{i}" for i in range(len(ids))]))
    renamed = dict(zip(ids, new_ids))
    moved = MOD(
        name=mod.name,
        trajectories=[
            Trajectory(renamed[t.obj_id], t.traj_id, t.xs, t.ys, t.ts) for t in mod
        ],
    )
    original = {new: old for old, new in renamed.items()}
    assert partition(moved, original) == scenario_partition(name)


@settings(max_examples=5, deadline=None)
@given(name=scenarios, stretch=st.floats(min_value=1.0, max_value=8.0, exclude_min=True))
def test_a_copy_in_a_later_disjoint_time_range_duplicates_the_partition(name, stretch):
    mod = scenario_mod(name)
    resolved = S2TParams().resolved(mod)
    params = S2TParams(sigma=resolved.sigma, eps=resolved.eps)
    shift = stretch * mod.period.duration
    copy = [Trajectory(f"{t.obj_id}+", t.traj_id, t.xs, t.ys, t.ts + shift) for t in mod]
    result = S2TClustering(params).fit(MOD(name=mod.name, trajectories=[*mod, *copy]))

    def halves(keys) -> tuple[frozenset, frozenset]:
        """The original copy's keys, and the later copy's mapped back to the original ids."""
        later = {(obj[:-1], *rest) for obj, *rest in keys if obj.endswith("+")}
        return frozenset(k for k in keys if not k[0].endswith("+")), frozenset(later)

    originals, copies = set(), set()
    for cluster in result.clusters:
        first, later = halves([m.key for m in cluster.members])
        assert not (first and later), "a cluster mixes the two copies"
        (originals if first else copies).add(first or later)
    outliers = halves([o.key for o in result.outliers])
    expected_clusters, expected_outliers = scenario_partition(name)
    assert originals == copies == expected_clusters
    assert outliers == (expected_outliers, expected_outliers)


@settings(max_examples=5, deadline=None)
@given(
    name=scenarios,
    corner=st.sampled_from([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]),
    gap=st.floats(min_value=1.5, max_value=50.0),
    donor=st.integers(min_value=0, max_value=59),
)
def test_a_far_outlier_changes_no_other_membership(name, corner, gap, donor):
    mod = scenario_mod(name)
    resolved = S2TParams().resolved(mod)
    params = S2TParams(sigma=resolved.sigma, eps=resolved.eps)
    reach = max(kernel_support_radius(params.sigma, params.voting_kernel), params.eps)
    # A straight run of ``reach`` per axis, starting ``gap`` reaches beyond
    # the MOD's box at one corner, on a trajectory's own timestamps.
    (sx, sy), box, ts = corner, mod.bbox, list(mod)[donor].ts
    x0 = (box.xmax if sx > 0 else box.xmin) + sx * gap * reach
    y0 = (box.ymax if sy > 0 else box.ymin) + sy * gap * reach
    run = np.linspace(0.0, reach, len(ts))
    far = Trajectory("far", "0", x0 + sx * run, y0 + sy * run, ts)
    result = S2TClustering(params).fit(MOD(name=mod.name, trajectories=[*mod, far]))

    clusters, outliers = membership_signature(result)
    far_outliers = [key for key in outliers if key[0] == "far"]
    assert far_outliers and not any(key[0] == "far" for cluster in clusters for key in cluster)
    expected_signature, expected_representatives = scenario_answer(name)
    others = tuple(key for key in outliers if key[0] != "far")
    assert (clusters, others) == expected_signature
    assert [c.representative.key for c in result.clusters] == expected_representatives
    # Every piece the far trajectory was cut into is among the outliers.
    baseline_pieces = S2TClustering(params).fit(mod).extras["num_subtrajectories"]
    assert result.extras["num_subtrajectories"] == baseline_pieces + len(far_outliers)
