"""Composable degradation profiles for the synthetic scenarios.

A *degradation profile* is a named, seeded transform of a ``(MOD,
GroundTruth)`` pair: it perturbs the clean scenario the way real tracking
infrastructure would — GPS noise, dropped fixes, rush-hour burst arrivals,
out-of-order timestamps — while keeping the per-sample ground-truth labels
aligned with the surviving samples.  The quality harness
(:mod:`repro.eval.quality`) sweeps every scenario under every profile, so a
future optimisation that only holds up on clean data turns the matrix red.

Invariants every profile maintains (pinned by
``tests/datagen/test_profiles.py``):

* trajectory **keys** are preserved — no trajectory appears or disappears,
* every trajectory keeps at least two samples with strictly increasing
  timestamps (the :class:`~repro.hermes.trajectory.Trajectory` contract),
* ground-truth labels stay **index-aligned**: dropped samples drop their
  label, reordered samples carry their label along,
* the transform is a pure function of ``(mod, truth, seed)`` — same seed,
  same bytes.

Profiles compose with ``+`` (left to right) and parse from compact CLI
specs (``"gps_noise:sigma_fraction=0.02+dropout"``) via
:func:`parse_profile`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.datagen.truth import GroundTruth
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory

__all__ = [
    "DegradationProfile",
    "PROFILES",
    "clean",
    "gps_noise",
    "dropout",
    "rush_hour",
    "out_of_order_jitter",
    "parse_profile",
]

#: One degradation step: ``(mod, truth, rng) -> (mod, truth)``.
Step = Callable[[MOD, GroundTruth, np.random.Generator], tuple[MOD, GroundTruth]]


@dataclass(frozen=True)
class DegradationProfile:
    """A named sequence of degradation steps applied left to right.

    ``apply`` owns the randomness: it derives one
    :func:`numpy.random.default_rng` stream from the caller's seed and
    threads it through every step, so a composed profile is exactly as
    deterministic as a single one.
    """

    name: str
    steps: tuple[Step, ...] = ()

    def apply(self, mod: MOD, truth: GroundTruth, seed: int) -> tuple[MOD, GroundTruth]:
        """Run every step over ``(mod, truth)`` under one seeded RNG."""
        rng = np.random.default_rng(seed)
        for step in self.steps:
            mod, truth = step(mod, truth, rng)
        return mod, truth

    def __add__(self, other: DegradationProfile) -> DegradationProfile:
        """Compose two profiles; the right operand runs after the left."""
        return DegradationProfile(
            name=f"{self.name}+{other.name}", steps=self.steps + other.steps
        )


def _rebuild(
    mod: MOD,
    truth: GroundTruth,
    per_traj: Callable[
        [Trajectory, np.ndarray, np.random.Generator], tuple[Trajectory, np.ndarray]
    ],
    rng: np.random.Generator,
) -> tuple[MOD, GroundTruth]:
    """Apply a per-trajectory transform, preserving key order and labels."""
    out_mod = MOD(name=mod.name)
    out_truth = GroundTruth()
    for traj in mod:
        labels = truth.labels_for(traj.key)
        new_traj, new_labels = per_traj(traj, labels, rng)
        if len(new_labels) != new_traj.num_points:
            raise AssertionError("degradation step broke label alignment")
        out_mod.add(new_traj)
        out_truth.set_labels(new_traj.key, new_labels)
    return out_mod, out_truth


def clean() -> DegradationProfile:
    """The identity profile — the undegraded scenario as generated."""
    return DegradationProfile(name="clean", steps=())


def gps_noise(sigma_fraction: float = 0.01) -> DegradationProfile:
    """Additive white position noise on every sample.

    ``sigma_fraction`` scales with the dataset: the noise deviation is that
    fraction of the MOD's spatial diagonal, so the same profile degrades a
    500-unit maritime area and a 50-unit urban grid comparably.  Timestamps,
    keys and labels are untouched.
    """

    def step(
        mod: MOD, truth: GroundTruth, rng: np.random.Generator
    ) -> tuple[MOD, GroundTruth]:
        bbox = mod.bbox
        sigma = sigma_fraction * float(np.hypot(bbox.dx, bbox.dy))

        def perturb(
            traj: Trajectory, labels: np.ndarray, rng: np.random.Generator
        ) -> tuple[Trajectory, np.ndarray]:
            xs = traj.xs + rng.normal(0.0, sigma, traj.num_points)
            ys = traj.ys + rng.normal(0.0, sigma, traj.num_points)
            return Trajectory(traj.obj_id, traj.traj_id, xs, ys, traj.ts), labels

        return _rebuild(mod, truth, perturb, rng)

    return DegradationProfile(name="gps_noise", steps=(step,))


def dropout(fraction: float = 0.25, min_points: int = 4) -> DegradationProfile:
    """Drop a random ``fraction`` of each trajectory's samples.

    Never produces an empty (or single-sample) trajectory: when the draw
    would leave fewer than ``max(min_points, 2)`` samples, a random subset
    of that size is force-kept instead.  Surviving samples keep their
    original order and their ground-truth labels.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("dropout fraction must be in [0, 1)")
    keep_floor = max(int(min_points), 2)

    def step(
        mod: MOD, truth: GroundTruth, rng: np.random.Generator
    ) -> tuple[MOD, GroundTruth]:
        def drop(
            traj: Trajectory, labels: np.ndarray, rng: np.random.Generator
        ) -> tuple[Trajectory, np.ndarray]:
            n = traj.num_points
            keep = rng.random(n) >= fraction
            if int(keep.sum()) < min(keep_floor, n):
                forced = rng.choice(n, size=min(keep_floor, n), replace=False)
                keep = np.zeros(n, dtype=bool)
                keep[forced] = True
            kept = np.flatnonzero(keep)
            return (
                Trajectory(
                    traj.obj_id, traj.traj_id, traj.xs[kept], traj.ys[kept], traj.ts[kept]
                ),
                labels[kept],
            )

        return _rebuild(mod, truth, drop, rng)

    return DegradationProfile(name="dropout", steps=(step,))


def rush_hour(n_bursts: int = 3, burst_width_fraction: float = 0.04) -> DegradationProfile:
    """Re-time whole trajectories into a few arrival bursts.

    Models rush-hour traffic: instead of start times staggered uniformly
    over the scenario's warm-up window, every trajectory is shifted so it
    begins inside one of ``n_bursts`` narrow windows near the start of the
    dataset's lifespan.  The shift moves the whole timestamp array rigidly,
    so co-movement *within* a burst is preserved and per-index labels stay
    valid; temporal density — what burst arrival stresses — goes way up.
    """
    if n_bursts < 1:
        raise ValueError("need at least one burst")

    def step(
        mod: MOD, truth: GroundTruth, rng: np.random.Generator
    ) -> tuple[MOD, GroundTruth]:
        period = mod.period
        duration = max(period.duration, 1e-9)
        centers = period.tmin + duration * 0.3 * (
            (np.arange(n_bursts) + 0.5) / n_bursts
        )
        width = duration * burst_width_fraction

        def shift(
            traj: Trajectory, labels: np.ndarray, rng: np.random.Generator
        ) -> tuple[Trajectory, np.ndarray]:
            center = centers[int(rng.integers(n_bursts))]
            new_start = center + rng.uniform(-0.5, 0.5) * width
            delta = new_start - float(traj.ts[0])
            return (
                Trajectory(traj.obj_id, traj.traj_id, traj.xs, traj.ys, traj.ts + delta),
                labels,
            )

        return _rebuild(mod, truth, shift, rng)

    return DegradationProfile(name="rush_hour", steps=(step,))


def out_of_order_jitter(jitter_fraction: float = 0.6) -> DegradationProfile:
    """Perturb timestamps so samples arrive out of their recorded order.

    Each timestamp is jittered by centred noise scaled to
    ``jitter_fraction`` of the trajectory's median sampling interval, then
    the samples are re-sorted by the jittered time — exactly what the
    ingest path does to a late-arriving fix.  Positions and labels travel
    with their sample.  The rare exact tie after jittering keeps the
    first-arriving sample.  The ingest path would refuse such a pair
    instead (:class:`~repro.core.ingest.AppendBuffer` rejects two positions
    at one instant), so the profile resolves the tie itself.
    """

    def step(
        mod: MOD, truth: GroundTruth, rng: np.random.Generator
    ) -> tuple[MOD, GroundTruth]:
        def jitter(
            traj: Trajectory, labels: np.ndarray, rng: np.random.Generator
        ) -> tuple[Trajectory, np.ndarray]:
            dt = float(np.median(np.diff(traj.ts)))
            ts = traj.ts + rng.normal(0.0, jitter_fraction * dt, traj.num_points)
            order = np.argsort(ts, kind="stable")
            ts, xs, ys = ts[order], traj.xs[order], traj.ys[order]
            labels = labels[order]
            # Strictly increasing: drop later samples of an exact tie.
            keep = np.concatenate([[True], np.diff(ts) > 0])
            if int(keep.sum()) < 2:  # pragma: no cover - measure-zero fallback
                return traj, labels
            return (
                Trajectory(traj.obj_id, traj.traj_id, xs[keep], ys[keep], ts[keep]),
                labels[keep],
            )

        return _rebuild(mod, truth, jitter, rng)

    return DegradationProfile(name="jitter", steps=(step,))


#: Registry of profile factories by CLI/harness name.  Each entry is a
#: zero-or-keyword-argument callable returning a fresh profile, so specs can
#: override parameters (``dropout:fraction=0.4``).
PROFILES: dict[str, Callable[..., DegradationProfile]] = {
    "clean": clean,
    "gps_noise": gps_noise,
    "dropout": dropout,
    "rush_hour": rush_hour,
    "jitter": out_of_order_jitter,
}


def parse_profile(spec: str) -> DegradationProfile:
    """Build a profile from a compact spec string.

    Grammar: ``name[:key=value[,key=value...]]`` composed with ``+``,
    e.g. ``"gps_noise:sigma_fraction=0.02+dropout:fraction=0.4"``.
    Values parse as ``int`` when possible, then ``float``, else stay
    strings.  Unknown names raise ``ValueError`` listing the registry.
    """
    parts = [part.strip() for part in spec.split("+") if part.strip()]
    if not parts:
        raise ValueError("empty profile spec")
    profile: DegradationProfile | None = None
    for part in parts:
        name, _, arg_text = part.partition(":")
        if name not in PROFILES:
            raise ValueError(
                f"unknown profile {name!r}; available: {', '.join(sorted(PROFILES))}"
            )
        kwargs: dict[str, object] = {}
        if arg_text:
            for pair in arg_text.split(","):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ValueError(f"profile argument {pair!r} is not key=value")
                kwargs[key.strip()] = _coerce(value.strip())
        piece = PROFILES[name](**kwargs)
        profile = piece if profile is None else profile + piece
    assert profile is not None
    return profile


def _coerce(text: str) -> object:
    """``int`` if possible, then ``float``, else the raw string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text

