"""Unit tests for the analytic noise model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.costs import CostModel
from repro.kernels.noise import (
    PeriodicNoise,
    attach_noise_profile,
    kitten_noise_profile,
    linux_noise_profile,
    splitmix64,
)
from tests.kernels import reference_noise


def test_splitmix64_deterministic_and_spread():
    a = splitmix64(1)
    assert a == splitmix64(1)
    assert splitmix64(2) != a
    # crude uniformity check over the top byte
    tops = {splitmix64(i) >> 56 for i in range(512)}
    assert len(tops) > 100


def test_periodic_noise_events_without_jitter():
    src = PeriodicNoise(1000, 10, tag="t")
    events = src.events_in(0, 5000)
    assert events == [(0, 10), (1000, 10), (2000, 10), (3000, 10), (4000, 10)]


def test_periodic_noise_window_edges():
    src = PeriodicNoise(1000, 10, tag="t")
    assert src.events_in(1000, 1001) == [(1000, 10)]
    assert src.events_in(1001, 2000) == []
    assert src.events_in(500, 400) == []


def test_periodic_noise_phase():
    src = PeriodicNoise(1000, 10, tag="t", phase_ns=300)
    assert src.events_in(0, 2000) == [(300, 10), (1300, 10)]
    # Nothing is stolen before the first occurrence, however far the
    # phase reaches.
    src = PeriodicNoise(1000, 1000, tag="t", phase_ns=2500)
    assert src.stolen_in(0, 2500) == 0
    assert src.stolen_in(100, 5000) == 2500


def test_stolen_in_clips_to_window():
    src = PeriodicNoise(1000, 100, tag="t")
    # event at t=1000 lasts to 1100; window [1050, 2000) overlaps 50ns
    # plus the event at t=2000 not started yet -> excluded
    assert src.stolen_in(1050, 2000) == 50
    # full window
    assert src.stolen_in(0, 3000) == 300


def test_stolen_in_counts_straddling_event():
    src = PeriodicNoise(1_000_000, 500_000, tag="t")
    # event at t=0 runs to 500k; window starting inside it must count the tail
    assert src.stolen_in(100_000, 200_000) == 100_000


def test_jitter_is_deterministic_and_bounded():
    a = PeriodicNoise(1000, 10, tag="t", seed=7, jitter_frac=0.3)
    b = PeriodicNoise(1000, 10, tag="t", seed=7, jitter_frac=0.3)
    ea, eb = a.events_in(0, 100_000), b.events_in(0, 100_000)
    assert ea == eb
    for (start, _d), k in zip(ea, range(len(ea))):
        assert abs(start - k * 1000) <= 300 + 1


def test_different_seeds_differ():
    a = PeriodicNoise(1000, 10, tag="t", seed=1, jitter_frac=0.3)
    b = PeriodicNoise(1000, 10, tag="t", seed=2, jitter_frac=0.3)
    assert a.events_in(0, 50_000) != b.events_in(0, 50_000)


def test_exponential_durations_have_requested_mean():
    src = PeriodicNoise(1000, 500, tag="t", seed=3, exp_duration=True)
    events = src.events_in(0, 20_000_000)
    durs = [d for _s, d in events]
    mean = sum(durs) / len(durs)
    assert 400 <= mean <= 600
    assert max(durs) > 1500  # heavy tail present


def test_validation():
    with pytest.raises(ValueError):
        PeriodicNoise(0, 10, tag="t")
    with pytest.raises(ValueError):
        PeriodicNoise(1000, 10, tag="t", jitter_frac=0.9)


def test_constant_detours_longer_than_the_period_are_rejected():
    # Overlapping constant detours would steal more than the window.
    with pytest.raises(ValueError, match="outlast"):
        PeriodicNoise(1000, 2500, tag="t")
    with pytest.raises(ValueError, match="outlast"):
        PeriodicNoise(1000, 1001, tag="t", seed=3, jitter_frac=0.5)
    # A back-to-back train is the limit: the whole window is stolen.
    assert PeriodicNoise(1000, 1000, tag="t").stolen_in(0, 10_000) == 10_000
    # Exponential durations are means; single bursts may outlast a period.
    PeriodicNoise(1000, 2500, tag="t", exp_duration=True)


def test_negative_phase_is_rejected():
    # Occurrences before t=0 would clamp onto 0 and stack there.
    with pytest.raises(ValueError, match="phase"):
        PeriodicNoise(1000, 10, tag="t", phase_ns=-5000)


def test_kitten_profile_is_quiet_linux_is_loud():
    costs = CostModel()
    second = 1_000_000_000
    kitten = kitten_noise_profile(costs, seed=1)
    linux = linux_noise_profile(costs, seed=1)
    k_stolen = sum(s.stolen_in(0, 10 * second) for s in kitten)
    l_stolen = sum(s.stolen_in(0, 10 * second) for s in linux)
    k_frac = k_stolen / (10 * second)
    l_frac = l_stolen / (10 * second)
    assert k_frac < 0.005  # Kitten steals well under half a percent
    assert l_frac > 3 * k_frac  # Linux is markedly noisier


def test_attach_noise_profile_covers_all_cores(rig):
    _eng, _node, linux, kitten = rig
    attach_noise_profile(linux, seed=5)
    attach_noise_profile(kitten, seed=5)
    assert set(linux.noise_sources) == {c.core_id for c in linux.cores}
    tags = {s.tag for s in kitten.noise_sources[kitten.cores[0].core_id]}
    assert tags == {"hw-baseline", "smi"}
    tags = {s.tag for s in linux.noise_sources[linux.cores[0].core_id]}
    assert "daemon" in tags and "tick" in tags


# stolen_in of every source in the seed-0 profiles, measured with the
# original enumerate-and-clip model (tests/kernels/reference_noise.py).
PIN_WINDOWS = [
    (0, 10_000_000_000),
    (123_456_789, 987_654_321),
    (315_000_000, 1_000_000_000),  # starts and ends inside daemon bursts
    (45_750_000, 1_014_350_000),  # starts and ends inside Linux SMIs
    (20_001_000, 29_820_000),  # inside a tick, a baseline detour at each end
    (7_000_001_000, 7_000_004_000),  # inside one tick
]
PINS = {
    "linux": {
        "tick": [30000000, 2592000, 2055000, 2907000, 29000, 2000],
        "daemon": [115538966, 13814865, 21584373, 25422390, 0, 0],
        "smi": [1100000, 0, 0, 99434, 0, 0],
    },
    "kitten": {
        "hw-baseline": [12012000, 1032000, 816000, 1164000, 13763, 0],
        "smi": [1100000, 100000, 100000, 100000, 0, 0],
    },
}


@pytest.mark.parametrize("profile", ["linux", "kitten"])
def test_profile_stolen_time_pinned(profile):
    maker = {"linux": linux_noise_profile, "kitten": kitten_noise_profile}[profile]
    sources = maker(CostModel(), seed=0)
    got = {s.tag: [s.stolen_in(t0, t1) for t0, t1 in PIN_WINDOWS] for s in sources}
    assert got == PINS[profile]
    # The same answers when the windows are asked for in reverse.
    sources = maker(CostModel(), seed=0)
    got = {s.tag: [s.stolen_in(t0, t1) for t0, t1 in PIN_WINDOWS[::-1]][::-1]
           for s in sources}
    assert got == PINS[profile]


@st.composite
def trains(draw):
    """Constructor arguments of a valid train and a list of windows."""
    period = draw(st.integers(1, 5_000))
    exp_duration = draw(st.booleans())
    top = 3 * period if exp_duration else period
    duration = draw(st.one_of(st.just(top), st.integers(0, top)))
    kwargs = dict(
        seed=draw(st.integers(0, 2**40)),
        jitter_frac=draw(st.sampled_from([0.0, 0.05, 0.5])),
        exp_duration=exp_duration,
        phase_ns=draw(st.one_of(st.just(0), st.integers(0, 3 * period))),
    )
    lookback = (30 if exp_duration else 2) * max(duration, period)
    t0 = st.one_of(
        st.integers(0, 3 * period),  # near t=0
        st.integers(0, lookback),  # inside the first lookback
        st.integers(0, 80 * period),
    )
    length = st.one_of(
        st.integers(-2 * period, 0),  # empty and inverted
        st.integers(1, 2 * period),
        st.integers(30 * period, 40 * period),  # longer than 30 periods
    )
    windows = draw(st.lists(st.tuples(t0, length), min_size=1, max_size=8))
    return (period, duration, kwargs), [(a, a + n) for a, n in windows]


@settings(max_examples=300, deadline=None)
@given(trains())
def test_matches_reference_model(case):
    (period, duration, kwargs), windows = case
    ref = reference_noise.PeriodicNoise(period, duration, "t", **kwargs)
    src = PeriodicNoise(period, duration, "t", **kwargs)
    # Forwards, then backwards over the same windows: the memo of a
    # seeded train must not depend on the order it is filled in.
    for t0, t1 in windows + windows[::-1]:
        assert src.stolen_in(t0, t1) == ref.stolen_in(t0, t1), (t0, t1)
        assert src.events_in(t0, t1) == ref.events_in(t0, t1), (t0, t1)
    # A fresh source asked in reverse order only.
    src = PeriodicNoise(period, duration, "t", **kwargs)
    for t0, t1 in windows[::-1]:
        assert src.stolen_in(t0, t1) == ref.stolen_in(t0, t1), (t0, t1)
