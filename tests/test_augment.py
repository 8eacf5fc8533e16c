"""Tests for the power-ratio relation and physics-guided oversampling."""

import datetime as dt

import numpy as np
import pytest

from rtp.augment import (
    BASE_NOISE_SIGMA,
    DIRECTIONAL_BIAS,
    MAX_VALID_DELTA_RHO,
    REG_ROD_SCALE,
    ProgressError,
    over_sample,
    perturb_rows,
)
from rtp.domain import (
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    ReactorState,
    TransientObservation,
    config_for_date,
)
from rtp.ingest import SHUTDOWN_POWER_W, ObservationTable, row_to_observation
from reference import reactivity_of_state


def make_obs(p_i=500.0, p_f=5000.0, heights_i=(8.0, 8.0, 8.0, 12.0), heights_f=(10.0, 10.0, 10.0, 12.0)):
    return TransientObservation(
        date=dt.date(2014, 6, 1),
        start_time=dt.time(9, 0),
        end_time=dt.time(9, 20),
        initial=ReactorState(p_i, heights_i),
        final=ReactorState(p_f, heights_f),
    )


def table_of(*observations):
    return ObservationTable.from_observations(observations)


def draw_one(power, rod1, worth1, noise1=0.0, change=0):
    """perturb_rows on one state whose reactivity comes from rod 1 alone
    (worths (worth1, 0, 0, 0)); noise1 is rod 1's noise, the others get none."""
    rods = np.array([[rod1, 8.0, 8.0, 12.0]])
    worths = np.array([[worth1, 0.0, 0.0, 0.0]])
    noise = np.array([[noise1, 0.0, 0.0, 0.0]])
    new_rods, new_powers, ok = perturb_rows(np.array([power]), rods, worths, noise, change)
    return new_rods[0], float(new_powers[0]), bool(ok[0])


class TestApplyPowerRatio:
    """The power-ratio relation as the perturbation kernel applies it."""

    def test_hand_value(self):
        # [DERIVED] rho = 12/24 * 6 = 3.0 -> 12.8/24 * 6 = 3.2;
        # 100 * (1 - 3.2) / (1 - 3.0) = 110.0
        new_rods, power, ok = draw_one(100.0, 12.0, 6.0, noise1=0.8)
        assert ok
        assert new_rods[0] == 12.8
        assert power == pytest.approx(110.0, abs=1e-12)

    def test_no_change(self):
        new_rods, power, ok = draw_one(42.0, 12.0, 6.0)
        assert ok
        assert power == 42.0
        assert new_rods.tolist() == [12.0, 8.0, 8.0, 12.0]

    def test_validity_limit(self):
        # [DERIVED] rho = 12/24 * 8 = 4.0 -> 13.5/24 * 8 = 4.5, exactly the limit.
        assert MAX_VALID_DELTA_RHO == 0.5
        assert not draw_one(100.0, 12.0, 8.0, noise1=1.5 + 1e-6)[2]
        # Exactly at the limit is allowed.
        assert draw_one(100.0, 12.0, 8.0, noise1=1.5)[2]

    def test_singular_denominator(self):
        # [DERIVED] rho_i = 12/24 * 2 = 1.0 exactly: 1 - rho_i = 0.
        assert not draw_one(100.0, 12.0, 2.0, noise1=0.1)[2]
        assert not draw_one(100.0, 12.0, 2.0)[2]

    def test_nonpositive_ratio(self):
        # rho_i = 0.9 just below 1, rho_f = 1.05 just above: ratio crosses zero.
        _, power, ok = draw_one(100.0, 10.8, 2.0, noise1=1.8)
        assert power < 0.0
        assert not ok

    def test_over_power(self):
        # [DERIVED] rho 3.0 -> 3.1, ratio (1-3.1)/(1-3.0) = 1.05; 199000 * 1.05 > 200000
        _, power, ok = draw_one(199_000.0, 12.0, 6.0, noise1=0.4)
        assert power == pytest.approx(208_950.0)
        assert not ok


class TestPerturbationPolicy:
    def test_defaults(self):
        assert BASE_NOISE_SIGMA == 0.15
        assert DIRECTIONAL_BIAS == 0.3
        assert REG_ROD_SCALE == 10.0
        assert MAX_VALID_DELTA_RHO == 0.5


def draw_many(state, config, change, n, seed):
    """n perturb_rows draws of one state, noise from a seeded generator."""
    noise = np.random.default_rng(seed).normal(0.0, BASE_NOISE_SIGMA, size=(n, 4))
    return perturb_rows(
        np.full(n, state.power),
        np.tile(state.rod_heights, (n, 1)),
        np.tile(config.rod_worths, (n, 1)),
        noise,
        change,
    )


class TestPerturbState:
    def test_accepted_draws_are_physical(self):
        config = DEFAULT_CONFIGS[1]
        state = ReactorState(500.0, (8.0, 8.0, 8.0, 12.0))
        rho_src = reactivity_of_state(state, config)
        new_rods, new_powers, ok = draw_many(state, config, 0, 300, seed=5)
        for rods, power in zip(new_rods[ok], new_powers[ok]):
            new_state = ReactorState(float(power), tuple(float(h) for h in rods))
            assert 0.0 < new_state.power <= FULL_POWER_W
            for h in new_state.rod_heights:
                assert 0.0 <= h <= MAX_ROD_TRAVEL_IN
            assert abs(reactivity_of_state(new_state, config) - rho_src) <= MAX_VALID_DELTA_RHO
        assert ok.sum() > 200  # mid-range state should mostly be accepted

    def test_rod_leaving_travel_is_rejected(self):
        # Reactivity step 0.05 $ and ratio near 1: only the rod's travel rejects.
        assert not draw_one(100.0, 23.9, 6.0, noise1=0.2)[2]
        assert not draw_one(100.0, 0.1, 6.0, noise1=-0.2)[2]
        assert draw_one(100.0, 23.9, 6.0, noise1=0.1)[2]

    def test_directional_bias_moves_rods(self):
        config = DEFAULT_CONFIGS[1]
        state = ReactorState(500.0, (8.0, 8.0, 8.0, 12.0))
        new_rods, _, ok = draw_many(state, config, 1, 200, seed=6)
        deltas = new_rods[ok, :3].sum(axis=1) - sum(state.rod_heights[:3])
        assert np.mean(deltas) > 0.5  # bias of +0.3 per rod over three rods


class TestOverSample:
    def test_exact_count_and_determinism(self):
        dataset = table_of(make_obs(), make_obs(p_i=2000.0, p_f=200.0))
        first = over_sample(dataset, n=250, seed=42)
        second = over_sample(dataset, n=250, seed=42)
        assert len(first) == 250
        assert first.row_index.tolist() == list(range(1, 251))
        assert first.rows() == second.rows()
        assert over_sample(dataset, n=250, seed=43).rows() != first.rows()

    def test_constraints_single_source(self):
        # With one source observation the provenance of every output is known,
        # so the per-state reactivity change bound can be checked directly.
        source = make_obs()
        config = config_for_date(source.date)
        rho_i = reactivity_of_state(source.initial, config)
        rho_f = reactivity_of_state(source.final, config)
        generated = over_sample(table_of(source), n=1000, seed=9)
        for obs in map(row_to_observation, generated.rows()):
            for state, rho_src in ((obs.initial, rho_i), (obs.final, rho_f)):
                assert 0.0 < state.power <= FULL_POWER_W
                for h in state.rod_heights:
                    assert 0.0 <= h <= MAX_ROD_TRAVEL_IN
                assert abs(reactivity_of_state(state, config) - rho_src) <= 0.5 + 1e-12
            assert obs.final.power >= SHUTDOWN_POWER_W
            assert obs.final.power != obs.initial.power

    def test_outputs_keep_source_metadata(self):
        source = make_obs()
        generated = over_sample(table_of(source), n=10, seed=1)
        for row in generated.rows():
            assert row.date == source.date
            assert row.start_time == source.start_time
            assert row.end_time == source.end_time

    def test_zero_request(self):
        generated = over_sample(table_of(make_obs()), n=0, seed=0)
        assert len(generated) == 0
        assert generated.rows() == []

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            over_sample(table_of(), n=10, seed=0)

    def test_progress_guard(self):
        # Rods 1-3 at full travel, biased upward: nearly every draw leaves the travel.
        top = (24.0, 24.0, 24.0, 12.0)
        with pytest.raises(ProgressError):
            over_sample(table_of(make_obs(heights_i=top, heights_f=top)), n=10, change=1, seed=0)
