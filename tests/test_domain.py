"""Tests for core reactor data types and configuration lookup."""

import datetime as dt

import numpy as np
import pytest

from rtp.domain import (
    CLASS_CEILINGS,
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    N_CLASSES,
    CoreConfiguration,
    ReactorState,
    TransientObservation,
    config_for_date,
    reactivity_of_state,
    rod_worths_by_ordinal,
    shown,
)


class TestReactorState:
    def test_valid_state(self):
        state = ReactorState(1000.0, (0.0, 12.0, 24.0, 6.5))
        assert state.power == 1000.0

    def test_power_bounds(self):
        with pytest.raises(ValueError):
            ReactorState(0.0, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            ReactorState(-5.0, (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            ReactorState(FULL_POWER_W + 1.0, (1.0, 1.0, 1.0, 1.0))
        # Full power itself is valid.
        ReactorState(FULL_POWER_W, (1.0, 1.0, 1.0, 1.0))

    def test_rod_height_bounds(self):
        with pytest.raises(ValueError):
            ReactorState(100.0, (25.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            ReactorState(100.0, (1.0, -0.1, 1.0, 1.0))

    def test_rod_count(self):
        with pytest.raises(ValueError):
            ReactorState(100.0, (1.0, 1.0, 1.0))


class TestTransientObservation:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            TransientObservation(
                date=dt.date(2014, 6, 1),
                start_time=dt.time(10, 0),
                end_time=dt.time(9, 0),
                initial=ReactorState(10.0, (1.0, 1.0, 1.0, 1.0)),
                final=ReactorState(100.0, (2.0, 2.0, 2.0, 2.0)),
            )


class TestConfigForDate:
    def test_era_boundaries(self):
        # [DERIVED] from the configured start dates.
        cases = [
            (dt.date(2013, 6, 1), 120),
            (dt.date(2014, 1, 14), 120),
            (dt.date(2014, 1, 15), 121),
            (dt.date(2014, 10, 8), 121),
            (dt.date(2014, 10, 9), 122),
            (dt.date(2014, 10, 15), 122),
            (dt.date(2014, 10, 16), 123),
            (dt.date(2015, 8, 1), 123),
        ]
        for date, expected_id in cases:
            assert config_for_date(date).id == expected_id, date

    def test_fallback_before_first_start(self):
        assert config_for_date(dt.date(2012, 1, 1)).id == 120

    def test_configs_are_in_start_date_order(self):
        # The era lookups read DEFAULT_CONFIGS in order as the era table.
        starts = [c.start_date for c in DEFAULT_CONFIGS]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_vectorized_lookup_agrees_every_day(self):
        first, last = dt.date(2012, 1, 1), dt.date(2016, 12, 31)
        days = [first + dt.timedelta(days=k) for k in range((last - first).days + 1)]
        assert {c.start_date for c in DEFAULT_CONFIGS} <= set(days)
        ordinals = np.array([day.toordinal() for day in days])
        worths = rod_worths_by_ordinal(ordinals)
        for day, row in zip(days, worths):
            started = [c for c in DEFAULT_CONFIGS if c.start_date <= day]
            expected = started[-1] if started else DEFAULT_CONFIGS[0]
            assert config_for_date(day) == expected, day
            assert tuple(row) == expected.rod_worths, day


class TestReactivity:
    def test_half_withdrawal(self):
        # [DERIVED] 0.5 * (6.387 + 5.380 + 2.963 + 0.488) = 7.609
        config = DEFAULT_CONFIGS[0]
        state = ReactorState(100.0, (12.0, 12.0, 12.0, 12.0))
        assert reactivity_of_state(state, config) == pytest.approx(7.609, abs=1e-12)

    def test_partial_withdrawal(self):
        # [DERIVED] config 122: full rod1 + full reg = 6.597 + 0.387 = 6.984
        config = DEFAULT_CONFIGS[2]
        state = ReactorState(100.0, (24.0, 0.0, 0.0, 24.0))
        assert reactivity_of_state(state, config) == pytest.approx(6.984, abs=1e-12)

    def test_all_in_is_zero(self):
        state = ReactorState(100.0, (0.0, 0.0, 0.0, 0.0))
        for config in DEFAULT_CONFIGS:
            assert reactivity_of_state(state, config) == 0.0

    def test_total_worth(self):
        # [DERIVED] sums of the per-rod worth tables.
        assert DEFAULT_CONFIGS[0].total_worth() == pytest.approx(15.218, abs=1e-12)
        assert DEFAULT_CONFIGS[2].total_worth() == pytest.approx(15.345, abs=1e-12)
        assert DEFAULT_CONFIGS[3].total_worth() == pytest.approx(15.300, abs=1e-12)


class TestClassCeilings:
    def test_increase_to_full_power(self):
        # Guard for the ceiling-inclusive class rule, which needs increasing
        # ceilings whose top one covers every valid power.
        assert N_CLASSES == len(CLASS_CEILINGS) == 5
        assert all(lo < hi for lo, hi in zip(CLASS_CEILINGS, CLASS_CEILINGS[1:]))
        assert CLASS_CEILINGS[-1] == FULL_POWER_W


def test_configuration_worths_are_frozen():
    # Guard against accidental edits to the worth tables.
    expected = {
        120: (6.387, 5.380, 2.963, 0.488),
        121: (6.387, 5.380, 2.963, 0.488),
        122: (6.597, 5.398, 2.963, 0.387),
        123: (6.583, 5.267, 3.017, 0.433),
    }
    assert {c.id: c.rod_worths for c in DEFAULT_CONFIGS} == expected


def test_configuration_is_frozen_dataclass():
    with pytest.raises(AttributeError):
        DEFAULT_CONFIGS[0].id = 999


def test_core_configuration_type():
    config = CoreConfiguration(200, (1.0, 1.0, 1.0, 1.0), dt.date(2020, 1, 1))
    assert config.total_worth() == 4.0


@pytest.mark.parametrize(
    "value,text",
    [
        ("x" * 78, repr("x" * 78)),
        ("x" * 79, "a str of 79 characters"),
        ([0.5] * 29, "a list of 29 items"),
        (10**100, "an int"),
    ],
    ids=["str-80", "str-81", "list", "int"],
)
def test_shown_names_a_long_value_by_type_and_size(value, text):
    assert shown(value) == text
