"""Tests for normalization, class binning, undersampling, and feature encoding."""

import datetime as dt
import math

import numpy as np
import pytest

from rtp import seeds
from rtp.augment import over_sample
from rtp.domain import (
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    ReactorState,
    TransientObservation,
    config_for_date,
)
from rtp.ingest import CorpusSpec, ObservationTable, row_to_observation, synthesize_corpus
from rtp.model_zoo import variant_spec
from rtp.preprocess import (
    REACTIVITY_FEATURE_SCALE,
    VARIANTS,
    EmptyClassError,
    denormalize_power,
    encode_dataset,
    encode_row,
    encode_table,
    input_columns,
    undersample,
    undersample_indices,
)
from reference import PowerRangeError, classify_power, normalize_power, reactivity_of_state

CONFIG = DEFAULT_CONFIGS[1]


def make_obs(p_i=100.0, p_f=10_000.0):
    return TransientObservation(
        date=dt.date(2014, 6, 1),
        start_time=dt.time(8, 0),
        end_time=dt.time(8, 15),
        initial=ReactorState(p_i, (6.0, 6.0, 6.0, 12.0)),
        final=ReactorState(p_f, (9.0, 9.0, 9.0, 12.0)),
    )


def encode_one(obs):
    """The one-row table of `obs`, whose date falls in CONFIG's era."""
    return encode_table(ObservationTable.from_observations([obs]))


def branches(table, variant_id):
    """The initial and final branch matrices a variant reads from the table;
    an all-in-one variant's main vector is its initial, and its final is empty."""
    columns = [*input_columns(VARIANTS[variant_id])[0].values(), np.empty(0, dtype=np.intp)]
    return table.features[:, columns[0]], table.features[:, columns[1]]


def reference_row(obs, layout, config):
    """One observation's features, direction, class and target, by the scalar
    definitions the vectorized encoder must reproduce bit for bit."""
    rho_i = reactivity_of_state(obs.initial, config) / REACTIVITY_FEATURE_SCALE
    rho_f = reactivity_of_state(obs.final, config) / REACTIVITY_FEATURE_SCALE
    if layout.rod_feature == "heights":
        rods_i = [h / MAX_ROD_TRAVEL_IN for h in obs.initial.rod_heights]
        rods_f = [h / MAX_ROD_TRAVEL_IN for h in obs.final.rod_heights]
    else:
        rods_i, rods_f = [rho_i], [rho_f]
    initial, final = [normalize_power(obs.initial.power), *rods_i], rods_f
    direction = 1 if obs.final.power > obs.initial.power else -1
    if layout.input_mode == "all_in_one":
        initial = initial + final + ([float(direction)] if layout.uses_direction else [])
        final = []
    return (
        initial,
        final,
        direction,
        classify_power(obs.final.power),
        normalize_power(obs.final.power),
    )


class TestNormalization:
    def test_full_power_is_one(self):
        assert normalize_power(FULL_POWER_W) == pytest.approx(1.0, abs=1e-15)

    def test_one_watt_is_zero(self):
        assert normalize_power(1.0) == 0.0

    def test_hand_value(self):
        # [DERIVED] ln(1000) / ln(200000)
        assert normalize_power(1000.0) == pytest.approx(
            math.log(1000.0) / math.log(200_000.0), abs=1e-15
        )

    def test_round_trip(self):
        for p in np.logspace(0.0, math.log10(FULL_POWER_W), 200):
            back = denormalize_power(normalize_power(float(p)))
            assert abs(back - p) / p <= 1e-9

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            normalize_power(0.0)

    def test_state_normalization(self):
        obs = TransientObservation(
            date=dt.date(2014, 6, 1),
            start_time=dt.time(8, 0),
            end_time=dt.time(8, 15),
            initial=ReactorState(FULL_POWER_W, (0.0, 6.0, 12.0, 24.0)),
            final=ReactorState(100.0, (0.0, 6.0, 12.0, 18.0)),
        )
        initial, _ = branches(encode_one(obs), "b1")
        assert initial[0, 1:].tolist() == [0.0, 0.25, 0.5, 1.0]
        assert initial[0, 0] == pytest.approx(1.0)

    def test_normalize_both_states(self):
        table = encode_one(make_obs())
        assert table.features[0, 0] < table.target[0]


class TestClassifyPower:
    def test_bin_edges_inclusive(self):
        # Decade bin ceilings 90 / 900 / 9000 / 90000 / 200000, inclusive.
        cases = [
            (1.0, 0),
            (90.0, 0),
            (90.0001, 1),
            (900.0, 1),
            (901.0, 2),
            (9000.0, 2),
            (90_000.0, 3),
            (90_001.0, 4),
            (200_000.0, 4),
        ]
        for power, expected in cases:
            assert classify_power(power) == expected, power

    def test_out_of_range(self):
        with pytest.raises(PowerRangeError):
            classify_power(0.0)
        with pytest.raises(PowerRangeError):
            classify_power(200_001.0)


class TestUndersample:
    def test_balanced_counts(self):
        labels = [0] * 73 + [1] * 94 + [2] * 100 + [3] * 126 + [4] * 149
        idx = undersample_indices(labels, seed=0)
        assert len(idx) == 365
        counts = [0] * 5
        for i in idx:
            counts[labels[i]] += 1
        assert counts == [73] * 5

    def test_minority_kept_verbatim(self):
        labels = [1, 0, 2, 3, 1, 4, 0, 2, 3, 4, 1, 2, 3, 4, 2]
        idx = undersample_indices(labels, seed=0)
        kept_zero = [i for i in idx if labels[i] == 0]
        assert kept_zero == [1, 6]

    def test_deterministic(self):
        labels = [0] * 5 + [1] * 50 + [2] * 30 + [3] * 40 + [4] * 20
        assert undersample_indices(labels, seed=3) == undersample_indices(labels, seed=3)
        assert undersample_indices(labels, seed=3) != undersample_indices(labels, seed=4)

    def test_empty_class(self):
        with pytest.raises(EmptyClassError):
            undersample_indices([0, 1, 2, 3], seed=0)

    def test_undersample_encoded(self):
        observations = [make_obs(p_f=p) for p in (50.0, 60.0, 500.0, 5000.0, 50_000.0, 150_000.0, 160_000.0)]
        table = encode_table(ObservationTable.from_observations(observations))
        balanced = undersample(table, seed=0)
        assert np.bincount(balanced.class_index, minlength=5).tolist() == [1] * 5
        assert len(balanced.features) == len(balanced.target) == 5


class TestEncode:
    def test_separated_reactivity_layout(self):
        obs = make_obs()
        table = encode_one(obs)
        initial, final = branches(table, "a1")
        rho_i = reactivity_of_state(obs.initial, CONFIG) / REACTIVITY_FEATURE_SCALE
        rho_f = reactivity_of_state(obs.final, CONFIG) / REACTIVITY_FEATURE_SCALE
        np.testing.assert_allclose(initial, [[normalize_power(100.0), rho_i]], atol=1e-15)
        np.testing.assert_allclose(final, [[rho_f]], atol=1e-15)
        assert table.features[:, 11].tolist() == [1.0]
        assert table.class_index.tolist() == [3]  # 10000 W is in the fourth bin
        assert table.target[0] == pytest.approx(normalize_power(10_000.0))

    def test_separated_heights_layout(self):
        initial, final = branches(encode_one(make_obs()), "b1")
        np.testing.assert_allclose(
            initial, [[normalize_power(100.0), 0.25, 0.25, 0.25, 0.5]], atol=1e-15
        )
        np.testing.assert_allclose(final, [[0.375, 0.375, 0.375, 0.5]], atol=1e-15)

    def test_all_in_one_layout(self):
        initial, final = branches(encode_one(make_obs()), "f1")
        # power + 4 initial rods + 4 final rods + direction, all in one vector.
        assert initial.shape == (1, 10)
        assert final.shape == (1, 0)
        assert initial[0, -1] == 1.0

    def test_aio_reactivity_layout_width(self):
        initial, _ = branches(encode_one(make_obs()), "e1")
        assert initial.shape == (1, 4)  # power, rho_i, rho_f, direction

    def test_final_power_never_a_feature(self):
        obs = make_obs()
        target_norm = normalize_power(obs.final.power)
        features = encode_one(obs).features
        assert not np.any(np.isclose(features, target_norm, atol=1e-12))

    def test_down_transient_direction(self):
        obs = make_obs(p_i=10_000.0, p_f=100.0)
        assert encode_one(obs).features[:, 11].tolist() == [-1.0]

    def test_onehot(self):
        table = encode_one(make_obs(p_f=50.0))
        np.testing.assert_array_equal(table.class_onehot, [[1.0, 0.0, 0.0, 0.0, 0.0]])

    def test_zero_change_row_is_named(self):
        observations = [make_obs(), make_obs(p_f=500.0), make_obs(p_f=100.0), make_obs(p_f=100.0)]
        with pytest.raises(ValueError, match="^row 3: zero-change transient has no direction"):
            encode_dataset(observations, VARIANTS["a1"], DEFAULT_CONFIGS)

    def test_tables_share_one_encoding(self):
        # encode_dataset does not read its layout: every layout gets encode_table's matrix.
        observations = [make_obs(p_f=p) for p in (50.0, 500.0, 5000.0)]
        table = encode_table(ObservationTable.from_observations(observations))
        for layout in (VARIANTS["a1"], VARIANTS["b2"]):
            alone = encode_dataset(observations, layout, DEFAULT_CONFIGS)
            for name in ("features", "class_index", "target"):
                np.testing.assert_array_equal(getattr(alone, name), getattr(table, name))

    def test_take_selects_rows(self):
        observations = [make_obs(p_f=p) for p in (50.0, 500.0, 5000.0)]
        table = encode_table(ObservationTable.from_observations(observations))
        picked = table.take([2, 0, 2])
        assert len(picked) == 3
        assert picked.class_index.tolist() == [2, 0, 2]
        np.testing.assert_array_equal(picked.features, table.features[[2, 0, 2]])


class TestInputColumns:
    def test_columns_by_branch(self):
        # [DERIVED] columns: 0 power, 1-4 and 5-8 rods, 9 and 10 reactivity, 11 direction.
        expected = {
            "a1": ({"initial": [0, 9], "final": [10]}, [11]),
            "b1": ({"initial": [0, 1, 2, 3, 4], "final": [5, 6, 7, 8]}, [11]),
            "c1": ({"initial": [0, 9], "final": [10]}, []),
            "d1": ({"initial": [0, 1, 2, 3, 4], "final": [5, 6, 7, 8]}, []),
            "e1": ({"main": [0, 9, 10, 11]}, []),
            "f1": ({"main": [0, 1, 2, 3, 4, 5, 6, 7, 8, 11]}, []),
        }
        for vid, (want_branches, want_aux) in expected.items():
            got_branches, got_aux = input_columns(VARIANTS[vid])
            assert {k: v.tolist() for k, v in got_branches.items()} == want_branches, vid
            assert got_aux.tolist() == want_aux, vid

    def test_each_regressor_reads_its_paired_classifiers_columns(self):
        for rid, cid in (("a2", "b1"), ("b2", "a1"), ("c2", "f1"), ("d2", "e1")):
            regressor, classifier = input_columns(VARIANTS[rid]), input_columns(VARIANTS[cid])
            for r, c in zip(regressor[0].values(), classifier[0].values(), strict=True):
                assert r.tolist() == c.tolist(), rid
            assert regressor[1].tolist() == classifier[1].tolist()


@pytest.fixture(scope="module")
def desk_rows():
    """The seed-0 desk corpus plus its augmentation, as the pipeline draws them."""
    corpus = synthesize_corpus(CorpusSpec(n_observations=5000, seed=seeds.subseed(0, "corpus")))
    return ObservationTable.concat([corpus, over_sample(corpus, n=1000, seed=seeds.subseed(0, "augment"))])


def test_encoder_matches_scalar_reference_bitwise(desk_rows):
    table = encode_table(desk_rows)
    observations = list(map(row_to_observation, desk_rows.rows()))
    for layout in VARIANTS.values():
        rows = [
            reference_row(obs, layout, config_for_date(obs.date)) for obs in observations
        ]
        initial, final, direction, class_index, target = (list(c) for c in zip(*rows))
        n = len(desk_rows)
        want_initial = np.array(initial, dtype=np.float64)
        want_final = np.array(final, dtype=np.float64).reshape(n, -1)
        got_initial, got_final = branches(table, layout.variant_id)
        assert got_initial.shape == want_initial.shape, layout.variant_id
        assert got_final.shape == want_final.shape, layout.variant_id
        # Bitwise, so that a 0.0 / -0.0 or last-bit difference fails too.
        assert got_initial.tobytes() == want_initial.tobytes(), layout.variant_id
        assert got_final.tobytes() == want_final.tobytes(), layout.variant_id
        assert table.target.tobytes() == np.array(target).tobytes(), layout.variant_id
        assert table.features[:, 11].tolist() == direction
        assert table.class_index.tolist() == class_index


def test_encode_row_matches_encode_tables_bitwise(desk_rows):
    """encode_row's rows, each under its date's configuration, are
    encode_table's feature matrix bit for bit; together the layouts read
    all 12 feature columns."""
    rows = np.concatenate([
        encode_row(obs, config_for_date(obs.date))
        for obs in map(row_to_observation, desk_rows.rows())
    ])
    assert rows.tobytes() == encode_table(desk_rows).features.tobytes()
    covered = set()
    for layout in VARIANTS.values():
        branch_columns, aux_columns = input_columns(layout)
        for columns in (*branch_columns.values(), aux_columns):
            covered.update(columns.tolist())
    assert covered == set(range(12))


def test_zero_change_row_message_matches_encode_tables():
    obs = make_obs(p_f=100.0)
    with pytest.raises(ValueError) as by_table:
        encode_table(ObservationTable.from_observations([obs]))
    with pytest.raises(ValueError) as by_row:
        encode_row(obs, CONFIG)
    message = "row 1: zero-change transient has no direction"
    assert str(by_row.value) == str(by_table.value) == message


def test_layout_table():
    # Flag matrix for the ten variants.
    assert VARIANTS["a1"].rod_feature == "reactivity" and VARIANTS["a1"].uses_direction
    assert VARIANTS["c1"].rod_feature == "reactivity" and not VARIANTS["c1"].uses_direction
    assert VARIANTS["d1"].rod_feature == "heights" and not VARIANTS["d1"].uses_direction
    assert VARIANTS["e1"].input_mode == "all_in_one"
    assert all(VARIANTS[v].uses_direction for v in ("a2", "b2", "c2", "d2"))
    assert all(variant_spec(v).task == "regressor" for v in ("a2", "b2", "c2", "d2"))
    assert variant_spec("a1").task == "classifier"
