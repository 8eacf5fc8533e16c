"""Tests for two-stage model composition and joint prediction."""

import datetime as dt
import itertools

import numpy as np
import pytest

from rtp import compose
from rtp.compose import (
    CompositionError,
    TwoStageModel,
    load_two_stage,
    predict,
    predict_batch,
    save_two_stage,
)
from rtp.domain import DEFAULT_CONFIGS, ReactorState, TransientObservation, config_for_date
from rtp.engine import ModelFormatError, forward, load_model, run_layers, save_model
from rtp.ingest import (
    CHUNK_ROWS,
    CorpusSpec,
    ObservationTable,
    row_to_observation,
    synthesize_corpus,
)
from rtp.model_zoo import CLASSIFIER_IDS, REGRESSOR_IDS, build_variant, stage_inputs
from rtp.preprocess import VARIANTS, denormalize_power, encode_dataset, encode_table


def observations(n=20, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p_i, p_f = rng.uniform(10.0, 150_000.0, size=2)
        out.append(
            TransientObservation(
                date=dt.date(2014, 6, 1),
                start_time=dt.time(9, 0),
                end_time=dt.time(9, 30),
                initial=ReactorState(float(p_i), tuple(rng.uniform(2.0, 22.0, size=4))),
                final=ReactorState(float(p_f), tuple(rng.uniform(2.0, 22.0, size=4))),
            )
        )
    return out


@pytest.fixture(scope="module")
def corpus_observations():
    """100 corpus rows from every era, with power rising and falling."""
    corpus = synthesize_corpus(CorpusSpec(n_observations=100, seed=4))
    observations = list(map(row_to_observation, corpus.rows()))
    changes = {np.sign(o.final.power - o.initial.power) for o in observations}
    assert changes == {-1.0, 1.0}
    assert {config_for_date(o.date) for o in observations} == set(DEFAULT_CONFIGS)
    return observations


@pytest.fixture
def stages():
    return build_variant("a1", seed=1), build_variant("b2", seed=2)


class TestComposition:
    def test_compose_valid_pair(self, stages):
        model = TwoStageModel(*stages)
        assert model.stage1.variant_id == "a1"
        assert model.stage2.variant_id == "b2"

    def test_stage1_must_be_classifier(self, stages):
        classifier, regressor = stages
        with pytest.raises(CompositionError):
            TwoStageModel(regressor, regressor)

    def test_stage2_must_be_regressor(self, stages):
        classifier, _ = stages
        with pytest.raises(CompositionError):
            TwoStageModel(classifier, classifier)

    def test_unknown_variant_rejected(self, stages):
        classifier, regressor = stages
        classifier.variant_id = None
        with pytest.raises(CompositionError):
            TwoStageModel(classifier, regressor)

    def test_stage_must_take_its_layout_widths(self, stages):
        classifier, _ = stages
        regressor = build_variant("a2", seed=2)
        regressor.variant_id = "b2"  # a2 reads rod heights, b2 reactivities
        message = r"^stage 2 \(b2\) branch 'initial' takes 5 inputs, the b2 layout gives 2$"
        with pytest.raises(CompositionError, match=message):
            TwoStageModel(classifier, regressor)

    def test_stage_must_take_its_layout_aux(self, stages):
        _, regressor = stages
        classifier = build_variant("a1", seed=1)
        classifier.variant_id = "c1"  # c1 has no direction input
        with pytest.raises(CompositionError, match=r"^stage 1 \(c1\) aux width 1 != expected 0$"):
            TwoStageModel(classifier, regressor)


class TestPredictBatch:
    def test_matches_manual_chain_bitwise(self, stages):
        classifier, regressor = stages
        model = TwoStageModel(classifier, regressor)
        obs = observations()
        s1 = encode_dataset(obs, VARIANTS["a1"], DEFAULT_CONFIGS)
        s2 = encode_dataset(obs, VARIANTS["b2"], DEFAULT_CONFIGS)

        joint = predict_batch(model, s1, s2)

        probs = np.atleast_2d(forward(classifier, stage_inputs(s1.features, "a1")))
        norm = np.atleast_2d(forward(regressor, stage_inputs(s2.features, "b2", probs)))
        for i, p in enumerate(joint):
            assert p.class_probs == tuple(float(v) for v in probs[i])
            assert p.predicted_class == int(np.argmax(probs[i]))
            assert p.power_norm == float(norm[i, 0])
            assert p.power_watts == denormalize_power(float(norm[i, 0]))

    def test_misaligned_samples(self, stages):
        model = TwoStageModel(*stages)
        obs = observations()
        s1 = encode_dataset(obs, VARIANTS["a1"], DEFAULT_CONFIGS)
        s2 = encode_dataset(obs[:-1], VARIANTS["b2"], DEFAULT_CONFIGS)
        with pytest.raises(CompositionError):
            predict_batch(model, s1, s2)

    def test_single_observation_predict(self, corpus_observations):
        """predict on one observation is predict_batch on its one-row table,
        for every classifier and regressor pair."""
        for cid, rid in itertools.product(CLASSIFIER_IDS, REGRESSOR_IDS):
            model = TwoStageModel(build_variant(cid, seed=1), build_variant(rid, seed=2))
            for obs in corpus_observations:
                table = encode_table(ObservationTable.from_observations([obs]))
                single = predict(model, obs, config_for_date(obs.date))
                assert single == predict_batch(model, table, table)[0], (cid, rid, obs)


@pytest.fixture(scope="module")
def corpus_features():
    """The (1025, 12) feature rows of the first 1,025 seed-0 corpus rows."""
    return encode_table(synthesize_corpus(CorpusSpec(n_observations=1025, seed=0))).features


class TestRunStageBlocks:
    """run_stage runs CHUNK_ROWS-row blocks, the last taking a shorter
    remainder too, and each row keeps the bits of one pass over all rows."""

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 767, 768, 1025])
    def test_blocks_give_the_bits_of_one_pass(self, stages, corpus_features, monkeypatch, n):
        classifier, regressor = stages
        features = corpus_features[:n]
        probs = run_layers(classifier, stage_inputs(features, "a1"))
        norm = run_layers(regressor, stage_inputs(features, "b2", probs))
        sizes = []

        def counting_run_layers(model, x):
            sizes.append(len(x))
            return run_layers(model, x)

        monkeypatch.setattr(compose, "run_layers", counting_run_layers)
        assert np.array_equal(compose.run_stage(classifier, features), probs)
        assert np.array_equal(compose.run_stage(regressor, features, probs), norm)
        assert sum(sizes) == 2 * n
        assert min(n, CHUNK_ROWS) <= min(sizes) and max(sizes) < 2 * CHUNK_ROWS


class TestSerialization:
    def test_save_load_round_trip(self, stages, tmp_path):
        model = TwoStageModel(*stages)
        path = tmp_path / "twostage.json"
        save_two_stage(model, path)
        loaded = load_two_stage(path)

        obs = observations(n=5, seed=3)
        s1 = encode_dataset(obs, VARIANTS["a1"], DEFAULT_CONFIGS)
        s2 = encode_dataset(obs, VARIANTS["b2"], DEFAULT_CONFIGS)
        assert predict_batch(loaded, s1, s2) == predict_batch(model, s1, s2)

    def test_compose_from_files(self, stages, tmp_path):
        classifier, regressor = stages
        p1, p2 = tmp_path / "c.json", tmp_path / "r.json"
        save_model(classifier, p1)
        save_model(regressor, p2)
        model = TwoStageModel(load_model(p1), load_model(p2))
        assert model.stage1.variant_id == "a1"

    def test_single_stage_file_rejected(self, stages, tmp_path):
        classifier, _ = stages
        path = tmp_path / "single.json"
        save_model(classifier, path)
        with pytest.raises(ModelFormatError):
            load_two_stage(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("][")
        with pytest.raises(ModelFormatError):
            load_two_stage(path)


class TestAioPair:
    def test_aio_composition(self):
        model = TwoStageModel(build_variant("f1", seed=0), build_variant("c2", seed=0))
        obs = observations(n=4)
        s1 = encode_dataset(obs, VARIANTS["f1"], DEFAULT_CONFIGS)
        s2 = encode_dataset(obs, VARIANTS["c2"], DEFAULT_CONFIGS)
        joint = predict_batch(model, s1, s2)
        assert len(joint) == 4
        for p in joint:
            assert 0 <= p.predicted_class <= 4
            assert 0.0 < p.power_watts
