"""Tests for CSV parsing, exclusion filtering, and corpus synthesis."""

import datetime as dt
import io

import numpy as np
import pytest

from rtp.domain import (
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    config_for_date,
    reactivity_of_state,
)
from rtp.ingest import (
    CSV_HEADER,
    CorpusSpec,
    DataError,
    ParseError,
    _heights_for_reactivity,
    filter_report,
    parse_log,
    read_observations,
    synthesize_corpus,
    write_observations,
)
from rtp.preprocess import classify_power

GOOD_ROW = "2014-06-01,10:00,10:30,100.0,1000.0,5.0,5.0,5.0,5.0,6.0,6.0,6.0,6.0"


def csv_source(*rows):
    return io.StringIO("\n".join([",".join(CSV_HEADER), *rows]) + "\n")


class TestParseLog:
    def test_good_row(self):
        rows = parse_log(csv_source(GOOD_ROW))
        assert len(rows) == 1
        row = rows[0]
        assert row.date == dt.date(2014, 6, 1)
        assert row.initial_power == 100.0
        assert row.final_rods == (6.0, 6.0, 6.0, 6.0)
        assert row.row_index == 1

    def test_empty_file(self):
        with pytest.raises(DataError):
            parse_log(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(DataError):
            parse_log(csv_source())

    def test_bad_header(self):
        with pytest.raises(DataError):
            parse_log(io.StringIO("a,b,c\n1,2,3\n"))

    def test_bad_float_names_row_and_field(self):
        bad = GOOD_ROW.replace("1000.0", "oops")
        with pytest.raises(ParseError, match="row 1.*final_power_w"):
            parse_log(csv_source(bad))

    def test_bad_date(self):
        bad = GOOD_ROW.replace("2014-06-01", "yesterday")
        with pytest.raises(ParseError, match="date"):
            parse_log(csv_source(bad))

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="expected 13 fields"):
            parse_log(csv_source("2014-06-01,10:00,10:30,100.0"))

    def test_rod_out_of_range(self):
        bad = GOOD_ROW.replace("6.0,6.0,6.0,6.0", "6.0,6.0,6.0,25.0")
        with pytest.raises(ParseError, match="reg_f"):
            parse_log(csv_source(bad))

    def test_nonpositive_power(self):
        bad = GOOD_ROW.replace("100.0,1000.0", "0.0,1000.0")
        with pytest.raises(ParseError, match="initial_power_w"):
            parse_log(csv_source(bad))

    def test_end_before_start_names_row(self):
        swapped = GOOD_ROW.replace("10:00,10:30", "10:30,10:00")
        with pytest.raises(ParseError, match="row 2: field 'end_time'"):
            parse_log(csv_source(GOOD_ROW, swapped))

    def test_error_row_index_counts_data_rows(self):
        bad = GOOD_ROW.replace("1000.0", "oops")
        with pytest.raises(ParseError, match="row 2"):
            parse_log(csv_source(GOOD_ROW, bad))


class TestFilters:
    def row(self, start="10:00", end="10:30", p_i="100.0", p_f="1000.0"):
        return f"2014-06-01,{start},{end},{p_i},{p_f},5.0,5.0,5.0,5.0,6.0,6.0,6.0,6.0"

    def test_too_long_excluded(self):
        kept, counts = filter_report(parse_log(csv_source(self.row(end="11:01"))))
        assert kept == []
        assert counts.too_long == 1

    def test_exactly_one_hour_kept(self):
        kept, counts = filter_report(parse_log(csv_source(self.row(end="11:00"))))
        assert counts.retained == 1

    def test_shutdown_excluded(self):
        kept, counts = filter_report(parse_log(csv_source(self.row(p_f="0.5"))))
        assert kept == []
        assert counts.shutdown == 1

    def test_final_power_of_one_watt_kept(self):
        _, counts = filter_report(parse_log(csv_source(self.row(p_f="1.0"))))
        assert counts.retained == 1

    def test_no_change_excluded(self):
        kept, counts = filter_report(parse_log(csv_source(self.row(p_f="100.0"))))
        assert kept == []
        assert counts.no_change == 1

    def test_mixed_counts(self):
        source = csv_source(
            self.row(),
            self.row(end="11:30"),
            self.row(p_f="0.2"),
            self.row(p_f="100.0"),
            self.row(p_i="50.0"),
        )
        kept, counts = filter_report(parse_log(source))
        assert len(kept) == 2
        assert (counts.retained, counts.too_long, counts.shutdown, counts.no_change) == (2, 1, 1, 1)


class TestHeightsForReactivity:
    def test_exact_target(self):
        rng = np.random.default_rng(11)
        for config in DEFAULT_CONFIGS:
            for _ in range(200):
                target = rng.uniform(0.0, config.total_worth())
                heights = _heights_for_reactivity(target, config.rod_worths, rng)
                assert heights.min() >= 0.0 and heights.max() <= MAX_ROD_TRAVEL_IN
                rho = float(np.sum(heights / MAX_ROD_TRAVEL_IN * np.asarray(config.rod_worths)))
                assert rho == pytest.approx(target, abs=1e-9)

    def test_infeasible_target(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            _heights_for_reactivity(99.0, DEFAULT_CONFIGS[0].rod_worths, rng)
        with pytest.raises(DataError):
            _heights_for_reactivity(-0.5, DEFAULT_CONFIGS[0].rod_worths, rng)


@pytest.fixture(scope="module")
def corpus():
    return synthesize_corpus(CorpusSpec(n_observations=600, seed=7))


class TestSynthesizeCorpus:
    def test_count(self, corpus):
        assert len(corpus) == 600

    def test_deterministic(self, corpus):
        again = synthesize_corpus(CorpusSpec(n_observations=600, seed=7))
        assert again == corpus
        other = synthesize_corpus(CorpusSpec(n_observations=600, seed=8))
        assert other != corpus

    def test_physical_ranges(self, corpus):
        for obs in corpus:
            for state in (obs.initial, obs.final):
                assert 0.0 < state.power <= FULL_POWER_W
                for h in state.rod_heights:
                    assert 0.0 <= h <= MAX_ROD_TRAVEL_IN

    def test_direction_consistency(self, corpus):
        # The reactivity difference between states matches the power change.
        for obs in corpus:
            config = config_for_date(obs.date)
            d_rho = reactivity_of_state(obs.final, config) - reactivity_of_state(
                obs.initial, config
            )
            assert (d_rho > 0) == (obs.final.power > obs.initial.power)

    def test_class_coverage(self, corpus):
        counts = [0] * 5
        for obs in corpus:
            counts[classify_power(obs.final.power)] += 1
        for c, count in enumerate(counts):
            assert count >= 0.10 * len(corpus), f"class {c} underrepresented: {count}"

    def test_passes_ingestion_filters(self, corpus, tmp_path):
        path = tmp_path / "corpus.csv"
        write_observations(corpus, path)
        assert len(read_observations(path)) == len(corpus)

    def test_bad_spec(self):
        with pytest.raises(DataError):
            CorpusSpec(n_observations=0, seed=0)
        with pytest.raises(DataError):
            CorpusSpec(n_observations=10, seed=0, power_anchors=(100.0,))
        with pytest.raises(DataError):
            CorpusSpec(n_observations=10, seed=0, power_anchors=(100.0, 300_000.0))


class TestRoundTrip:
    def test_write_read_exact(self, tmp_path):
        corpus = synthesize_corpus(CorpusSpec(n_observations=50, seed=3))
        path = tmp_path / "roundtrip.csv"
        write_observations(corpus, path)
        back = read_observations(path)
        # repr() serialization must round-trip every float exactly.
        assert back == corpus

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = synthesize_corpus(CorpusSpec(n_observations=50, seed=3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_observations(corpus, p1)
        write_observations(read_observations(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
