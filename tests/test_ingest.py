"""Tests for CSV parsing, exclusion filtering, and corpus synthesis."""

import csv
import datetime as dt
import hashlib
import io
import itertools
import random

import numpy as np
import pytest

from rtp import seeds
from rtp.domain import (
    DEFAULT_CONFIGS,
    FULL_POWER_W,
    MAX_ROD_TRAVEL_IN,
    config_for_date,
    shown,
)
from rtp.ingest import (
    CHUNK_ROWS,
    CSV_HEADER,
    CorpusSpec,
    DataError,
    ObservationTable,
    ParseError,
    _heights_for_reactivity,
    RawLogRow,
    filter_report,
    parse_log,
    read_chunks,
    row_to_observation,
    synthesize_corpus,
    write_observations,
)
from reference import classify_power, reactivity_of_state, read_observations, read_table

GOOD_ROW = "2014-06-01,10:00,10:30,100.0,1000.0,5.0,5.0,5.0,5.0,6.0,6.0,6.0,6.0"

# A field longer than the csv module's default limit of 131,072 characters.
HUGE_FIELD = "9" * 200_000


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


class TestReadChunks:
    """read_chunks cuts a CSV into chunks of CHUNK_ROWS data rows, a lone
    last row joining the chunk before it, as engine.run_blocks cuts a pass."""

    @pytest.mark.parametrize(
        "n, sizes",
        [(1, [1]), (511, [256, 255]), (512, [256, 256]), (767, [256, 256, 255]),
         (1025, [256, 256, 256, 257]), (513, [256, 257])],
    )
    def test_chunk_sizes(self, n, sizes):
        assert CHUNK_ROWS == 256
        assert [len(chunk) for chunk in read_chunks(csv_source(*[GOOD_ROW] * n))] == sizes

    def test_blank_lines_are_not_rows(self):
        rows = [GOOD_ROW] * 513
        rows[99:99] = [""] * 3  # data lines 100 to 102
        chunks = list(read_chunks(csv_source(*rows)))
        assert [len(chunk) for chunk in chunks] == [256, 257]
        assert chunks[0].row_index[[98, 99, -1]].tolist() == [99, 103, 259]
        assert chunks[1].row_index[[0, -1]].tolist() == [260, 516]


def scalar_parse(text):
    """Reference: the row-by-row parsing rule, checks in per-row order.

    Returns the parsed rows, or the ParseError message of the first failing
    row and field.
    """
    reader = csv.reader(io.StringIO(text))
    next(reader)
    rows = []
    for i in itertools.count(1):
        try:
            record = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:  # a field over the csv module's size limit
            return f"row {i}: {exc}"
        if not record:
            continue

        def fail(name, what):
            return f"row {i}: field '{name}': {what}"

        if len(record) != 13:
            return f"row {i}: expected 13 fields, got {len(record)}"
        parsed = []
        for j, parse in enumerate([dt.date.fromisoformat, dt.time.fromisoformat, dt.time.fromisoformat]):
            try:
                parsed.append(parse(record[j]))
            except ValueError:
                return fail(CSV_HEADER[j], f"cannot parse {shown(record[j])}")
            if j > 0 and parsed[j].tzinfo is not None:
                return fail(CSV_HEADER[j], f"{record[j]!r} has a UTC offset")
        date, start, end = parsed
        if end < start:
            return fail("end_time", f"{end} is before {start}")
        powers = []
        for j in (3, 4):
            try:
                powers.append(float(record[j]))
            except ValueError:
                return fail(CSV_HEADER[j], f"cannot parse {shown(record[j])}")
        for j, p in zip((3, 4), powers):
            if p <= 0:
                return fail(CSV_HEADER[j], f"{p} must be positive")
        for j, p in zip((3, 4), powers):
            if not (0.0 <= p <= FULL_POWER_W):
                return fail(CSV_HEADER[j], f"{p} outside [0.0, {FULL_POWER_W}]")
        rods = []
        for j in range(5, 13):
            try:
                h = float(record[j])
            except ValueError:
                return fail(CSV_HEADER[j], f"cannot parse {shown(record[j])}")
            if not (0.0 <= h <= MAX_ROD_TRAVEL_IN):
                return fail(CSV_HEADER[j], f"{h} outside [0.0, {MAX_ROD_TRAVEL_IN}]")
            rods.append(h)
        rows.append(RawLogRow(i, date, start, end, *powers, tuple(rods[:4]), tuple(rods[4:])))
    return rows


def parse_outcome(text):
    """read_chunks' rows (through parse_log) or its ParseError message."""
    try:
        return parse_log(io.StringIO(text))
    except ParseError as exc:
        return str(exc)


def with_field(name, value, row=GOOD_ROW):
    fields = row.split(",")
    fields[CSV_HEADER.index(name)] = value
    return ",".join(fields)


BAD_VALUES = [
    *[(name, "oops") for name in CSV_HEADER],
    ("start_time", "24:00"),
    ("end_time", "09:59"),
    ("end_time", "09:59:59.999999"),
    *[(name, v) for name in ("start_time", "end_time") for v in ("10:15+01:00", "10:15Z", "10:15+00:00")],
    *[(name, v) for name in ("initial_power_w", "final_power_w")
      for v in ("0.0", "-0.0", "-5", "200000.5", "nan", "inf", "1e400")],
    *[(name, v) for name in CSV_HEADER[5:] for v in ("-0.1", "24.000001", "nan", "-inf")],
]


class TestParseParity:
    """read_chunks gives the reference rule's message for the first failing
    row and field, and its values, bit for bit, when nothing fails."""

    @pytest.mark.parametrize("name, value", BAD_VALUES)
    def test_one_bad_field(self, name, value):
        text = csv_source(GOOD_ROW, with_field(name, value), GOOD_ROW).getvalue()
        expected = scalar_parse(text)
        assert isinstance(expected, str) and expected.startswith("row 2: ")
        assert parse_outcome(text) == expected

    @pytest.mark.parametrize(
        "rows",
        [
            # Two failing rows: the first one is reported.
            [GOOD_ROW, with_field("rod2_f", "x"), with_field("date", "x")],
            [with_field("reg_f", "99"), with_field("start_time", "x")],
            # Two faults in one row: the first in per-row check order.
            [with_field("rod1_i", "x", with_field("initial_power_w", "300000"))],
            [with_field("final_power_w", "x", with_field("initial_power_w", "-1"))],
            [with_field("end_time", "09:00", with_field("initial_power_w", "x"))],
            [with_field("end_time", "x", with_field("start_time", "10:00+00:00"))],
            [with_field("end_time", "10:30+05:00", with_field("start_time", "10:00+00:00"))],
            [with_field("end_time", "10:30+01:00"), with_field("start_time", "11:00")],
            [with_field("rod3_f", "x", with_field("rod1_f", "30"))],
            # A short row after, and before, a bad row.
            [with_field("rod1_f", "x"), "2014-06-01,10:00"],
            ["2014-06-01,10:00", with_field("rod1_f", "x")],
            # Blank lines count in the numbering.
            [GOOD_ROW, "", "", with_field("reg_i", "-1")],
            # A field over the csv module's limit, alone, after a bad row and
            # before one.
            [GOOD_ROW, "", with_field("reg_f", HUGE_FIELD)],
            [with_field("date", "x"), with_field("reg_f", HUGE_FIELD)],
            [with_field("rod1_i", HUGE_FIELD), with_field("date", "x")],
        ],
    )
    def test_first_failure_wins(self, rows):
        text = csv_source(*rows).getvalue()
        expected = scalar_parse(text)
        assert isinstance(expected, str)
        assert parse_outcome(text) == expected

    @pytest.mark.parametrize("bad_row", [None, 1, 255, 256, 300, 900])
    def test_files_longer_than_a_chunk(self, bad_row):
        # Blank lines fall on both sides of chunk boundaries; a fault in a
        # later chunk is still found and numbered by its CSV line.
        rows = [with_field("final_power_w", f"{1000 + k}.25") for k in range(900)]
        for k in (200, 255, 256, 600):
            rows[k] = ""
        if bad_row is not None:
            rows[bad_row - 1] = with_field("rod2_i", "x", rows[bad_row - 1] or GOOD_ROW)
        text = csv_source(*rows).getvalue()
        expected = scalar_parse(text)
        assert repr(parse_outcome(text)) == repr(expected)
        if bad_row is None:
            assert len(expected) == 896 and expected[-1].row_index == 900

    def test_blank_line_numbering(self):
        text = csv_source(GOOD_ROW, "", with_field("date", "x")).getvalue()
        assert parse_outcome(text) == "row 3: field 'date': cannot parse 'x'"

    @pytest.mark.parametrize(
        "name, value, parsed",
        [("rod1_i", " 5 ", 5.0), ("initial_power_w", "1_000", 1000.0), ("reg_f", "\t24\n", 24.0)],
    )
    def test_python_float_spellings_accepted(self, name, value, parsed):
        text = csv_source(with_field(name, value)).getvalue()
        assert repr(parse_outcome(text)) == repr(scalar_parse(text))
        (row,) = parse_outcome(text)
        got = {"rod1_i": row.initial_rods[0], "initial_power_w": row.initial_power, "reg_f": row.final_rods[3]}
        assert got[name] == parsed

    def test_nan_is_out_of_range(self):
        text = csv_source(with_field("initial_power_w", "nan")).getvalue()
        assert parse_outcome(text) == "row 1: field 'initial_power_w': nan outside [0.0, 200000.0]"

    def test_seeded_mutations_match_reference(self):
        rng = random.Random(6)
        pool = ["oops", "", " 5 ", "1_000", "nan", "-0.0", "0", "24", "24.5", "-1", "1e-320",
                "199999.99999999997", "200000", "2014-02-30", "2015-10-10", "23:59", "00:00",
                "10:00:30", "0.1", "12.000000000000002"]
        base = [with_field("final_power_w", f"{100 + k}.5") for k in range(6)]
        for case in range(300):
            rows = list(base)
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(rows))
                fields = rows[k].split(",")
                action = rng.random()
                if action < 0.05:
                    fields.pop()
                elif action < 0.1:
                    rows.insert(k, "")
                    continue
                else:
                    fields[rng.randrange(len(fields))] = rng.choice(pool)
                rows[k] = ",".join(fields)
            text = csv_source(*rows).getvalue()
            got, expected = parse_outcome(text), scalar_parse(text)
            assert repr(got) == repr(expected), f"case {case}: {rows}"


class TestFilters:
    def row(self, start="10:00", end="10:30", p_i="100.0", p_f="1000.0"):
        return f"2014-06-01,{start},{end},{p_i},{p_f},5.0,5.0,5.0,5.0,6.0,6.0,6.0,6.0"

    def test_too_long_excluded(self):
        kept, counts = filter_report(read_table(csv_source(self.row(end="11:01"))))
        assert len(kept) == 0
        assert counts.too_long == 1

    def test_exactly_one_hour_kept(self):
        kept, counts = filter_report(read_table(csv_source(self.row(end="11:00"))))
        assert counts.retained == 1

    def test_shutdown_excluded(self):
        kept, counts = filter_report(read_table(csv_source(self.row(p_f="0.5"))))
        assert len(kept) == 0
        assert counts.shutdown == 1

    def test_final_power_of_one_watt_kept(self):
        _, counts = filter_report(read_table(csv_source(self.row(p_f="1.0"))))
        assert counts.retained == 1

    def test_no_change_excluded(self):
        kept, counts = filter_report(read_table(csv_source(self.row(p_f="100.0"))))
        assert len(kept) == 0
        assert counts.no_change == 1

    def test_mixed_counts(self):
        source = csv_source(
            self.row(),
            self.row(end="11:30"),
            self.row(p_f="0.2"),
            self.row(p_f="100.0"),
            self.row(p_i="50.0"),
        )
        kept, counts = filter_report(read_table(source))
        assert len(kept) == 2
        assert (counts.retained, counts.too_long, counts.shutdown, counts.no_change) == (2, 1, 1, 1)


class TestHeightsForReactivity:
    def test_exact_target(self):
        rng = np.random.default_rng(11)
        for config in DEFAULT_CONFIGS:
            for _ in range(200):
                target = rng.uniform(0.0, config.total_worth())
                heights = np.array(_heights_for_reactivity(target, config.rod_worths, rng))
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
        assert corpus.row_index.tolist() == list(range(1, 601))

    def test_deterministic(self, corpus):
        again = synthesize_corpus(CorpusSpec(n_observations=600, seed=7))
        assert again.rows() == corpus.rows()
        other = synthesize_corpus(CorpusSpec(n_observations=600, seed=8))
        assert other.rows() != corpus.rows()

    def test_physical_ranges(self, corpus):
        for obs in map(row_to_observation, corpus.rows()):
            for state in (obs.initial, obs.final):
                assert 0.0 < state.power <= FULL_POWER_W
                for h in state.rod_heights:
                    assert 0.0 <= h <= MAX_ROD_TRAVEL_IN

    def test_direction_consistency(self, corpus):
        # The reactivity difference between states matches the power change.
        for obs in map(row_to_observation, corpus.rows()):
            config = config_for_date(obs.date)
            d_rho = reactivity_of_state(obs.final, config) - reactivity_of_state(
                obs.initial, config
            )
            assert (d_rho > 0) == (obs.final.power > obs.initial.power)

    def test_class_coverage(self, corpus):
        counts = [0] * 5
        for power in corpus.powers[:, 1].tolist():
            counts[classify_power(power)] += 1
        for c, count in enumerate(counts):
            assert count >= 0.10 * len(corpus), f"class {c} underrepresented: {count}"

    def test_passes_ingestion_filters(self, corpus, tmp_path):
        path = tmp_path / "corpus.csv"
        write_observations(corpus, path)
        assert len(read_observations(path)) == len(corpus)

    def test_bad_spec(self):
        with pytest.raises(DataError):
            CorpusSpec(n_observations=0, seed=0)
        with pytest.raises(DataError, match="^seed must be an integer >= 0, got -1$"):
            CorpusSpec(n_observations=10, seed=-1)


class TestPinnedCorpus:
    # sha256 of the n = 5000 corpus that run_pipeline writes at root seeds 0
    # and 1, as the synthesizer wrote it when it still did its arithmetic on
    # numpy arrays; it holds the Python-float arithmetic and the sequence of
    # rng calls. The digests hold for one numpy build.
    DESK_CORPUS_SHA256 = {
        0: "4b5621bcafd5cbb31682524935de9cabf6780503441ab80edd9a6de5a62c1d74",
        1: "681b07da4b261b7acf714412e02c76f5e6e344383e7fdc4dfc4645641010f637",
    }

    @pytest.mark.parametrize("root_seed", sorted(DESK_CORPUS_SHA256))
    def test_desk_corpus_bytes(self, tmp_path, root_seed):
        path = tmp_path / "corpus.csv"
        spec = CorpusSpec(5000, seeds.subseed(root_seed, "corpus"))
        write_observations(synthesize_corpus(spec), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DESK_CORPUS_SHA256[root_seed]


class TestRoundTrip:
    def test_write_read_exact(self, tmp_path):
        corpus = synthesize_corpus(CorpusSpec(n_observations=50, seed=3))
        path = tmp_path / "roundtrip.csv"
        write_observations(corpus, path)
        back = read_observations(path)
        # repr() serialization must round-trip every float exactly.
        assert back.rows() == corpus.rows()

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = synthesize_corpus(CorpusSpec(n_observations=50, seed=3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_observations(corpus, p1)
        write_observations(read_observations(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestObservationTable:
    def row(self, start, end, p_f="1000.0"):
        return f"2014-06-01,{start},{end},100.0,{p_f},5.0,5.0,5.0,5.0,6.0,6.0,6.0,6.0"

    def test_duration_minutes(self):
        table = read_table(csv_source(self.row("10:00", "10:30"), self.row("09:59:59", "11:00:01")))
        assert table.duration_minutes.tolist() == [30.0, 61.0]

    def test_concat_keeps_row_numbers(self):
        first = read_table(csv_source(self.row("10:00", "10:30"), "", self.row("11:00", "11:20", "50.0")))
        second = read_table(csv_source(self.row("12:00", "12:05", "7.5")))
        both = ObservationTable.concat([first, second])
        assert both.rows() == first.rows() + second.rows()
        assert both.row_index.tolist() == [1, 3, 1]
