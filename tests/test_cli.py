import csv
import hashlib
import io
import json
import sys
from dataclasses import replace

import pytest

import secantlines.cli as cli
from secantlines.cli import main, parse_partition, table_rows
from secantlines.oracle import VERDICT_BELOW
from secantlines.partitions import Partition, PartitionError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestParsePartition:
    def test_parses_and_sorts(self):
        assert parse_partition("1, 2,1") == Partition([2, 1, 1])

    @pytest.mark.parametrize("bad", ["abc", "2;1", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(PartitionError):
            parse_partition(bad)


class TestClassify:
    def test_defective_example(self, capsys):
        code, out, _ = run(capsys, "classify", "9,7,2")
        assert code == 0
        (record,) = json_lines(out)
        assert record["defective"] is True
        assert record["delta2"] == 1
        assert record["dim_sigma2"] == 188
        assert record["case_label"] == "r3_d3eq2_d2ge7"

    def test_exceptional_filler(self, capsys):
        code, out, _ = run(capsys, "classify", "2,2,2,1")
        assert code == 0
        (record,) = json_lines(out)
        assert record["fills_ambient"] is True and record["defective"] is False

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "classify", "2,1", "--format", "csv")
        assert code == 0
        (row,) = csv_rows(out)
        assert row["lambda"] == "2,1" and row["dim_sigma2"] == "9"
        assert "\r" not in out

    @pytest.mark.parametrize("bad", ["3", "0,1", "x,y"])
    def test_usage_errors(self, capsys, bad):
        code, _, err = run(capsys, "classify", bad)
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_match_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "6,5,2", "--trials", "3")
        assert code == 0
        (record,) = json_lines(out)
        assert record["verdict"] == "MATCH"
        assert record["measured"]["dim_IZ"] == 1
        assert "diff" not in record

    def test_invalid_partition(self, capsys):
        code, _, _ = run(capsys, "verify", "0,1")
        assert code == 2

    def test_largest_benchmark_shape_output_bytes_are_pinned(self, capsys):
        # [25,15] has 487x861 tangent slices stacked to 974x861, the largest
        # matrices of the verify-large benchmark; the digest was taken from
        # the column-by-column elimination before the blocked kernel existed.
        code, out, _ = run(capsys, "verify", "25,15")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "99f038e683490990678ca3a9f28355662ddd2ae6d5af5b961969586cdde281e5"
        )

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--prime", "1000004", "modulus 1000004 is not prime"),
            ("--prime", "2147483659", "modulus must be in [2, 2147483647]"),
            ("--trials", "0", "must be >= 1, got 0"),
        ],
        ids=["composite", "above_max_modulus", "zero_trials"],
    )
    def test_composite_prime_rejected(self, capsys, flag, value, reason):
        code, out, err = run(capsys, "verify", "2,1", flag, value)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: {reason}" in err

    def test_mismatch_exits_one_with_diff(self, capsys, monkeypatch):
        real_verify = cli.verify

        def doctored(partition, **kwargs):
            report = real_verify(partition, **kwargs)
            measured = dict(report.measured, dim_sigma2=report.measured["dim_sigma2"] - 1)
            return replace(report, measured=measured, verdict=VERDICT_BELOW)

        monkeypatch.setattr(cli, "verify", doctored)
        code, out, _ = run(capsys, "verify", "2,1", "--trials", "1")
        assert code == 1
        (record,) = json_lines(out)
        assert record["verdict"] == VERDICT_BELOW
        assert record["diff"]["dim_sigma2"] == {"measured": 8, "predicted": 9}


class TestSweep:
    def test_single_partition(self, capsys):
        code, out, _ = run(capsys, "sweep", "--d-max", "2")
        assert code == 0
        (record,) = json_lines(out)
        assert record["lambda"] == [1, 1]

    @pytest.mark.slow
    def test_verify_sweep_to_degree_16_all_match(self, capsys):
        # Every partition up to d = 16 (the d = 11..16 slices take the
        # blocked kernel) agrees with the closed forms. Several seconds, so
        # it runs only with -m slow.
        code, out, _ = run(capsys, "sweep", "--d-max", "16", "--mode", "verify")
        assert code == 0
        *records, last = json_lines(out)
        assert all(r["verdict"] == "MATCH" for r in records)
        assert last["summary"] == {
            "partitions": len(records),
            "matches": len(records),
            "mismatches": 0,
        }
        assert len(records) == sum(1 for _ in cli.enumerate_partitions(16))

    def test_verify_mode_summary(self, capsys):
        code, out, _ = run(capsys, "sweep", "--d-max", "5", "--mode", "verify")
        assert code == 0
        records = json_lines(out)
        summary = records[-1]["summary"]
        # partitions with r >= 2 and total degree 2..5: 1+2+4+6
        assert summary == {"partitions": 13, "matches": 13, "mismatches": 0}
        assert all(r["verdict"] == "MATCH" for r in records[:-1])

    def test_three_factor_nondefective_projection(self, capsys):
        # unbalanced non-defective (d2, d3) pairs over a sweep deep enough
        # to reach [8,6,2]
        code, out, _ = run(capsys, "sweep", "--d-max", "16", "--r", "3")
        assert code == 0
        pairs = {
            tuple(r["lambda"][1:])
            for r in json_lines(out)
            if not r["defective"] and r["lambda"][0] >= r["s"]
        }
        expected = {(a, 1) for a in range(1, 8)} | {
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 2),
            (6, 2),
            (3, 3),
        }
        assert pairs == expected

    def test_verify_sweep_output_bytes_are_pinned(self, capsys):
        # Same seeds, same output bytes: any refactor of the oracle must keep
        # this digest (59 lines, 21,696 bytes at the default seed and prime).
        code, out, _ = run(capsys, "sweep", "--d-max", "8", "--mode", "verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a272fc6ea34dabbe9403e2714ffbce66401b64ff81896e88552ac09cd346cff3"
        )

    def test_csv_verify_sweep_output_bytes_are_pinned(self, capsys):
        # The CSV twin of the pin above: 14 lines (header plus 13 partitions).
        code, out, err = run(
            capsys, "sweep", "--d-max", "5", "--mode", "verify", "--format", "csv"
        )
        assert code == 0
        assert err == "mismatches: 0\n"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5e61999dec06b6d70394f100a984620e0e7d063425a1f3d8b6e35a8d9fa08a34"
        )

    @pytest.mark.parametrize("fmt, header", [("json", 0), ("csv", 1)])
    def test_verify_records_stream(self, monkeypatch, fmt, header):
        # Each record must be written and flushed before the next partition is
        # verified: count the flushed lines when verify call k+1 starts.
        class FlushedOnly(io.StringIO):
            flushed = ""

            def flush(self):
                self.flushed = self.getvalue()

        stream = FlushedOnly()
        seen = []
        real_verify = cli.verify

        def watched(partition, **kwargs):
            seen.append(stream.flushed.count("\n"))
            return real_verify(partition, **kwargs)

        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(cli, "verify", watched)
        code = main(["sweep", "--d-max", "4", "--mode", "verify", "--format", fmt])
        assert code == 0
        assert len(seen) == 7  # partitions of total degree 2..4
        assert seen == [0] + [k + header for k in range(1, len(seen))]

    def test_csv_mode_summary_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--d-max", "3", "--mode", "verify", "--format", "csv"
        )
        assert code == 0
        assert "mismatches: 0" in err
        assert out.startswith("lambda,")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--d-max", "1"),
            ("sweep", "--r-min", "1"),
            ("sweep", "--d-max", "5", "--r-min", "4", "--r-max", "3"),
            ("sweep", "--d-max", "3", "--r", "5"),
        ],
    )
    def test_invalid_ranges(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: invalid enumeration range" in err


class TestFigureData:
    def test_three_factor_grid(self, capsys):
        code, out, _ = run(capsys, "figure-data", "--r", "3")
        assert code == 0
        rows = csv_rows(out)
        nondefective = {
            (int(r["d2"]), int(r["d3"]))
            for r in rows
            if r["defective_unbalanced"] == "false"
        }
        expected = {(a, 1) for a in range(1, 13)} | {
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 2),
            (6, 2),
            (3, 3),
        }
        assert nondefective == expected
        for r in rows:
            assert int(r["d2"]) >= int(r["d3"])
            assert (int(r["two_p_minus_three_s"]) > 0) == (
                r["defective_unbalanced"] == "true"
            )

    def test_four_factor_boundary(self, capsys):
        code, out, _ = run(capsys, "figure-data", "--r", "4", "--max-part", "6")
        assert code == 0
        nondefective = {
            (int(r["d2"]), int(r["d3"]), int(r["d4"]))
            for r in csv_rows(out)
            if r["defective_unbalanced"] == "false"
        }
        assert nondefective == {(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1)}

    def test_five_factor_boundary(self, capsys):
        code, out, _ = run(capsys, "figure-data", "--r", "5", "--max-part", "4")
        assert code == 0
        nondefective = [
            r for r in csv_rows(out) if r["defective_unbalanced"] == "false"
        ]
        assert len(nondefective) == 1
        assert nondefective[0]["case_label"] == "r5_all_ones_tail"

    def test_unsupported_r(self, capsys):
        code, _, _ = run(capsys, "figure-data", "--r", "6")
        assert code == 2

    def test_max_part_must_be_positive(self, capsys):
        code, out, err = run(capsys, "figure-data", "--r", "3", "--max-part", "0")
        assert code == 2
        assert out == ""
        assert "argument --max-part: must be >= 1, got 0" in err

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "figure-data", "--r", "4", "--max-part", "5")
        _, out2, _ = run(capsys, "figure-data", "--r", "4", "--max-part", "5")
        assert out1 == out2
        assert "\r" not in out1


class TestTable:
    def test_descent_table_values(self, capsys):
        code, out, _ = run(capsys, "table", "lemma46")
        assert code == 0
        rows = csv_rows(out)
        assert [r["case"] for r in rows] == [
            "3,2,2",
            "4,3,2",
            "5,4,2",
            "6,5,2",
            "2,1,1,1",
            "3,2,1,1",
            "4,3,1,1",
        ]
        assert [int(r["exp_dim_IZ"]) for r in rows] == [4, 3, 2, 1, 3, 2, 1]
        assert [int(r["dim_IZ_reduced"]) for r in rows] == [4, 3, 2, 1, 3, 2, 1]

    def test_near_balanced_table(self, capsys):
        code, out, _ = run(capsys, "table", "lemma45", "--format", "json")
        assert code == 0
        for record in json_lines(out):
            a = record["a"]
            want = a + 3 if record["lambda"][0] == a else a + 4
            assert record["dim_IZ"] == want

    def test_two_factor_table(self, capsys):
        code, out, _ = run(capsys, "table", "lemma47", "--format", "json")
        assert code == 0
        records = json_lines(out)
        by_lambda = {tuple(r["lambda"]): r for r in records}
        assert by_lambda[(3, 2)]["exp_dim_IZ"] == 9
        for record in records:
            assert record["exp_dim_IZ"] == record["dim_IZ"]

    def test_oracle_check(self, capsys):
        code, out, _ = run(
            capsys, "table", "lemma45", "--check", "--trials", "2", "--format", "json"
        )
        assert code == 0
        for record in json_lines(out):
            assert record["match"] is True
            assert record["oracle_dim_IZ"] == record["dim_IZ"]

    @pytest.mark.parametrize("fmt, header", [("json", 0), ("csv", 1)])
    def test_checked_rows_stream(self, monkeypatch, fmt, header):
        # Each checked row must be written and flushed before the next row's
        # oracle calls: lemma46 measures two partitions per row.
        class FlushedOnly(io.StringIO):
            flushed = ""

            def flush(self):
                self.flushed = self.getvalue()

        stream = FlushedOnly()
        seen = []
        real_oracle_dim_IZ = cli.oracle_dim_IZ

        def watched(partition, **kwargs):
            seen.append(stream.flushed.count("\n"))
            return real_oracle_dim_IZ(partition, **kwargs)

        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(cli, "oracle_dim_IZ", watched)
        code = main(["table", "lemma46", "--check", "--trials", "1", "--format", fmt])
        assert code == 0
        assert seen == [0, 0] + [row + header for row in range(1, 7) for _ in range(2)]

    def test_checked_rows_count_mismatches(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "oracle_dim_IZ", lambda partition, **kwargs: 1)
        code, out, _ = run(capsys, "table", "lemma46", "--check", "--format", "json")
        assert code == 1
        records = json_lines(out)
        assert [r["match"] for r in records] == [r["exp_dim_IZ"] == 1 == r["dim_IZ_reduced"] for r in records]
        assert not all(r["match"] for r in records)

    def test_unknown_table(self, capsys):
        code, _, _ = run(capsys, "table", "lemma99")
        assert code == 2

    def test_rows_helper_rejects_unknown(self):
        with pytest.raises(ValueError):
            table_rows("nope")


class TestConfigPrecedence:
    def test_verify_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "verify", "2,2,1")
        _, out2, _ = run(capsys, "verify", "2,2,1")
        assert out1 == out2
