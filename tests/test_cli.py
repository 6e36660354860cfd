import csv
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import secantlines.cli as cli
from secantlines.cli import main, parse_partition, table_rows
from secantlines.oracle import VERDICT_BELOW
from secantlines.partitions import Partition, PartitionError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python_process(*argv, **popen_kwargs):
    """`python argv...` as a child process that imports the same copy of the
    package as these tests."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, *argv], env=env, **popen_kwargs)


@pytest.fixture
def deadline():
    """Turn a hang of more than 60 s into a TimeoutError in this process."""

    def expired(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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

    def test_widest_kernel_shape_output_bytes_are_pinned(self, capsys):
        # [30,20,10] has d = 60 and 1,891 columns, the widest matrices any
        # command here eliminates, so its leaves take many windows; the
        # digest was taken before the leaves moved to float64.
        code, out, _ = run(capsys, "verify", "30,20,10")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "05ea4d634c494b9d1689f836425bb5dc5ae37c33ff86735552d63c8e1cd86748"
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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # 28,597 records, every partition with d <= 30.
            ((), "2b43718bed826bd9674b015f6e637c0c6c4a7b66184286715a2cf801f3b9b976"),
            (
                ("--d-max", "12", "--format", "csv"),
                "c25589af1cad24adaa3f1e48632ae688be55b8e78a2461c9bf3f87b5027dea99",
            ),
        ],
        ids=["json-d30", "csv-d12"],
    )
    def test_classify_sweep_output_bytes_are_pinned(self, capsys, argv, digest):
        # The closed forms' output, byte for byte: any refactor of formulas or
        # partitions must keep these digests.
        code, out, _ = run(capsys, "sweep", "--d-max", "30", "--mode", "classify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_benchmark_verify_sweep_output_bytes_are_pinned(self, capsys):
        # The benchmark's sweep-verify workload: 128 partitions, each run as
        # one stack of its three trials. Digest taken before the trials were
        # stacked and before the degree-10 slices left the int64 route.
        code, out, _ = run(capsys, "sweep", "--d-max", "10", "--mode", "verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "15e968763f252d3c990631bfe4fabc67ada8e536bcbd951cc6a4e0aa1231ef07"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--d-max", "6", "--prime", "7"),
                "d411f499598663efe271527cbb8c22992007f3328059740ee338bf89a34e913d",
            ),
            (
                ("--d-max", "8", "--prime", "2"),
                "4731e4fa2fe929dcf006e53b27fc48aceb4bbc00f6d4c1f918b32ec9d25c0a2c",
            ),
        ],
        ids=["p7-d6", "p2-d8"],
    )
    def test_small_prime_verify_sweep_output_bytes_are_pinned(self, capsys, argv, digest):
        # At these primes every partition's stack of trials diverges and
        # re-runs one trial at a time; some records are mismatches (exit 1).
        # Digests taken before the trials were stacked.
        code, out, _ = run(capsys, "sweep", "--mode", "verify", *argv)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.slow
    def test_verify_sweep_to_degree_14_output_bytes_are_pinned(self, capsys):
        # 493 partitions, each still one stack of its trials (d <= 23 is).
        code, out, _ = run(capsys, "sweep", "--d-max", "14", "--mode", "verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f04310207369d47bf0fa177b0c8ea002fa4f664e4aa24b308980712e9c914d4f"
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
    def test_verify_records_stream(self, monkeypatch, deadline, fmt, header):
        # Records come out in sweep order, each flushed once it and every
        # earlier record are done, not when the sweep ends. The last partition
        # runs in a later pool task than the second, so it can wait for the
        # second record's flush; the Event is shared across the fork. The
        # first partition is verified in this process, before the pool starts.
        second_flushed = multiprocessing.get_context("fork").Event()

        class Watched(io.StringIO):
            def flush(self):
                if self.getvalue().count("\n") >= header + 2:
                    second_flushed.set()

        partitions = list(cli.enumerate_partitions(6))
        assert len(partitions) - 1 > cli.SWEEP_CHUNK
        sweeper = os.getpid()
        real_verify = cli.verify

        def watched(partition, **kwargs):
            if partition == partitions[0] and os.getpid() != sweeper:
                raise RuntimeError("the first partition was verified in a worker")
            if partition == partitions[-1] and not second_flushed.wait(timeout=10):
                raise RuntimeError("the second record was not flushed in time")
            return real_verify(partition, **kwargs)

        stream = Watched()
        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(cli, "verify", watched)
        code = main(["sweep", "--d-max", "6", "--mode", "verify", "--format", fmt])
        assert code == 0
        lines = stream.getvalue().splitlines()[header : header + len(partitions)]
        if fmt == "json":
            got = [json.loads(line)["lambda"] for line in lines]
        else:
            got = [[int(x) for x in row[0].split(",")] for row in csv.reader(lines)]
        assert got == [list(p.parts) for p in partitions]

    def test_worker_error_exits_two_after_earlier_records(self, capsys, monkeypatch, deadline):
        # A ValueError raised in a pool worker reaches main unchanged: exit 2
        # with its message, every record before the failing partition already
        # written, and no hang.
        partitions = list(cli.enumerate_partitions(6))
        failing = partitions[10]
        real_verify = cli.verify

        def doctored(partition, **kwargs):
            if partition == failing:
                raise ValueError(f"cannot verify {partition}")
            return real_verify(partition, **kwargs)

        monkeypatch.setattr(cli, "verify", doctored)
        code, out, err = run(capsys, "sweep", "--d-max", "6", "--mode", "verify")
        assert code == 2
        assert err == f"error: cannot verify {failing}\n"
        assert [r["lambda"] for r in json_lines(out)] == [list(p.parts) for p in partitions[:10]]

    def test_killed_worker_exits_three(self, capsys, monkeypatch, deadline):
        # A worker that dies without raising, as under the OOM killer, loses
        # its task, which the pool never completes. The sweep notices within
        # WORKER_CHECK_S, stops, and exits 3 with one error line and no
        # traceback, after some of the records before the lost task.
        partitions = list(cli.enumerate_partitions(6))
        sweeper = os.getpid()
        real_verify = cli.verify

        def doctored(partition, **kwargs):
            if partition.d == 5 and os.getpid() != sweeper:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_verify(partition, **kwargs)

        monkeypatch.setattr(cli, "verify", doctored)
        start = time.monotonic()
        code, out, err = run(capsys, "sweep", "--d-max", "6", "--mode", "verify")
        assert time.monotonic() - start < 10
        assert code == cli.EXIT_WORKER_LOST == 3
        assert err == "error: a pool worker exited without finishing its partitions\n"
        got = [r["lambda"] for r in json_lines(out)]
        assert got == [list(p.parts) for p in partitions[: len(got)]]
        assert got and all(sum(parts) < 5 for parts in got)

    def test_one_cpu_output_bytes_are_pinned(self, capsys, monkeypatch):
        # One CPU in the affinity mask gives a pool of one worker and the same
        # bytes as the pin above.
        asked = []

        def one_cpu(pid):
            asked.append(pid)
            return {0}

        monkeypatch.setattr(cli.os, "sched_getaffinity", one_cpu)
        code, out, _ = run(capsys, "sweep", "--d-max", "8", "--mode", "verify")
        assert code == 0
        assert asked == [0]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a272fc6ea34dabbe9403e2714ffbce66401b64ff81896e88552ac09cd346cff3"
        )

    def test_closed_stdout_is_no_mismatch(self):
        # `sweep --mode verify | head -1`: the reader leaves after one line.
        # The sweep stops its workers and exits 141 with nothing on stderr,
        # not 1, which would claim a verified mismatch.
        proc = python_process(
            "-m", "secantlines", "sweep", "--d-max", "12", "--mode", "verify",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            first = json.loads(proc.stdout.readline())
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert first["lambda"] == [1, 1]
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_only_verify_sweeps_import_multiprocessing(self):
        # The pool's import is paid only by a verify sweep with more than one
        # partition, not by classify, verify or a one-partition sweep.
        script = (
            "import sys\n"
            "from secantlines.cli import main\n"
            "for argv in (['classify', '1,1'], ['verify', '2,1'], ['sweep', '--d-max', '6'],\n"
            "             ['sweep', '--d-max', '2', '--mode', 'verify']):\n"
            "    main(argv)\n"
            "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
            "main(['sweep', '--d-max', '3', '--mode', 'verify'])\n"
            "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
        )
        proc = python_process("-c", script, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err.decode().split() == ["False", "True"]

    def test_closed_forms_never_import_numpy(self):
        # Only the oracle needs numpy; importing the CLI and every command
        # that stays on the closed forms leaves it unloaded, and so does the
        # parser's check of --prime.
        script = (
            "import sys\n"
            "import secantlines.cli\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "for argv in (['classify', '9,7,2'], ['sweep', '--mode', 'classify'],\n"
            "             ['figure-data', '--r', '3'], ['table', 'lemma47', '--prime', '7']):\n"
            "    secantlines.cli.main(argv)\n"
            "    print('numpy' in sys.modules, file=sys.stderr)\n"
        )
        proc = python_process("-c", script, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err.decode().split() == ["False"] * 5

    def test_lazy_numpy_keeps_one_blas_thread(self):
        # The package sets OPENBLAS_NUM_THREADS at import, long before verify
        # first loads numpy.
        script = (
            "import os, sys\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "from secantlines.cli import main\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "main(['verify', '2,1'])\n"
            "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)\n"
        )
        proc = python_process("-c", script, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err.decode().split() == ["False", "True", "1"]

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


PACKAGE_EXPORTS = {
    "ClassificationReport",
    "DerivationMismatchError",
    "EmptyPartitionError",
    "NegativeDegreeError",
    "NonPositivePartError",
    "NotApplicableError",
    "OracleReport",
    "Partition",
    "PartitionError",
    "SemicontinuityError",
    "TooFewPartsError",
    "classify",
    "verify",
}
ORACLE_EXPORTS = {"NotApplicableError", "OracleReport", "SemicontinuityError", "verify"}


def test_package_exports_resolve():
    # The package exports the README's library surface and the error types;
    # the oracle names resolve on first access, so the README's library
    # example and every name in __all__ import from the package.
    import secantlines
    from secantlines import Partition, classify, verify

    assert sorted(secantlines.__all__) == sorted(PACKAGE_EXPORTS)
    for name in secantlines.__all__:
        assert getattr(secantlines, name) is not None
    assert classify(Partition([9, 7, 2])).delta2 == 1
    assert verify(Partition([2, 1]), trials=1).verdict == "MATCH"
    with pytest.raises(AttributeError):
        secantlines.no_such_name


def test_closed_form_exports_never_import_numpy():
    # Every package name outside the oracle resolves without loading numpy.
    script = (
        "import sys\n"
        "import secantlines\n"
        f"oracle_names = {sorted(ORACLE_EXPORTS)!r}\n"
        "for name in secantlines.__all__:\n"
        "    if name not in oracle_names:\n"
        "        getattr(secantlines, name)\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = python_process("-c", script, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err.decode().split() == ["False"]
