import ast
import contextlib
import csv
import gc
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import secantlines.cli as cli
import secantlines.formulas as formulas
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


@pytest.fixture
def forked(monkeypatch):
    """Every pid `os.fork` returns in this process while the test runs."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        if pid := real_fork():
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs in the affinity mask, so that a verify sweep forks a worker
    also where this process may run on one CPU only (`taskset -c 0`)."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})


def assert_reaped(pids, cpus=None):
    """A verify sweep forked one worker per CPU but one (`cpus`, by default
    the CPUs this process may run on), and none of them is left running or
    unreaped once `main` has returned."""
    assert len(pids) == (cpus or len(os.sched_getaffinity(0))) - 1
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("9,7,2",), "b804ddeec88593a2ae54c845988bbdd3b30a108ebd871e866e84221abc4bfcf5"),
            (("9,7,2", "--format", "csv"), "b7d695c7108322c75f1bebd606aecbf51631e53da8132040d3bac98573a0e4e4"),
            (("2,2,2,1",), "0ac89f426ce1ee855b7c44ffaa891134fe8317cd13e42f3d47c12d172fc8de4b"),
            (("2,2,2,1", "--format", "csv"), "9709954c30e3c54d64645fa9e7dbc7c8fcc1e2036f9d02e882028291e6ddd226"),
        ],
        ids=["json-972", "csv-972", "json-2221", "csv-2221"],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "classify", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        # matrices of the verify-large benchmark. Its measured and predicted
        # values are those of the digest taken from the column-by-column
        # elimination before the blocked kernel existed; since trials stop
        # at the first certifying one, it lists one trial and `certified`.
        code, out, _ = run(capsys, "verify", "25,15")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1f650b068d26aa2a781b0a8a2e6c3609bee3c1d0791a2e3589836ee43462cb88"
        )

    def test_widest_kernel_shape_output_bytes_are_pinned(self, capsys):
        # [30,20,10] has d = 60 and 1,891 columns, the widest matrices any
        # command here eliminates, so its leaves take many windows. Its
        # measured and predicted values are those of the digest taken before
        # the leaves moved to float64; it now lists one trial and `certified`.
        code, out, _ = run(capsys, "verify", "30,20,10")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d5db4503c60dc9a34a2693b04943c963583dcc7a567ffa5d468f1acaf4611757"
        )

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--prime", "1000004", "argument --prime: modulus 1000004 is not prime"),
            # A prime, but past what the float64 kernel admits at degree 3.
            (
                "--prime",
                "2147483659",
                "error: prime 2147483659 is too large for degree 3: the exact float64 "
                "kernel admits primes up to 16777213 on its 10 columns",
            ),
            ("--trials", "0", "argument --trials: must be >= 1, got 0"),
        ],
        ids=["composite", "above_max_modulus", "zero_trials"],
    )
    def test_composite_prime_rejected(self, capsys, flag, value, reason):
        code, out, err = run(capsys, "verify", "2,1", flag, value)
        assert code == 2
        assert out == ""
        assert reason in err

    def test_prime_past_the_kernel_limit_is_a_usage_error(self, capsys):
        # [9,7]'s degree-16 slices have 153 columns; float64 is exact on
        # them up to 7,672,711.
        code, out, err = run(capsys, "verify", "9,7", "--prime", "2147483647")
        assert code == 2
        assert out == ""
        assert "prime 2147483647 is too large for degree 16" in err
        assert "admits primes up to 7672711 on its 153 columns" in err

    def test_largest_prime_at_degree_40_is_certified(self, capsys):
        code, out, _ = run(capsys, "verify", "25,15", "--prime", "3234383")
        assert code == 0
        (record,) = json_lines(out)
        assert (record["verdict"], record["certified"]) == ("MATCH", True)

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

    def test_prime_past_the_kernel_limit_at_d_max_verifies_nothing(self, capsys, monkeypatch):
        # The sweep checks the prime at --d-max before its first partition,
        # which has d = 2: 3,234,463, the first prime above 3,234,383, is
        # admitted there but not at d = 40.
        verified = []
        monkeypatch.setattr(cli, "verify", lambda partition, **kwargs: verified.append(partition))
        code, out, err = run(capsys, "sweep", "--d-max", "40", "--mode", "verify", "--prime", "3234463")
        assert code == 2
        assert (out, verified) == ("", [])
        assert "admits primes up to 3234383 on its 861 columns" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # 28,598 records, every partition with d <= 30.
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

    def test_verify_sweep_output_bytes_are_pinned(self, capsys, forked):
        # Same seeds, same output bytes: any refactor of the oracle must keep
        # this digest (59 lines, 19,816 bytes at the default seed and prime).
        code, out, _ = run(capsys, "sweep", "--d-max", "8", "--mode", "verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "aed7e7f0a7ad0b1b258a7ee0134c16e57bd72607eb0a25d34e174781c023e391"
        )
        assert_reaped(forked)

    def test_benchmark_verify_sweep_output_bytes_are_pinned(self, capsys):
        # The benchmark's sweep-verify workload: 128 partitions, each
        # certified by its first trial.
        code, out, _ = run(capsys, "sweep", "--d-max", "10", "--mode", "verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f7337ffdcb8dfb3dc913dfdba3c339aabe459f3316b8c594b9d75764d4e11e2e"
        )

    @pytest.mark.parametrize(
        "argv, digest, matched_before",
        [
            (
                ("--d-max", "6", "--prime", "7"),
                "716c3be66ddf6865a26f940f3fc97bf83a50d26ac0f30429995cfd771d9031b0",
                {p.parts for p in cli.enumerate_partitions(6)} - {(1,) * 5, (1,) * 6},
            ),
            (
                ("--d-max", "8", "--prime", "2"),
                "d17476a4cf29136d4245617654074a9429e81fadffa18bf90fdd3286a6e7de36",
                {
                    (2, 1), (2, 2), (3, 2), (4, 1), (3, 3), (4, 2),
                    (4, 3), (5, 2), (6, 1), (5, 3), (6, 2), (7, 1),
                },
            ),
        ],
        ids=["p7-d6", "p2-d8"],
    )
    def test_small_prime_verify_sweep_output_bytes_are_pinned(self, capsys, argv, digest, matched_before):
        # At these primes many trials fall short of a ceiling, so more
        # trials run, and some records are mismatches (exit 1). For r <= 3
        # the first point is a monomial one, which no prime makes unlucky:
        # only G's draw can be. matched_before lists the MATCHes of these
        # sweeps when both points were drawn; none may be lost.
        code, out, _ = run(capsys, "sweep", "--mode", "verify", *argv)
        assert code == 1
        matched = {tuple(r["lambda"]) for r in json_lines(out)[:-1] if r["verdict"] == "MATCH"}
        assert matched >= matched_before
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.slow
    def test_verify_sweep_to_degree_14_output_bytes_are_pinned(self, capsys):
        # 493 partitions, each certified by its first trial.
        code, out, _ = run(capsys, "sweep", "--d-max", "14", "--mode", "verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8b4ab5d6e773a94414f3842f054b3560c70328b64d21716860f191952fb8225d"
        )

    def test_csv_verify_sweep_output_bytes_are_pinned(self, capsys):
        # The CSV twin of the pin above: 14 lines (header plus 13 partitions).
        code, out, err = run(
            capsys, "sweep", "--d-max", "5", "--mode", "verify", "--format", "csv"
        )
        assert code == 0
        assert err == "mismatches: 0\n"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3819d8e519c220bdd7bb2d3d78bb4426d7e4529797ffb8887f1cfab4e27dd04a"
        )

    @pytest.mark.parametrize("fmt, header", [("json", 0), ("csv", 1)])
    def test_verify_records_stream(self, monkeypatch, deadline, fmt, header):
        # Records come out in sweep order, each flushed once it and every
        # earlier record are done, not when the sweep ends. The last partition
        # runs in a later chunk than the second, so it can wait for the
        # second record's flush; the Event is shared across the fork. The
        # first partition is verified in this process, before any worker starts.
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

    def test_worker_error_exits_two_after_earlier_records(self, capsys, monkeypatch, deadline, forked, two_cpus):
        # A ValueError raised in a sweep's worker reaches main unchanged: exit 2
        # with its message, every record before the failing partition already
        # written, and no hang. With two CPUs, partitions 5-8 are the worker's
        # first chunk.
        partitions = list(cli.enumerate_partitions(6))
        failing = partitions[8]
        sweeper = os.getpid()
        real_verify = cli.verify

        def doctored(partition, **kwargs):
            if partition == failing:
                raise ValueError(f"cannot verify {partition} in a worker: {os.getpid() != sweeper}")
            return real_verify(partition, **kwargs)

        monkeypatch.setattr(cli, "verify", doctored)
        code, out, err = run(capsys, "sweep", "--d-max", "6", "--mode", "verify")
        assert code == 2
        assert err == f"error: cannot verify {failing} in a worker: True\n"
        assert [r["lambda"] for r in json_lines(out)] == [list(p.parts) for p in partitions[:8]]
        assert_reaped(forked)

    @staticmethod
    def fault_at(capsys, monkeypatch, index):
        """A verify sweep to d = 6 in which partition `index` raises a
        RuntimeError: its exit code, stderr and the failing partition, after
        checking that every record before that partition was written."""
        partitions = list(cli.enumerate_partitions(6))
        sweeper = os.getpid()
        real_verify = cli.verify

        def doctored(partition, **kwargs):
            if partition == partitions[index]:
                raise RuntimeError(f"fault at {partition} in a worker: {os.getpid() != sweeper}")
            return real_verify(partition, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "verify", doctored)
            code, out, err = run(capsys, "sweep", "--d-max", "6", "--mode", "verify")
        assert [r["lambda"] for r in json_lines(out)] == [list(p.parts) for p in partitions[:index]]
        return code, err, partitions[index]

    def test_worker_fault_exits_four_after_earlier_records(self, capsys, monkeypatch, deadline, forked, two_cpus):
        # Any other exception in a sweep's worker is a fault of the program:
        # exit 4 with the traceback, the worker's own as its cause, and every
        # record before the failing partition already written. With two CPUs,
        # partitions 5-8 are the worker's first chunk.
        code, err, failing = self.fault_at(capsys, monkeypatch, 8)
        assert code == cli.EXIT_INTERNAL == 4
        assert err.startswith("multiprocessing.pool.RemoteTraceback: ")
        assert "in doctored\n" in err
        assert err.endswith(f"RuntimeError: fault at {failing} in a worker: True\n")
        assert_reaped(forked)

    def test_own_share_fault_reads_as_a_worker_fault(self, capsys, monkeypatch, deadline, forked, two_cpus):
        # A fault in the chunks the sweep verifies itself (with two CPUs,
        # partitions 9-12) gives the exit code and the first stderr line of
        # a worker's fault, with the traceback where it was raised as its
        # cause.
        worker_code, worker_err, _ = self.fault_at(capsys, monkeypatch, 8)
        code, err, failing = self.fault_at(capsys, monkeypatch, 10)
        assert code == worker_code == cli.EXIT_INTERNAL
        assert err.splitlines()[0] == worker_err.splitlines()[0] == "multiprocessing.pool.RemoteTraceback: "
        assert "in doctored\n" in err
        assert err.endswith(f"RuntimeError: fault at {failing} in a worker: False\n")
        assert_reaped(forked[:1])
        assert_reaped(forked[1:])

    def test_killed_worker_exits_three(self, capsys, monkeypatch, deadline, forked, two_cpus):
        # A worker that dies without raising, as under the OOM killer, closes
        # its pipe before its end marker. The sweep notices when it reads that
        # pipe, with no polling, stops, and exits 3 with one error line and no
        # traceback, after some of the records before the lost chunk.
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
        assert_reaped(forked)

    def test_record_cut_mid_write_exits_three(self, capsys, monkeypatch, deadline, forked, two_cpus):
        # A worker killed inside `pickle.dump` leaves a truncated record in
        # its pipe: a lost worker (exit 3, one error line), not a fault with
        # an UnpicklingError traceback (exit 4). With two CPUs, the worker's
        # first chunk holds partitions of degree 4 and 5.
        real_dump = pickle.dump
        sweeper = os.getpid()
        partitions = list(cli.enumerate_partitions(6))

        def cut(records, pipe):
            if os.getpid() != sweeper and any(sum(record["lambda"]) == 5 for record in records or ()):
                data = pickle.dumps(records)
                pipe.write(data[: len(data) // 2])
                pipe.flush()
                os._exit(0)
            real_dump(records, pipe)

        monkeypatch.setattr(pickle, "dump", cut)
        code, out, err = run(capsys, "sweep", "--d-max", "6", "--mode", "verify")
        assert code == cli.EXIT_WORKER_LOST == 3
        assert err == "error: a pool worker exited without finishing its partitions\n"
        got = [r["lambda"] for r in json_lines(out)]
        assert got == [list(p.parts) for p in partitions[: len(got)]]
        assert got and all(sum(parts) <= 5 for parts in got)
        assert_reaped(forked)

    def test_one_partition_verify_sweep_forks_nothing(self, capsys, forked):
        # The first partition is verified in this process; with no partition
        # left, the sweep forks no worker.
        code, out, _ = run(capsys, "sweep", "--d-max", "2", "--mode", "verify")
        assert code == 0
        assert [r["lambda"] for r in json_lines(out)[:-1]] == [[1, 1]]
        assert forked == []

    def test_closed_stdout_leaves_no_worker(self):
        # `assert_reaped` on the exit-141 path, in a process of its own: its
        # stdout is a pipe that the reader closes after one record.
        script = (
            "import os, sys\n"
            "from secantlines.cli import main\n"
            "pids, real_fork = [], os.fork\n"
            "def recording_fork():\n"
            "    if pid := real_fork():\n"
            "        pids.append(pid)\n"
            "    return pid\n"
            "os.fork = recording_fork\n"
            "code = main(['sweep', '--d-max', '12', '--mode', 'verify'])\n"
            "left = []\n"
            "for pid in pids:\n"
            "    try:\n"
            "        os.waitpid(pid, os.WNOHANG)\n"
            "        left.append(pid)\n"
            "    except ChildProcessError:\n"
            "        pass\n"
            "print(code, len(pids), left, file=sys.stderr)\n"
        )
        proc = python_process("-c", script, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert json.loads(proc.stdout.readline())["lambda"] == [1, 1]
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == f"141 {len(os.sched_getaffinity(0)) - 1} []\n"

    def test_killed_sweep_leaves_no_worker_holding_stdout(self):
        # SIGKILL runs no cleanup in the sweep. Its workers hold no read end
        # of any pipe, so the next write of each fails and it exits, closing
        # the stdout it inherited: the reader sees EOF, not a hang.
        proc = python_process(
            "-m", "secantlines", "sweep", "--d-max", "16", "--mode", "verify",
            stdout=subprocess.PIPE, start_new_session=True,
        )
        try:
            for _ in range(1 + 2 * cli.SWEEP_CHUNK):  # the first record, then two chunks
                assert "lambda" in json.loads(proc.stdout.readline())
            proc.kill()
            proc.wait(timeout=60)
            end = time.monotonic() + 10
            while select.select([proc.stdout], [], [], max(0, end - time.monotonic()))[0]:
                if not proc.stdout.read1():
                    break  # EOF: every worker has exited
            else:
                pytest.fail("a worker of the killed sweep still holds its stdout after 10 s")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # workers left by a failure
            proc.stdout.close()

    def test_one_cpu_output_bytes_are_pinned(self, capsys, monkeypatch, forked):
        # One CPU in the affinity mask: the sweep forks no worker and gives
        # the same bytes as the pin above.
        asked = []

        def one_cpu(pid):
            asked.append(pid)
            return {0}

        monkeypatch.setattr(cli.os, "sched_getaffinity", one_cpu)
        code, out, _ = run(capsys, "sweep", "--d-max", "8", "--mode", "verify")
        assert code == 0
        assert asked == [0]
        assert forked == []
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "aed7e7f0a7ad0b1b258a7ee0134c16e57bd72607eb0a25d34e174781c023e391"
        )

    @pytest.mark.parametrize("cpus", [os.cpu_count(), None])
    def test_no_affinity_call_counts_cpus_with_cpu_count(self, capsys, monkeypatch, forked, cpus):
        # Where os.sched_getaffinity is missing (macOS), the sweep forks one
        # worker per os.cpu_count() but one, or none if that is unknown
        # (None), and gives the same bytes as the pin.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "sweep", "--d-max", "8", "--mode", "verify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "aed7e7f0a7ad0b1b258a7ee0134c16e57bd72607eb0a25d34e174781c023e391"
        )
        assert_reaped(forked, cpus or 1)

    @staticmethod
    def read_one_line(*argv):
        """`secantlines argv... | head -1`: the first record, the exit code
        and stderr of a process whose reader leaves after one line."""
        proc = python_process(
            "-m", "secantlines", *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            first = json.loads(proc.stdout.readline())
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stderr.close()
        return first, code, err

    def test_closed_stdout_is_no_mismatch(self):
        # `sweep --mode verify | head -1`: the sweep stops its workers and
        # exits 141 with nothing on stderr, not 1, which would claim a
        # verified mismatch.
        first, code, err = self.read_one_line("sweep", "--d-max", "12", "--mode", "verify")
        assert first["lambda"] == [1, 1]
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""

    @pytest.mark.parametrize(
        "argv, header",
        [(("--d-max", "30"), 0), (("--d-max", "12", "--format", "csv"), 1)],
        ids=["json-d30", "csv-d12"],
    )
    def test_classify_sweep_writes_blocks_of_whole_records(self, monkeypatch, argv, header):
        # The first record goes out alone (with the CSV header), the rest in
        # blocks of whole records no longer than BLOCK_CHARS unless one record
        # is, each write followed by a flush.
        calls = []  # each write's text, and None for each flush

        class Recorded(io.StringIO):
            def write(self, text):
                calls.append(text)
                return super().write(text)

            def flush(self):
                calls.append(None)

        stream = Recorded()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["sweep", *argv]) == 0
        out = stream.getvalue()
        writes = calls[::2]
        assert calls[1::2] == [None] * len(writes)  # one flush after each write
        assert writes[0] == "".join(out.splitlines(keepends=True)[: header + 1])
        block = cli.BLOCK_CHARS
        for text in writes:
            assert text.endswith("\n")
            assert len(text) <= block or text.count("\n") == 1
        assert len(writes) <= -(-len(out) // block) + 2

    @pytest.mark.parametrize(
        "argv, header, blocks, writes",
        [
            (("--d-max", "30"), 0, True, 220),
            (("--d-max", "30", "--format", "csv"), 1, True, 72),
            (("--d-max", "8", "--mode", "verify"), 0, False, 59),
        ],
        ids=["json-d30", "csv-d30", "verify-d8"],
    )
    def test_write_and_flush_sequence_is_pinned(self, monkeypatch, argv, header, blocks, writes):
        # The launcher that measures a sweep's peak RSS grows with the shape
        # of the child's writes, so the block policy is pinned write by
        # write: the first record alone (with the CSV header), then each
        # block as many whole records as fit in BLOCK_CHARS, or each record
        # alone without blocks; one flush after every write.
        calls = []  # each write's text, and None for each flush

        class Recorded(io.StringIO):
            def write(self, text):
                calls.append(text)
                return super().write(text)

            def flush(self):
                calls.append(None)

        monkeypatch.setattr(sys, "stdout", Recorded())
        assert main(["sweep", *argv]) == 0
        lines = sys.stdout.getvalue().splitlines(keepends=True)
        expected = ["".join(lines[: header + 1])]
        for line in lines[header + 1 :]:
            if blocks and len(expected) > 1 and len(expected[-1]) + len(line) <= cli.BLOCK_CHARS:
                expected[-1] += line
            else:
                expected.append(line)
        assert calls == [call for text in expected for call in (text, None)]
        assert len(expected) == writes

    def test_classify_sweep_error_keeps_earlier_records(self, capsys, monkeypatch):
        # Records held for a block are still written when a later partition
        # fails: exit 2 with its message, and every record before it out.
        partitions = list(cli.enumerate_partitions(20))
        failing = partitions[1000]
        real_classify = cli.classify

        def doctored(partition):
            if partition == failing:
                raise ValueError(f"cannot classify {partition}")
            return real_classify(partition)

        monkeypatch.setattr(cli, "classify", doctored)
        code, out, err = run(capsys, "sweep", "--d-max", "20")
        assert code == 2
        assert err == f"error: cannot classify {failing}\n"
        assert [r["lambda"] for r in json_lines(out)] == [list(p.parts) for p in partitions[:1000]]

    def test_closed_stdout_ends_classify_sweep(self):
        # `sweep --d-max 30 | head -1`: the closed pipe surfaces in a block
        # write, and the sweep exits 141 with nothing on stderr.
        first, code, err = self.read_one_line("sweep", "--d-max", "30")
        assert first["lambda"] == [1, 1]
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_no_command_imports_multiprocessing(self):
        # A verify sweep forks its workers itself: no command loads
        # multiprocessing on its success path, however many partitions.
        script = (
            "import sys\n"
            "from secantlines.cli import main\n"
            "for argv in (['classify', '1,1'], ['verify', '2,1'], ['sweep', '--d-max', '6'],\n"
            "             ['sweep', '--d-max', '2', '--mode', 'verify'],\n"
            "             ['sweep', '--d-max', '8', '--mode', 'verify']):\n"
            "    print(main(argv), 'multiprocessing' in sys.modules, file=sys.stderr)\n"
        )
        proc = python_process("-c", script, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err.decode().splitlines() == ["0 False"] * 5

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
            # --r sets both bounds, so it takes neither bound besides.
            ("sweep", "--d-max", "5", "--r", "2", "--r-min", "4"),
            ("sweep", "--d-max", "5", "--r", "2", "--r-max", "4"),
            ("sweep", "--d-max", "5", "--r", "3", "--r-min", "3", "--r-max", "3"),
        ],
    )
    def test_invalid_ranges(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: invalid enumeration range" in err

    def test_negative_d_max_is_one_error_in_both_modes(self, capsys):
        # The range is checked before a verify sweep checks its prime at
        # d_max, so no message about the degree reaches the user.
        results = [run(capsys, "sweep", "--d-max", "-5", "--mode", mode) for mode in ("classify", "verify")]
        want = "error: invalid enumeration range: d_max=-5, r_min=2, r_max=-5\n"
        assert results == [(2, "", want)] * 2


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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ((), "81b1fd69ee103b649247ea204763c7ff38d074dde63693c237e698efe1525c1a"),
            (("--format", "json"), "817893a4f1176e88f16dfb48f3c4c4508a1963a490a0a506e7de476468ee591f"),
        ],
        ids=["csv", "json"],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        # 1,365 rows: every tail (d2, ..., d5) with parts up to 12.
        code, out, _ = run(capsys, "figure-data", "--r", "5", "--max-part", "12", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_classify_per_row(self, monkeypatch):
        calls = []
        real_classify = cli.classify

        def counted(partition):
            calls.append(partition)
            return real_classify(partition)

        monkeypatch.setattr(cli, "classify", counted)
        rows = cli.figure_records(4, 5)
        assert calls == [Partition([sum(tail), *tail]) for tail in cli._tails(3, 5)]
        assert len(rows) == len(calls)

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
        # verify calls: lemma46 measures two partitions per row.
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
        code = main(["table", "lemma46", "--check", "--trials", "1", "--format", fmt])
        assert code == 0
        assert seen == [0, 0] + [row + header for row in range(1, 7) for _ in range(2)]

    def test_checked_rows_count_mismatches(self, capsys, monkeypatch):
        report = SimpleNamespace(measured={"dim_IZ": 1})
        monkeypatch.setattr(cli, "verify", lambda partition, **kwargs: report)
        code, out, _ = run(capsys, "table", "lemma46", "--check", "--format", "json")
        assert code == 1
        records = json_lines(out)
        assert [r["match"] for r in records] == [r["exp_dim_IZ"] == 1 == r["dim_IZ_reduced"] for r in records]
        assert not all(r["match"] for r in records)

    def test_unknown_table(self, capsys):
        code, _, _ = run(capsys, "table", "lemma99")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("lemma45",), "c147b774946ae1e534f918a5838bfea70d236dc7b473dd0ee0c761c8b5dd8078"),
            (("lemma45", "--format", "json"), "afa19564bcaee85cb835a96178a3be457a0c235a3b3db2cda91babd488abbc9a"),
            (("lemma46",), "845ce95426f6cf1d1becf7cb07404eb6fe82f373a47bfd9521ba390b13a0683d"),
            (("lemma46", "--format", "json"), "a66867c17405aa39f1f46b261c814cc665f43d290bace43613f8b1d144e0bdae"),
            (("lemma47",), "7acb9de783fb65a7a12c83e3947bb7c80e83e58e2de222423458476549395924"),
            (("lemma47", "--format", "json"), "b71f3f353b1b2c8fcb5c0a586676e906afa94c4891dac296f1a252263eaffa2d"),
            (
                ("lemma46", "--check", "--trials", "1", "--format", "json"),
                "de1bd588189db3ab27e984ee951bc8a7e7378241aa1bbea35b29d603d349bd24",
            ),
            (("lemma45", "--check"), "551054dcc6cade99a5ad4ee578bbff5941f4360847e9f9654ab0abcdd39dee88"),
            (("lemma47", "--check"), "79263e861820b7463a15eb718eb5be81d1e5c3894fc49b5fe5a91f70ebf8b9cd"),
        ],
        ids=[
            "lemma45-csv", "lemma45-json", "lemma46-csv", "lemma46-json", "lemma47-csv", "lemma47-json",
            "lemma46-check", "lemma45-check", "lemma47-check",
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        # The fixture tables, byte for byte: closed-form rows, and
        # oracle-checked tables.
        code, out, _ = run(capsys, "table", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rows_helper_rejects_unknown(self):
        with pytest.raises(ValueError):
            table_rows("nope")


class TestConfigPrecedence:
    def test_verify_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "verify", "2,2,1")
        _, out2, _ = run(capsys, "verify", "2,2,1")
        assert out1 == out2


class TestProcessEntryPoint:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify", "9,7,2"], 0),
            (["sweep", "--d-max", "6", "--mode", "verify", "--prime", "7"], 1),
            (["classify", "2,0"], 2),
        ],
    )
    def test_process_matches_in_process_main(self, capsys, argv, code):
        # `run()` freezes the heap between `main` and the exit; the process
        # still writes the same bytes and exits with the same code.
        proc = python_process(
            "-m", "secantlines", *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        out, err = proc.communicate(timeout=60)
        expected_code, expected_out, expected_err = run(capsys, *argv)
        assert proc.returncode == expected_code == code
        assert out == expected_out.encode()
        assert err.decode() == expected_err

    def test_main_does_not_freeze(self):
        # Only the process entry point freezes; in-process callers keep
        # their collector.
        before = gc.get_freeze_count()
        main(["verify", "2,1"])
        assert gc.get_freeze_count() == before

    def test_module_run_freezes_before_atexit(self):
        # `python -m secantlines` goes through `run()`: the heap is frozen by
        # the time the atexit handlers run, and they still run.
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "sys.argv = ['secantlines', 'classify', '1,1']\n"
            "runpy.run_module('secantlines', run_name='__main__')\n"
        )
        proc = python_process("-c", script, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert json.loads(out)["lambda"] == [1, 1]
        assert err.decode().split() == ["True"]

    def test_failed_derivation_check_exits_four(self, capsys, monkeypatch):
        # A closed form whose two derivations disagree is an internal fault,
        # not a verified mismatch (1): in-process `main` and the process
        # both exit 4, with the traceback on stderr and nothing on stdout.
        script = (
            "import runpy, sys\n"
            "import secantlines.formulas as formulas\n"
            "real = formulas._dim_IZ\n"
            "formulas._dim_IZ = lambda *args: real(*args) + 1\n"
            "sys.argv = ['secantlines', 'classify', '9,7,2']\n"
            "runpy.run_module('secantlines', run_name='__main__')\n"
        )
        proc = python_process("-c", script, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        real = formulas._dim_IZ
        monkeypatch.setattr(formulas, "_dim_IZ", lambda *args: real(*args) + 1)
        code, expected_out, expected_err = run(capsys, "classify", "9,7,2")
        assert proc.returncode == code == cli.EXIT_INTERNAL == 4
        assert out == b"" and expected_out == ""
        for text in (err.decode(), expected_err):
            assert text.startswith("Traceback (most recent call last):\n")
            assert text.endswith(
                "DerivationMismatchError: dim_sigma2[9,7,2]: the two derivations give 188 and 187\n"
            )

    def test_console_script_is_run(self):
        # Plain text, since tomllib is not in Python 3.10.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.split("\n") == ['secantlines = "secantlines.cli:run"', ""]


PACKAGE_EXPORTS = {
    "ClassificationReport",
    "DerivationMismatchError",
    "EmptyPartitionError",
    "NegativeDegreeError",
    "NonPositivePartError",
    "OracleReport",
    "Partition",
    "PartitionError",
    "SemicontinuityError",
    "TooFewPartsError",
    "classify",
    "verify",
}
ORACLE_EXPORTS = {"OracleReport", "SemicontinuityError", "verify"}


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


def test_public_names_have_a_caller_in_src():
    # Every top-level function and class of the closed forms, the oracle,
    # the forms and the partitions, private ones included (dunders aside),
    # is exported in __all__ or referenced in src/ outside its own
    # definition, and so is every public method and property of those
    # classes, so no API and no helper exists for the tests alone.
    src = Path(cli.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    exported = set(ast.literal_eval(next(
        node.value
        for node in trees["__init__"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )))

    def definitions(body, private=False):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")) and (private or not name.startswith("_")):
                yield node, name
                if isinstance(node, ast.ClassDef):
                    for method, method_name in definitions(node.body):
                        yield method, f"{name}.{method_name}"

    uncalled = []
    for module in ("formulas", "oracle", "gfpoly", "partitions"):
        for definition, qualified in definitions(trees[module].body, private=True):
            name = definition.name
            inside = {id(node) for node in ast.walk(definition)}
            referenced = any(
                id(node) not in inside
                and name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
                for tree in trees.values()
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            )
            if not (referenced or qualified in exported):
                uncalled.append(f"{module}.{qualified}")
    assert uncalled == []
