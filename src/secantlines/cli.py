"""Command-line driver: classify partitions, verify them against the rank
oracle, sweep ranges, and emit figure grids and fixture tables.

Every setting is a flag. Only the commands that run the rank oracle
(`verify`, verify sweeps and `table --check`) load numpy; they flush each
record once it is computed, while closed-form output goes out in blocks after
its first record. A verify sweep verifies a share of its partitions itself
and forks a worker for each other CPU it may run on. Classify records are
written as JSON from one fixed template (`ClassificationReport.json_line`),
every other record through the JSON encoder; both give compact `json.dumps`
bytes. Exit codes: 0 success or MATCH, 1 verified mismatch, 2 usage or
validation error, 3 a verify sweep's worker exited without finishing its
partitions (killed, for example), 4 an internal fault, such as a failed
derivation or semicontinuity check (with its traceback on stderr), 141 stdout
closed before the output was complete (as when piped into `head`).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from contextlib import closing
from itertools import chain, cycle, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .field import DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, is_prime
from .formulas import ClassificationReport, classify
from .partitions import Partition, PartitionError, enumerate_partitions

if TYPE_CHECKING:
    from .oracle import OracleReport


# The oracle loads numpy, so it is imported on the first oracle call, through
# the function below. The commands look it up in this module at call time, so
# a replacement made here reaches them, and a sweep's forked workers.


def verify(partition: Partition, **options) -> OracleReport:
    """`oracle.verify`."""
    from .oracle import verify

    return verify(partition, **options)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated degree list such as '9,7,2' (auto-sorted)."""
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        degrees = [int(tok) for tok in tokens if tok != ""]
    except ValueError:
        raise PartitionError(
            f"cannot parse {text!r}: expected comma-separated integers"
        ) from None
    return Partition(degrees)


def _flatten(record: dict, prefix: str = "") -> dict:
    """Flatten nested dicts (dotted keys) and lists (comma-joined) for CSV cells."""
    flat: dict = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=name + "."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            flat[name] = "true" if value else "false"
        else:
            flat[name] = value
    return flat


# `json.dumps` with these separators, without building an encoder per record.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


# Half the default 64 KiB Linux pipe buffer: with 64 KiB blocks a classify
# sweep lost one of four benchmark pairs (a 2.32 s run).
BLOCK_CHARS = 32 * 1024


class _Lines(list):
    """Strings written by a csv writer, one per row."""

    write = list.append


def _emit(records: Iterable[dict | ClassificationReport], output_format: str, stream, *, blocks: bool = False) -> None:
    """Write records as JSON Lines, or as CSV with LF endings and a header row
    from the first record. A ClassificationReport's JSON line comes from its
    own template (`json_line`), every other record's from the JSON encoder.
    Each record is written and flushed once it is ready; with `blocks` only
    the first is, and the rest go out in blocks of whole records of at most
    BLOCK_CHARS characters, also if `records` raises."""
    block: list[str] = []  # whole records not yet written
    size = 0
    writer = None

    def write_block() -> None:
        nonlocal size
        stream.write("".join(block))
        stream.flush()
        block.clear()
        size = 0

    try:
        for count, record in enumerate(records):
            report = isinstance(record, ClassificationReport)
            if output_format == "json":
                text = record.json_line() if report else _encode_json(record) + "\n"
            else:
                row = _flatten(record.to_dict() if report else record)
                if writer is None:
                    writer = csv.DictWriter(rows := _Lines(), fieldnames=list(row), lineterminator="\n")
                    writer.writeheader()
                writer.writerow(row)
                text = "".join(rows)
                rows.clear()
            # A record that would take the block past BLOCK_CHARS starts the next.
            if size and size + len(text) > BLOCK_CHARS:
                write_block()
            block.append(text)
            size += len(text)
            if size > BLOCK_CHARS or not (blocks and count):
                write_block()
    finally:
        if block:
            write_block()


def _diff(measured: dict, predicted: dict) -> dict:
    """Machine-readable measured-vs-predicted differences."""
    diff: dict = {}
    for key in ("dim_IF_d", "dim_sigma2", "dim_IZ"):
        if measured[key] != predicted[key]:
            diff[key] = {"measured": measured[key], "predicted": predicted[key]}
    hilbert = [
        {"j": j, "measured": m, "predicted": p}
        for j, (m, p) in enumerate(zip(measured["hilbert"], predicted["hilbert"]))
        if m != p
    ]
    if hilbert:
        diff["hilbert"] = hilbert
    return diff


def cmd_classify(args: argparse.Namespace) -> int:
    partition = parse_partition(args.partition)
    _emit([classify(partition)], args.format, sys.stdout)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import VERDICT_MATCH

    partition = parse_partition(args.partition)
    report = verify(partition, prime=args.prime, trials=args.trials, base_seed=args.seed)
    payload = report.to_dict()
    if report.verdict != VERDICT_MATCH:
        payload["diff"] = _diff(report.measured, report.predicted)
    _emit([payload], args.format, sys.stdout)
    return 0 if report.verdict == VERDICT_MATCH else 1


def _verify_chunk(partitions: list[Partition], **options) -> list[dict | Exception]:
    """The verify records of one chunk of a sweep.

    An exception ends the chunk, returned after the records before it so that
    those still arrive. It is wrapped to cross a worker's pipe: unpickled, it
    has the traceback where it was raised as its cause (multiprocessing is
    imported on this fault path only).
    """
    records: list[dict | Exception] = []
    for partition in partitions:
        try:
            records.append(verify(partition, **options).to_dict())
        except Exception as exc:
            from multiprocessing.pool import ExceptionWithTraceback

            records.append(ExceptionWithTraceback(exc, exc.__traceback__))
            break
    return records


# Partitions per chunk. Larger chunks cost fewer pipe writes but balance the
# last, largest partitions of a sweep worse. On 2 CPUs (median wall of 20
# verify sweeps to d = 10 / 8 to d = 18), 2 took 0.333 / 3.17 s, 4 took
# 0.315 / 3.11 s and 8 took 0.316 / 3.05 s: a tie within launch noise.
SWEEP_CHUNK = 4


class WorkerLostError(RuntimeError):
    """A verify sweep's worker exited without finishing its partitions."""


def _chunks(items: Iterator[Partition], size: int) -> Iterator[list[Partition]]:
    while chunk := list(islice(items, size)):
        yield chunk


def _verify_results(partitions: Iterator[Partition], **options) -> Iterator[dict | Exception]:
    """Verify records in sweep order, or the exception that stopped one.

    The first partition is verified in this process, before any fork. The
    rest go in chunks of SWEEP_CHUNK partitions to n shares, one per CPU this
    process may run on (every CPU, where that is unknown), share w taking
    chunks w, w + n, ... This process verifies share 0 and forks a worker for
    each other share, which pickles the records of its chunks to its own
    pipe, then None. It verifies a chunk of its own, then reads the next
    chunk of each worker in turn; on one CPU it forks nothing. A pipe that
    ends before its None raises WorkerLostError at once; closing the
    generator kills and reaps every worker.
    """
    first = next(partitions, None)
    if first is None:
        return
    yield verify(first, **options).to_dict()
    rest = next(partitions, None)
    if rest is None:
        return
    import pickle
    import signal

    chunks = _chunks(chain([rest], partitions), SWEEP_CHUNK)
    shares = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    pipes = {}  # worker pid -> read end of its pipe
    try:
        for share in range(1, shares):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(read)  # with no read end here, writes fail once the sweep is gone
                    for pipe in pipes.values():
                        pipe.close()
                    with open(write, "wb") as pipe:
                        for chunk in islice(chunks, share, None, shares):
                            pickle.dump(_verify_chunk(chunk, **options), pipe)
                            pipe.flush()
                        pickle.dump(None, pipe)
                finally:
                    os._exit(0)  # no atexit handler, no flush of inherited buffers
            os.close(write)
            pipes[pid] = open(read, "rb")
        own = (_verify_chunk(chunk, **options) for chunk in islice(chunks, 0, None, shares))
        for pipe in cycle([None, *pipes.values()]):  # None: this process's own share
            if pipe is None:
                records = next(own, None)
                if records and not isinstance(records[-1], dict):
                    records[-1] = pickle.loads(pickle.dumps(records[-1]))  # a fault, as a worker's arrives
            else:
                try:
                    records = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise WorkerLostError("a pool worker exited without finishing its partitions") from None
            if records is None:
                return
            yield from records
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_sweep(args: argparse.Namespace) -> int:
    r_min, r_max = args.r_min, args.r_max
    if args.r is not None:
        if (r_min, r_max) != (None, None):
            raise ValueError("invalid enumeration range: --r sets both --r-min and --r-max; give --r alone")
        r_min = r_max = args.r
    partitions = enumerate_partitions(args.d_max, 2 if r_min is None else r_min, r_max)
    if args.mode == "classify":
        _emit(map(classify, partitions), args.format, sys.stdout, blocks=True)
        return 0

    from .oracle import VERDICT_MATCH, check_prime

    check_prime(args.d_max, args.prime)
    mismatches = 0

    def records(reports: Iterator[dict | Exception]) -> Iterator[dict]:
        nonlocal mismatches
        count = 0
        for count, record in enumerate(reports, 1):
            if isinstance(record, Exception):
                raise record
            mismatches += record["verdict"] != VERDICT_MATCH
            yield record
        if args.format == "json":
            yield {
                "summary": {
                    "partitions": count,
                    "matches": count - mismatches,
                    "mismatches": mismatches,
                }
            }

    options = dict(prime=args.prime, trials=args.trials, base_seed=args.seed)
    with closing(_verify_results(partitions, **options)) as reports:
        _emit(records(reports), args.format, sys.stdout)
    if args.format == "csv":
        print(f"mismatches: {mismatches}", file=sys.stderr)
    return 1 if mismatches else 0


def _tails(length: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples with entries in 1..max_part, ascending lex order."""
    if length == 0:
        yield ()
        return
    for head in range(1, max_part + 1):
        for rest in _tails(length - 1, min(head, max_part)):
            yield (head, *rest)


def figure_records(r: int, max_part: int) -> list[dict]:
    """Grid rows underlying the defectivity region picture for r factors.

    The sign of 2p - 3s depends only on the tail (d2, ..., dr), so each row uses
    the representative partition [s, d2, ..., dr], which is unbalanced and
    canonical for every tail.
    """
    records = []
    for tail in _tails(r - 1, max_part):
        report = classify(Partition([sum(tail), *tail]))
        record: dict = {f"d{i + 2}": v for i, v in enumerate(tail)}
        record["two_p_minus_three_s"] = report.two_p_minus_three_s
        record["defective_unbalanced"] = report.defective
        record["case_label"] = report.case_label.value
        records.append(record)
    return records


def cmd_figure_data(args: argparse.Namespace) -> int:
    _emit(figure_records(args.r, args.max_part), args.format, sys.stdout, blocks=True)
    return 0


# Fixture-table identifiers are part of the CLI contract.
_DESCENT_CASES = (
    (3, 2, 2),
    (4, 3, 2),
    (5, 4, 2),
    (6, 5, 2),
    (2, 1, 1, 1),
    (3, 2, 1, 1),
    (4, 3, 1, 1),
)


def table_rows(name: str) -> list[dict]:
    """Regenerate a named fixture table from the closed forms (byte-stable)."""
    rows: list[dict] = []
    if name == "lemma45":
        # Near-balanced three-factor families [a,a,1] and [a+1,a,1].
        for a in range(1, 7):
            for parts in ((a, a, 1), (a + 1, a, 1)):
                partition = Partition(parts)
                rows.append(
                    {
                        "a": a,
                        "lambda": list(parts),
                        "dim_IZ": classify(partition).dim_IZ,
                    }
                )
    elif name == "lemma46":
        # Unbalanced-descent fixtures: each case against its e=1 reduction.
        for parts in _DESCENT_CASES:
            partition = Partition(parts)
            reduced = partition.decrement(1)
            rows.append(
                {
                    "case": list(parts),
                    "exp_dim_IZ": classify(partition).exp_dim_IZ,
                    "lambda_reduced": list(reduced.parts),
                    "dim_IZ_reduced": classify(reduced).dim_IZ,
                }
            )
    elif name == "lemma47":
        # Two-factor closed form ((d1-d2)^2 + 3(d1+d2) + 2)/2, always positive.
        for d in range(2, 11):
            for d1 in range((d + 1) // 2, d):
                d2 = d - d1
                closed = ((d1 - d2) ** 2 + 3 * (d1 + d2) + 2) // 2
                rows.append(
                    {
                        "lambda": [d1, d2],
                        "exp_dim_IZ": closed,
                        "dim_IZ": classify(Partition((d1, d2))).dim_IZ,
                    }
                )
    else:
        raise ValueError(f"unknown table {name!r}")
    return rows


def cmd_table(args: argparse.Namespace) -> int:
    mismatches = 0

    def checked(rows: list[dict]) -> Iterator[dict]:
        nonlocal mismatches
        for row in rows:
            checks = []
            for key, column in (("case", "exp_dim_IZ"), ("lambda", "dim_IZ"), ("lambda_reduced", "dim_IZ_reduced")):
                if key not in row:
                    continue
                measured = verify(
                    Partition(row[key]), prime=args.prime, trials=args.trials, base_seed=args.seed
                ).measured["dim_IZ"]
                row[f"oracle_{column}"] = measured
                checks.append(measured == row[column])
            row["match"] = all(checks)
            mismatches += not row["match"]
            yield row

    rows = table_rows(args.name)
    _emit(checked(rows) if args.check else rows, args.format, sys.stdout, blocks=not args.check)
    return 1 if mismatches else 0


def prime_modulus(text: str) -> int:
    """argparse type for --prime: a prime; `check_prime` bounds it by degree."""
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"modulus {value} is not prime")
    return value


def positive_int(text: str) -> int:
    """argparse type for --trials and --max-part: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_oracle_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prime", type=prime_modulus, default=DEFAULT_PRIME, help=f"prime field modulus, at most the largest prime the exact float64 kernel admits at the partition's degree (--d-max for a sweep), such as 7672711 at degree 16; a larger one is an error that names it (default {DEFAULT_PRIME}, admitted to degree 132)")
    sub.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS, help=f"cap on independent random trials, which stop at the first that reaches every a priori ceiling (default {DEFAULT_TRIALS})")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"base seed for all randomness (default {DEFAULT_SEED})")


def _add_format_option(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default=default, help=f"output format (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secantlines",
        description=(
            "Classify secant line varieties of reducible plane curves as defective "
            "or not, and verify every prediction with an exact finite-field rank oracle."
        ),
        epilog=(
            "Partitions are comma-separated positive degrees, auto-sorted (e.g. 9,7,2). "
            "Exit codes: 0 ok/MATCH, 1 mismatch, 2 usage, 3 verify-sweep worker lost, "
            "4 internal fault (traceback on stderr), 141 stdout closed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="closed-form classification of one partition")
    sp.add_argument("partition")
    _add_format_option(sp, "json")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify", help="measure one partition with the rank oracle and compare")
    sp.add_argument("partition")
    _add_oracle_options(sp)
    _add_format_option(sp, "json")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="classify or verify every partition in a range")
    sp.add_argument("--d-max", dest="d_max", type=int, default=10, help="maximum total degree (default 10)")
    sp.add_argument("--r-min", dest="r_min", type=int, default=None, help="minimum part count (default 2)")
    sp.add_argument("--r-max", dest="r_max", type=int, default=None, help="maximum part count (default: no limit)")
    sp.add_argument("--r", type=int, default=None, help="fix the part count (sets both --r-min and --r-max; not with either)")
    sp.add_argument("--mode", choices=("classify", "verify"), default="classify")
    _add_oracle_options(sp)
    _add_format_option(sp, "json")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("figure-data", help="grid of 2p-3s sign data underlying the region pictures")
    sp.add_argument("--r", type=int, choices=(3, 4, 5), required=True, help="number of factors")
    sp.add_argument("--max-part", dest="max_part", type=positive_int, default=12, help="largest tail degree (default 12)")
    _add_format_option(sp, "csv")
    sp.set_defaults(func=cmd_figure_data)

    sp = sub.add_parser("table", help="regenerate a named fixture table from the closed forms")
    sp.add_argument("name", choices=("lemma45", "lemma46", "lemma47"))
    sp.add_argument("--check", action="store_true", help="re-verify every row with the rank oracle")
    _add_oracle_options(sp)
    _add_format_option(sp, "csv")
    sp.set_defaults(func=cmd_table)

    return parser


# 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe.
EXIT_BROKEN_PIPE = 141
EXIT_WORKER_LOST = 3
EXIT_INTERNAL = 4


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles its own usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PartitionError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_LOST
    except BrokenPipeError:
        # The reader is gone (`... | head`), which is no mismatch. Point stdout
        # at /dev/null so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception:
        # A fault of the program, not of its input, such as a failed
        # derivation or semicontinuity check: not 1, which would claim a
        # verified mismatch.
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    """The process entry point (`python -m secantlines`, the `secantlines`
    script): `main()` on the command line, then exit with its code.

    Before it exits it freezes the heap. The interpreter's final collections
    skip frozen objects; otherwise they walk every tracked object, numpy's
    included, after the last record is out (about 15 ms after `classify 1,1`
    and 35 ms after `verify 25,15` on a 2-vCPU VM). The atexit handlers and
    the final flush of stdout and stderr still run, and objects outside
    reference cycles are still freed. Frozen objects in cycles are never
    collected, so their finalizers do not run at exit; no command holds a
    resource that needs one (a sweep's workers are reaped before `main`
    returns). `main` itself never freezes, so in-process callers keep their
    collector.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
