"""Command-line driver: classify partitions, verify them against the rank
oracle, sweep ranges, and emit figure grids and fixture tables.

Every setting is a flag. Records are written one at a time as they are
computed. Only the commands that run the rank oracle (`verify`, verify sweeps
and `table --check`) load numpy. Exit codes: 0 success or MATCH, 1 verified
mismatch, 2 usage or validation error, 3 a verify sweep's pool worker exited
without finishing its partitions (killed, for example), 141 stdout closed
before the output was complete (as when piped into `head`).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import closing
from functools import partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .field import DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, PrimeField
from .formulas import (
    classify,
    classify_case,
    dim_IZ_theory,
    expected_dim_IZ,
    is_defective,
)
from .partitions import Partition, PartitionError, derived, enumerate_partitions

if TYPE_CHECKING:
    from .oracle import OracleReport


# The oracle loads numpy, so it is imported on the first oracle call, through
# the two functions below. The commands look them up in this module at call
# time, so a replacement made here reaches them, and a sweep's pool workers.


def verify(partition: Partition, **options) -> OracleReport:
    """`oracle.verify`."""
    from .oracle import verify

    return verify(partition, **options)


def oracle_dim_IZ(partition: Partition, **options) -> int:
    """`oracle.oracle_dim_IZ`."""
    from .oracle import oracle_dim_IZ

    return oracle_dim_IZ(partition, **options)


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


def _emit(records: Iterable[dict], output_format: str, stream) -> None:
    """Write records one at a time, flushing after each, as JSON Lines or as CSV
    with LF endings and a header row taken from the first record."""
    writer = None
    for record in records:
        if output_format == "json":
            stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        else:
            row = _flatten(record)
            if writer is None:
                writer = csv.DictWriter(stream, fieldnames=list(row), lineterminator="\n")
                writer.writeheader()
            writer.writerow(row)
        stream.flush()


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
    _emit([classify(partition).to_dict()], args.format, sys.stdout)
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
    """The verify records of one pool task, computed in a pool worker.

    `verify` is looked up in this module at call time, so a replacement made
    before the pool forks reaches the workers too. An exception ends the task
    and is returned, not raised, after the records before it, so that those
    still arrive; the sweep raises it in its turn. As with the pool's own
    errors, the worker's traceback comes along as its cause.
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


# Partitions per pool task. Larger tasks cost fewer round trips but balance
# the last, largest partitions of a sweep worse. With 2 CPUs, 4 and 8 tied
# for fastest of 1, 2, 4, 8 and 16 on `sweep --d-max 10` and `--d-max 18`.
SWEEP_CHUNK = 4
# Seconds a verify sweep waits for its next pool task before it checks that
# no worker has died. A dead worker's task never completes.
WORKER_CHECK_S = 1.0


class WorkerLostError(RuntimeError):
    """A verify sweep's pool worker exited without finishing its partitions."""


def _chunks(items: Iterator[Partition], size: int) -> Iterator[list[Partition]]:
    while chunk := list(islice(items, size)):
        yield chunk


def _verify_results(partitions: Iterator[Partition], **options) -> Iterator[dict | Exception]:
    """Verify records in sweep order, or the exception that stopped one.

    The first partition is verified in this process, so its record goes out
    before any worker starts. The rest run on a pool of one worker per CPU
    this process may run on, in tasks of SWEEP_CHUNK partitions, and each
    result is yielded once it and every earlier one are done. The workers are
    forked: they start without importing numpy again, and this process runs
    no threads yet when it forks them. A worker that exits while the sweep
    runs raises WorkerLostError. Closing the generator stops the workers.
    """
    first = next(partitions, None)
    if first is None:
        return
    yield verify(first, **options).to_dict()
    rest = next(partitions, None)
    if rest is None:
        return
    import multiprocessing  # only verify sweeps pay for the import

    workers = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        started = {child.pid for child in multiprocessing.active_children()}
        job = partial(_verify_chunk, **options)
        tasks = pool.imap(job, _chunks(chain([rest], partitions), SWEEP_CHUNK))
        while True:
            try:
                records = tasks.next(timeout=WORKER_CHECK_S)
            except StopIteration:
                return
            except multiprocessing.TimeoutError:
                alive = {child.pid for child in multiprocessing.active_children()}
                if not started <= alive:
                    raise WorkerLostError(
                        "a pool worker exited without finishing its partitions"
                    ) from None
                continue
            yield from records


def cmd_sweep(args: argparse.Namespace) -> int:
    r_min, r_max = (args.r, args.r) if args.r is not None else (args.r_min, args.r_max)
    partitions = enumerate_partitions(args.d_max, r_min, r_max)
    if args.mode == "classify":
        _emit((classify(p).to_dict() for p in partitions), args.format, sys.stdout)
        return 0

    from .oracle import VERDICT_MATCH

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
        representative = Partition([sum(tail), *tail])
        q = derived(representative)
        record: dict = {f"d{i + 2}": v for i, v in enumerate(tail)}
        record["two_p_minus_three_s"] = q.two_p_minus_three_s
        record["defective_unbalanced"] = is_defective(representative)
        record["case_label"] = classify_case(representative).value
        records.append(record)
    return records


def cmd_figure_data(args: argparse.Namespace) -> int:
    _emit(figure_records(args.r, args.max_part), args.format, sys.stdout)
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
                        "dim_IZ": dim_IZ_theory(partition),
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
                    "exp_dim_IZ": expected_dim_IZ(partition),
                    "lambda_reduced": list(reduced.parts),
                    "dim_IZ_reduced": dim_IZ_theory(reduced),
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
                        "dim_IZ": dim_IZ_theory(Partition((d1, d2))),
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
                measured = oracle_dim_IZ(
                    Partition(row[key]),
                    trials=args.trials,
                    base_seed=args.seed,
                    prime=args.prime,
                )
                row[f"oracle_{column}"] = measured
                checks.append(measured == row[column])
            row["match"] = all(checks)
            mismatches += not row["match"]
            yield row

    rows = table_rows(args.name)
    _emit(checked(rows) if args.check else rows, args.format, sys.stdout)
    return 1 if mismatches else 0


def prime_modulus(text: str) -> int:
    """argparse type for --prime: an integer that PrimeField accepts."""
    value = int(text)
    try:
        PrimeField(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def positive_int(text: str) -> int:
    """argparse type for --trials and --max-part: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_oracle_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prime", type=prime_modulus, default=DEFAULT_PRIME, help=f"prime field modulus (default {DEFAULT_PRIME})")
    sub.add_argument("--trials", type=positive_int, default=DEFAULT_TRIALS, help=f"independent random trials (default {DEFAULT_TRIALS})")
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
            "141 stdout closed."
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
    sp.add_argument("--r-min", dest="r_min", type=int, default=2, help="minimum part count (default 2)")
    sp.add_argument("--r-max", dest="r_max", type=int, default=None, help="maximum part count (default: no limit)")
    sp.add_argument("--r", type=int, default=None, help="fix the part count (sets both --r-min and --r-max)")
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


if __name__ == "__main__":
    sys.exit(main())
