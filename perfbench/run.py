"""Outside-in benchmark of the secantlines command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the CLI from ``src/`` as a
subprocess, the way users run it. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run (see README.md beside this
file). Every record the CLI emits passes through the correctness gate. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
YARDSTICK = HERE / "yardstick.py"
YARDSTICK_CHECKSUM = b"703018\n"
# Close to the yardstick's median wall time on the machine of baseline.json.
# Time metrics are scaled by YARDSTICK_S over the yardstick's time next to each
# launch, so they read in seconds of a machine running at that speed (see
# README.md, *Noise and bounds*). Changing it rescales every time metric.
YARDSTICK_S = 0.38

# Every run must end within 180 s; past this, children are killed and no new
# launch starts, so a hung program shows up as failed records, not a hung run.
DEADLINE_S = 160
MATH_KEYS = ("dim_IF_d", "hilbert", "dim_sigma2", "dim_IZ")

VERIFY_LARGE = ("25,15", "20,14,6", "8,8,8,8,8")
SWEEP_VERIFY_D_MAX = 10
CLASSIFY_SWEEP_D_MAX = 30
WORKLOADS = ("verify-large", "sweep-verify", "classify-sweep")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("first_record_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYERS = (
    "cli",
    "partitions.enumerate",
    "formulas.classify",
    "formulas.predict",
    "oracle.verify",
    "oracle.secant_trials",
    "oracle.oracle_dim_IF",
    "oracle.tangent_slice",
    "oracle.rank",
    "gfpoly.random_form",
    "gfpoly.cofactor_products",
    "gfpoly.multiply",
    "gfpoly.monomial_multiples",
)
PER_LAYER = tuple(
    (f"{layer}.{stat}", unit)
    for layer in LAYERS
    for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
) + (
    ("gfpoly.monomial_multiples.rows", "count"),
    ("oracle.rank.cells", "count"),
    ("oracle.rank.max_cells", "count"),
    ("oracle.rank.useful_row_ratio", "ratio"),
    ("oracle.draws_per_partition", "forms/partition"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.absent_layers", "count"),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the partitions its records must carry."""

    args: tuple[str, ...]
    kind: str  # "verify" or "classify": which record check applies
    partition: tuple[int, ...] = ()  # the one partition of a single-partition command
    d_max: int = 0  # a sweep: every partition up to d_max, in sweep order

    def expected(self) -> list[tuple[int, ...]]:
        # Expanded only when checking, to keep this process small (see Runner).
        return list(partitions_upto(self.d_max)) if self.d_max else [self.partition]


@dataclass(frozen=True)
class Launch:
    """One finished CLI process; its stdout stays on disk (see Runner)."""

    wall_s: float
    first_record_s: float
    peak_rss_mb: float
    returncode: int
    bytes_out: int
    trace_path: Path | None = None


def partitions_upto(d_max: int):
    """Partitions with 2 <= r <= d <= d_max in the CLI's documented sweep order:
    ascending d, then r, then ascending on the descending parts tuple."""

    def descending(n: int, k: int, cap: int):
        if k == 1:
            if n <= cap:
                yield (n,)
            return
        for first in range(-(-n // k), min(cap, n - k + 1) + 1):
            for rest in descending(n - first, k - 1, first):
                yield (first, *rest)

    for d in range(2, d_max + 1):
        for r in range(2, d + 1):
            yield from descending(d, r, d)


def workload_commands(name: str, seed: int) -> list[Command]:
    seed_arg = f"--seed={seed}"
    if name == "verify-large":
        return [
            Command(("verify", text, seed_arg), "verify", partition=tuple(map(int, text.split(","))))
            for text in VERIFY_LARGE
        ]
    mode, d_max = {
        "sweep-verify": ("verify", SWEEP_VERIFY_D_MAX),
        "classify-sweep": ("classify", CLASSIFY_SWEEP_D_MAX),
    }[name]
    args = ("sweep", f"--d-max={d_max}", f"--mode={mode}", seed_arg)
    return [Command(args, mode, d_max=d_max)]


SETUP_COMMAND = Command(("classify", "1,1"), "classify", partition=(1, 1))


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("SECANT_PRIME", "SECANT_SEED", "SECANT_TRIALS"):
        env.pop(name, None)  # the workloads run with the CLI's defaults
    return env


class Runner:
    """Launches CLI processes and keeps each distinct stdout in `workdir`.

    Nothing is parsed until every launch is done: the peak RSS that wait4
    reports for a child also counts the memory of the process that launched
    it, so this process has to stay smaller than any CLI run while launching.
    """

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.launches = 0
        self.outputs: dict = {}  # (command, returncode, sha256) -> stdout file
        self.repeats: Counter = Counter()

    def launch(self, command: Command, traced: bool = False) -> Launch:
        """Run one CLI process to exit; time it to its first record and to exit."""
        self.launches += 1
        out_path = self.workdir / f"out-{self.launches}"
        trace_path = self.workdir / f"trace-{self.launches}.json" if traced else None
        if trace_path is None:
            argv = [sys.executable, "-m", "secantlines", *command.args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *command.args]
        digest, size = hashlib.sha256(), 0
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env())
            timer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            timer.start()
            try:
                chunk = proc.stdout.readline()
                first_at = time.perf_counter()
                first_record = bool(chunk)
                while chunk:
                    out.write(chunk)
                    digest.update(chunk)
                    size += len(chunk)
                    chunk = proc.stdout.read1(1 << 16)
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        # Identical bytes get an identical verdict: keep one copy of each.
        key = (command, proc.returncode, digest.hexdigest())
        self.repeats[key] += 1
        if key in self.outputs:
            out_path.unlink()
        else:
            self.outputs[key] = out_path
        return Launch(
            wall_s=end - start,
            first_record_s=(first_at if first_record else end) - start,
            peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
            returncode=proc.returncode,
            bytes_out=size,
            trace_path=trace_path,
        )

    def yardstick(self) -> float:
        """Wall time of one launch of the fixed load in yardstick.py."""
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(YARDSTICK)], stdout=subprocess.PIPE, cwd=ROOT,
            timeout=max(self.deadline - start, 1.0), check=True,
        ).stdout
        took = time.perf_counter() - start
        if out != YARDSTICK_CHECKSUM:
            raise RuntimeError(f"yardstick.py printed {out!r}, not {YARDSTICK_CHECKSUM!r}")
        return took

    def tally(self, reference: dict) -> tuple[int, int]:
        """Records attempted and failed over every launch so far."""
        attempted = failed = 0
        for key, path in self.outputs.items():
            command, returncode, _ = key
            a, f = count_failures(command, returncode, path.read_bytes(), reference)
            attempted += a * self.repeats[key]
            failed += f * self.repeats[key]
        return attempted, failed


def closed_forms(parts: tuple[int, ...]) -> dict:
    """The mathematical fields of a classify record, re-derived from the closed
    forms stated in the README, without using the package's code."""
    d, r, d1 = sum(parts), len(parts), parts[0]
    D = sum(a * b for i, a in enumerate(parts) for b in parts[i + 1 :])
    N = comb(d + 2, 2) - 1
    s = d - d1
    p = D - d1 * s
    dim_X = sum(comb(di + 2, 2) for di in parts) - r
    exp_sigma2 = min(N, 2 * dim_X + 1)
    exp_IZ = max(comb(d + 2, 2) - 2 * D, 0)
    defective = d1 >= s and 2 * p - 3 * s > 0
    delta2 = min(comb(d1 - s + 2, 2), 2 * p - 3 * s) if defective else 0
    return {
        "lambda": list(parts),
        "r": r,
        "d": d,
        "D": D,
        "N": N,
        "s": s,
        "p": p,
        "two_p_minus_three_s": 2 * p - 3 * s,
        "dim_X": dim_X,
        "exp_dim_sigma2": exp_sigma2,
        "exp_dim_IZ": exp_IZ,
        "defective": defective,
        "delta2": delta2,
        "dim_sigma2": exp_sigma2 - delta2,
        "dim_IZ": exp_IZ + delta2,
        "fills_ambient": exp_sigma2 - delta2 == N,
    }


def partition_key(parts) -> str:
    return ",".join(map(str, parts))


def count_failures(command: Command, returncode: int, stdout: bytes, reference: dict) -> tuple[int, int]:
    """Records attempted and failed in one command's output.

    A record passes only if the command exited 0 and the record is the expected
    partition at its position; a verify record must also be MATCH, with
    measured == predicted == the committed reference. Missing, unparsable and
    extra records fail. Only mathematical fields are compared, so new report
    fields do not trip the gate.
    """
    records = []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not (isinstance(record, dict) and "summary" in record):
            records.append(record)
    expected = command.expected()
    attempted = max(len(expected), len(records))
    if returncode != 0:
        return attempted, attempted
    passed = sum(
        1
        for parts, record in zip(expected, records)
        if isinstance(record, dict)
        and (
            _verify_ok(record, parts, reference)
            if command.kind == "verify"
            else _classify_ok(record, parts)
        )
    )
    return attempted, attempted - passed


def _verify_ok(record: dict, parts: tuple[int, ...], reference: dict) -> bool:
    try:
        measured = {k: record["measured"][k] for k in MATH_KEYS}
        predicted = {k: record["predicted"][k] for k in MATH_KEYS}
    except (KeyError, TypeError):
        return False
    return (
        record.get("lambda") == list(parts)
        and record.get("verdict") == "MATCH"
        and measured == predicted
        and measured == reference.get(partition_key(parts))
    )


def _classify_ok(record: dict, parts: tuple[int, ...]) -> bool:
    return all(
        type(record.get(k)) is type(v) and record.get(k) == v
        for k, v in closed_forms(parts).items()
    )


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["dims"]


def repeat(step, seconds: float, deadline: float, at_least: int = 1) -> list:
    """Call step() `at_least` times, and again while the next call is expected
    to finish within `seconds` of the first (and before the deadline)."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        took = now - began
        if len(results) >= at_least and (now - start + took > seconds or now + took > deadline):
            return results


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(runner: Runner, commands: list[Command], seconds: float) -> dict:
    """The workload's commands launched in turn for `seconds`, each launch one
    sample, with a set-up launch before each. A yardstick launch starts the
    run and follows every workload launch. Each set-up and workload time is
    scaled by YARDSTICK_S over the mean of the two yardstick times around it.
    A command's wall and first-record times are the medians of its scaled
    launches; the workload's are their sums over its commands, and its peak
    RSS is the largest median peak of a command."""
    turn = itertools.cycle(commands)

    def step():
        setup, command = runner.launch(SETUP_COMMAND), next(turn)
        return setup, command, runner.launch(command), runner.yardstick()

    runner.launch(SETUP_COMMAND)  # untimed: fills the bytecode and page caches
    runner.yardstick()  # untimed, likewise
    first = runner.yardstick()
    steps = repeat(step, seconds, runner.deadline, at_least=len(commands))
    yardsticks = [first] + [y for _, _, _, y in steps]
    scales = [2 * YARDSTICK_S / (a + b) for a, b in zip(yardsticks, yardsticks[1:])]
    per_command = {c: [] for c in commands}
    for (_, command, launch, _), scale in zip(steps, scales):
        per_command[command].append((launch, scale))

    def total(field: str) -> float:
        return sum(
            statistics.median(getattr(launch, field) * scale for launch, scale in launches)
            for launches in per_command.values()
        )

    values = {
        "setup_s": statistics.median(s.wall_s * scale for (s, _, _, _), scale in zip(steps, scales)),
        "wall_s": total("wall_s"),
        "first_record_s": total("first_record_s"),
        "peak_rss_mb": max(
            statistics.median(launch.peak_rss_mb for launch, _ in launches)
            for launches in per_command.values()
        ),
    }
    print(f"# set-up and workload launches: {len(steps)} each; yardstick launches: {len(yardsticks)}")
    print(f"#   yardstick_s: {' '.join(f'{y:.4f}' for y in yardsticks)}")
    print(f"#   setup_s, unscaled: {' '.join(f'{s.wall_s:.4f}' for s, _, _, _ in steps)}")
    for command, launches in per_command.items():
        print(f"# {' '.join(command.args)}, unscaled")
        print(f"#   wall_s: {' '.join(f'{r.wall_s:.4f}' for r, _ in launches)}")
        print(f"#   first_record_s: {' '.join(f'{r.first_record_s:.4f}' for r, _ in launches)}")
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def layer_values(launches: list[Launch]) -> tuple[dict, list[str]]:
    """Per-layer figures of one traced round, summed over its processes, and
    the layers whose functions were absent from every process.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one process add up to its `cli` span.
    Counts come from the calls' arguments and results only."""
    calls, incl, self_s = Counter(), Counter(), Counter()
    mm_rows = cells = max_cells = rank_rows = rank_sum = spans_total = 0
    absent = set(LAYERS)
    for launch in launches:
        trace = {"names": [], "spans": [], "absent": list(LAYERS)}  # crashed
        if launch.trace_path is not None and launch.trace_path.exists():
            trace = json.loads(launch.trace_path.read_text(encoding="utf-8"))
        absent &= set(trace["absent"])
        names, spans = trace["names"], trace["spans"]
        spans_total += len(spans)
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name_index, start, end, _, extra) in enumerate(spans):
            name = names[name_index]
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - children[i]
            if name == "oracle.rank":
                rows, cols, result = extra
                cells += rows * cols
                max_cells = max(max_cells, rows * cols)
                rank_rows += rows
                rank_sum += result
            elif name == "gfpoly.monomial_multiples":
                mm_rows += extra
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.s"] = incl[layer]
        values[f"{layer}.self_s"] = self_s[layer]
    verifies = calls["oracle.verify"]
    values.update(
        {
            "gfpoly.monomial_multiples.rows": mm_rows,
            "oracle.rank.cells": cells,
            "oracle.rank.max_cells": max_cells,
            "oracle.rank.useful_row_ratio": rank_sum / rank_rows if rank_rows else 0.0,
            "oracle.draws_per_partition": calls["gfpoly.random_form"] / verifies if verifies else 0.0,
            "cli.bytes_out": sum(launch.bytes_out for launch in launches),
            "trace.spans": spans_total,
            "trace.absent_layers": len(absent),
        }
    )
    return values, sorted(absent)


def per_layer_metrics(runner: Runner, commands: list[Command], seconds: float) -> dict:
    """Pairs of an untraced and a traced round, repeated for `seconds`. Layer
    figures are medians over the traced rounds; trace.overhead_s is the median
    traced round wall minus the median untraced one."""

    def step():
        untraced = [runner.launch(command) for command in commands]
        return untraced, [runner.launch(command, traced=True) for command in commands]

    runner.launch(SETUP_COMMAND)  # untimed: fills the bytecode and page caches
    pairs = repeat(step, seconds, runner.deadline)
    traced = [layer_values(t) for _, t in pairs]
    absent = traced[0][1]
    values = {name: statistics.median(v[name] for v, _ in traced) for name in traced[0][0]}
    values["trace.overhead_s"] = statistics.median(
        sum(r.wall_s for r in t) for _, t in pairs
    ) - statistics.median(sum(r.wall_s for r in u) for u, _ in pairs)
    print(f"# traced pairs: {len(pairs)}, absent layers: {', '.join(absent) or 'none'}")
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER}


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "secantlines" / "__main__.py").is_file() or not REFERENCE.is_file():
        print(f"error: {ROOT} is not a secantlines source checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    commands = workload_commands(args.workload, args.seed)
    measure = per_layer_metrics if args.trace else end_to_end_metrics
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        runner = Runner(Path(workdir), deadline)
        metrics = measure(runner, commands, args.seconds)
        attempted, failed = runner.tally(load_reference())
    print(f"# workload {args.workload}, seed {args.seed}, machine {json.dumps(machine_info())}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} records)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
