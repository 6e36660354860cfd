"""Regenerate reference.json: the measured dimensions of every partition the
verify workloads cover, from the CLI in this checkout at seed 0.

    python3 perfbench/make_reference.py

Generic ranks do not depend on the seed, so one reference serves every
workload seed. Run it only at a commit whose output is trusted; the gate
compares later commits against it.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import run


def main() -> None:
    dims = {}
    with tempfile.TemporaryDirectory() as workdir:
        runner = run.Runner(Path(workdir), time.perf_counter() + 600)
        for workload in ("verify-large", "sweep-verify"):
            for command in run.workload_commands(workload, seed=0):
                launch = runner.launch(command)
                if launch.returncode != 0:
                    raise SystemExit(f"{command.args} exited {launch.returncode}")
        stdouts = [path.read_bytes() for path in runner.outputs.values()]
    for stdout in stdouts:
        for line in stdout.splitlines():
            record = json.loads(line)
            if "summary" in record:
                continue
            measured = {k: record["measured"][k] for k in run.MATH_KEYS}
            if record["verdict"] != "MATCH" or measured != {
                k: record["predicted"][k] for k in run.MATH_KEYS
            }:
                raise SystemExit(f"{record['lambda']} does not match its prediction")
            dims[run.partition_key(record["lambda"])] = measured
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in dims.items())
    run.REFERENCE.write_text('{"seed": 0, "dims": {\n' + lines + "\n}}\n", encoding="utf-8")
    print(f"wrote {len(dims)} partitions to {run.REFERENCE}")


if __name__ == "__main__":
    main()
