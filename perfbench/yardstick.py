"""A fixed load that run.py launches between the workload's launches to follow
the machine's speed: python3 perfbench/yardstick.py

It imports nothing from secantlines, so no change to the program moves it,
and it must not change once a baseline rests on it. Its work is a mix like the
CLI's: interpreter start and the numpy import, a pure-Python loop over small
dicts and JSON like a classify sweep, and exact elimination of small matrices
mod a prime like a verify sweep. It prints a checksum, which run.py checks.
"""

import json

import numpy as np

PRIME = 1_000_003


def python_part(n: int = 16_000) -> int:
    total = 0
    for i in range(n):
        parts = (i % 7 + 3, i % 5 + 2, i % 3 + 1)
        record = {"lambda": list(parts), "d": sum(parts), "D": parts[0] * parts[1] + parts[1] * parts[2]}
        total += len(json.dumps(record)) + record["D"] % 11
    return total


def numpy_part(count: int = 24, shape: tuple[int, int] = (48, 36)) -> int:
    total = 0
    state = 12345
    for _ in range(count):
        state = (state * 48271) % 2147483647
        a = np.random.default_rng(state).integers(0, PRIME, size=shape, dtype=np.int64)
        row = 0
        for col in range(shape[1]):
            hits = np.nonzero(a[row:, col])[0]
            if hits.size == 0:
                continue
            top = row + int(hits[0])
            a[[row, top]] = a[[top, row]]
            a[row, col:] = a[row, col:] * pow(int(a[row, col]), PRIME - 2, PRIME) % PRIME
            rows = row + 1 + np.nonzero(a[row + 1 :, col])[0]
            a[rows, col:] = (a[rows, col:] - np.outer(a[rows, col], a[row, col:])) % PRIME
            row += 1
        total += row
    return total


if __name__ == "__main__":
    print(python_part() + numpy_part())
