"""Run the secantlines CLI with timed wrappers around the functions it calls.

Usage: python perfbench/tracer.py TRACE_JSON CLI_ARG...

Each target function is replaced, in the module namespace where it is looked
up at call time, by a wrapper that records one span per call: layer name,
start, end (``time.perf_counter``), the index of the enclosing span, and an
optional count taken from the call's arguments and result. The whole
``cli.main`` call is the root span ``cli``. Spans stay in memory and are
written to TRACE_JSON when the CLI returns. A target that no longer exists is
listed as absent instead of failing the run. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types


def _rank_shape(args, kwargs, result):
    """[rows, cols, rank] of one rank call, from its matrix argument and result."""
    import numpy as np

    matrix = args[0] if args else kwargs["rows"]
    shape = np.shape(matrix)
    return [int(shape[0]), int(shape[1]) if len(shape) > 1 else 0, int(result)]


def _row_count(args, kwargs, result):
    return len(result)


# (module the caller looks the name up in, attribute, layer name, count taker)
TARGETS = (
    ("secantlines.cli", "enumerate_partitions", "partitions.enumerate", None),
    ("secantlines.cli", "classify", "formulas.classify", None),
    ("secantlines.cli", "verify", "oracle.verify", None),
    ("secantlines.oracle", "hilbert_function_theory", "formulas.predict", None),
    ("secantlines.oracle", "dim_sigma2_theory", "formulas.predict", None),
    ("secantlines.oracle", "dim_IZ_theory", "formulas.predict", None),
    ("secantlines.oracle", "expected_dim_sigma2", "formulas.predict", None),
    ("secantlines.oracle", "secant_trials", "oracle.secant_trials", None),
    ("secantlines.oracle", "oracle_dim_IF", "oracle.oracle_dim_IF", None),
    ("secantlines.oracle", "tangent_slice", "oracle.tangent_slice", None),
    ("secantlines.oracle", "rank", "oracle.rank", _rank_shape),
    ("secantlines.oracle", "random_form", "gfpoly.random_form", None),
    ("secantlines.oracle", "cofactor_products", "gfpoly.cofactor_products", None),
    ("secantlines.oracle", "monomial_multiples", "gfpoly.monomial_multiples", _row_count),
    ("secantlines.gfpoly", "multiply", "gfpoly.multiply", None),
)


class Recorder:
    """In-memory span list plus the stack of open spans (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.absent: list[str] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, count=None):
        name_index = self._name_index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_index, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                # A lazy result would run its work outside the span.
                if isinstance(result, types.GeneratorType):
                    result = iter(list(result))
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; a layer none of whose targets exist
        is recorded as absent."""
        found = set()
        for module_name, attr, name, count in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(fn, name, count))
                found.add(name)
        for _, _, name, _ in targets:
            if name not in found and name not in self.absent:
                self.absent.append(name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": self.names, "spans": self.spans, "absent": self.absent}, out)


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from secantlines import cli

    code = recorder.wrap(cli.main, "cli")(cli_args)
    sys.stdout.flush()
    recorder.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
