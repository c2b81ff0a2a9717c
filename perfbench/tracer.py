"""Run one chebgcn CLI command with the benchmark's wrappers installed.

    python3 perfbench/tracer.py {spans|memory} OUT.json OP_ID <chebgcn args...>

``spans`` wraps every function in TRACED and records one span per call:
name, start, end, parent span, operation id, and a count (see COUNTERS).
``memory`` wraps only the builders in MEMORY and records each one's peak
``tracemalloc`` allocation, so that its overhead stays out of the span
timings. Records are kept in memory and written to OUT.json at exit. The
exit code is the command's own.

The package imports its names with ``from .x import y``, so a function is
replaced in every ``chebgcn`` namespace that holds it. Methods are patched on
their class.
"""

import functools
import json
import os
import sys
import time
import tracemalloc

# (span name, module, attribute); "Class.method" patches a method.
TRACED = (
    ("cli.main", "cli", "main"),
    ("config.resolve_config", "config", "resolve_config"),
    ("simdata.generate", "simdata", "generate"),
    ("simdata.stratified_folds", "simdata", "stratified_folds"),
    ("graph.PopulationGraph", "graph", "PopulationGraph.__init__"),
    ("graph.build_laplacian", "graph", "build_laplacian"),
    ("graph.rescale_laplacian", "graph", "rescale_laplacian"),
    ("graph.chebyshev_apply", "graph", "chebyshev_apply"),
    ("affinity.binarize_edges", "affinity", "binarize_edges"),
    ("affinity.similarity_weights", "affinity", "similarity_weights"),
    ("affinity.build_affinity", "affinity", "build_affinity"),
    ("io.read_features_csv", "io", "read_features_csv"),
    ("io.read_meta_csv", "io", "read_meta_csv"),
    ("io.read_edge_list", "io", "read_edge_list"),
    ("io.write_edge_list", "io", "write_edge_list"),
    ("io.write_features_csv", "io", "write_features_csv"),
    ("nn.network_forward", "nn", "network_forward"),
    ("nn.network_backward", "nn", "network_backward"),
    ("nn.masked_cross_entropy", "nn", "masked_cross_entropy"),
    ("nn.optimizer.step", "nn", "GradientDescent.step"),
    ("nn.optimizer.step", "nn", "Adam.step"),
    ("experiments.run_cv", "experiments", "run_cv"),
    ("experiments.train_network", "experiments", "train_network"),
    ("experiments.evaluate_accuracy", "experiments", "evaluate_accuracy"),
    ("experiments.build_network", "experiments", "build_network"),
    ("experiments.write_results", "experiments", "write_cv_csv"),
    ("experiments.write_results", "experiments", "write_sweep_csv"),
    ("experiments.write_results", "experiments", "write_boxplot_csv"),
    ("experiments.write_results", "experiments", "write_compare_csv"),
    ("experiments.write_results", "experiments", "write_summary_json"),
)

MEMORY = ("affinity.build_affinity", "io.read_edge_list", "graph.build_laplacian", "simdata.generate")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Span name -> (args, kwargs) -> count recorded on the span: the Chebyshev
# terms computed, or the bytes of the file read or written.
COUNTERS = {
    "graph.chebyshev_apply": lambda args, kwargs: int(_arg(args, kwargs, 2, "order")),
    "io.read_features_csv": _file_size,
    "io.read_meta_csv": _file_size,
    "io.read_edge_list": _file_size,
    "io.write_edge_list": _file_size,
    "io.write_features_csv": _file_size,
}


class Recorder:
    """Spans of one process, as [name, start, end, parent, op, count] lists;
    parent is the index of the enclosing span, or -1."""

    def __init__(self, op: int):
        self.op = op
        self.spans = []
        self.stack = []
        self.peaks = {}

    def span(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, op, clock = self.spans, self.stack, self.op, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, op, 0]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(args, kwargs)
            return result

        return wrapper

    def memory(self, name, fn):
        peaks = self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return wrapper


def install(recorder: Recorder, mode: str) -> None:
    """Replace each traced function by its wrapper wherever chebgcn holds it."""
    import chebgcn.cli  # noqa: F401  (loads every chebgcn module)

    modules = [m for n, m in sys.modules.items() if n == "chebgcn" or n.startswith("chebgcn.")]
    for name, module, attr in TRACED:
        if mode == "memory" and name not in MEMORY:
            continue
        wrap = recorder.memory if mode == "memory" else recorder.span
        owner = sys.modules[f"chebgcn.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, wrap(name, cls.__dict__[method]))
            continue
        original = getattr(owner, attr)
        wrapper = wrap(name, original)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)


def main(argv) -> int:
    mode, out, op, cli_args = argv[0], argv[1], int(argv[2]), argv[3:]
    if mode not in ("spans", "memory"):
        raise SystemExit(f"unknown mode {mode!r}")
    recorder = Recorder(op)
    install(recorder, mode)
    try:
        return sys.modules["chebgcn.cli"].main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": recorder.spans, "peaks": recorder.peaks}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
