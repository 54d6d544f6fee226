"""Span tracer around the public functions of undersolve's modules, and
the per-layer metrics derived from its spans.

The tracer wraps every public function defined in a layer module and
rebinds the wrapper wherever the package holds the original, so calls
through names another module imported (``iterate`` imports
``sign_matrix``, ``generate`` imports ``check_conditions``) are traced
too.  Spans stay in memory as flat int64 records
(name, start ns, end ns, parent span, op id) until the run writes them
out.  A span's self time is its duration minus its children's.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "undersolve"
LAYERS = ("cli", "formats", "generate", "rref", "convergence", "iterate", "partition", "linalg")
FIELDS = 5   # name id, start, end, parent index, op id

STEP_FUNCTIONS = {
    "baseline": "iterate.baseline_step",
    "gjacobi": "iterate.generalized_jacobi_step",
    "ggs": "iterate.generalized_gauss_seidel_step",
    "jacobi": "iterate.classical_jacobi_step",
    "gs": "iterate.classical_gauss_seidel_step",
}
CLI_SUBCOMMANDS = ("rref", "check", "gen")
WRITERS = ("formats.write_csv_matrix", "formats.write_csv_vector",
           "formats.write_matrix_market", "formats.write_report")


class Tracer:
    def __init__(self):
        self.names = []
        self.records = array("q")
        self.stack = []
        self.op = -1
        self._patches = []

    @property
    def span_count(self):
        return len(self.records) // FIELDS

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        records, stack, clock = self.records, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(records) // FIELDS
            records.extend((name_id, 0, 0, stack[-1] if stack else -1, self.op))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[index * FIELDS + 1] = start
                records[index * FIELDS + 2] = end
        return traced

    def table(self):
        return np.frombuffer(self.records, dtype=np.int64).reshape(-1, FIELDS)

    def save(self, path):
        np.savez_compressed(path, spans=self.table(), names=np.array(self.names),
                            fields=np.array(["name", "start_ns", "end_ns", "parent", "op"]))


class Summary:
    """Per-name call counts, total and self seconds of a tracer's spans."""

    def __init__(self, tracer):
        spans = tracer.table()
        self.names = tracer.names
        self.index = {name: i for i, name in enumerate(self.names)}
        self.name, self.parent = spans[:, 0], spans[:, 3]
        duration = (spans[:, 2] - spans[:, 1]) / 1e9
        nested = self.parent >= 0
        children = np.bincount(self.parent[nested], weights=duration[nested],
                               minlength=len(duration))
        self_time = duration - children
        size = len(self.names)
        self.calls_by = np.bincount(self.name, minlength=size)
        self.total_by = np.bincount(self.name, weights=duration, minlength=size)
        self.self_by = np.bincount(self.name, weights=self_time, minlength=size)
        self.top_level = float(duration[~nested].sum())

    def present(self, *names):
        return any(n in self.index for n in names)

    def _sum(self, column, names):
        return float(sum(column[self.index[n]] for n in names if n in self.index))

    def calls(self, *names):
        return self._sum(self.calls_by, names)

    def total(self, *names):
        return self._sum(self.total_by, names)

    def self_s(self, *names):
        return self._sum(self.self_by, names)

    def layer_self_s(self, layer):
        return self.self_s(*(n for n in self.names if n.startswith(layer + ".")))

    def calls_under(self, name, ancestor):
        """Spans of ``name`` with an ``ancestor`` span above them."""
        if name not in self.index or ancestor not in self.index:
            return 0
        target = self.index[ancestor]
        count = 0
        for i in np.flatnonzero(self.name == self.index[name]):
            p = self.parent[i]
            while p >= 0 and self.name[p] != target:
                p = self.parent[p]
            count += p >= 0
        return count


def layer_metrics(summary, ops, outcomes, op_wall_s, overhead):
    """Per-layer metrics of the traced ops, per op unless the unit says
    otherwise.  Returns ({name: (value, unit)}, [absent metric names]).
    A metric whose functions no longer exist reads 0 and is listed as
    absent; one whose functions exist but did not run reads 0."""
    s = summary
    metrics, absent = {}, []

    def put(name, unit, value, *functions):
        if functions and not s.present(*functions):
            absent.append(name)
            value = 0.0
        metrics[name] = (float(value), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = tuple(STEP_FUNCTIONS.values())
    step_bytes = sum(o.bytes_computed for o in outcomes)
    put("iterate.run.self_s", "s/op",
        s.self_s("iterate.run", "iterate.run_partitioned") / ops,
        "iterate.run", "iterate.run_partitioned")
    for method, fn in STEP_FUNCTIONS.items():
        put(f"iterate.step.{method}.us_per_call", "us",
            ratio(s.total(fn), s.calls(fn)) * 1e6, fn)
    put("iterate.step.calls", "count/op", s.calls(*steps) / ops, *steps)
    put("iterate.iterations", "count/op",
        sum(sum(o.iterations.values()) for o in outcomes) / ops)
    put("iterate.step.bytes_computed", "B/op", step_bytes / ops)
    put("iterate.step.flops_computed", "flop/op", sum(o.flops_computed for o in outcomes) / ops)
    put("iterate.step.gbps_computed", "GB/s", ratio(step_bytes, s.total(*steps)) / 1e9, *steps)
    put("linalg.sign_matrix.calls", "count/op", s.calls("linalg.sign_matrix") / ops,
        "linalg.sign_matrix")
    for fn in ("forward_substitution", "back_substitution"):
        put(f"linalg.{fn}.self_s", "s/op", s.self_s(f"linalg.{fn}") / ops, f"linalg.{fn}")
    put("linalg.vector_norm.calls", "count/op", s.calls("linalg.vector_norm") / ops,
        "linalg.vector_norm")
    put("linalg.vector_norm.self_s", "s/op", s.self_s("linalg.vector_norm") / ops,
        "linalg.vector_norm")
    put("partition.partition_system.self_s", "s/op",
        s.self_s("partition.partition_system") / ops, "partition.partition_system")
    put("partition.assemble.calls", "count/op", s.calls("partition.assemble") / ops,
        "partition.assemble")
    for fn in ("assemble", "disassemble"):
        put(f"partition.{fn}.self_s", "s/op", s.self_s(f"partition.{fn}") / ops,
            f"partition.{fn}")
    put("convergence.check_conditions.calls", "count/op",
        s.calls("convergence.check_conditions") / ops, "convergence.check_conditions")
    put("convergence.check_conditions.self_s", "s/op",
        s.self_s("convergence.check_conditions") / ops, "convergence.check_conditions")
    put("generate.generate_certified.self_s", "s/op",
        s.self_s("generate.generate_certified") / ops, "generate.generate_certified")
    put("generate.certify_yield", "ratio",
        ratio(s.calls("generate.generate_certified"),
              s.calls_under("convergence.check_conditions", "generate.generate_certified")),
        "generate.generate_certified", "convergence.check_conditions")
    put("rref.rref.calls", "count/op", s.calls("rref.rref") / ops, "rref.rref")
    put("rref.rref.self_s", "s/op", s.self_s("rref.rref") / ops, "rref.rref")
    put("rref.useful_ratio", "ratio",
        ratio(s.calls("cli.cmd_rref"), s.calls_under("rref.rref", "cli.cmd_rref")),
        "rref.rref", "cli.cmd_rref")
    put("formats.read_matrix_market.self_s", "s/op",
        s.self_s("formats.read_matrix_market") / ops, "formats.read_matrix_market")
    put("formats.mtx_entries_per_s", "1/s",
        ratio(sum(o.mtx_entries for o in outcomes), s.total("formats.read_matrix_market")),
        "formats.read_matrix_market")
    put("formats.read_csv.self_s", "s/op",
        s.self_s("formats.read_csv_matrix", "formats.read_csv_vector") / ops,
        "formats.read_csv_matrix", "formats.read_csv_vector")
    put("formats.write.self_s", "s/op", s.self_s(*WRITERS) / ops, *WRITERS)
    put("formats.bytes_written", "B/op", sum(o.bytes_written for o in outcomes) / ops)
    for sub in CLI_SUBCOMMANDS:
        put(f"cli.{sub}.total_s", "s/op", s.total(f"cli.cmd_{sub}") / ops, f"cli.cmd_{sub}")
    put("cli.self_s", "s/op", s.layer_self_s("cli") / ops, "cli.main")
    put("trace.coverage", "ratio", ratio(s.top_level, op_wall_s))
    put("trace.overhead", "ratio", overhead)
    put("trace.spans", "count/op", len(s.name) / ops)
    return metrics, absent
