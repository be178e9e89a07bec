"""Run one tatelab command in this process, with a span around each layer call.

    python3 perfbench/traced_job.py TRACE_FILE <tatelab arguments...>

Stdout, stderr and the exit status are tatelab's own; the per-layer
totals go to TRACE_FILE as JSON.  The spans are installed from here,
with no edit to tatelab: methods are replaced on their classes, and a
module-level function is re-bound under every name any tatelab module
holds for it, because invariants, audits and cli import the resolution
functions by name.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of one job add up to its traced wall time.
"""

import functools
import json
import sys
import time
from collections import defaultdict

from tatelab import cli, extensions, linalg, presentations, resolution


class Tracer:
    def __init__(self):
        self.open = []                 # child time seen by each open span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.piece_dim_max = 0
        self.matrix_nnz = 0
        self.useful_adds = 0
        self._matrices = {}            # id -> matrix, to count each one once

    def span(self, name, fn, after=None):
        open_, self_s, calls = self.open, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_.pop()
                calls[name] += 1
                if open_:
                    open_[-1] += elapsed
            if after is not None:
                after(result)
            return result
        return traced

    def rebind(self, module, attr, name):
        """Wrap module.attr and re-bind every tatelab name that refers to it."""
        orig = getattr(module, attr)
        wrapped = self.span(name, orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "tatelab":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
        return wrapped

    # -- counters taken from results ---------------------------------------

    def _piece(self, words):
        self.piece_dim_max = max(self.piece_dim_max, len(words))

    def _matrix(self, result):
        if id(result) not in self._matrices:
            self._matrices[id(result)] = result
            self.matrix_nnz += sum(len(col) for col in result[0])

    def _echelon_add(self, lead):
        if lead is not None:
            self.useful_adds += 1

    def install(self):
        """Wrap every traced boundary; return the wrapped cli.main."""
        P = presentations.Presentation
        P.__init__ = self.span("presentations.init", P.__init__)
        P.from_json = classmethod(self.span("presentations.init",
                                            P.__dict__["from_json"].__func__))
        P._degree_data = self.span("presentations.degree_data", P._degree_data)
        T = extensions.ExtensionTower
        T.piece = self.span("extensions.piece", T.piece, self._piece)
        T.matrix = self.span("extensions.matrix", T.matrix, self._matrix)
        T.solved = self.span("extensions.solved", T.solved)
        T.adjoin = self.span("extensions.adjoin", T.adjoin)
        E = linalg.Echelon
        E.add = self.span("linalg.echelon_add", E.add, self._echelon_add)
        self.rebind(linalg, "rref", "linalg.rref")
        self.rebind(linalg, "solve_cols", "linalg.solve_cols")
        self.rebind(resolution, "minimal_generators", "resolution.minimal_generators")
        self.rebind(resolution, "kernel_generators", "resolution.kernel_generators")
        for builder in ("build_minimal_model", "build_acyclic_closure",
                        "koszul_complex", "koszul_on_minimal_generators"):
            self.rebind(resolution, builder, "resolution.build")
        return self.rebind(cli, "main", "cli")

    def summary(self, wall_s):
        return {"wall_s": wall_s, "self_s": dict(self.self_s),
                "calls": dict(self.calls), "piece_dim_max": self.piece_dim_max,
                "matrix_nnz": self.matrix_nnz, "useful_adds": self.useful_adds}


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    run = tracer.install()
    start = time.perf_counter()
    try:
        code = run(argv)
    finally:
        wall = time.perf_counter() - start
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(tracer.summary(wall), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
