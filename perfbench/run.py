"""Benchmark of the tatelab command line, one workload per run.

    python3 perfbench/run.py --workload {model_q,closure_fp,catalog_cli,all}
                             [--seed 0] [--seconds 30] [--trace 0|1]

Run it from the root of a tatelab checkout: every job is a fresh
``python -m tatelab ... --format json`` process against the checkout's
``src``, started only after the previous one ended (a closed loop with
one client).  The seed permutes the variables and relators of every
instance and the order of the jobs; tatelab sees only the generated
files.  A run repeats whole passes over the workload's jobs for about
``--seconds`` and checks every job's output against expected.json.

With ``--trace 0`` it reports the end-to-end metrics.  They are CPU
seconds of the children (user + sys, from ``os.wait4``), rescaled to one
fixed host speed, because on a shared VM other tenants move both wall
and CPU time of the same work by up to about 2x, in phases.  A gauge
thread times ``reference()``, fixed work of the kinds tatelab does, on
the CPU the jobs are pinned to, and every job's CPU time is multiplied
by ``REFERENCE_CPU_S`` over the gauge's mean near that job.  Wall
times are printed unscaled on the info line.  With
``--trace 1`` it runs every job twice, back to back: untraced, then
under traced_job.py.  It reports the per-layer metrics and the tracing
overhead, and a traced job must print exactly what the untraced one
printed.  The last line of stdout is the result as JSON.
"""

import argparse
import collections
import fractions
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import jobs

ROOT = os.path.dirname(jobs.HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(jobs.HERE, ".work")
RUN_LIMIT_S = 170          # every run must end within 180 s
SETUP_PER_PASS = 4
SETUP_MIN = 15
SELF_TIME_TOLERANCE = 0.05
GAUGE_EVERY_S = 0.05
GAUGE_WINDOW_S = 0.1       # a job is scaled by the samples this close to it
# CPU seconds of one reference() call on a 2-vCPU Xeon VM with CPython
# 3.11.7 in its fast phase; the scaled metrics are seconds at that speed
REFERENCE_CPU_S = 0.0021

E2E_UNITS = {"cpu_s": "s", "cmd_cpu_s.p50": "s", "cmd_cpu_s.tail": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
SPANS = ["presentations.init", "presentations.degree_data", "extensions.piece",
         "extensions.matrix", "extensions.solved", "extensions.adjoin",
         "linalg.echelon_add", "linalg.rref", "linalg.solve_cols",
         "resolution.minimal_generators", "resolution.kernel_generators",
         "resolution.build"]


Result = collections.namedtuple("Result",
                                "start end wall cpu maxrss_kb code stdout stderr")


def reference():
    """Fixed work of the kinds tatelab does: dense and sparse elimination
    over Q.  Its CPU time measures how fast the host runs right now.  It
    allocates little, because a child's ru_maxrss counts the parent's
    pages it was forked with."""
    F = fractions.Fraction
    n = 9
    dense = [[F((i * j) % 7 + 1, i + 2 * j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = dense[r][c] / dense[c][c]
            dense[r] = [x - f * y for x, y in zip(dense[r], dense[c])]
    pivots = {}
    for i in range(6):
        v = {(i * j) % 53: F(j + 1, i % 5 + 1) for j in range(1, 12)}
        while v:
            lead = min(v)
            if lead not in pivots:
                pivots[lead] = v
                break
            p = pivots[lead]
            f = v[lead] / p[lead]
            for k, x in p.items():
                y = v.get(k, 0) - f * x
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return dense[-1][-1], len(pivots)


class SpeedGauge:
    """Times reference() in CPU seconds every GAUGE_EVERY_S, in a thread
    on the CPU the jobs run on, so that a job's CPU time can be rescaled
    by how fast the host ran while it ran."""

    def __init__(self):
        self.samples = []          # (perf_counter at the end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(GAUGE_EVERY_S):
            start = time.thread_time()
            reference()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def close(self):
        self._stop.set()
        self._thread.join()

    def scale(self, start, end):
        """REFERENCE_CPU_S over the mean sample within GAUGE_WINDOW_S of
        [start, end]; the nearest sample when none is.  The mean, because
        a job's CPU time adds up the speeds the host had while it ran."""
        near = [c for t, c in self.samples
                if start - GAUGE_WINDOW_S <= t <= end + GAUGE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda tc: abs(tc[0] - end))[1]]
        return REFERENCE_CPU_S / statistics.fmean(near)


class Runner:
    """Runs one child at a time to completion, with its rusage from wait4."""

    def __init__(self, workdir, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONNOUSERSITE="1")
        # the untimed first probe writes the bytecode cache that an
        # installed package would have, and every job then reads it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.out = open(os.path.join(workdir, "stdout"), "w+b")
        self.err = open(os.path.join(workdir, "stderr"), "w+b")

    def close(self):
        self.out.close()
        self.err.close()

    def time_left(self):
        return self.deadline - time.monotonic()

    def run(self, argv):
        if self.time_left() <= 0:
            fail("out of time: a run must end within %d s" % RUN_LIMIT_S)
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=self.out,
                                stderr=self.err)
        timer = threading.Timer(self.time_left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.out.seek(0)
        self.err.seek(0)
        return Result(start, end, end - start, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss, proc.returncode, self.out.read(),
                      self.err.read())


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def probe_argv(paths):
    return [os.path.join(jobs.HERE, "setup_probe.py")] + sorted(paths.values())


def checkout_info(runner, paths):
    """Warm the bytecode cache and confirm tatelab comes from this checkout."""
    res = runner.run(probe_argv(paths))
    if res.code != 0:
        fail("cannot import tatelab from %s:\n%s" % (SRC, res.stderr.decode(errors="replace")))
    origin = res.stdout.decode().strip().splitlines()[-1]
    if not os.path.realpath(origin).startswith(os.path.realpath(SRC) + os.sep):
        fail("tatelab was imported from %s, not from %s" % (origin, SRC))
    return {"tatelab": origin, "python": sys.version.split()[0]}


def percentiles(latencies):
    """Median and tail of per-command latencies, as (p50, tail, tail
    percentile); ``latencies`` maps each command to its samples.

    The median is the lower median over the commands of each command's
    median.  Pooled, a pass of one long and one short job would give the
    slowest of the short samples or the mean of two commands.  The tail
    is the highest pooled percentile with at least ten samples beyond
    it.  Below 40 samples that percentile would fall under p75 and move
    with the number of passes a run happens to fit, so the slowest
    command's median is reported instead, as percentile 100.
    """
    medians = sorted(statistics.median(v) for v in latencies.values())
    p50 = medians[(len(medians) - 1) // 2]
    ordered = sorted(x for v in latencies.values() for x in v)
    n = len(ordered)
    if n < 40:
        return p50, medians[-1], 100.0
    return p50, ordered[n - 11], 100.0 * (n - 10) / n


def run_pass(runner, order, argv_of):
    start = time.perf_counter()
    results = [runner.run(argv_of(i, job)) for i, job in enumerate(order)]
    return time.perf_counter() - start, results


def keep_going(elapsed, durations, seconds, runner):
    estimate = statistics.median(durations)
    return elapsed + estimate <= seconds and estimate < runner.time_left()


def check_all(order, results, expected, failures):
    for job, res in zip(order, results):
        reason = jobs.check(job, expected, res.code, res.stdout, res.stderr)
        if reason:
            failures.append("%s: %s" % (jobs.job_key(job), reason))


def measure_untraced(runner, workload, paths, seed, seconds, expected):
    setup = []

    def probe_setup(count):
        for _ in range(count):
            res = runner.run(probe_argv(paths))
            if res.code != 0:
                fail("set-up probe failed:\n%s" % res.stderr.decode(errors="replace"))
            setup.append(res)

    def argv_of(i, job):
        return ["-m", "tatelab"] + jobs.job_argv(job, paths)

    rng = random.Random(seed)
    passes = []
    gauge = SpeedGauge()
    try:
        start = time.perf_counter()
        while True:
            # set-up samples are spread over the run, so that their median
            # sees the same machine as the passes do
            probe_setup(SETUP_PER_PASS)
            order = list(jobs.WORKLOADS[workload])
            rng.shuffle(order)
            wall, results = run_pass(runner, order, argv_of)
            passes.append((wall, order, results))
            if not keep_going(time.perf_counter() - start, [p[0] for p in passes],
                              seconds, runner):
                break
        probe_setup(max(SETUP_MIN - len(setup), 0))
        # the samples after the last job are needed to scale it
        time.sleep(GAUGE_WINDOW_S + GAUGE_EVERY_S)
    finally:
        gauge.close()

    def scaled_cpu(res):
        return res.cpu * gauge.scale(res.start, res.end)

    failures = []
    for _, order, results in passes:
        check_all(order, results, expected, failures)
    latencies = collections.defaultdict(list)
    cpu_latencies = collections.defaultdict(list)
    for _, order, results in passes:
        for job, r in zip(order, results):
            latencies[jobs.job_key(job)].append(r.wall)
            cpu_latencies[jobs.job_key(job)].append(scaled_cpu(r))
    samples = sum(len(p[1]) for p in passes)
    p50, tail_value, tail_pct = percentiles(latencies)
    cpu_p50, cpu_tail, _ = percentiles(cpu_latencies)
    values = {
        "cpu_s": statistics.median(sum(scaled_cpu(r) for r in p[2]) for p in passes),
        "cmd_cpu_s.p50": cpu_p50,
        "cmd_cpu_s.tail": cpu_tail,
        "setup_s": statistics.median(scaled_cpu(r) for r in setup),
        "peak_rss_mb": statistics.median(max(r.maxrss_kb for r in p[2])
                                         for p in passes) / 1024.0,
    }
    speed = [REFERENCE_CPU_S / c for _, c in gauge.samples]
    info = {"passes": len(passes), "pass_wall_s": [round(p[0], 4) for p in passes],
            "wall_s": statistics.median(p[0] for p in passes),
            "cpu_s.unscaled": statistics.median(sum(r.cpu for r in p[2])
                                                for p in passes),
            "cmd_s.p50": p50, "cmd_s.tail": tail_value,
            "cmd_s.samples": samples,
            "cmd_s.tail_percentile": round(tail_pct, 2),
            "setup_s.samples": len(setup),
            "setup_s.wall": statistics.median(r.wall for r in setup),
            "gauge.samples": len(speed),
            "gauge.speed_quartiles": [round(q, 3) for q in
                                      statistics.quantiles(speed, n=4)]}
    metrics = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
    return metrics, samples, failures, info


def layer_metrics(traces):
    """Per-layer totals of one traced pass, from its jobs' trace files."""
    self_s = dict.fromkeys(SPANS + ["cli"], 0.0)
    calls = dict.fromkeys(SPANS, 0)
    dim_max = nnz = useful = 0
    wall = 0.0
    for t in traces:
        for name, v in t["self_s"].items():
            self_s[name] += v
        for name, v in t["calls"].items():
            if name in calls:
                calls[name] += v
        dim_max = max(dim_max, t["piece_dim_max"])
        nnz += t["matrix_nnz"]
        useful += t["useful_adds"]
        wall += t["wall_s"]
    m = {}
    for name in SPANS:
        m[name + "_s"] = (self_s[name], "s")
        m[name + ".calls"] = (calls[name], "count")
    m["resolution.towers_built"] = m.pop("resolution.build.calls")
    m["cli.self_s"] = (self_s["cli"], "s")
    m["extensions.piece.dim_max"] = (dim_max, "count")
    m["extensions.matrix.nnz"] = (nnz, "count")
    solved = calls["extensions.solved"]
    m["extensions.solved.hit_ratio"] = (
        1.0 - calls["linalg.solve_cols"] / solved if solved else 0.0, "ratio")
    adds = calls["linalg.echelon_add"]
    m["linalg.echelon_add.useful_ratio"] = (useful / adds if adds else 0.0, "ratio")
    m["trace.wall_s"] = (wall, "s")
    return m


def measure_traced(runner, workload, paths, seed, seconds, expected):
    workdir = os.path.dirname(runner.out.name)

    def untraced_argv(i, job):
        return ["-m", "tatelab"] + jobs.job_argv(job, paths)

    def trace_file(i):
        return os.path.join(workdir, "trace-%d.json" % i)

    def traced_argv(i, job):
        return ([os.path.join(jobs.HERE, "traced_job.py"), trace_file(i)]
                + jobs.job_argv(job, paths))

    def read_trace(i):
        try:
            with open(trace_file(i)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None
        finally:
            if os.path.exists(trace_file(i)):
                os.remove(trace_file(i))

    rng = random.Random(seed)
    failures = []
    attempted = 0
    runs, per_pass, pair_walls = [], [], []
    gauge = SpeedGauge()
    try:
        start = time.perf_counter()
        while True:
            order = list(jobs.WORKLOADS[workload])
            rng.shuffle(order)
            pair_start = time.perf_counter()
            plain, traced = [], []
            for i, job in enumerate(order):
                # each job runs untraced and then traced, back to back, so
                # that drift in machine speed cancels out of the overhead
                plain.append(runner.run(untraced_argv(i, job)))
                traced.append(runner.run(traced_argv(i, job)))
            pair_walls.append(time.perf_counter() - pair_start)
            runs.append((plain, traced))
            traces = [read_trace(i) for i in range(len(order))]
            attempted += 2 * len(order)
            check_all(order, plain, expected, failures)
            for job, p, t, trace in zip(order, plain, traced, traces):
                key = jobs.job_key(job)
                if (t.code, t.stdout) != (p.code, p.stdout):
                    failures.append("%s: traced output differs from untraced" % key)
                elif trace is None:
                    failures.append("%s: no trace written" % key)
                elif abs(sum(trace["self_s"].values()) - trace["wall_s"]) > (
                        SELF_TIME_TOLERANCE * trace["wall_s"]):
                    failures.append("%s: layer self times do not add up to the "
                                    "traced wall time" % key)
            per_pass.append(layer_metrics([t for t in traces if t is not None]))
            if not keep_going(time.perf_counter() - start, pair_walls, seconds, runner):
                break
        time.sleep(GAUGE_WINDOW_S + GAUGE_EVERY_S)
    finally:
        gauge.close()

    def scaled_cpu(results):
        return sum(r.cpu * gauge.scale(r.start, r.end) for r in results)

    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    # scaled CPU time, as in the untraced run: steal and the host's speed
    # phases move wall time by more than the overhead
    metrics["trace.overhead"] = (
        statistics.median(scaled_cpu(traced) for _, traced in runs)
        / statistics.median(scaled_cpu(plain) for plain, _ in runs) - 1.0, "ratio")
    info = {"pairs": len(per_pass)}
    return metrics, attempted, failures, info


def measure(workload, seed, seconds, trace, host):
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    runner = None
    try:
        runner = Runner(workdir, time.monotonic() + RUN_LIMIT_S)
        paths = jobs.write_inputs(workload, seed, workdir)
        info = {"workload": workload, "seed": seed, "trace": trace}
        info.update(host)
        info.update(checkout_info(runner, paths))
        expected = jobs.load_json("expected.json")
        how = measure_traced if trace else measure_untraced
        metrics, attempted, failures, more = how(runner, workload, paths, seed,
                                                 seconds, expected)
        info.update(more)
        info["fail_ratio"] = len(failures) / attempted
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, attempted, failures, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(jobs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run unwinds like an interrupted one and kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "tatelab", "__init__.py")):
        fail("no tatelab sources under %s; run from the root of a checkout" % SRC)
    # one CPU for the jobs and the speed gauge, so the gauge times the
    # CPU the jobs ran on; children inherit the affinity
    host = {"nproc": len(os.sched_getaffinity(0)),
            "pinned_cpu": max(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, {host["pinned_cpu"]})
    names = sorted(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    combined, attempted, failed = {}, 0, 0
    for name in names:
        metrics, n, failures, info = measure(name, args.seed, args.seconds,
                                             bool(args.trace), host)
        for reason in failures[:20]:
            print("FAIL %s: %s" % (name, reason), file=sys.stderr)
        print(json.dumps(info, sort_keys=True))
        for metric, (value, unit) in sorted(metrics.items()):
            print("%-12s %-36s %14.6f %s" % (name, metric, value, unit))
            key = metric if len(names) == 1 else "%s/%s" % (name, metric)
            combined[key] = {"value": value, "unit": unit}
        attempted += n
        failed += len(failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}, sort_keys=True))


if __name__ == "__main__":
    main()
