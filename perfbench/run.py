#!/usr/bin/env python3
"""Repository benchmark for `opindyn run` and `opindyn serve`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root.  The script builds the Release `opindyn`
CLI and the traced harness `perfbench_layers` (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR (default .bench_build), makes the workload's inputs
from --seed, measures for --seconds, checks every output, and prints one
JSON object as the last line of stdout.

--trace 0  End-to-end metrics.  `opindyn` is spawned the way users run it,
           with tracing off; one client drives it with at most 4 threads
           in total (`run --threads=2`, or `serve --threads=2
           --job-workers=2` with two jobs outstanding).
--trace 1  Per-layer metrics.  perfbench_layers replays the same inputs
           through each module's public entry points in-process and
           records a span around every call (Chrome trace JSON under
           <build>/traces/).  Also prints the per-layer self-time table and
           the tracing overhead (traced minus untraced wall_s).

End-to-end metrics.  A "job" is one `opindyn run` invocation on the run
workloads and one job line on serve_mix.
  wall_s       median wall time of one job
  steps_per_s  model steps read from the outputs (sum of T_eps, or
               horizon x replicas) per second of job wall time
  rows_per_s   CSV data rows written per second of job wall time
  jobs_per_s   jobs completed per second
  job_p50_ms   median job latency (serve: job line sent -> record read)
  job_p99_ms   the highest percentile up to the 99th with at least ten
               samples above it, floored at the median (so it equals the
               median on runs of fewer than 21 jobs)
  setup_s      launch to ready, median of several launches: the job with
               replicas=1 max-steps=1 (horizon=1 for trajectory), or serve
               until its `ready` record
  peak_rss_mb  the child's maxrss (median over jobs; the server's for serve)
Failures (non-zero exits, non-`ok` records, failed output checks) are the
`failed` count of the result line; `correct` is false when any occurred.

Output checks.  Theory bands on every seed: E[F] (and the trajectory's
final E[M]) against Avg(0) = 0 (inputs are centred), meas/pred of the
Prop. B.1 prediction in a Theta(1) band, potential decay, row counts;
repeated jobs must give identical bytes, and sampled serve jobs must match
the one-shot `opindyn run` of the same line byte for byte.  On the
default seed the CSV digests are pinned in perfbench/digests.json.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREADS = 2
JOBS_OUTSTANDING = 2
DEFAULT_SEED = 1
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 120
# Standard errors within which a replica mean must sit around its exact
# expectation: loose enough that sampling noise never trips it on any
# seed, tight enough to catch a biased or broken martingale.
MEAN_BAND_SE = 20.0
# Theta(1) band for measured / predicted T_eps (Prop. B.1 is a bound up
# to constants; HEAD measures 0.2-0.4 on random regular graphs).
MEAS_PRED_BAND = (0.05, 20.0)

# Which end-to-end metric each layer metric should move, and where.
LAYER_TABLE = [
    ("support.rng.draws_per_s", "steps_per_s", "converge_large"),
    ("core.kernel.burst_sps.node/.edge", "steps_per_s", "converge_large"),
    ("core.convergence.sps/.check_share", "steps_per_s",
     "converge_large (not rows_stream)"),
    ("graph.build_s/.cache_builds/.cache_hits", "setup_s", "converge_large"),
    ("graph.build_s/.cache_builds/.cache_hits", "job_p99_ms", "serve_mix"),
    ("spectral.eigensolve_s/.eigensolves/.cache_hits/.serial_share",
     "wall_s", "spectral_sweep"),
    ("spectral.eigensolve_s/.eigensolves/.cache_hits/.serial_share",
     "job_p99_ms", "serve_mix"),
    ("support.scheduler.unit_overhead_us/.units", "jobs_per_s, job_p50_ms",
     "serve_mix"),
    ("engine.run_s/.overhead_share/.sink_rows_per_s/.sink_bytes",
     "rows_per_s, peak_rss_mb", "rows_stream"),
    ("service.queue_ms_p50/.queue_ms_p99/.run_ms_p50", "job_p99_ms",
     "serve_mix"),
]


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def seeds_from(seed, count):
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


# ---- workloads --------------------------------------------------------


class RunWorkload:
    """Repeated `opindyn run` invocations of one generated spec."""

    mode = "run"

    def __init__(self, name, spec, outputs, setup_overrides, checker):
        self.name = name
        self.spec = spec  # key -> value, without output paths
        self.outputs = outputs  # spec key (csv / rows-csv) -> file name
        self.setup_overrides = setup_overrides
        self.checker = checker

    def words(self, work, outputs=True, overrides=None):
        spec = dict(self.spec)
        spec.update(overrides or {})
        if outputs:
            for key, file_name in self.outputs.items():
                spec[key] = str(work / file_name)
        return [f"{key}={value}" for key, value in spec.items()]


# Graph seeds of the large random_regular graphs stay fixed: their
# rejection-sampled build takes 0.1-1 s depending on the seed, which would
# swamp set-up time.  The workload seed varies everything else.
FIXED_GRAPH_SEEDS = (1, 2)


def converge_large(seed, tiny):
    run_seed, init_seed = seeds_from(seed, 2)
    graph_seed = FIXED_GRAPH_SEEDS[0]
    spec = {
        "scenario": "cross_model", "graph": "random_regular", "degree": 4,
        "n": 1024 if tiny else 16384, "init": "gaussian", "eps": "1e-8",
        "sweep": "model:node,edge", "replicas": 4 if tiny else 24,
        "seed": run_seed, "graph-seed": graph_seed, "init-seed": init_seed,
        "threads": THREADS,
    }
    return RunWorkload("converge_large", spec,
                       {"csv": "aggregate.csv", "rows-csv": "rows.csv"},
                       {"replicas": 1, "max-steps": 1}, check_cross_model)


def spectral_sweep(seed, tiny):
    run_seed, init_seed, graph_a, graph_b = seeds_from(seed, 4)
    spec = {
        "scenario": "thm22_convergence", "graph": "random_regular",
        "degree": 4, "n": 32 if tiny else 128,
        "sweep": f"graph-seed:{graph_a},{graph_b};k:1,2,4",
        "replicas": 4 if tiny else 16, "seed": run_seed,
        "init-seed": init_seed, "threads": THREADS,
    }
    return RunWorkload("spectral_sweep", spec, {"csv": "aggregate.csv"},
                       {"replicas": 1, "max-steps": 1}, check_thm22)


def rows_stream(seed, tiny):
    run_seed, init_seed = seeds_from(seed, 2)
    spec = {
        "scenario": "trajectory", "n": 256 if tiny else 4096,
        "replicas": 4 if tiny else 16,
        "horizon": 16384 if tiny else 400000, "check-interval": 64,
        "seed": run_seed, "init-seed": init_seed, "threads": THREADS,
    }
    return RunWorkload("rows_stream", spec, {"rows-csv": "rows.csv"},
                       {"replicas": 1, "max-steps": 1, "horizon": 1},
                       check_trajectory)


class ServeWorkload:
    """A seeded job stream for `opindyn serve`: node/edge jobs over a few
    graphs (graph-cache hits), every tenth job a small spectral job
    (spectrum-cache hits), each writing csv= into the work directory."""

    mode = "serve"
    name = "serve_mix"

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny

    def jobs(self, work):
        rng = random.Random(self.seed)
        sizes = (128, 256) if self.tiny else (1024, 4096)
        graphs = [(n, graph_seed) for n in sizes
                  for graph_seed in FIXED_GRAPH_SEEDS]
        spectral_graphs = [rng.randrange(1, 2**31) for _ in range(2)]
        job = 0
        while True:
            job += 1
            out = f"csv={work / f'job-{job}.csv'}"
            if job % 10 == 0:
                yield job, " ".join([
                    "scenario=thm22_convergence", "graph=random_regular",
                    "degree=4", "n=64",
                    f"graph-seed={rng.choice(spectral_graphs)}",
                    "replicas=8", f"seed={rng.randrange(1, 2**31)}",
                    f"init-seed={rng.randrange(1, 2**31)}", out])
            else:
                n, graph_seed = rng.choice(graphs)
                yield job, " ".join([
                    "scenario=cross_model",
                    f"model={rng.choice(['node', 'edge'])}",
                    "graph=random_regular", "degree=4", f"n={n}",
                    f"graph-seed={graph_seed}", "init=gaussian",
                    "eps=1e-8", "replicas=8",
                    f"seed={rng.randrange(1, 2**31)}",
                    f"init-seed={rng.randrange(1, 2**31)}", out])


WORKLOADS = {
    "converge_large": converge_large,
    "spectral_sweep": spectral_sweep,
    "rows_stream": rows_stream,
    "serve_mix": ServeWorkload,
}


# ---- output checks ----------------------------------------------------


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def mean_within_band(values, expected, what, problems):
    """Replica mean against its exact expectation, in standard errors."""
    count = len(values)
    mean = sum(values) / count
    spread = statistics.pstdev(values) if count > 1 else 0.0
    band = MEAN_BAND_SE * spread / math.sqrt(count) + 1e-12
    if abs(mean - expected) > band:
        problems.append(f"{what}: mean {mean:.3g} is more than "
                        f"{MEAN_BAND_SE:g} SE from {expected}")


def check_cross_model(spec, paths):
    """Returns (model steps, data rows, problems)."""
    problems = []
    replicas = int(spec["replicas"])
    aggregate = read_csv(paths["csv"])
    steps = 0.0
    rows = len(aggregate)
    for row in aggregate:
        if int(row["diverged"]) != 0:
            problems.append(f"{row['model']}: {row['diverged']} diverged")
        if float(row["T_eps"]) <= 0:
            problems.append(f"{row['model']}: T_eps {row['T_eps']}")
        # E[F] = Avg(0) = 0 for both rules (centred inputs, regular graph).
        if abs(float(row["E[F]"])) > (
                MEAN_BAND_SE * math.sqrt(float(row["Var(F)"]) / replicas)
                + 1e-12):
            problems.append(f"{row['model']}: E[F]={row['E[F]']} is far "
                            f"from Avg(0)=0")
        steps += float(row["T_eps"]) * replicas
    if "rows-csv" in paths:
        replica_rows = read_csv(paths["rows-csv"])
        rows += len(replica_rows)
        if len(replica_rows) != replicas * len(aggregate):
            problems.append(f"{len(replica_rows)} replica rows, expected "
                            f"{replicas * len(aggregate)}")
        by_model = {}
        for row in replica_rows:
            by_model.setdefault(row["model"], []).append(int(row["T_eps"]))
        for row in aggregate:
            times = by_model.get(row["model"], [0])
            if abs(sum(times) / len(times) - float(row["T_eps"])) > 0.051:
                problems.append(f"{row['model']}: replica T_eps mean does "
                                "not match the aggregate row")
        steps = float(sum(sum(times) for times in by_model.values()))
    return steps, rows, problems


def check_thm22(spec, paths):
    problems = []
    replicas = int(spec["replicas"])
    aggregate = read_csv(paths["csv"])
    steps = 0.0
    for row in aggregate:
        gap = float(row["1-l2(P)"])
        ratio = float(row["meas/pred"])
        if not 0.0 < gap <= 1.0:
            problems.append(f"spectral gap {gap} outside (0, 1]")
        if not MEAS_PRED_BAND[0] <= ratio <= MEAS_PRED_BAND[1]:
            problems.append(f"meas/pred {ratio} outside {MEAS_PRED_BAND}")
        if float(row["T measured"]) <= 0:
            problems.append(f"T measured {row['T measured']}")
        steps += float(row["T measured"]) * replicas
    if "sweep" in spec:
        expected = 1
        for axis in str(spec["sweep"]).split(";"):
            expected *= len(axis.split(":")[1].split(","))
        if len(aggregate) != expected:
            problems.append(f"{len(aggregate)} cells, expected {expected}")
    return steps, len(aggregate), problems


def check_trajectory(spec, paths):
    problems = []
    replicas = int(spec["replicas"])
    horizon = int(spec["horizon"])
    stride = int(spec["check-interval"])
    rows = read_csv(paths["rows-csv"])
    per_replica = horizon // stride + 1
    if len(rows) != replicas * per_replica:
        problems.append(f"{len(rows)} rows, expected "
                        f"{replicas * per_replica}")
        return 0.0, len(rows), problems
    first = [rows[r * per_replica] for r in range(replicas)]
    last = [rows[(r + 1) * per_replica - 1] for r in range(replicas)]
    if any(int(row["step"]) != 0 for row in first) or any(
            int(row["step"]) != (per_replica - 1) * stride for row in last):
        problems.append("checkpoint steps out of order")
    phi0 = {row["phi"] for row in first}
    if len(phi0) != 1:
        problems.append("replicas start from different potentials")
    # M is a martingale (Lemma 4.1): E[M(t)] = M(0) = Avg(0) = 0.
    mean_within_band([float(row["M"]) for row in last], 0.0, "final M",
                     problems)
    # The potential decays in expectation (Prop. B.1).
    final_phi = sum(float(row["phi"]) for row in last) / replicas
    if final_phi > float(first[0]["phi"]):
        problems.append(f"E[phi] grew: {final_phi} > {first[0]['phi']}")
    return float(replicas * horizon), len(rows), problems


def check_serve_job(line, path):
    spec = dict(word.split("=", 1) for word in line.split())
    checker = (check_thm22 if spec["scenario"] == "thm22_convergence"
               else check_cross_model)
    return checked(checker, spec, {"csv": path})


def checked(checker, spec, paths):
    """Runs an output check; a missing or malformed output is a failed
    check, not a benchmark crash."""
    try:
        return checker(spec, paths)
    except (OSError, ValueError, KeyError, IndexError,
            ZeroDivisionError) as error:
        return 0.0, 0, [f"unreadable output: {error!r}"]


def digest(path):
    path = Path(path)
    if not path.is_file():
        return "missing"
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---- processes --------------------------------------------------------


class Watchdog:
    """Kills `proc` if it outlives `seconds` (so a hung child cannot
    wedge the benchmark past its deadline)."""

    def __init__(self, proc, seconds):
        self.timer = threading.Timer(seconds, proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def cancel(self):
        self.timer.cancel()


def reap(proc):
    """Waits for `proc`; returns (exit code, maxrss in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_timed(argv, err_path):
    """Runs one child to completion: (wall seconds, exit code, maxrss MB)."""
    with open(err_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = Watchdog(proc, CHILD_TIMEOUT_S)
        code, rss = reap(proc)
        wall = time.perf_counter() - start
        watchdog.cancel()
    return wall, code, rss


class Server:
    """One `opindyn serve` process driven over its stdin/stdout."""

    def __init__(self, opindyn, err_path, timeout):
        self.err = open(err_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(opindyn), "serve", f"--threads={THREADS}",
             f"--job-workers={JOBS_OUTSTANDING}"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err)
        self.watchdog = Watchdog(self.proc, timeout)

    def record(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("serve closed its output early")
        return json.loads(line)

    def wait_ready(self):
        record = self.record()
        if record.get("event") != "ready":
            raise BenchError(f"serve did not start: {record}")
        return time.perf_counter() - self.started

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def closed_loop(self, stream, seconds):
        """Keeps JOBS_OUTSTANDING jobs in flight for `seconds`: returns
        {job: (line, latency s, status)} and the window in seconds."""
        jobs, sent = {}, {}
        start = last = time.perf_counter()

        def send_next():
            job, line = next(stream)
            jobs[job] = line
            sent[job] = time.perf_counter()
            self.send(line)

        for _ in range(JOBS_OUTSTANDING):
            send_next()
        while sent:
            record = self.record()
            if "job" not in record:
                continue
            last = time.perf_counter()
            job = record["job"]
            jobs[job] = (jobs[job], last - sent.pop(job), record.get("status"))
            if last - start < seconds:
                send_next()
        return jobs, last - start

    def close(self):
        """EOF, drain, reap: (exit code, maxrss MB, trailing records)."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        trailing = [json.loads(line) for line in self.proc.stdout if line.strip()]
        self.proc.stdout.close()
        code, rss = reap(self.proc)
        self.watchdog.cancel()
        self.err.close()
        return code, rss, trailing


# ---- measurement ------------------------------------------------------


def tail(values):
    """The highest percentile up to the 99th with at least ten samples
    above it, never below the median (which it is with < 21 samples)."""
    ordered = sorted(values)
    count = len(ordered)
    index = min(math.ceil(0.99 * count) - 1, count - 11)
    return max(statistics.median(ordered), ordered[max(index, 0)])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:3]:
                self.problems.append(f"{what}: {problem}")


def check_digests(workload, pinned_role_paths, ctx):
    """On the default seed, pins (or checks) CSV byte digests."""
    if ctx.seed != DEFAULT_SEED or ctx.tiny:
        return []
    digests = {role: digest(path) for role, path in pinned_role_paths.items()}
    store = HERE / "digests.json"
    pinned = json.loads(store.read_text()) if store.exists() else {}
    if ctx.pin_digests:
        pinned[workload] = digests
        store.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        return []
    expected = pinned.get(workload)
    if expected is None:
        return [f"no pinned digests for {workload}"]
    return [f"{role}: digest {value[:12]} differs from the pinned "
            f"{expected.get(role, '?')[:12]}"
            for role, value in digests.items() if expected.get(role) != value]


def measure_run(workload, ctx):
    work = ctx.work
    opindyn = str(ctx.opindyn)
    setups = []
    tally = Tally()
    for launch in range(SETUP_LAUNCHES):
        argv = [opindyn, "run", "--table=false"] + [
            "--" + w for w in workload.words(
                work / f"setup-{launch}", outputs=False,
                overrides=workload.setup_overrides)]
        wall, code, _ = run_timed(argv, work / "stderr.log")
        tally.add([f"exit {code}"] if code else [], "setup")
        setups.append(wall)

    argv = [opindyn, "run", "--table=false"] + [
        "--" + w for w in workload.words(work)]
    paths = {key: work / name for key, name in workload.outputs.items()}
    walls, rss, first_digests = [], [], None
    steps = rows = 0.0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < ctx.seconds:
        for path in paths.values():
            path.unlink(missing_ok=True)
        wall, code, peak = run_timed(argv, work / "stderr.log")
        problems = [f"exit {code}"] if code else []
        if not problems:
            digests = {key: digest(path) for key, path in paths.items()}
            if first_digests is None:
                first_digests = digests
                steps, rows, problems = checked(
                    workload.checker, workload.spec,
                    {k: str(p) for k, p in paths.items()})
                problems += check_digests(workload.name, paths, ctx)
            elif digests != first_digests:
                problems.append("outputs differ from the first job's bytes")
        tally.add(problems, f"job {len(walls) + 1}")
        walls.append(wall)
        rss.append(peak)
    total = sum(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "steps_per_s": steps * len(walls) / total,
        "rows_per_s": rows * len(walls) / total,
        "jobs_per_s": len(walls) / total,
        "job_p50_ms": 1e3 * statistics.median(walls),
        "job_p99_ms": 1e3 * tail(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, tally, {"jobs": len(walls), "setup_samples": setups}


def oneshot_matches(ctx, line, serve_csv, index):
    """The serve job's CSV against the one-shot run of the same line."""
    words = [w for w in line.split() if not w.startswith("csv=")]
    oneshot = ctx.work / f"oneshot-{index}.csv"
    argv = [str(ctx.opindyn), "run", "--table=false",
            f"--threads={THREADS}", f"--csv={oneshot}"] + [
                "--" + w for w in words]
    _, code, _ = run_timed(argv, ctx.work / "stderr.log")
    if code:
        return [f"one-shot exit {code}"]
    if Path(serve_csv).read_bytes() != oneshot.read_bytes():
        return ["CSV differs from the one-shot run of the same line"]
    return []


def check_serve_outputs(ctx, jobs, tally):
    """Theory bands for every completed job, one-shot identity for a
    sample, pinned digests for the first ten on the default seed."""
    steps = rows = 0.0
    sampled = {"cross_model": 0, "thm22_convergence": 0}
    statuses = {job: status for job, (_, _, status) in jobs.items()}
    for job in sorted(jobs):
        line, _, status = jobs[job]
        path = ctx.work / f"job-{job}.csv"
        problems = [] if status == "ok" else [f"status {status}"]
        if not problems:
            job_steps, job_rows, problems = check_serve_job(line, path)
            steps += job_steps
            rows += job_rows
            scenario = line.split()[0].split("=", 1)[1]
            if sampled.get(scenario, 9) < 2:
                sampled[scenario] += 1
                problems += oneshot_matches(ctx, line, path, job)
        tally.add(problems, f"job {job}")
    pinned = {f"job-{job}": ctx.work / f"job-{job}.csv"
              for job in range(1, 11) if statuses.get(job) == "ok"}
    if len(pinned) == 10:
        problems = check_digests("serve_mix", pinned, ctx)
    else:
        problems = [] if ctx.tiny or ctx.seed != DEFAULT_SEED else [
            "fewer than ten jobs to pin"]
    if problems:
        tally.failed += 1
        tally.problems += problems
    return steps, rows


def measure_serve(workload, ctx):
    work = ctx.work
    tally = Tally()
    setups = []
    for _ in range(SETUP_LAUNCHES):
        server = Server(ctx.opindyn, work / "stderr.log", CHILD_TIMEOUT_S)
        setups.append(server.wait_ready())
        code, _, _ = server.close()
        tally.add([f"exit {code}"] if code else [], "setup")

    server = Server(ctx.opindyn, work / "stderr.log",
                    ctx.seconds + CHILD_TIMEOUT_S)
    server.wait_ready()
    jobs, window = server.closed_loop(workload.jobs(work), ctx.seconds)
    code, peak, _ = server.close()
    if code:
        tally.add([f"serve exit {code}"], "serve")
    steps, rows = check_serve_outputs(ctx, jobs, tally)
    samples = [latency for _, latency, _ in jobs.values()]
    metrics = {
        "wall_s": statistics.median(samples),
        "steps_per_s": steps / window,
        "rows_per_s": rows / window,
        "jobs_per_s": len(samples) / window,
        "job_p50_ms": 1e3 * statistics.median(samples),
        "job_p99_ms": 1e3 * tail(samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    return metrics, tally, {"jobs": len(samples), "setup_samples": setups}


# ---- traced run -------------------------------------------------------


def self_times(trace_path):
    """Per span name: calls, total seconds, self seconds (duration minus
    the part its child spans cover)."""
    events = [e for e in json.loads(Path(trace_path).read_text())[
        "traceEvents"] if e.get("ph") == "X"]
    children = {}
    for event in events:
        children.setdefault(event["args"]["parent"], []).append(event)
    table = {}
    for event in events:
        start, end = event["ts"], event["ts"] + event["dur"]
        covered, reach = 0, start
        for child in sorted(children.get(event["args"]["id"], []),
                            key=lambda c: c["ts"]):
            lo = max(child["ts"], reach)
            hi = min(child["ts"] + child["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = table.setdefault(event["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += event["dur"] / 1e6
        row[2] += (event["dur"] - covered) / 1e6
    return table


def untraced_run(workload, ctx, seconds):
    """(wall_s, peak_rss_mb) of the same inputs with tracing off."""
    if workload.mode == "run":
        argv = [str(ctx.opindyn), "run", "--table=false"] + [
            "--" + w for w in workload.words(ctx.work / "untraced")]
        (ctx.work / "untraced").mkdir(exist_ok=True)
        walls, rss = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, code, peak = run_timed(argv, ctx.work / "stderr.log")
            if code:
                raise BenchError(f"untraced run exited {code}")
            walls.append(wall)
            rss.append(peak)
        return statistics.median(walls), statistics.median(rss)
    server = Server(ctx.opindyn, ctx.work / "stderr.log",
                    seconds + CHILD_TIMEOUT_S)
    server.wait_ready()
    (ctx.work / "untraced").mkdir(exist_ok=True)
    jobs, _ = server.closed_loop(workload.jobs(ctx.work / "untraced"),
                                 seconds)
    _, peak, _ = server.close()
    return statistics.median(latency for _, latency, _ in jobs.values()), peak


def measure_traced(workload, ctx):
    work = ctx.work
    requests = work / "requests.txt"
    if workload.mode == "run":
        requests.write_text(" ".join(workload.words(work)) + "\n")
    else:
        stream = workload.jobs(work)
        requests.write_text("".join(next(stream)[1] + "\n"
                                    for _ in range(5000)))
    trace_path = ctx.build / "traces" / f"{workload.name}-seed{ctx.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    traced_seconds = 0.8 * ctx.seconds
    argv = [str(ctx.layers), "trace", f"--mode={workload.mode}",
            f"--requests={requests}", f"--seconds={traced_seconds}",
            f"--threads={THREADS}", f"--work-dir={work}",
            f"--trace-json={trace_path}"]
    with open(work / "stderr.log", "ab") as err:
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err,
                              timeout=traced_seconds + CHILD_TIMEOUT_S,
                              check=False)
    if done.returncode != 0:
        raise BenchError(f"perfbench_layers exited {done.returncode}; see "
                         f"{work / 'stderr.log'}")
    summary = json.loads(done.stdout.decode().strip().splitlines()[-1])
    tally = Tally()
    tally.attempted = summary["requests"]
    tally.failed = summary["failed"]
    if workload.mode == "run":
        paths = {key: work / name for key, name in workload.outputs.items()}
        _, _, problems = checked(
            workload.checker, workload.spec,
            {key: str(path) for key, path in paths.items()})
    else:
        lines = requests.read_text().splitlines()
        paths = {f"job-{job}": work / f"job-{job}.csv" for job in range(1, 11)}
        problems = []
        for path in sorted(work.glob("job-*.csv")):
            job = int(path.stem.split("-")[1])
            problems += check_serve_job(lines[job - 1], path)[2]
    problems += check_digests(workload.name, paths, ctx)
    if problems:
        tally.failed += 1
        tally.problems += problems[:5]

    untraced, untraced_rss = untraced_run(workload, ctx, 0.2 * ctx.seconds)
    table = self_times(trace_path)
    print(f"# self time per layer ({workload.name}, trace {trace_path}):")
    print(f"#   {'span':40s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, own) in sorted(table.items(),
                                            key=lambda kv: -kv[1][1]):
        print(f"#   {name:40s} {calls:7d} {total:10.4f} {own:10.4f}")
    overhead = summary["traced_wall_s"] - untraced
    print(f"# tracing overhead: traced wall_s {summary['traced_wall_s']:.6f}"
          f" - untraced wall_s {untraced:.6f} = {overhead:+.6f} s")
    sink_mb = summary["metrics"]["engine.sink_bytes"]["value"] / 2**20
    print(f"# untraced peak_rss_mb {untraced_rss:.1f} vs engine.sink_bytes "
          f"{sink_mb:.1f} MB per job")
    for layer, moves, where in LAYER_TABLE:
        print(f"# layer {layer} -> {moves} on {where}")
    metrics = {name: entry["value"]
               for name, entry in summary["metrics"].items()}
    extra = {"trace": str(trace_path), "self_time_s": table,
             "traced_wall_s": summary["traced_wall_s"],
             "untraced_wall_s": untraced, "tracing_overhead_s": overhead,
             "untraced_peak_rss_mb": untraced_rss}
    return metrics, tally, extra


# ---- build and entry point --------------------------------------------


class Context:
    pass


def run_logged(argv, log_path):
    with open(log_path, "ab") as out:
        done = subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              check=False)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv[:3]))} failed; see "
                         f"{log_path}")


def build(root):
    """Configures and builds the Release CLI and the traced harness."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"{root} is not an opindyn checkout (no "
                         "CMakeLists.txt / src/); nothing to build")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], log_path)
    run_logged(["cmake", "--build", str(build_dir), "-j",
                str(os.cpu_count() or 1), "--target", "opindyn",
                "perfbench_layers"], log_path)
    return build_dir


def build_info(layers):
    done = subprocess.run([str(layers), "info"], stdout=subprocess.PIPE,
                          check=False, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("perfbench_layers info failed")
    info = json.loads(done.stdout)
    build = info["build"]
    if build["build_type"] != "Release" or build["checked_hot_path"]:
        raise BenchError(
            f"refusing to measure a {build['build_type']} build with "
            f"checked_hot_path={build['checked_hot_path']}; the benchmark "
            "needs Release without OPINDYN_CHECKED_HOT_PATH")
    info["nproc"] = os.cpu_count()
    return info


def declared_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    entries = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def bench(args):
    root = Path.cwd()
    ctx = Context()
    ctx.seed, ctx.seconds, ctx.tiny = args.seed, args.seconds, args.tiny
    ctx.pin_digests = args.pin_digests
    ctx.build = build(root)
    ctx.opindyn = ctx.build / "opindyn" / "src" / "opindyn"
    ctx.layers = ctx.build / "perfbench_layers"
    info = build_info(ctx.layers)
    units = declared_metrics(root, args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    ctx.work = ctx.build / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, tally, extra = measure_traced(workload, ctx)
        elif workload.mode == "run":
            metrics, tally, extra = measure_run(workload, ctx)
        else:
            metrics, tally, extra = measure_serve(workload, ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for problem in tally.problems[:20]:
        log("check failed:", problem)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "threads": THREADS, "info": info, "detail": extra,
              "problems": tally.problems, "result": result}
    results = ctx.build / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print("# info " + json.dumps(info))
    print(json.dumps(result))


def smoke():
    """Seconds-long run of every workload at tiny sizes, traced and not:
    every declared metric must come back by name with its unit."""
    root = Path.cwd()
    failures = []
    for trace in (0, 1):
        units = declared_metrics(root, trace)
        for name in WORKLOADS:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace),
                    "--tiny"]
            done = subprocess.run(argv, stdout=subprocess.PIPE, check=False,
                                  timeout=900)
            where = f"{name} --trace {trace}"
            try:
                result = json.loads(
                    done.stdout.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                failures.append(f"{where}: last line is not JSON")
                continue
            if done.returncode != 0:
                failures.append(f"{where}: exit {done.returncode}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            for metric, unit in units.items():
                entry = result["metrics"].get(metric)
                if entry is None or entry.get("unit") != unit or not \
                        isinstance(entry.get("value"), (int, float)) or \
                        not math.isfinite(entry["value"]):
                    failures.append(f"{where}: {metric} missing or malformed")
            extra = set(result["metrics"]) - set(units)
            if extra:
                failures.append(f"{where}: undeclared metrics {sorted(extra)}")
            log(f"smoke {where}: {'ok' if not failures else 'FAILED'}")
    for failure in failures:
        log("smoke:", failure)
    print(json.dumps({"smoke": "ok" if not failures else "failed",
                      "failures": failures}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, both modes")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin-digests", action="store_true",
                        help="rewrite perfbench/digests.json from this "
                             "default-seed run instead of checking it")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        bench(args)
        return 0
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
