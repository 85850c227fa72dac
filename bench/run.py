"""Certificate-workload benchmark for wallforge.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wallforge source tree.  Every job is its own
``python -m wallforge.cli ... --out`` process started in ``src``, one at a
time: one client in a closed loop.  A round produces every dump of the
workload and then audits them all with one ``verify-replay`` process; rounds
repeat while the next one still fits in ``--seconds``, and the medians are
reported.  Every dump is checked against closed forms (see ``checks.py``),
and a tampered copy of each marked dump must be refused with exit code 2.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round also runs the jobs and the
replay under ``tracer.py`` and reports the per-layer metrics instead.  A
pure-``Fraction`` calibration time goes to stderr on every run.  The exit
code is 0 only when every job ran and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170


class Failure(Exception):
    """A job, a replay or a check went wrong."""


class Runner:
    """Starts wallforge processes one at a time and tracks what they cost."""

    def __init__(self, src):
        self.src = src
        self.env = {k: v for k, v in os.environ.items() if k != "WALLFORGE_THREADS"}
        self.attempted = 0
        self.failed = 0
        self.child = None

    def run(self, argv, count=True, expect=0):
        """Run one process to its end; returns (exit code, peak RSS in MB, stdout).

        A counted process is one attempted operation, failed unless it exits
        with ``expect``.
        """
        if count:
            self.attempted += 1
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            self.child = subprocess.Popen(
                [sys.executable, *argv], cwd=self.src, env=self.env, stdout=out, stderr=err
            )
            _, status, usage = os.wait4(self.child.pid, 0)
            code = self.child.returncode = os.waitstatus_to_exitcode(status)
            self.child = None
            out.seek(0)
            err.seek(0)
            text, errors = out.read().decode(), err.read().decode()
        if code != expect and count:
            self.failed += 1
            sys.stderr.write(f"exit {code}: {' '.join(argv)}\n{errors[-2000:]}\n")
        return code, usage.ru_maxrss / 1024, text

    def stop(self):
        if self.child is not None and self.child.poll() is None:
            self.child.kill()
            self.child.wait()


def calibrate():
    """A fixed pure-Fraction workload, timed, to read machine drift by."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20001):
        acc += Fraction(i % 97 - 48, i % 89 + 1) * Fraction(3, i % 7 + 2)
    return time.perf_counter() - t0


def setup(runner, workload, seed, workdir):
    """Generate the inputs and import wallforge.cli cold; returns (jobs, seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        indir = os.path.join(workdir, "inputs")
        shutil.rmtree(indir, ignore_errors=True)
        t0 = time.perf_counter()
        os.makedirs(indir)
        jobs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), indir)
        code, _, _ = runner.run(["-c", "import wallforge.cli"], count=False)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise Failure("cannot import wallforge.cli")
    return jobs, statistics.median(times)


def produce(runner, jobs, outdir, spandir=None):
    """Run every job once; returns (seconds, peak RSS MB, dump paths)."""
    os.makedirs(outdir, exist_ok=True)
    paths, peak = [], 0.0
    t0 = time.perf_counter()
    for job in jobs:
        path = os.path.join(outdir, job["name"] + ".json")
        argv = ["-m", "wallforge.cli", *job["args"], "--out", path]
        if spandir:
            spans = os.path.join(spandir, job["name"] + ".spans.json")
            argv = [os.path.join(HERE, "tracer.py"), spans, job["name"], "--", *argv[2:]]
        code, rss, _ = runner.run(argv)
        if code != 0:
            raise Failure(f"job {job['name']} exited {code}")
        peak = max(peak, rss)
        paths.append(path)
    return time.perf_counter() - t0, peak, paths


def replay(runner, paths, spandir=None):
    """Audit every dump with one verify-replay process; returns (seconds, RSS MB)."""
    argv = ["-m", "wallforge.cli", "verify-replay", *paths]
    if spandir:
        spans = os.path.join(spandir, "replay.spans.json")
        argv = [os.path.join(HERE, "tracer.py"), spans, "replay", "--", *argv[2:]]
    t0 = time.perf_counter()
    code, rss, out = runner.run(argv)
    seconds = time.perf_counter() - t0
    if code != 0 or out.split("\n")[:-1] != [f"ok {p}" for p in paths]:
        raise Failure(f"verify-replay exited {code}: {out[-500:]}")
    return seconds, rss


def check_dumps(jobs, paths):
    problems = []
    for job, path in zip(jobs, paths):
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        problems += [f"{job['name']}: {p}" for p in checks.check(job, dump)]
    return problems


def _bump(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list) and value:
        return [_bump(value[0])] + value[1:]
    return str(value) + "-tampered"


def tamper_check(runner, jobs, paths, workdir):
    """Copies of the marked dumps, one certificate value changed, must exit 2."""
    for job, path in zip(jobs, paths):
        if not job["tamper"]:
            continue
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        certs = dump["certificates"]
        key = sorted(certs)[0]
        certs[key] = _bump(certs[key])
        bad = os.path.join(workdir, "tampered-" + os.path.basename(path))
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, sort_keys=True, indent=2)
        code, _, _ = runner.run(["-m", "wallforge.cli", "verify-replay", bad], expect=2)
        if code != 2:
            raise Failure(f"tampered {job['name']} (certificates.{key}) gave exit {code}, not 2")


def same_bytes(a_paths, b_paths):
    for a, b in zip(a_paths, b_paths):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                return os.path.basename(a)
    return None


def measure(runner, jobs, workdir, seconds, trace):
    """Whole rounds for about ``seconds``; returns the metrics."""
    rounds = []
    layer_rounds = []
    first = None
    t_start = time.perf_counter()
    while True:
        n = len(rounds)
        t_round = time.perf_counter()
        produce_s, rss, paths = produce(runner, jobs, os.path.join(workdir, f"dumps{n}"))
        if first is None:
            first = paths
            problems = check_dumps(jobs, paths)
            if problems:
                raise Failure("; ".join(problems))
        else:
            differs = same_bytes(first, paths)
            if differs:
                raise Failure(f"dump {differs} changed between rounds")
        row = {"produce_s": produce_s, "peak_rss_mb": rss}
        if trace:
            spandir = os.path.join(workdir, f"spans{n}")
            os.makedirs(spandir)
            traced_s, _, traced = produce(runner, jobs, os.path.join(workdir, f"traced{n}"), spandir)
            differs = same_bytes(paths, traced)
            if differs:
                raise Failure(f"traced dump {differs} differs from the untraced one")
            replay(runner, traced, spandir)
            row["traced_s"] = traced_s
            layer_rounds.append(tracer.aggregate(
                [os.path.join(spandir, f) for f in sorted(os.listdir(spandir))]))
        else:
            row["replay_s"], rss = replay(runner, paths)
            row["peak_rss_mb"] = max(row["peak_rss_mb"], rss)
        rounds.append(row)
        sys.stderr.write(f"round {n}: {json.dumps(row)}\n")
        if n:
            shutil.rmtree(os.path.join(workdir, f"dumps{n}"))
        # another round only when it fits in the time left, judged by this one
        now = time.perf_counter()
        if (now - t_start) + (now - t_round) > seconds:
            break
    sys.stderr.write(f"{len(rounds)} rounds in {time.perf_counter() - t_start:.1f} s\n")
    tamper_check(runner, jobs, first, workdir)

    def med(key):
        return statistics.median(r[key] for r in rounds)

    if not trace:
        # exec records the spawning process's own peak in a child's maxrss, so
        # a child's figure is only its own while the benchmark stays smaller
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if own_mb >= min(r["peak_rss_mb"] for r in rounds):
            raise Failure(f"the benchmark's own {own_mb:.1f} MB would mask the jobs' peak RSS")
        return {
            "produce_s": (med("produce_s"), "s"),
            "replay_s": (med("replay_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        }
    metrics = {}
    for name, unit in tracer.metric_names():
        values = [lr[name] for lr in layer_rounds]
        if unit != "s" and len(set(values)) > 1:
            sys.stderr.write(f"warning: {name} varies between rounds: {values}\n")
        metrics[name] = (statistics.median(values), unit)
    dump_bytes = sum(os.path.getsize(p) for p in first)
    metrics["cli.dump_bytes"] = (dump_bytes, "bytes")
    metrics["trace.overhead_s"] = (med("traced_s") - med("produce_s"), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wallforge", "cli.py")):
        sys.stderr.write("no wallforge sources under ./src; run from the repository root\n")
        return 2
    workdir = os.path.join(root, ".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(src)

    def on_deadline(signum, frame):
        raise Failure(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    sys.stderr.write(f"calibration_s={calibrate():.4f}\n")
    correct = True
    try:
        jobs, setup_s = setup(runner, args.workload, args.seed, workdir)
        metrics = measure(runner, jobs, workdir, args.seconds, args.trace)
        if not args.trace:
            metrics["setup_s"] = (setup_s, "s")
    except Failure as exc:
        sys.stderr.write(f"FAILED: {exc}\n")
        correct = False
        metrics = {}
    finally:
        signal.alarm(0)
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct and not runner.failed else 1


if __name__ == "__main__":
    sys.exit(main())
