"""Benchmark for the ccodes command line: end-to-end and per-layer timings.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

It runs the checkout it lives in (`src/` first on the child's path), never an
installed ccodes, in Python's default mode. Every child is started by the
small launcher process in launch.py. With `--trace 0` every job of the
workload runs as a `ccodes` subprocess, one at a time: one untimed warm-up
pass whose outputs are checked, then as many timed passes as fit, with it,
in about S seconds; their outputs must match the warm-up byte for byte. A run
of calibrate.py follows every CAL_AFTER_S seconds of jobs; the gated job
timings are in units of its time (`cal`), raw seconds are reported beside
them. With `--trace 1` the jobs run
once as subprocesses (checked) and then in-process through `ccodes.cli.main`,
alternately untraced and under the span tracer, twice each. The last stdout
line is one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json. Full results and spans go to bench/results/. See
bench/README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# what the installed `ccodes` console script runs
ENTRY = ["-c", "import sys; from ccodes.cli import main; sys.exit(main())"]
PROBE = ["-c", "import sys, time; t = time.perf_counter(); import ccodes.cli; "
               "print(time.perf_counter() - t, sys.flags.optimize, ccodes.cli.__file__)"]
CALIBRATE = [str(BENCH / "calibrate.py")]
# The stdlib imports of ccodes without ccodes: a fixed child whose start-up time
# tracks the machine's speed the way `ccodes version` does. setup_s is the median
# of version / reference over pairs run back to back, times SETUP_REF_S, the
# reference child's median time on the machine the benchmark was built on
# (2 vCPUs of a shared x86-64 host, Python 3.11.7).
SETUP_REF = ["-c", "import argparse, cmath, csv, dataclasses, io, json, math, random, typing"]
SETUP_REF_S = 0.0886
SETUP_PER_PASS = 4  # (reference, `ccodes version`) pairs before each timed pass
SETUP_PAIR_S = 0.2  # about what one pair takes on that machine
CAL_AFTER_S = 1.5  # a calibration run once this many seconds of jobs have run
CAL_SHARE = 0.25  # the calibration runs add about this share to a timed pass
IMPORT_REPEATS = 7  # import probes behind process.import_s (median)
TRACED_PASSES = 2  # counts must repeat exactly between these
# raw-second metrics reported next to the gated calibrated ones
RAW_UNITS = {"wall_s": "s", "instances_per_s": "1/s", "job_s.p50": "s", "job_s.tail": "s",
             "setup_raw_s": "s", "cal_s": "s", "run_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class ChildRun:
    out: bytes
    err: bytes
    rc: int
    seconds: float
    rss_mb: float


def _child_env() -> dict[str, str]:
    # no PYTHONOPTIMIZE or other interpreter switches: default mode, src first
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Client of launch.py, the small process that starts every child (see its docstring)."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args) -> ChildRun:
        """Run `python args` to completion in default mode, src first on the path."""
        request = {"argv": [sys.executable, *args], "env": self.env, "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the job launcher exited")
        r = json.loads(reply)
        return ChildRun(r["out"].encode("latin-1"), r["err"].encode("latin-1"), r["rc"],
                        r["seconds"], r["rss_mb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_inprocess(cli, argv) -> tuple[bytes, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return out.getvalue().encode(), rc


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (never below p50)."""
    p = min(99, max(50, math.floor(100 * (1 - 10 / len(samples)))))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def plan_passes(seconds: float, pass_s: float) -> int:
    """Timed passes (at least one) that fit in `seconds` with the warm-up pass and set-up runs.

    Planned from the nominal pass time, not a measured one, so the number of
    latency samples, and with it the tail percentile, does not move when the
    program gets faster.
    """
    per_pass = pass_s * (1 + CAL_SHARE) + SETUP_PER_PASS * SETUP_PAIR_S
    return max(1, int((seconds - pass_s) // per_pass))


def _commit() -> str | None:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def _src_digest() -> str:
    # A checkout exported without .git has no commit; this hash still names the code run.
    h = hashlib.sha256()
    for path in sorted((SRC / "ccodes").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 launcher: Launcher) -> None:
        # imported late: checks imports ccodes, which needs src on sys.path first
        from checks import check, corrupt
        from workloads import WORKLOADS, make_jobs

        self.check, self.corrupt = check, corrupt
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.jobs = make_jobs(workload, seed)
        self.passes = plan_passes(seconds, WORKLOADS[workload][1])
        self.spawn = launcher.run
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.counts_repeat = True  # traced runs: counts equal in every traced pass

    def _judge(self, index: int, out: bytes, rc: int) -> None:
        """Count one execution of job `index` against the checked reference."""
        self.attempted += 1
        ref = self.reference[index]
        if self.verdicts[index][1] or rc != ref.rc or out != ref.out:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"job {index} {' '.join(self.jobs[index].argv)[:80]}: "
                                     f"{self.verdicts[index][1][:3] or 'output differs from reference'}")

    def warm_up(self) -> None:
        """Untimed pass: compiles .pyc files and gives the outputs every later pass must match."""
        self.reference = [self.spawn([*ENTRY, *job.argv]) for job in self.jobs]
        self.verdicts = [self.check(job, r.out, r.rc) for job, r in zip(self.jobs, self.reference)]
        self.instances = sum(n for n, _ in self.verdicts)
        for i, (job, (_, problems)) in enumerate(zip(self.jobs, self.verdicts)):
            if problems:
                err = self.reference[i].err.decode(errors="replace").strip()[-300:]
                print(f"check failed: {' '.join(job.argv)[:100]}: {problems[:3]} {err}",
                      file=sys.stderr)
        # self-test: a corrupted row of the first job of each kind must be caught
        self.self_test_ok = True
        for kind in sorted({job.kind for job in self.jobs}):
            i = next(i for i, job in enumerate(self.jobs) if job.kind == kind)
            bad = self.corrupt(self.reference[i].out)
            if not self.check(self.jobs[i], bad, 0)[1]:
                self.self_test_ok = False
                self.problems.append(f"self-test: corrupted {kind} output passed the checker")

    def _calibrate(self) -> float:
        run = self.spawn(CALIBRATE)
        if run.rc != 0:
            raise BenchError(f"calibration kernel failed: {run.err.decode(errors='replace')}")
        return run.seconds

    def run_plain(self) -> dict[str, float]:
        """Timed passes, each normalised by the calibration runs interleaved with its jobs."""
        cal = [self._calibrate()]
        setup, setup_ratio, walls, samples, rss = [], [], [], [], 0.0
        walls_cal, samples_cal = [], []
        for _ in range(self.passes):
            # set-up runs are spread over the run, like the passes, not bunched at its start
            for _ in range(SETUP_PER_PASS):
                ref = self.spawn(SETUP_REF)
                setup.append(self.spawn([*ENTRY, "version"]))
                if ref.rc != 0 or setup[-1].rc != 0 or not setup[-1].out.startswith(b"ccodes "):
                    raise BenchError("set-up run failed: "
                                     f"{(ref.err + setup[-1].err).decode(errors='replace')}")
                setup_ratio.append(setup[-1].seconds / ref.seconds)
            pass_cal, runs, since = [cal[-1]], [], 0.0
            for job in self.jobs:
                runs.append(self.spawn([*ENTRY, *job.argv]))
                since += runs[-1].seconds
                if since >= CAL_AFTER_S or len(runs) == len(self.jobs):
                    pass_cal.append(self._calibrate())
                    since = 0.0
            cal += pass_cal[1:]
            unit = statistics.fmean(pass_cal)  # the pass's calibration runs, both ends included
            walls.append(sum(r.seconds for r in runs))
            walls_cal.append(walls[-1] / unit)
            for i, r in enumerate(runs):
                self._judge(i, r.out, r.rc)
                samples.append(r.seconds)
                samples_cal.append(r.seconds / unit)
                rss = max(rss, r.rss_mb)
        self.samples, self.calibration = samples, cal
        self.tail_p, tail = tail_percentile(samples)
        wall, wall_cal = statistics.median(walls), statistics.median(walls_cal)
        return {
            "wall_cal": wall_cal,
            "instances_per_cal": self.instances / wall_cal,
            "job_cal.p50": statistics.median(samples_cal),
            "job_cal.tail": tail_percentile(samples_cal)[1],
            "peak_rss_mb": rss,
            "setup_s": SETUP_REF_S * statistics.median(setup_ratio),
            # raw seconds, printed and saved but not gated: they move with the machine's speed
            "wall_s": wall,
            "instances_per_s": self.instances / wall,
            "job_s.p50": statistics.median(samples),
            "job_s.tail": tail,
            "setup_raw_s": statistics.median(r.seconds for r in setup),
            "cal_s": statistics.median(cal),
        }

    def run_traced(self) -> dict[str, float]:
        import ccodes.cli as cli
        from tracer import Tracer, layer_metrics

        def one_pass(tracer=None):
            t0 = time.perf_counter()
            out_bytes = 0
            for i, job in enumerate(self.jobs):
                if tracer:
                    tracer.job = i
                out, rc = run_inprocess(cli, job.argv)
                self._judge(i, out, rc)
                out_bytes += len(out)
            return time.perf_counter() - t0, out_bytes

        # untraced and traced passes alternate, so warm-up effects hit neither side alone
        untraced, walls, per_pass = [], [], []
        for _ in range(TRACED_PASSES):
            untraced.append(one_pass()[0])
            tracer = Tracer()
            with tracer.installed():
                wall, out_bytes = one_pass(tracer)
            walls.append(wall)
            per_pass.append(dict(layer_metrics(tracer.spans), **{
                "cli.out_bytes": out_bytes, "cli.instances": self.instances}))
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass]
        self.counts_repeat = all(c == counts[0] for c in counts)
        if not self.counts_repeat:
            self.problems.append(f"counts differ between traced passes: {counts}")
        self.spans = tracer.spans
        probes = [self.spawn(PROBE) for _ in range(IMPORT_REPEATS)]
        metrics = {k: statistics.median(m[k] for m in per_pass) if k.endswith("_s") else v
                   for k, v in per_pass[0].items()}
        metrics["process.import_s"] = statistics.median(float(p.out.split()[0]) for p in probes)
        metrics["trace.overhead"] = statistics.median(walls) / statistics.median(untraced)
        return metrics

    def metadata(self) -> dict:
        probe = self.spawn(PROBE)
        _, optimize, path = probe.out.decode().split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"child imported ccodes from {path}, not from {SRC}")
        if int(optimize):
            raise BenchError("children run with -O; the benchmark measures the default mode")
        return {
            "workload": self.workload, "seed": self.seed, "trace": int(self.trace),
            "commit": _commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "mode": "default", "nproc": os.cpu_count(), "machine": platform.machine(),
            "jobs": len(self.jobs), "passes": self.passes if not self.trace else TRACED_PASSES,
            "run_seconds": self.seconds,
        }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict,
                 launcher: Launcher) -> dict:
    t0 = time.perf_counter()
    bench = Bench(workload, seed, seconds, trace, launcher)
    meta = bench.metadata()
    bench.warm_up()
    values = bench.run_traced() if trace else bench.run_plain()
    values["run_s"] = time.perf_counter() - t0
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    correct = bench.failed == 0 and bench.self_test_ok and bench.counts_repeat
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}

    ungated = {name: values[name] for name in RAW_UNITS if name in values}
    extra = {"fail_ratio": bench.failed / bench.attempted, "instances": bench.instances,
             "ungated": ungated}
    if not trace:
        extra.update(tail_percentile=bench.tail_p, job_seconds=bench.samples,
                     calibration_seconds=bench.calibration)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"meta": meta, **result, **extra, "problems": bench.problems}, indent=1) + "\n")
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for name, start, end, parent, job, _ in bench.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")

    print(f"# {json.dumps(meta)}")
    for problem in bench.problems:
        print(f"# problem: {problem}")
    for name, m in metrics.items():
        print(f"{workload:>13} {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name, value in ungated.items():
        print(f"{workload:>13} {name:<40} {value:>16.6g} {RAW_UNITS[name]} (not gated)")
    print(f"{workload:>13} {'fail_ratio':<40} {extra['fail_ratio']:>16.6g} "
          f"({bench.failed}/{bench.attempted} jobs)")
    if not trace:
        print(f"{workload:>13} job tails are p{bench.tail_p} of {len(bench.samples)} job latencies")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ccodes" / "__init__.py").is_file():
        print(f"bench: no ccodes sources under {SRC}", file=sys.stderr)
        return 2
    # started first, while this process is still small (see launch.py)
    launcher = Launcher(_child_env())
    try:
        if sys.flags.optimize:
            raise BenchError("run the benchmark without -O: it measures the default mode")
        sys.path.insert(0, str(SRC))
        import ccodes

        if not Path(ccodes.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported ccodes from {ccodes.__file__}, not from {SRC}")
        workloads = names if args.workload == "all" else [args.workload]
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec, launcher)
                   for w in workloads]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
    if len(results) > 1:  # one line for every workload, still a single JSON object
        results = [{
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()},
        }]
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
