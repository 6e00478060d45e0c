"""Benchmark of the orbifold-hkr CLI, as users run it: one process per job.

    python3 perfbench/run.py --workload quotient-molien --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is run from `src` with no
install.  A run repeats whole rounds of the workload's jobs until --seconds
have passed, checks every output (checks.py) and prints one JSON object as
its last line of stdout: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 times each job as its own `python -m orbifold_hkr` process, with no
wrapper loaded, and reports the end-to-end metrics of BENCHMARK.json.  Before
the rounds it times SETUP_LAUNCHES launches of a trivial job; their median is
`setup_s`.

--trace 1 runs each round twice in one process per pass through
`orbifold_hkr.cli.main` (inprocess.py), once plain and once with the layer
wrappers of tracing.py, and reports the per-layer metrics of BENCHMARK.json.

Per-job details go to perfbench/results/.  Exits 2 without a result when the
program's source is not there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_output, check_same_tables
from workloads import SETUP_JOB, WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_LAUNCHES = 5
DEADLINE_S = 170  # a run must end within 180 s; jobs still running are killed


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(argv, stdin_text, timeout):
    """Run `python argv` to its end: wall seconds, peak RSS, exit, output."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer = threading.Timer(timeout, proc.kill)
    reader.start()
    killer.start()
    status = None
    try:
        try:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        if status is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "stdout": out, "stderr": err[0]}


def judge(jobs, records):
    """Check each record against its job; sets `errors` and drops the output."""
    reports = {}
    for job, rec in zip(jobs, records):
        report, rec["errors"] = check_output(job, rec["exit"], rec.pop("stdout"))
        if not rec["errors"]:
            reports[job["name"]] = report
        if rec["errors"] or rec["exit"] != 0:
            print("%s: %s\n%s" % (job["name"], "; ".join(rec["errors"]),
                                  rec.get("stderr", "")[-2000:]),
                  file=sys.stderr)
        rec.pop("stderr", None)
    for job, rec in zip(jobs, records):
        if "like" in job and job["name"] in reports and job["like"] in reports:
            rec["errors"] = check_same_tables(reports[job["name"]],
                                              reports[job["like"]])
    return records


class Run:
    def __init__(self, jobs, seconds):
        self.jobs = jobs
        self.seconds = seconds
        self.start = time.perf_counter()
        self.records = []

    def time_left(self):
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.start))

    def rounds(self, one_round):
        """Whole rounds until `seconds` have passed; one result per round."""
        out = []
        begin = time.perf_counter()
        while True:
            t = time.perf_counter()
            out.append(one_round())
            took = time.perf_counter() - t
            if (time.perf_counter() - begin >= self.seconds
                    or self.time_left() < 2 * took):
                return out

    def launch_jobs(self, jobs):
        records = []
        for job in jobs:
            rec = launch(["-m", "orbifold_hkr", job["command"]],
                         json.dumps(job["doc"]), self.time_left())
            rec["name"] = job["name"]
            print("%-24s %8.3f s %7.1f MB exit %s" % (
                job["name"], rec["wall_s"], rec["rss_mb"], rec["exit"]),
                file=sys.stderr)
            records.append(rec)
        self.records.extend(judge(jobs, records))
        return records

    def in_process(self, trace):
        request = json.dumps({"trace": trace, "jobs": self.jobs})
        rec = launch([str(HERE / "inprocess.py")], request, self.time_left())
        try:
            result = json.loads(rec["stdout"])
        except ValueError:
            sys.exit("in-process runner failed (exit %s):\n%s"
                     % (rec["exit"], rec["stderr"][-4000:]))
        for r in result["jobs"]:
            r["traced"] = trace
        self.records.extend(judge(self.jobs, result["jobs"]))
        return result

    def timed(self):
        setup = self.launch_jobs([SETUP_JOB] * SETUP_LAUNCHES)
        rounds = self.rounds(lambda: self.launch_jobs(self.jobs))
        return {
            "wall_s": statistics.median(sum(r["wall_s"] for r in rnd)
                                        for rnd in rounds),
            "slowest_job_s": statistics.median(max(r["wall_s"] for r in rnd)
                                               for rnd in rounds),
            "peak_rss_mb": max(r["rss_mb"] for rnd in rounds for r in rnd),
            "setup_s": statistics.median(r["wall_s"] for r in setup),
        }

    def traced(self):
        def one_round():
            plain = self.in_process(False)
            traced = self.in_process(True)
            metrics = traced["metrics"]
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            return metrics
        rounds = self.rounds(one_round)
        return {name: statistics.median(r[name] for r in rounds)
                for name in rounds[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "orbifold_hkr" / "cli.py").is_file() or not spec_path.is_file():
        print("no orbifold_hkr source under %s, or no BENCHMARK.json; run "
              "from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    run = Run(build(args.workload, args.seed), args.seconds)
    if args.trace:
        values, wanted = run.traced(), spec["per_layer"]
    else:
        values, wanted = run.timed(), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    failed = [r for r in run.records if r["errors"]]
    result = {
        "correct": not any(r["exit"] == 0 for r in failed),
        "attempted": len(run.records),
        "failed": len(failed),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    details = RESULTS / ("%s.seed%d.trace%d.json"
                         % (args.workload, args.seed, args.trace))
    details.write_text(json.dumps(dict(result, jobs=run.records), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
