"""Run job documents in one process through `orbifold_hkr.cli.main`.

Reads {"trace": bool, "jobs": [...]} as JSON on stdin and prints one JSON
object: the wall time of the job loop, each job's exit code and output, and
with tracing on the per-layer metrics of tracing.Tracer.  `run.py` starts it
twice per traced round, once with tracing off and once on, and takes the
difference of the two loop times as the tracing overhead.  The package must
be importable, e.g. with `src` on PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

from tracing import Tracer


def run_job(cli, job):
    """(exit code, stdout, stderr) of cli.main on one job document."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job["doc"]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([job["command"]])
    except SystemExit as e:
        code = e.code
    except Exception:  # a crash fails this job; the others still run
        code = "exception"
        err.write(traceback.format_exc())
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def run_jobs(jobs, tracer=None):
    """(loop seconds, [{"name", "exit", "stdout", "stderr"}]) for the jobs."""
    from orbifold_hkr import cli
    results = []
    start = perf_counter()
    for job in jobs:
        code, out, err = run_job(cli, job)
        results.append({"name": job["name"], "exit": code, "stdout": out,
                        "stderr": err})
        if tracer is not None:
            tracer.end_job()
    return perf_counter() - start, results


def main():
    request = json.load(sys.stdin)
    import orbifold_hkr.cli  # noqa: F401  every layer is loaded before wrapping
    if request["trace"]:
        with Tracer() as tracer:
            wall, results = run_jobs(request["jobs"], tracer)
        metrics = tracer.metrics()
    else:
        wall, results = run_jobs(request["jobs"])
        metrics = None
    json.dump({"wall_s": wall, "jobs": results, "metrics": metrics},
              sys.stdout)


if __name__ == "__main__":
    main()
