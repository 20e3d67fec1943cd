"""Run workload jobs in a closed loop with one client: each job starts when the previous one ends.

``Spawner`` starts one ``python -m diagcx.cli`` process per job and reads
its CPU time and peak RSS with ``os.wait4``.  ``run_in_process``
replays a job through ``diagcx.cli.main(argv)`` inside this process, which
is how the traced run sees every layer.  Both kill a job at its timeout and
count it as failed, like a non-zero exit or an output its checker rejects.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

CLI = (sys.executable, "-m", "diagcx.cli")


@dataclass
class JobResult:
    job: str
    wall_s: float
    cpu_s: float = 0.0
    max_rss_mb: float = 0.0
    output_bytes: int = 0
    error: str = ""  # empty when the job succeeded

    @property
    def ok(self):
        return not self.error


def _check(job, exit_code, timed_out, out):
    """The reason a job failed, or "" when it succeeded."""
    if timed_out:
        return "timed out"
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        job.check(out)
    except Exception as err:  # any checker error means a rejected output
        return f"{type(err).__name__}: {err}"
    return ""


def execute(argv, cwd, timeout_s):
    """Run one process group with stdout to ``cwd/.stdout``; kill the group at the timeout."""
    with open(os.path.join(cwd, ".stdout"), "wb") as out, open(os.path.join(cwd, ".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, start_new_session=True)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        # Wait without reaping, so the timer can never signal a recycled pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
        "timed_out": timed_out.is_set(),
    }


def serve():
    """The spawner's loop: one JSON request per line on stdin, one JSON reply per line on stdout."""
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(execute(**json.loads(line))), flush=True)


class Spawner:
    """A small process that starts every job and reports its wall time, CPU time and peak RSS.

    A child's ru_maxrss starts at its parent's RSS at fork time.  The
    benchmark process holds the checkers' caches, so jobs it forked itself
    would report that size as their own; this process stays small.
    """

    def __init__(self, env, command=CLI):
        self.command = tuple(command)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline() != "ready\n":
            raise RuntimeError("job spawner did not start")

    def run(self, job, cwd, timeout_s):
        request = {"argv": [*self.command, *job.argv], "cwd": cwd, "timeout_s": timeout_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(os.path.join(cwd, ".stdout"), "rb") as handle:
            data = handle.read()
        error = _check(job, reply["exit_code"], reply["timed_out"], data.decode("utf-8", "replace"))
        return JobResult(job.id, reply["wall_s"], reply["cpu_s"], reply["max_rss_mb"], len(data), error)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class JobTimeout(BaseException):
    """Raised by the alarm in an in-process job; a BaseException, so the CLI cannot catch it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_in_process(job, cwd, timeout_s, tracer):
    """Replay one job through ``diagcx.cli.main`` with stdout captured."""
    import diagcx.cli

    out, err = io.StringIO(), io.StringIO()
    previous_dir = os.getcwd()
    previous_handler = signal.signal(signal.SIGALRM, _alarm)
    tracer.job = job.id
    timed_out, exit_code = False, None
    os.chdir(cwd)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = diagcx.cli.main(list(job.argv))
    except JobTimeout:
        timed_out = True
    except SystemExit as stop:
        exit_code = stop.code
    except Exception as error:  # a traceback is a failed job, not a failed run
        exit_code = f"{type(error).__name__}: {error}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous_handler)
        os.chdir(previous_dir)
        tracer.job = None
    text = out.getvalue()
    error = _check(job, exit_code, timed_out, text)
    return JobResult(job.id, wall, output_bytes=len(text.encode("utf-8")), error=error)


if __name__ == "__main__":
    serve()
