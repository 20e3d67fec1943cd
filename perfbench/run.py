"""Closed-loop benchmark of the ``diagcx`` command line.

    python3 perfbench/run.py --workload forest-words --seed 1 --seconds 30 --trace 0

One client runs the workload's job list as ``python -m diagcx.cli ...``
processes, one after another, and repeats the list while the time budget
lasts.  Every output is checked by an independent route.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` spends half
the budget on untraced passes and half replaying the same jobs in-process
with every layer wrapped, and reports the per-layer metrics.
``--workload all`` runs every workload in turn.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a result
file with a run stamp (and, when traced, every span) to ``perfbench/.out``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import runner
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

SETUP_REPEATS = 5
# At least two passes, so one slow stretch of the machine does not make a run's figure.
MIN_PASSES = 2
MAX_TRACED_PASSES = 3
# Jobs still running this long after start are killed, so a run ends within 180 s.
RUN_LIMIT_S = 165.0


def stamp():
    """Python version, usable CPUs, CPU model, git commit and line count of src/."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        commit = head
    except OSError:
        pass
    lines = 0
    for directory, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    lines += handle.read().count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or "unknown",
        "commit": commit,
        "src_lines": lines,
    }


class Run:
    """One workload at one seed: set-up, untraced passes and, if asked, traced passes."""

    def __init__(self, name, seed, started):
        self.name, self.seed = name, seed
        self.deadline = started + RUN_LIMIT_S
        self.workdir = os.path.join(OUT, f"inputs-{name}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        self.results = []  # every JobResult of the run
        self.setup_s, self.startup_s = [], []

    def _timeout(self, job):
        return max(0.001, min(job.timeout_s, self.deadline - time.perf_counter()))

    def setup(self):
        """Generate the seeded inputs and make one untimed warm-up call, several times."""
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload = workloads.build(self.name, self.seed)
            workloads.write_inputs(self.workload, self.workdir)
            warm = self.spawner.run(workloads.WARMUP, self.workdir, workloads.WARMUP.timeout_s)
            self.setup_s.append(time.perf_counter() - start)
            self.startup_s.append(warm.wall_s)
            self.results.append(warm)

    def untraced_pass(self):
        results = [self.spawner.run(job, self.workdir, self._timeout(job)) for job in self.workload.jobs]
        self.results.extend(results)
        return {
            "wall_s": sum(r.wall_s for r in results),
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.max_rss_mb for r in results),
            "jobs": [vars(r) for r in results],
        }

    def traced_pass(self):
        tracer = tracing.Tracer()
        with tracer:
            results = [
                runner.run_in_process(job, self.workdir, self._timeout(job), tracer)
                for job in self.workload.jobs
            ]
        self.results.extend(results)
        layer = {f"{name}.self_s": value for name, value in tracing.self_times(tracer.spans).items()}
        layer.update(tracer.counters)
        layer["cli.self_s"] = layer.pop("cli.main.self_s", 0.0)
        layer["cli.output_bytes"] = sum(r.output_bytes for r in results)
        calls = tracer.counters.get("partitions.meet.calls", 0)
        layer["partitions.meet.useful_ratio"] = tracer.counters.get("complexes.new_objects", 0) / calls if calls else 0.0
        layer["trace.spans"] = len(tracer.spans)
        return {"wall_s": sum(r.wall_s for r in results), "layer": layer, "spans": tracer.spans}

    def repeat(self, one_pass, budget, most=None):
        """Run passes while the budget lasts; past MIN_PASSES, another starts only if half of one still fits."""
        passes, start = [], time.perf_counter()
        while True:
            passes.append(one_pass())
            elapsed = time.perf_counter() - start
            last = passes[-1]["wall_s"]
            spent = len(passes) >= MIN_PASSES and elapsed + last / 2 > budget
            if spent or len(passes) == most or time.perf_counter() + last > self.deadline:
                return passes

    def measure(self, seconds, trace):
        with runner.Spawner(self.env) as self.spawner:
            return self._measure(seconds, trace)

    def _measure(self, seconds, trace):
        self.setup()
        if not trace:
            self.passes = self.repeat(self.untraced_pass, seconds)
            self.traced = []
            return {
                "wall_s": statistics.median(p["wall_s"] for p in self.passes),
                "cpu_s": statistics.median(p["cpu_s"] for p in self.passes),
                "peak_rss_mb": max(p["peak_rss_mb"] for p in self.passes),
                "setup_s": statistics.median(self.setup_s),
            }
        self.passes = self.repeat(self.untraced_pass, seconds / 2)
        self.traced = self.repeat(self.traced_pass, seconds / 2, MAX_TRACED_PASSES)
        names = set().union(*(p["layer"] for p in self.traced))
        metrics = {
            name: statistics.median(p["layer"].get(name, 0) for p in self.traced) for name in names
        }
        metrics["cli.startup_s"] = statistics.median(self.startup_s)
        metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in self.traced) - statistics.median(
            p["wall_s"] for p in self.passes
        )
        return metrics

    def write(self, metrics, run_stamp):
        tag = f"{self.name}-seed{self.seed}-trace{int(bool(self.traced))}"
        record = {
            "workload": self.name,
            "seed": self.seed,
            "stamp": run_stamp,
            "metrics": metrics,
            "setup_s": self.setup_s,
            "passes": self.passes,
            "traced_passes": [{k: v for k, v in p.items() if k != "spans"} for p in self.traced],
        }
        with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        if self.traced:
            with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as handle:
                for number, p in enumerate(self.traced):
                    for index, span in enumerate(p["spans"]):
                        handle.write(json.dumps([number, index, *span]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "diagcx")):
        sys.stderr.write(f"perfbench: no diagcx sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    os.makedirs(OUT, exist_ok=True)
    run_stamp = stamp()
    print("stamp " + " ".join(f"{k}={v}" for k, v in run_stamp.items()))
    attempted = failed = 0
    reported = {}
    for name in names:
        run = Run(name, args.seed, time.perf_counter())
        try:
            measured = run.measure(args.seconds, args.trace)
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
        run.write(measured, run_stamp)
        for metric in listed:  # a layer the workload never reaches reports zero
            measured.setdefault(metric["name"], 0)
        bad = [r for r in run.results if not r.ok]
        attempted += len(run.results)
        failed += len(bad)
        print(f"{name} seed={args.seed} passes={len(run.passes)} traced_passes={len(run.traced)}")
        for metric in listed:
            print(f"  {metric['name']:<40} {measured[metric['name']]:.6g} {metric['unit']}")
        print(f"  {'fail_ratio':<40} {len(bad) / len(run.results):.6g} ratio ({len(bad)}/{len(run.results)} jobs)")
        for r in bad[:5]:
            print(f"  failed {r.job}: {r.error}")
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in listed:
            reported[prefix + metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
