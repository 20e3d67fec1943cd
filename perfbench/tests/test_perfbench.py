"""Tests of the benchmark itself: checkers, failure counting, seeds and self-time arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import contextlib
import io
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import diagcx.cli  # noqa: E402
import diagcx.complexes  # noqa: E402
import diagcx.partitions  # noqa: E402
import pytest  # noqa: E402

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def cli_text(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert diagcx.cli.main(list(argv)) == 0
    return buffer.getvalue()


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, "a"),
        Span("child", 1.0, 4.0, 0, "a"),
        Span("leaf", 2.0, 3.0, 1, "a"),
        Span("child", 5.0, 9.0, 0, "a"),
        # Overlapping children of one span cover their union, not their sum.
        Span("root", 20.0, 30.0, None, "b"),
        Span("leaf", 21.0, 25.0, 4, "b"),
        Span("leaf", 23.0, 27.0, 4, "b"),
    ]
    totals = self_times(spans)
    assert totals["root"] == pytest.approx((10 - 3 - 4) + (10 - 6))
    assert totals["child"] == pytest.approx((3 - 1) + 4)
    assert totals["leaf"] == pytest.approx(1 + 4 + 4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_seed_gives_the_same_argv_and_bytes(name):
    first, second = workloads.build(name, 7), workloads.build(name, 7)
    assert [job.argv for job in first.jobs] == [job.argv for job in second.jobs]
    assert first.files == second.files


def test_seeds_change_the_inputs():
    assert workloads.build("complex-closure", 1).files != workloads.build("complex-closure", 2).files
    argvs = {tuple(job.argv for job in workloads.build("algebra", seed).jobs) for seed in range(6)}
    assert len(argvs) > 1


def fake_cli(code):
    return runner.Spawner(None, (sys.executable, "-c", code))


def test_corrupted_output_is_counted_as_a_failure(tmp_path):
    job = workloads.build("forest-words", 1).jobs[0]
    assert job.argv == ("forests", "enumerate", "--n", "7", "--count-only")
    with fake_cli("print(262143)") as spawner:
        good = spawner.run(job, str(tmp_path), 30.0)
    with fake_cli("print(262142)") as spawner:
        bad = spawner.run(job, str(tmp_path), 30.0)
    assert good.ok
    assert not bad.ok and "CheckError" in bad.error


def test_exit_code_and_timeout_are_failures(tmp_path):
    with fake_cli("raise SystemExit(3)") as spawner:
        crashed = spawner.run(workloads.WARMUP, str(tmp_path), 30.0)
    assert crashed.error == "exit code 3"
    with fake_cli("import time; time.sleep(30)") as spawner:
        hung = spawner.run(workloads.WARMUP, str(tmp_path), 0.5)
    assert hung.error == "timed out" and hung.wall_s < 10


def test_peak_rss_is_the_job_s_own(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])
    with fake_cli("print(262143)") as spawner:
        result = spawner.run(workloads.build("forest-words", 1).jobs[0], str(tmp_path), 30.0)
    assert result.ok and result.max_rss_mb < 100
    del ballast


@pytest.mark.parametrize(
    "argv, check, corrupt",
    [
        (("complex", "verify", "--n", "4"), workloads.check_complex_verify(4), ("2: pass", "2: FAIL (x)")),
        (("complex", "objects", "--n", "3"), workloads.check_complex_objects(3), ("objects: ", "objects: 1")),
        (("forests", "enumerate", "--n", "4"), workloads.check_forest_listing(4), ("-1", "-2")),
        (("series", "wh-zp", "--n", "3", "--p", "5", "--truncate", "7"), workloads.check_wh_zp(3, 5, 7), ("^", "^1")),
        (("series", "fr", "--n", "3", "--factors", "Z/3,circle,Z/2"), workloads.check_series_fr(("Z/3", "circle", "Z/2"), 8), ("Z/2", "Z/4")),
        (("orbits", "--n", "4", "--colors", "1,3"), workloads.check_orbits(4, (1, 3)), ("aut=", "aut=1")),
        (("homology", "torus", "--n", "3"), workloads.check_torus(3), ("6", "7")),
    ],
)
def test_checkers_accept_real_outputs_and_reject_corrupted_ones(argv, check, corrupt):
    out = cli_text(argv)
    check(out)
    with pytest.raises(workloads.CheckError):
        check(out.replace(*corrupt, 1))


def test_permuted_complex_file_keeps_the_answers(tmp_path):
    (tmp_path / "c.json").write_bytes(workloads.forest_complex_json(3, random.Random(5)))
    tracer = tracing.Tracer()
    for argv, check in (
        (("complex", "verify", "--file", "c.json"), workloads.check_complex_verify(3)),
        (("complex", "objects", "--file", "c.json"), workloads.check_complex_objects(3)),
    ):
        result = runner.run_in_process(workloads.Job("c", argv, check), str(tmp_path), 30.0, tracer)
        assert result.ok, result.error


def test_tracer_records_layers_and_restores_names(tmp_path):
    original = diagcx.partitions.meet
    tracer = tracing.Tracer()
    job = workloads.Job("objects", ("complex", "objects", "--n", "3"), workloads.check_complex_objects(3))
    with tracer:
        assert diagcx.complexes.meet is not original
        result = runner.run_in_process(job, str(tmp_path), 30.0, tracer)
    assert result.ok, result.error
    assert diagcx.complexes.meet is original and diagcx.partitions.meet is original
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "forests.build_gamma_Fn", "complexes.category_objects", "partitions.meet"} <= names
    assert all(span.job == "objects" for span in tracer.spans)
    assert tracer.counters["partitions.meet.calls"] == sum(s.name == "partitions.meet" for s in tracer.spans)
    root = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in root] == ["cli.main"]
