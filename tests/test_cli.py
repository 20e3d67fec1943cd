import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

import diagcx
from conftest import canonical_json
from diagcx import cli, groups, homology
from diagcx.complexes import COMPLEX_JSON_SCHEMA
from diagcx.forests import (
    DECOMPOSITION_JSON_SCHEMA,
    FOREST_JSON_SCHEMA,
    ORBIT_JSON_SCHEMA,
    build_gamma_Fn,
)
from diagcx.homology import HOMOLOGY_JSON_SCHEMA
from diagcx.partitions import PARTITION_JSON_SCHEMA
from diagcx.present import PRESENTATION_JSON_SCHEMA
from diagcx.series import SERIES_JSON_SCHEMA
from golden.regenerate import copy_inputs, record, stderr_digest


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_CLI = pathlib.Path(__file__).parent / "golden" / "cli.json"


def test_golden_cli_corpus(capsys, monkeypatch, tmp_path):
    # regenerate with tests/golden/regenerate.py; a changed digest is a changed CLI output
    monkeypatch.delenv("DIAGCX_OUTPUT_DIR", raising=False)
    for index, entry in enumerate(json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))):
        directory = tmp_path / str(index)
        directory.mkdir()
        inputs = entry.get("inputs", [])
        copy_inputs(inputs, directory)
        monkeypatch.chdir(directory)
        try:
            code, out, err = run_cli(capsys, entry["argv"])
        except SystemExit as exc:
            code, captured = exc.code, capsys.readouterr()
            out, err = captured.out, captured.err
        assert record(entry["argv"], code, out, err, directory, inputs) == entry
        if code == 0 and entry["argv"][:2] == ["--format", "json"]:
            document = out or (directory / "out.txt").read_text(encoding="utf-8")  # the --output entries
            assert document == canonical_json(document), entry["argv"]


def test_wh_free_example(capsys):
    code, out, _ = run_cli(capsys, ["series", "wh-free", "--n", "3"])
    assert code == 0
    assert out == "1 + 6t + 9t^2, chi = 4\n"


def test_forest_count(capsys):
    code, out, _ = run_cli(capsys, ["forests", "enumerate", "--n", "3", "--count-only"])
    assert code == 0
    assert out == "15\n"


@pytest.mark.parametrize("include_empty", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_count_only_matches_the_listing(capsys, n, include_empty):
    # --count-only answers from the word count without decoding; the listings decode every word
    argv = ["forests", "enumerate", "--n", str(n)] + ["--include-empty"] * include_empty
    counts = []
    for head in ([], ["--format", "json"]):
        code, out, _ = run_cli(capsys, head + argv + ["--count-only"])
        assert code == 0
        counts.append(json.loads(out)["count"] if head else int(out))
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    listed = len(out.split())  # the empty listing is a lone newline
    code, out, _ = run_cli(capsys, ["--format", "json"] + argv)
    assert code == 0
    assert counts == [listed, listed] == [len(json.loads(out)["forests"])] * 2


PEAK_RSS = pathlib.Path(__file__).with_name("peak_rss.py")
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(diagcx.__file__))}


WIDE_ROWS = ["decomposition", "--n", "6", "--colors", "1,1,1,1,1,1", "--factors", ",".join(["Z/30030"] * 6),
             "--truncate", "79"]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as Linux counts it")
@pytest.mark.parametrize(
    "argv, limit",
    [
        # 4-5 MB of output; holding the listing and its text took 88.8 MiB as text and 111.2 MiB as JSON
        pytest.param(["--format", "text", "forests", "enumerate", "--n", "7"], 40, id="text"),
        pytest.param(["--format", "json", "forests", "enumerate", "--n", "7"], 40, id="json"),
        # 112 MB in 16806 rows of about 6.7 KB; 512-row chunks took 52.2 MiB, the whole text 258 MiB
        pytest.param(WIDE_ROWS, 45, id="wide-rows"),
    ],
)
def test_forest_listing_memory_follows_the_work(argv, limit):
    run = subprocess.run([sys.executable, str(PEAK_RSS), *argv], capture_output=True, text=True, env=SRC_ENV)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < limit


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as Linux counts it")
def test_forest_complex_is_held_as_bitmasks():
    # Gamma(F_6), 16806 simplices: 22.0 MiB as int masks; frozensets and element-tuple partitions took 34.1 MiB
    argv = ["complex", "verify", "--n", "6"]
    run = subprocess.run([sys.executable, str(PEAK_RSS), *argv], capture_output=True, text=True, env=SRC_ENV)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 28


def test_unbuffered_stdout_is_written_in_buffer_sized_pieces(monkeypatch):
    # python -u makes stdout write through; a listing would make one system call per line
    class Raw(io.BytesIO):
        writes = 0

        def write(self, data):
            Raw.writes += 1
            return super().write(data)

    stream = io.TextIOWrapper(Raw(), encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stream)
    assert cli.main(["forests", "enumerate", "--n", "5"]) == 0  # 1295 lines, 15.1 KB
    assert stream.write_through and Raw.writes <= 3
    assert stream.buffer.getvalue().decode().count("\n") == 1295


def test_checks_run_before_the_output_is_opened(tmp_path, capsys, monkeypatch):
    # the JSON summand guard of a streamed decomposition refuses with no file written
    monkeypatch.setattr(cli, "SUMMAND_GUARD", 0)
    target = tmp_path / "out.json"
    argv = ["--format", "json", "--output", str(target), "decomposition", "--n", "3", "--colors", "2,1",
            "--factors", "Z/2,circle"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, target.exists()) == (3, "", False)
    assert "torsion summands" in err


def _modules_loaded(*argvs):
    """The ``diagcx`` modules one fresh process loads to run the CLI on each argv in turn."""
    script = (
        "import contextlib, io, sys\n"
        "from diagcx import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(argvs)!r}]\n"
        "print(*codes)\n"
        "print(*sorted(name for name in sys.modules if name.startswith('diagcx.')))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV)
    assert run.returncode == 0, run.stderr
    codes, loaded = run.stdout.splitlines()
    assert codes.split() == ["0"] * len(argvs)
    return set(loaded.split())


def test_commands_import_only_the_modules_they_use():
    # a fresh checkout compiles each module it imports; series and nerve need no forests
    loaded = _modules_loaded(["series", "wh-zp", "--n", "3", "--p", "2"], ["homology", "nerve", "--group", "S3"])
    assert not {"diagcx.forests", "diagcx.present", "diagcx.cactus"} & loaded
    # a count is the number of Prüfer words
    assert "diagcx.forests" not in _modules_loaded(["forests", "enumerate", "--n", "4", "--count-only"])
    # listings, orbits and cactus coordinates build no complex
    loaded = _modules_loaded(
        ["forests", "enumerate", "--n", "3"],
        ["orbits", "--n", "3", "--colors", "2,1"],
        ["cactus", "coords", "--tree", "0,1,1", "--sizes", "2,2,2", "--labels", "0,1,1"],
    )
    assert "diagcx.forests" in loaded
    assert not {"diagcx.complexes", "diagcx.partitions"} & loaded


def test_importing_every_module_leaves_out_dataclasses_and_inspect():
    # records are named tuples; dataclasses, with the inspect, ast and dis it loads, cost every job about 7 ms.
    # Modules loaded before diagcx, such as those a site-packages .pth file imports, are not counted.
    script = (
        "import importlib, pathlib, sys\n"
        "before = set(sys.modules)\n"
        "import diagcx.cli\n"
        "paths = sorted(pathlib.Path(diagcx.cli.__file__).parent.glob('[!_]*.py'))\n"
        "modules = [importlib.import_module('diagcx.' + path.stem) for path in paths]\n"
        "print(len(modules), *sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["10"]


def test_orbit_rows(capsys):
    code, out, _ = run_cli(capsys, ["orbits", "--n", "3", "--colors", "2,1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orbits: 8"
    assert len(lines) == 9


def test_deterministic_output(capsys):
    argv = ["--format", "json", "complex", "verify", "--n", "3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    argv = ["decomposition", "--n", "3", "--colors", "2,1", "--factors", "circle,Z/2"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_worker_count_does_not_change_bytes(capsys):
    _, one, _ = run_cli(capsys, ["forests", "enumerate", "--n", "4", "--workers", "1"])
    _, two, _ = run_cli(capsys, ["forests", "enumerate", "--n", "4", "--workers", "3"])
    assert one == two


def test_json_outputs_validate_against_schemas(capsys):
    _, out, _ = run_cli(capsys, ["--format", "json", "forests", "enumerate", "--n", "3"])
    payload = json.loads(out)
    for forest in payload["forests"]:
        jsonschema.validate(forest, FOREST_JSON_SCHEMA)

    _, out, _ = run_cli(capsys, ["--format", "json", "series", "wh-zp", "--n", "2", "--p", "2", "--truncate", "6"])
    jsonschema.validate(json.loads(out)["series"], SERIES_JSON_SCHEMA)

    _, out, _ = run_cli(capsys, ["--format", "json", "series", "fr", "--n", "2", "--factors", "circle,circle"])
    jsonschema.validate(json.loads(out)["series"], SERIES_JSON_SCHEMA)

    _, out, _ = run_cli(capsys, ["--format", "json", "homology", "nerve", "--group", "V4", "--family", "klein", "--max-degree", "1"])
    jsonschema.validate(json.loads(out)["homology"], HOMOLOGY_JSON_SCHEMA)

    _, out, _ = run_cli(capsys, ["--format", "json", "orbits", "--n", "3", "--colors", "2,1"])
    for row in json.loads(out)["orbits"]:
        jsonschema.validate(row, ORBIT_JSON_SCHEMA)

    _, out, _ = run_cli(capsys, ["--format", "json", "decomposition", "--n", "2", "--colors", "2", "--factors", "Z/2"])
    jsonschema.validate(json.loads(out), DECOMPOSITION_JSON_SCHEMA)

    _, out, _ = run_cli(capsys, ["--format", "json", "present", "fr", "--n", "3", "--factors", "S3,Z/2,Z/3"])
    jsonschema.validate(json.loads(out), PRESENTATION_JSON_SCHEMA)

    _, out, _ = run_cli(capsys, ["--format", "json", "complex", "objects", "--n", "3"])
    objects = json.loads(out)["objects"]
    assert objects
    for part in objects:
        jsonschema.validate(part, PARTITION_JSON_SCHEMA)


def test_complex_json_file_roundtrip(tmp_path, capsys):
    fc = build_gamma_Fn(2)
    path = tmp_path / "complex.json"
    path.write_text(fc.complex.to_json(fc.labelling), encoding="utf-8")
    jsonschema.validate(json.loads(path.read_text()), COMPLEX_JSON_SCHEMA)
    code, out, _ = run_cli(capsys, ["complex", "verify", "--file", str(path)])
    assert code == 0
    assert "proper: yes" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "unknown-subcommand"])
    assert exc.value.code == 2
    # semantic misuse: wrong factor count
    code, _, err = run_cli(capsys, ["series", "fr", "--n", "3", "--factors", "circle"])
    assert code == 2
    assert "error" in err
    # out-of-range numbers: rejected by the parser or by the library, never a traceback
    for argv in (
        ["series", "wh-zp", "--n", "2", "--p", "6"],
        ["series", "wh-zp", "--n", "2", "--p", "4"],
        ["series", "wh-zp", "--n", "2", "--p", "3", "--truncate", "-1"],
        ["series", "fr", "--n", "2", "--factors", "circle,circle", "--truncate", "-1"],
        ["decomposition", "--n", "2", "--colors", "2", "--factors", "Z/2", "--truncate", "-1"],
        ["homology", "nerve", "--group", "S3", "--max-degree", "-1"],
        ["forests", "enumerate", "--n", "3", "--workers", "0"],
        ["forests", "enumerate", "--n", "3", "--workers", "-5"],
    ):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2, argv
        assert "error" in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "document",
    [
        {"ground": 2},
        [0, 1],
        {"ground": 1, "simplices": [[0]], "gamma": [[0]], "labels": [0]},
        {"ground": 2, "simplices": [[0], ["x"]], "gamma": {"0": [[0]]}},
        {"ground": 2, "simplices": [[0], [1], [0, 1]], "gamma": {"0": [[0]], "1": [[1]]}, "labels": [0, 1]},
        {"ground": 1, "simplices": [[0]], "gamma": {"0": [[0]]}, "labels": "0"},
    ],
)
def test_malformed_complex_file_exit_code(tmp_path, capsys, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for action in ("verify", "objects"):
        code, out, err = run_cli(capsys, ["complex", action, "--file", str(path)])
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    # json raises RecursionError past its nesting limit; both file readers report it as malformed input
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for argv, message in [
        (["complex", "verify", "--file", str(path)], "complex JSON nests too deeply"),
        (["homology", "nerve", "--group", f"@{path}"], "group table JSON nests too deeply"),
        (["present", "fr", "--n", "2", "--factors", f"@{path},Z/2"], "group table JSON nests too deeply"),
    ]:
        assert run_cli(capsys, argv) == (2, "", f"error: {message}\n"), argv


# the axiom checks then fail at once if they allocate per ground element, instead of growing by gigabytes
LIMITED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from diagcx import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("simplex, missing", [(0, 1), (10**11 - 1, 0)])
def test_a_huge_ground_is_not_scanned(tmp_path, simplex, missing):
    # one simplex on a ground of 10^12: the first missing singleton is among the first two
    path = tmp_path / "huge.json"
    document = {"ground": 10**12, "simplices": [[simplex]], "gamma": {str(simplex): [[simplex]]}}
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = [sys.executable, "-c", LIMITED_CLI, "complex", "verify", "--file", str(path)]
    run = subprocess.run(argv, capture_output=True, text=True, env=SRC_ENV, timeout=20)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "simplices: 1", f"axiom 1: FAIL (missing singleton {{{missing}}})", "axiom 2: pass", "axiom 3: pass",
        "proper: no",
    ]


def test_unsafe_large_lifts_the_int_digit_limit_for_the_run(capsys):
    # (n+1)^(n-1) - 1 at n=2000 has 6600 digits, past Python's default limit of 4300 for int-to-text
    limit = sys.get_int_max_str_digits()
    tail = str(pow(2001, 1999, 10**12) - 1)
    count = ["forests", "enumerate", "--n", "2000", "--count-only"]
    code, out, err = run_cli(capsys, count)
    assert (code, out) == (3, "") and "is 6600," in err
    code, out, _ = run_cli(capsys, ["--unsafe-large", *count])
    assert code == 0 and len(out) == 6600 + len("\n") and out.endswith(tail + "\n")
    code, out, _ = run_cli(capsys, ["--unsafe-large", "--format", "json", *count])
    assert code == 0 and out.startswith('{"count":') and out.endswith(tail + ',"n":2000}\n')
    assert len(out) == 6600 + len('{"count":,"n":2000}\n')
    code, out, _ = run_cli(capsys, ["--unsafe-large", "series", "wh-free", "--n", "2000"])
    assert code == 0 and len(out.split(", chi")[0].split(" + ")[-1]) == 6599 + len("t^1999")
    code, out, _ = run_cli(capsys, ["--unsafe-large", "series", "wh-zp", "--n", "3000", "--p", "2", "--truncate", "1000"])
    assert code == 0 and out.endswith(" t^1000\n")
    assert sys.get_int_max_str_digits() == limit == 4300


def test_resource_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, ["forests", "enumerate", "--n", "12"])
    assert code == 3
    assert "guard" in err
    code, _, err = run_cli(capsys, ["complex", "objects", "--n", "5"])
    assert code == 3
    # the flag lifts the limit
    cli._check_guard(5, 4, True, "meet closure")
    with pytest.raises(cli.GuardError):
        cli._check_guard(5, 4, False, "meet closure")


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, ["--output", str(target), "series", "wh-free", "--n", "2"])
    assert code == 0 and out == ""
    assert target.read_text() == "1 + 2t, chi = -1\n"
    monkeypatch.setenv("DIAGCX_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, ["--output", "relative.txt", "series", "wh-free", "--n", "2"])
    assert code == 0
    assert (tmp_path / "relative.txt").read_text() == "1 + 2t, chi = -1\n"


def test_dump_files_are_written_in_the_output_dir(tmp_path, capsys, monkeypatch):
    # --output and --dump follow one path rule: relative paths are taken in DIAGCX_OUTPUT_DIR
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("DIAGCX_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, ["--output", "betti.txt", "homology", "torus", "--n", "3", "--dump", "model"])
    assert (code, out) == (0, "")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "betti.txt", "cwd", "model.deg1.txt", "model.deg2.txt"
    ]
    assert (tmp_path / "betti.txt").read_text() == "1 6 9\n"
    assert not any((tmp_path / "cwd").iterdir())


def test_present_verify_with_literal_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["present", "verify", "--n", "2", "--factors", "S3,S3", "--literal-rel3"],
    )
    assert code == 0
    assert "all passed: yes" in out
    assert "FAIL" in out  # the literal instances fail and are surfaced


def test_present_verify_dc_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        ["present", "verify", "--n", "3", "--factors", "Z/2,Z/2,Z/2", "--dc"],
    )
    assert code == 0
    assert "all passed: yes" in out
    assert "diagonal" in out


def test_complex_objects_from_file(tmp_path, capsys):
    from conftest import example_t_complex, example_t_labelling

    complex_ = example_t_complex()
    path = tmp_path / "t.json"
    path.write_text(complex_.to_json(example_t_labelling(complex_)), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["complex", "objects", "--file", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "objects: 6"


def test_complex_verify_reads_a_file_without_labels(tmp_path, capsys):
    # to_json without a labelling writes "labels": null; only objects reads the labels
    from conftest import example_t_complex, example_t_labelling

    complex_ = example_t_complex()
    labelled, unlabelled = tmp_path / "labelled.json", tmp_path / "unlabelled.json"
    labelled.write_text(complex_.to_json(example_t_labelling(complex_)), encoding="utf-8")
    unlabelled.write_text(complex_.to_json(), encoding="utf-8")
    assert json.loads(unlabelled.read_text())["labels"] is None
    for fmt in ("text", "json"):
        expected = run_cli(capsys, ["--format", fmt, "complex", "verify", "--file", str(labelled)])
        assert expected[0] == 0
        assert run_cli(capsys, ["--format", fmt, "complex", "verify", "--file", str(unlabelled)]) == expected
    assert run_cli(capsys, ["complex", "objects", "--file", str(unlabelled)]) == (
        2, "", "error: complex file carries no labels\n"
    )


def test_many_block_simplex_stops_at_its_first_missing_face(tmp_path, capsys):
    # one simplex with 30 singleton blocks: 2^30 block sets, of which axiom 3
    # must meet only the first missing face
    n = 30
    whole = ",".join(map(str, range(n)))
    gamma = {str(x): [[x]] for x in range(n)}
    gamma[whole] = [[x] for x in range(n)]
    document = {
        "ground": n,
        "simplices": [[x] for x in range(n)] + [list(range(n))],
        "gamma": gamma,
        "labels": [0] * n,
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    witness = f"face 0,1 of {whole} missing"
    code, out, _ = run_cli(capsys, ["complex", "verify", "--file", str(path)])
    assert code == 0
    assert f"axiom 3: FAIL ({witness})" in out.splitlines()
    code, out, err = run_cli(capsys, ["complex", "objects", "--file", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: invalid diagonal complex: {witness}\n"


def test_cactus_coords_render(capsys):
    code, out, _ = run_cli(
        capsys,
        ["cactus", "coords", "--tree", "0,1,1", "--sizes", "2,2,2", "--labels", "0,1,1"],
    )
    assert code == 0
    assert out.splitlines()[0] == "- 1 1"


def test_series_fr_single_factor(capsys):
    code, out, _ = run_cli(capsys, ["series", "fr", "--n", "1", "--factors", "circle"])
    assert code == 0
    assert out == "1\n"


def test_series_fr_checks_n_and_every_factor(capsys):
    for argv, message in (
        (["--n", "1", "--factors", "bogus"], "error: unknown series factor 'bogus'; use circle or Z/m\n"),
        (["--n", "2", "--factors", "circle,bogus"], "error: unknown series factor 'bogus'; use circle or Z/m\n"),
        (["--n", "1", "--factors", "Z/1"], "error: m must be at least 2\n"),
        (["--n", "2", "--factors", "Z/1,circle"], "error: m must be at least 2\n"),
        (["--n", "7", "--factors", ",".join(["circle"] * 7)], "error: n must be between 1 and 6\n"),
    ):
        assert run_cli(capsys, ["series", "fr"] + argv) == (2, "", message), argv


def test_homology_torus_command(capsys):
    code, out, _ = run_cli(capsys, ["homology", "torus", "--n", "3"])
    assert code == 0
    assert out == "1 6 9\n"


def test_homology_torus_dump(tmp_path, capsys):
    stem = str(tmp_path / "model")
    code, _, _ = run_cli(capsys, ["homology", "torus", "--n", "2", "--dump", stem])
    assert code == 0
    lines = (tmp_path / "model.deg1.txt").read_text().splitlines()
    # two generator rows, one entry each
    assert len(lines) == 2
    assert all(len(line.split()) == 3 for line in lines)


def test_homology_torus_dump_builds_each_matrix_once(tmp_path, capsys, monkeypatch):
    built = []
    original = homology.torus_model_generators

    def counting(complex_, degree):
        built.append(degree)
        return original(complex_, degree)

    monkeypatch.setattr(homology, "torus_model_generators", counting)
    stem = str(tmp_path / "model")
    code, out, _ = run_cli(capsys, ["homology", "torus", "--n", "4", "--dump", stem])
    assert (code, out, built) == (0, "1 12 48 64\n", [1, 2, 3])
    digests = [hashlib.sha256((tmp_path / f"model.deg{d}.txt").read_bytes()).hexdigest() for d in (1, 2, 3)]
    assert digests == [
        "df3f3a5184ee71a48817307f68b2ca8b041c39fdf9384448b413d0a6f384236e",
        "6ffca654d3c45cede171dc030b66739830ecc8459c645dac41c4c7a36343ed83",
        "55b65f0ef2f1d3fbf342ce9c54cedbbb1a83c3a9d38d6d585ccd88a21d3c62dc",
    ]


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        (
            ["present", "export", "--n", "3", "--factors", "Z/2,Z/3,S3"],
            4528,
            "cda6e63e5abcfbc678514489c149b62d8094c972bfa44cc91a93bec281f854ae",
        ),
        (
            ["--format", "json", "present", "fr", "--n", "3", "--factors", "Q8,Z/2,Z/3"],
            20497,
            "7d3286447cf1bc6f1aab34404fc0fbebd15fd38995dd1b442beee98865f8adc7",
        ),
        (
            ["--format", "json", "present", "verify", "--n", "3", "--factors", "S3,Z/6,Z/2xZ/3", "--dc", "--literal-rel3"],
            71148,
            "27ef55c66da3a90f5b04d961148437e3cacac5851576035e640bb96af49798d1",
        ),
    ],
)
def test_presentation_outputs_golden(capsys, argv, size, digest):
    # the relation builders spell every word; these pin the bytes they print
    code, out, _ = run_cli(capsys, argv)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, size, digest)


def test_wh_zp_json_torsion_matches_text_counts(capsys):
    argv = ["series", "wh-zp", "--n", "3", "--p", "2"]
    _, text, _ = run_cli(capsys, argv)
    _, doc, _ = run_cli(capsys, ["--format", "json"] + argv)
    # the text reads "1 + (Z/2)^6 t + (Z/2)^9 t^2 + ...": one count per degree from 1
    text_counts = [0] + [int(c) for c in re.findall(r"\(Z/2\)\^(\d+) t", text)]
    json_counts = [len(coeff["torsion"]) for coeff in json.loads(doc)["series"]]
    assert json_counts == text_counts
    assert len(json_counts) == 13 and json_counts[1] == 6


@pytest.mark.parametrize(
    "argv, predicted",
    [
        (["series", "wh-free", "--n", "1372"], "is 4302,"),
        (["series", "wh-free", "--n", "10000"], "is 39997,"),
        (["present", "fr", "--n", "2", "--factors", "Z/100000,Z/2"], "is 100000,"),
        (["homology", "nerve", "--group", "Z/5xZ/5"], "is 25,"),
        (["present", "verify", "--n", "3", "--factors", "S4,S4,S4"], "is 2399544,"),
        (["homology", "nerve", "--group", "Z/2xZ/2xZ/2xZ/2"], "is 32093,"),
        (["forests", "enumerate", "--n", "9"],
         "n is 9 (100000000 Prufer words), above the limit 8 (4782969 Prufer words);"),
        (["forests", "enumerate", "--n", "100"], "n is 100 (more than 10^99 Prufer words),"),
        (["orbits", "--n", "7", "--colors", "7"], "n is 7 (262144 Prufer words),"),
        (["complex", "verify", "--n", "7"],
         "n is 7 (262143 simplices), above the limit 6 (16806 simplices);"),
        (["complex", "objects", "--n", "5"], "n is 5 (1295 simplices), above the limit 4 (124 simplices);"),
        (["homology", "torus", "--n", "6"], "n is 6 (16806 simplices),"),
        (["series", "fr", "--n", "6", "--factors", ",".join(["circle"] * 6), "--truncate", "866"],
         "coefficient pairs in series products is 3006756, above the limit 3000000;"),
        (["decomposition", "--n", "3", "--colors", "1,1,1", "--factors", "Z/2,Z/2,Z/2", "--truncate", "577"],
         "coefficient pairs in series products is 3006756,"),
        (["cactus", "coords", "--tree", "0" + ",1" * 2000, "--sizes", "2" + ",2" * 2000, "--labels", "0" + ",1" * 2000],
         "coordinate matrix cells (2001 x 2001) is 4004001, above the limit 4000000;"),
        (["forests", "enumerate", "--n", "1372", "--count-only"],
         "digits of (n+1)^(n-1) at n=1372 is 4302, above the limit 4300;"),
    ],
)
def test_size_guards_state_the_predicted_size(capsys, argv, predicted):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("resource guard: ") and predicted in err


def test_present_verify_refusal_names_both_factors(capsys):
    # 51 letters; 18972 conjugations in relations and 4 x 6 x 34^2 in literal instances
    argv = ["present", "verify", "--n", "3", "--factors", "Z/18,Z/18,Z/18", "--literal-rel3"]
    code, _, err = run_cli(capsys, argv)
    assert code == 3 and "(51 letters x 46716 partial conjugations) is 2382516," in err


def test_present_verify_guard_skips_literal_letters_with_a_trivial_target(capsys):
    # 33 letters; a literal letter whose target is Z/1 composes nothing (four per instance would give 41316)
    argv = ["present", "verify", "--n", "4", "--factors", "Z/1,Z/12,Z/12,Z/12", "--literal-rel3"]
    code, _, err = run_cli(capsys, argv)
    assert code == 3 and "(33 letters x 32604 partial conjugations) is 1075932," in err


def test_size_guards_pass_the_largest_allowed_inputs(capsys):
    code, out, _ = run_cli(capsys, ["series", "wh-free", "--n", "1371"])
    assert code == 0 and len(out.split(", chi")[0].split(" + ")[-1]) == 4298 + len("t^1370")
    code, out, _ = run_cli(capsys, ["forests", "enumerate", "--n", "1371", "--count-only"])
    assert code == 0 and len(out) == 4299 + len("\n")
    code, out, _ = run_cli(capsys, ["present", "fr", "--n", "2", "--factors", "S4,Q8"])
    assert code == 0 and out.startswith("generators: 30\n")
    code, out, _ = run_cli(capsys, ["present", "verify", "--n", "2", "--factors", "S4,Q8"])
    assert code == 0 and out.endswith("all passed: yes\n")
    code, out, _ = run_cli(capsys, ["homology", "nerve", "--group", "Z/2xZ/2xZ/2"])
    assert code == 0
    assert out.splitlines()[1:] == ["H_0: free=1 torsion=-"] + [f"H_{k}: free=0 torsion=-" for k in (1, 2, 3)]
    code, out, _ = run_cli(capsys, ["homology", "nerve", "--group", "S4", "--family", "all"])
    assert code == 0
    assert out.splitlines() == ["cosets: 234", "H_0: free=1 torsion=-"] + [f"H_{k}: free=0 torsion=-" for k in (1, 2, 3)]
    code, out, _ = run_cli(capsys, ["homology", "torus", "--n", "5"])
    assert code == 0 and out == "1 20 150 500 625\n"
    # the wedge series to the fifth power: 4 products x 866^2 coefficient pairs
    circles = ",".join(["circle"] * 6)
    code, out, _ = run_cli(capsys, ["series", "fr", "--n", "6", "--factors", circles, "--truncate", "865"])
    assert code == 0 and out == "1 + 30t + 360t^2 + 2160t^3 + 6480t^4 + 7776t^5\n"
    # a star on 2000 vertices: 2000 x 2000 coordinate cells
    star = ["--tree", "0" + ",1" * 1999, "--sizes", "2" + ",2" * 1999, "--labels", "0" + ",1" * 1999]
    code, out, _ = run_cli(capsys, ["cactus", "coords", *star])
    assert code == 0 and len(out.splitlines()) == 2000 and out.startswith("- 1 1 ")


def test_complex_files_are_refused_above_the_n_guards(tmp_path, capsys):
    fc = build_gamma_Fn(5)
    path = tmp_path / "gamma5.json"
    path.write_text(fc.complex.to_json(fc.labelling), encoding="utf-8")
    code, out, err = run_cli(capsys, ["complex", "objects", "--file", str(path)])
    assert code == 3 and out == ""
    assert err == f"resource guard: simplex count of {path} is 1295, above the limit 124; pass --unsafe-large to override\n"
    code, out, _ = run_cli(capsys, ["complex", "verify", "--file", str(path)])
    assert code == 0 and out.startswith("simplices: 1295\n")


def test_group_table_files_are_checked_before_validation(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps([[(a + b) % 30 for b in range(30)] for a in range(30)]), encoding="utf-8")
    code, _, err = run_cli(capsys, ["homology", "nerve", "--group", f"@{big}"])
    assert code == 3 and "is 30," in err
    for document in (5, [1, 2], [["a"]], {"rows": []}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        code, _, err = run_cli(capsys, ["homology", "nerve", "--group", f"@{bad}"])
        assert code == 2 and err.startswith("error: "), document


def test_group_table_files_are_read_once(tmp_path, monkeypatch):
    # the order the guard checks and the table the group is built from come from one read
    table = tmp_path / "z3.json"
    table.write_text(json.dumps([[(a + b) % 3 for b in range(3)] for a in range(3)]), encoding="utf-8")
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(groups, "open", counting_open, raising=False)
    args = cli.build_parser().parse_args(["homology", "nerve", "--group", f"@{table}"])
    assert cli._group(args, args.group).order == 3
    assert opened == [str(table)]


def test_group_table_entries_must_be_json_integers(tmp_path, capsys):
    # JSON false and true would pass an isinstance(entry, int) check and run as Z/2
    table = tmp_path / "t.json"
    table.write_text(json.dumps([[False, True], [True, False]]), encoding="utf-8")
    for argv in (["homology", "nerve", "--group", f"@{table}"], ["present", "fr", "--n", "2", "--factors", f"@{table},Z/2"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", "error: table entries must be element indices\n"), argv
