import json

import jsonschema
import pytest

from diagcx import cli
from diagcx.complexes import COMPLEX_JSON_SCHEMA
from diagcx.forests import (
    DECOMPOSITION_JSON_SCHEMA,
    FOREST_JSON_SCHEMA,
    ORBIT_JSON_SCHEMA,
    build_gamma_Fn,
)
from diagcx.homology import HOMOLOGY_JSON_SCHEMA
from diagcx.series import SERIES_JSON_SCHEMA


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wh_free_example(capsys):
    code, out, _ = run_cli(capsys, ["series", "wh-free", "--n", "3"])
    assert code == 0
    assert out == "1 + 6t + 9t^2, chi = 4\n"


def test_forest_count(capsys):
    code, out, _ = run_cli(capsys, ["forests", "enumerate", "--n", "3", "--count-only"])
    assert code == 0
    assert out == "15\n"


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
