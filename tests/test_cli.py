import json
import os
import subprocess
import sys

import pytest

from spencerlab.cli import main
from spencerlab.complexes import GradedComplex

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def scene_path(name):
    return os.path.join(SCENES, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_milnor_output(capsys):
    code, out = run_cli(capsys, "milnor", scene_path("cusp.scene"))
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == 2 and payload["tau"] == 2
    assert payload["basis"] == ["1", "x"]


def test_derham_table(capsys):
    code, out = run_cli(
        capsys, "derham", scene_path("a2.scene"), "--degree-bound", "8"
    )
    payload = json.loads(out)
    assert payload["tables"]["0"] == {"0": 1}
    assert payload["tables"]["1"] == {}
    assert payload["tables"]["2"] == {}


def test_smooth_on_empty_ideal(capsys):
    code, out = run_cli(capsys, "smooth", scene_path("a1.scene"))
    assert code == 0
    assert json.loads(out)["smooth"] is True


def test_determinism_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, "derham", scene_path("cusp.scene"), "--degree-bound", "10"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_jet_command(capsys):
    code, out = run_cli(
        capsys, "jet", scene_path("cusp.scene"), "--r", "1", "--degree-bound", "10"
    )
    payload = json.loads(out)
    assert payload["r"] == 1
    assert payload["tables"]["1"] == {}


def test_koszul_command(capsys):
    code, out = run_cli(
        capsys, "koszul", scene_path("a2.scene"), "--elements", "x", "y",
        "--degree-bound", "6",
    )
    payload = json.loads(out)
    assert payload["tables"]["0"] == {"0": 1}


def test_kashiwara_command(capsys):
    code, out = run_cli(
        capsys, "kashiwara", scene_path("hyperplane.scene"), "--p", "1",
        "--degree-bound", "3",
    )
    payload = json.loads(out)["kashiwara"]
    assert payload["pieces"]["0"] == ["1", "y*d_y", "y*d_x"]


def test_euler_certify_command(capsys):
    code, out = run_cli(
        capsys, "euler-certify", scene_path("e6.scene"), "--complex", "jet1",
        "--degree-bound", "12",
    )
    payload = json.loads(out)
    assert payload["cartan"]["passed"] is True
    assert payload["certificate"]["valid"] is True


def test_complete_command(capsys):
    code, out = run_cli(
        capsys, "complete", scene_path("cusp.scene"), "--r-max", "4",
        "--degree-bound", "10",
    )
    payload = json.loads(out)["limits"]
    assert payload["entries"]["0"]["0"]["lim"] == 1


def test_complete_along_a_scene_file_uses_its_ideal(capsys):
    # a2 completed along node's ideal builds the same tower as node along self
    opts = ("--r-max", "4", "--degree-bound", "5")
    code, along = run_cli(
        capsys, "complete", scene_path("a2.scene"), "--along", scene_path("node.scene"), *opts
    )
    assert code == 0
    code, own = run_cli(capsys, "complete", scene_path("node.scene"), *opts)
    assert code == 0
    assert json.loads(along)["limits"] == json.loads(own)["limits"]


@pytest.mark.parametrize(
    ("complex_", "scene"), [("derham", "quadric_cone.scene"), ("jet1", "cusp.scene")]
)
def test_euler_certify_checks_dd_zero(monkeypatch, capsys, complex_, scene):
    calls = []
    check = GradedComplex.check_dd_zero

    def spy(self, i, d):
        calls.append((i, d))
        return check(self, i, d)

    monkeypatch.setattr(GradedComplex, "check_dd_zero", spy)
    code, _out = run_cli(
        capsys, "euler-certify", scene_path(scene), "--complex", complex_,
        "--degree-bound", "6",
    )
    assert code == 0
    assert calls


NO_VARIABLES = "[ring]\nvariables =\nweights =\n\n[ideal]\n"


@pytest.mark.parametrize(
    ("argv", "ideal"),
    [
        (["filtered-spencer", "--p", "1"], ""),
        (["spencer-h0"], ""),
        (["derham"], ""),
        (["kashiwara", "--p", "1"], "1\n"),
        (["smooth"], "1\n"),
    ],
    ids=["filtered-spencer", "spencer-h0", "derham", "kashiwara", "smooth"],
)
def test_scene_without_variables_exits_1(tmp_path, capsys, argv, ideal):
    # written to tmp_path: tests/test_corpus.py runs every file in scenes/
    path = tmp_path / "empty.scene"
    path.write_text(NO_VARIABLES + ideal)
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}: a ring needs at least one variable\n"


@pytest.mark.parametrize(
    ("ring", "ideal", "message"),
    [
        ("variables = x, y\nweights = 0, 1\n", "",
         "weights must be positive integers, got 0"),
        ("variables = x, y\nweights = 1, 2\n", "x + y\n",
         "generator y + x is not weighted-homogeneous for weights (1, 2)"),
        ("variables = x, x\nweights = 1, 1\n", "", "variable names must be distinct"),
    ],
    ids=["zero-weight", "inhomogeneous", "repeated-variable"],
)
def test_invalid_scene_error_names_the_file(tmp_path, capsys, ring, ideal, message):
    # written to tmp_path: tests/test_corpus.py runs every file in scenes/;
    # an empty variable list is test_scene_without_variables_exits_1
    path = tmp_path / "bad.scene"
    path.write_text(f"[ring]\n{ring}\n[ideal]\n{ideal}")
    code = main(["derham", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_missing_scene_is_input_error(capsys):
    code = main(["milnor", "definitely-not-here.scene"])
    assert code == 1


def test_bad_scene_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text("[ring]\nvariables = x\nweights = 0\n")
    assert main(["smooth", str(bad)]) == 1


def test_scene_file_options_section_is_an_input_error(tmp_path, capsys):
    # settings are command-line options; a scene file cannot set them
    path = tmp_path / "options.scene"
    path.write_text("[ring]\nvariables = x\nweights = 1\n\n[options]\ndegree-bound = 4\n")
    code = main(["derham", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path}:5: unknown section [options]\n"


def test_milnor_requires_hypersurface(capsys):
    assert main(["milnor", scene_path("a2.scene")]) == 1


def test_spencer_on_singular_scene_is_input_error(capsys):
    assert main(["spencer", scene_path("cusp.scene"), "--module", "O"]) == 1


def test_spencer_command_on_plane(capsys):
    code, out = run_cli(
        capsys, "spencer", scene_path("a2.scene"), "--module", "O",
        "--degree-bound", "6",
    )
    assert code == 0
    assert json.loads(out)["tables"]["0"] == {"0": 1}


def test_budget_env_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPENCERLAB_BUDGET", "0")
    hard = tmp_path / "hard.scene"
    hard.write_text(
        "[ring]\nvariables = x, y\nweights = 3, 2\n[ideal]\nx^2 + y^3\n"
    )
    assert main(["milnor", str(hard)]) == 2


def test_table_format(capsys):
    code, out = run_cli(
        capsys, "milnor", scene_path("cusp.scene"), "--format", "table"
    )
    assert code == 0
    assert "mu\t2" in out


WRAPPER_SCHEMA = {
    "type": "object",
    "required": ["command", "scene", "degree_bound"],
    "properties": {
        "command": {"type": "string"},
        "degree_bound": {"type": "integer"},
        "scene": {
            "type": "object",
            "required": ["variables", "weights", "ideal"],
            "properties": {
                "variables": {"type": "array", "items": {"type": "string"}},
                "weights": {"type": "array", "items": {"type": "integer"}},
                "ideal": {"type": "array", "items": {"type": "string"}},
            },
        },
        "tables": {
            "type": "object",
            "patternProperties": {
                r"^-?\d+$": {
                    "type": "object",
                    "patternProperties": {r"^-?\d+$": {"type": "integer"}},
                    "additionalProperties": False,
                }
            },
            "additionalProperties": False,
        },
    },
}


def test_emitted_json_validates_against_schema(capsys):
    import jsonschema

    for argv in (
        ["derham", scene_path("cusp.scene")],
        ["jet", scene_path("e6.scene"), "--r", "1"],
        ["koszul", scene_path("a2.scene"), "--elements", "x", "y"],
        ["filtered-spencer", scene_path("a1.scene"), "--p", "2"],
        ["milnor", scene_path("node.scene")],
        ["euler-certify", scene_path("cusp.scene"), "--degree-bound", "6"],
        ["complete", scene_path("cusp.scene"), "--r-max", "3", "--degree-bound", "6"],
    ):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, WRAPPER_SCHEMA)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spencerlab.cli", "smooth", scene_path("node.scene")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["smooth"] is False


def test_determinism_across_processes_and_hash_seeds():
    # byte-identical output under different PYTHONHASHSEED values
    for argv in (
        ["milnor", scene_path("e6.scene")],
        ["derham", scene_path("cusp.scene"), "--degree-bound", "10"],
        ["euler-certify", scene_path("cusp.scene"), "--degree-bound", "8"],
    ):
        outs = []
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "spencerlab.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


BAD_INPUTS = [
    ("complete", "cusp.scene", "--r-max", "0"),
    ("complete", "cusp.scene", "--r-max", "-2"),
    ("derived-complete", "cusp.scene", "--r-max", "0"),
    ("independence", "cusp.scene", "--extended-scene", "cusp_a3.scene", "--r-max", "0"),
    ("euler-certify", "a2.scene", "--complex", "jetx"),
    ("euler-certify", "a2.scene", "--complex", "jet"),
    ("euler-certify", "a2.scene", "--complex", "jet3"),
    ("filtered-spencer", "a2.scene", "--n", "0", "--p", "1"),
    ("filtered-spencer", "a2.scene", "--n", "-1", "--p", "1"),
    ("filtered-spencer", "a2.scene", "--p", "0"),
    ("kashiwara", "cusp.scene", "--p", "-1"),
    ("derham", "missing.scene"),
    ("complete", "a2.scene", "--along", "cusp.scene"),
    # usage errors: argparse's own exit 2 is reserved for an exhausted budget
    ("foo", "cusp.scene"),
    ("jet", "cusp.scene", "--r", "3"),
    ("spencer", "a2.scene", "--module", "omega2"),
    ("koszul", "cusp.scene"),
    ("independence", "cusp.scene"),
    ("derham", "cusp.scene", "--bogus"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_input_errors_exit_1_without_traceback(argv):
    argv = [scene_path(a) if a.endswith(".scene") else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "spencerlab.cli", *argv, "--degree-bound", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["derham", "complete"])
def test_negative_degree_bound_exits_1(capsys, command):
    # kept out of BAD_INPUTS, whose runner appends a valid --degree-bound
    code = main([command, scene_path("cusp.scene"), "--degree-bound", "-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --degree-bound must be at least 0, got -3\n"
    # 0 stays a valid bound
    assert main([command, scene_path("cusp.scene"), "--degree-bound", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["degree_bound"] == 0


def test_non_integer_degree_bound_exits_1(capsys):
    # kept out of BAD_INPUTS, whose runner appends a valid --degree-bound
    code = main(["derham", scene_path("cusp.scene"), "--degree-bound", "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: argument --degree-bound: invalid int value: 'x'\n"


def test_no_arguments_exits_1_in_one_line():
    proc = subprocess.run(
        [sys.executable, "-m", "spencerlab.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: the following arguments are required: command\n"


@pytest.mark.parametrize("argv", [["--help"], ["derham", "--help"]], ids=" ".join)
def test_help_exits_0(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "spencerlab.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: spencerlab")
    assert proc.stderr == ""


SCENE_FILE_ERRORS = {
    "not-utf8": (b"\xff\xfe[ring]\n", "cannot read scene file "),
    "second-ring": (
        b"[ring]\nvariables = x, y\nweights = 1, 1\n[ring]\nvariables = z\n",
        ":4: repeated section [ring]",
    ),
    "second-ideal": (
        b"[ring]\nvariables = x, y\nweights = 1, 1\n[ideal]\nx\n\n[IDEAL]\ny\n",
        ":7: repeated section [ideal]",
    ),
    "repeated-key": (
        b"[ring]\nvariables = x, y\nweights = 1, 1\nVariables = z\n",
        ":4: repeated key 'Variables' in [ring]",
    ),
    "unknown-key": (
        b"[ring]\nvariables = x\nweights = 1\nweigths = 5\nideal = x\n",
        ":4: unknown key 'weigths' in [ring]",
    ),
}


@pytest.mark.parametrize("case", sorted(SCENE_FILE_ERRORS))
def test_scene_file_input_errors_exit_1(tmp_path, capsys, case):
    data, message = SCENE_FILE_ERRORS[case]
    path = tmp_path / "input.scene"
    path.write_bytes(data)
    code = main(["derham", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert str(path) in captured.err
    assert len(captured.err.splitlines()) == 1


def test_unexpected_exception_exits_3_in_one_line(monkeypatch, capsys):
    import spencerlab.cli as cli

    def broken(scene, args):
        return 1 // 0

    monkeypatch.setitem(cli.COMMANDS, "milnor", broken)
    code = main(["milnor", scene_path("cusp.scene")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("internal error: ZeroDivisionError: ")


def test_memory_error_exits_2_in_one_line(monkeypatch, capsys):
    import spencerlab.cli as cli

    def exhausted(scene, args):
        raise MemoryError()

    monkeypatch.setitem(cli.COMMANDS, "milnor", exhausted)
    code = main(["milnor", scene_path("cusp.scene")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("budget exceeded: ")
    assert "milnor" in captured.err
