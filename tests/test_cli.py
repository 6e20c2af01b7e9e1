"""Command-line interface behavior and exit codes."""
import json
import os
import subprocess
import sys

import pytest

from latticegfun import cli

PYRAMID = {"vertices": [[0, 0, 0], [1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]]}
TRIANGLE = {"vertices": [[0, 0], [2, 0], [0, 1]]}
DIRECTORY = object()  # stands for an input path that names a directory


def write_input(path, content):
    if content is DIRECTORY:
        path.mkdir()
    else:
        path.write_text(json.dumps(content))


@pytest.fixture
def pyramid_file(tmp_path):
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(PYRAMID))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_info(capsys, pyramid_file):
    code, out = run_cli(capsys, "--format", "json", "info", "--polytope", pyramid_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [5, 8, 5, 1]
    assert payload["simple"] is False
    assert payload["volume"] == "4/3"


def test_gfun_check_reciprocity(capsys, pyramid_file):
    code, out = run_cli(capsys, "--format", "json", "gfun", "--polytope",
                        pyramid_file, "--check-reciprocity")
    assert code == 0
    payload = json.loads(out)
    assert payload["reciprocity"] is True
    terms = {tuple(t["exps"]): t["coeff"] for t in payload["gfun"]["terms"]}
    variables = payload["gfun"]["vars"]
    qi, yi = variables.index("q"), variables.index("y")
    key = [0, 0]
    key[qi], key[yi] = 3, 3
    assert terms[tuple(key)] == "4/3"


def test_todd_verify(capsys, triangle_file):
    code, out = run_cli(capsys, "--format", "json", "todd", "--polytope",
                        triangle_file, "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["todd"] == payload["gfun"]


def test_ehrhart_pretty(capsys, pyramid_file):
    code, out = run_cli(capsys, "ehrhart", "--polytope", pyramid_file)
    assert code == 0
    assert "closed: 4/3 q^3 + 4 q^2 + 11/3 q + 1" in out


def test_wsum_face_selection(capsys, triangle_file):
    code, out = run_cli(capsys, "--format", "json", "wsum", "--polytope",
                        triangle_file, "--face", "0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["face"] == [0, 1]


def test_gpoly(capsys, pyramid_file):
    code, out = run_cli(capsys, "--format", "json", "gpoly", "--polytope", pyramid_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["master_duality"] is True


def test_format_flag_after_subcommand(capsys, pyramid_file):
    code, out = run_cli(capsys, "info", "--polytope", pyramid_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["f_vector"] == [5, 8, 5, 1]


def test_gfun_profile(capsys, triangle_file):
    code, out = run_cli(capsys, "gfun", "--polytope", triangle_file,
                        "--profile", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["profile"]) == 3


def test_corpus_deterministic_output(capsys):
    code1, out1 = run_cli(capsys, "--format", "json", "corpus", "--seed", "5",
                          "--count", "4", "--dim", "2", "--max-coord", "3")
    code2, out2 = run_cli(capsys, "--format", "json", "corpus", "--seed", "5",
                          "--count", "4", "--dim", "2", "--max-coord", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_exit_1_non_lattice(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0.5, 0], [1, 0], [0, 1]]}')
    code, out = run_cli(capsys, "info", "--polytope", str(path))
    assert code == 1
    assert "lattice points" in json.loads(out)["error"]


def test_exit_1_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": [[0,')
    code, out = run_cli(capsys, "info", "--polytope", str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert "line" in error and "column" in error


def test_exit_1_missing_file(capsys):
    code, out = run_cli(capsys, "info", "--polytope", "/does/not/exist.json")
    assert code == 1


@pytest.mark.parametrize("weight", [
    {"vars": 2, "terms": [{"coeff": "1", "exps": [-1, 2]}]},
    {"vars": 2, "terms": "x"},
    {"vars": 2, "terms": [{"coeff": "1", "exps": [True, 1]}]},
    {"vars": 2, "terms": [{"coeff": "1", "exps": [1.5, 0]}]},
    {"vars": 2, "terms": [{"coeff": "1/0", "exps": [1, 0]}]},
    {"vars": 1000000, "terms": []},
    DIRECTORY,
])
def test_exit_1_bad_weight(capsys, triangle_file, tmp_path, weight):
    path = tmp_path / "phi.json"
    write_input(path, weight)
    code = cli.main(["--format", "json", "gfun", "--polytope", triangle_file,
                     "--phi", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "error" in json.loads(out)
    assert "Traceback" not in out + err


def test_weight_vars_checked_against_dimension_first(capsys, triangle_file, tmp_path):
    # the term's width is wrong too, but the declared vars is compared with
    # the polytope's dimension before any term is read or name is built
    path = tmp_path / "phi.json"
    write_input(path, {"vars": 10 ** 6, "terms": [{"coeff": "1", "exps": [0]}]})
    code = cli.main(["--format", "json", "gfun", "--polytope", triangle_file,
                     "--phi", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == \
        {"error": "weight polynomial dimension does not match polytope"}


@pytest.mark.parametrize("vars_value", [0, -3, True, "2", 2.0])
def test_malformed_weight_vars_keep_their_error(capsys, triangle_file, tmp_path, vars_value):
    path = tmp_path / "phi.json"
    write_input(path, {"vars": vars_value, "terms": []})
    code = cli.main(["--format", "json", "gfun", "--polytope", triangle_file,
                     "--phi", str(path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == \
        {"error": "weight 'vars' must be a positive integer"}


@pytest.mark.parametrize("argv", [
    ["--seed", "1", "--count", "-1", "--dim", "2"],
    ["--seed", "1", "--count", "30", "--dim", "2", "--max-coord", "1"],
])
def test_corpus_bad_count_exits_1(capsys, argv):
    code = cli.main(["--format", "json", "corpus", *argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert "error" in json.loads(out)
    assert "Traceback" not in out + err


@pytest.mark.parametrize("polytope", [
    5,
    {"vertices": 5},
    {"vertices": [0, 1]},
    {"vertices": [[]]},
    DIRECTORY,
])
def test_exit_1_bad_polytope(capsys, tmp_path, polytope):
    path = tmp_path / "bad.json"
    write_input(path, polytope)
    code = cli.main(["--format", "json", "info", "--polytope", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "error" in json.loads(out)
    assert "Traceback" not in out + err


def test_todd_zero_weight_has_gfun_variables(capsys, tmp_path):
    segment, phi = tmp_path / "segment.json", tmp_path / "zero.json"
    segment.write_text(json.dumps({"vertices": [[0], [3]]}))
    phi.write_text(json.dumps({"vars": 1, "terms": [{"coeff": "0", "exps": [1]}]}))
    code, out = run_cli(capsys, "--format", "json", "todd", "--polytope", str(segment),
                        "--phi", str(phi), "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["todd"] == payload["gfun"] == {"vars": ["q", "y"], "terms": []}


def test_ehrhart_is_wsum_of_the_polytope(capsys, tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"vertices": [[a, b, c] for a in (0, 1)
                                             for b in (0, 1) for c in (0, 1)]}))
    code1, ehrhart = run_cli(capsys, "--format", "json", "ehrhart", "--polytope", str(path))
    code2, wsum = run_cli(capsys, "--format", "json", "wsum", "--polytope", str(path))
    assert code1 == code2 == 0
    assert ehrhart == wsum
    assert json.loads(ehrhart)["face"] == list(range(8))


def test_exit_2_on_reciprocity_failure(capsys, triangle_file, monkeypatch):
    from latticegfun import GFunction, MultiPoly, WeightPoly, build_polytope, reciprocity_image
    q, y = MultiPoly.variable("q"), MultiPoly.variable("y")
    broken = GFunction(q * y, 2, 0, build_polytope(TRIANGLE["vertices"]), WeightPoly.one(2))
    monkeypatch.setattr(cli, "build_gfun", lambda P, phi: broken)
    code, out = run_cli(capsys, "--format", "json", "gfun", "--polytope",
                        triangle_file, "--check-reciprocity")
    assert code == 2
    payload = json.loads(out)
    assert payload["reciprocity"] is False
    assert payload["transformed"] == reciprocity_image(broken).to_json()


def test_exit_2_on_forced_mismatch(capsys, triangle_file, monkeypatch):
    # force the verification to disagree to exercise the invariant path
    from latticegfun import MultiPoly
    monkeypatch.setattr(cli, "apply_todd", lambda P, phi: MultiPoly.const(0))
    code, out = run_cli(capsys, "--format", "json", "todd", "--polytope",
                        triangle_file, "--verify")
    assert code == 2
    payload = json.loads(out)
    assert payload["verified"] is False
    assert "todd" in payload and "gfun" in payload


def test_console_entry_point(pyramid_file):
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-m", "latticegfun", "info", "--polytope", pyramid_file],
        capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
        env=env)
    assert result.returncode == 0
    assert "f_vector: [5, 8, 5, 1]" in result.stdout
