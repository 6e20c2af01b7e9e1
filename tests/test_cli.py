"""Command-line interface behavior and exit codes."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegfun import (GFunction, MultiPoly, WeightPoly, apply_todd, build_polytope, cli,
                         gfun, polytope, reciprocity_image, wsum)

PYRAMID = {"vertices": [[0, 0, 0], [1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]]}
TRIANGLE = {"vertices": [[0, 0], [2, 0], [0, 1]]}
CROSS4 = {"vertices": [[s * (i == k) for k in range(4)] for i in range(4) for s in (1, -1)]}
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


def test_todd_without_verify_emits_only_the_operator_result(capsys, triangle_file):
    code, out = run_cli(capsys, "--format", "json", "todd", "--polytope", triangle_file)
    assert code == 0
    assert json.loads(out) == {"todd": apply_todd(build_polytope(TRIANGLE["vertices"])).to_json()}


def test_wsum_unknown_face_exits_1(capsys, triangle_file):
    code, out = run_cli(capsys, "--format", "json", "wsum", "--polytope", triangle_file,
                        "--face", "9")
    assert code == 1
    assert json.loads(out) == {"error": "no face has vertex indices [9]"}


def test_wsum_face_entry_not_an_integer_exits_1(capsys, triangle_file):
    code, out = run_cli(capsys, "--format", "json", "wsum", "--polytope", triangle_file,
                        "--face", "0,x")
    assert code == 1
    assert json.loads(out) == {"error": "--face entry 'x' is not an integer"}


def test_ehrhart_pretty(capsys, pyramid_file):
    code, out = run_cli(capsys, "ehrhart", "--polytope", pyramid_file)
    assert code == 0
    assert "closed: 4/3 q^3 + 4 q^2 + 11/3 q + 1" in out


# sha256 of the pretty stdout, taken while the payload still held each
# polynomial's JSON (the first two) or before the pretty printer read the
# terms directly (the rest): top-level polynomials laid out, polynomials in q
# alone and constants, the zero polynomial as 0, and the profile list and the
# dual_g map printed as JSON
PRETTY_DIGESTS = [
    (["gfun", "--polytope", "pyramid.json", "--check-reciprocity", "--profile"],
     "0994f26dd3b324e1c3962ffd513c0ce249396fc64ee9b355ec06c2d447245c32"),
    (["gpoly", "--polytope", "pyramid.json"],
     "c0baa3a775e8711ad063dcfaf6065e401037dc4695f569b78f61277d50e26203"),
    (["ehrhart", "--polytope", "pyramid.json"],
     "552fc08efbf1777f77510b878090054acc3b8641ed8f34b69e1325027afdd775"),
    (["wsum", "--polytope", "pyramid.json", "--face", "0"],
     "606d5e3f40ccde5319c40c8462900c30268cba7148e76eeb4d40f1f2ca894335"),
    (["todd", "--polytope", "triangle.json", "--verify"],
     "5f81e5dacd08a494e9bb75a1264a231ddef861f708b77dfe706c22677fa6cdbf"),
    (["gfun", "--polytope", "pyramid.json", "--phi", "zero.json"],
     "b4ac888ac9073504babc2680f6f188034bb395b6b2819a85a9818949a81637ab"),
]
PRETTY_INPUTS = {"pyramid.json": PYRAMID, "triangle.json": TRIANGLE,
                 "zero.json": {"vars": 3, "terms": [{"coeff": "0", "exps": [1, 0, 0]}]}}


@pytest.mark.parametrize("argv, digest", PRETTY_DIGESTS)
def test_pretty_output_digest(capsys, tmp_path, argv, digest):
    for name, content in PRETTY_INPUTS.items():
        write_input(tmp_path / name, content)
    code, out = run_cli(capsys, *(str(tmp_path / a) if a in PRETTY_INPUTS else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("terms", [
    [{"coeff": "2", "exps": [0, 0]}],
    [{"coeff": "-1/3", "exps": [0, 0]}],
    [{"coeff": "3/2", "exps": [0, 0]}, {"coeff": "-3/2", "exps": [0, 0]}],
])
def test_gfun_profile_constant_weight(capsys, triangle_file, tmp_path, terms):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"vars": 2, "terms": terms}))
    code, out = run_cli(capsys, "gfun", "--polytope", triangle_file, "--phi", str(phi),
                        "--profile", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["profile"]) == 3


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


NESTED = '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_exit_1_deeply_nested_polytope(capsys, tmp_path):
    # json.load raises RecursionError, a RuntimeError, which must not read as
    # a broken invariant (exit 2)
    path = tmp_path / "nested.json"
    path.write_text(NESTED)
    code, out = run_cli(capsys, "--format", "json", "info", "--polytope", str(path))
    assert code == 1
    assert "nested too deeply" in json.loads(out)["error"]


def test_exit_1_deeply_nested_weight(capsys, triangle_file, tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(NESTED.replace("vertices", "terms"))
    code, out = run_cli(capsys, "--format", "json", "gfun", "--polytope", triangle_file,
                        "--phi", str(path))
    assert code == 1
    assert "nested too deeply" in json.loads(out)["error"]


def test_exit_1_missing_file(capsys):
    code, out = run_cli(capsys, "info", "--polytope", "/does/not/exist.json")
    assert code == 1


@pytest.mark.parametrize("weight", [
    {"vars": 2, "terms": [{"coeff": "1", "exps": [-1, 2]}]},
    {"vars": 2, "terms": "x"},
    {"vars": 2, "terms": [{"coeff": "1", "exps": [True, 1]}]},
    {"vars": 2, "terms": [{"coeff": "1", "exps": [1.5, 0]}]},
    {"vars": 2, "terms": [{"coeff": "1/0", "exps": [1, 0]}]},
    {"vars": 2, "terms": [{"coeff": 3, "exps": [1, 0]}]},
    {"vars": 2, "terms": [{"coeff": "0.5", "exps": [1, 0]}]},
    {"vars": 2, "terms": [{"coeff": "1e5000", "exps": [1, 0]}]},  # 10**5000 would not print
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_todd_prints_numbers_past_the_int_to_str_limit(capsys, tmp_path):
    # the result's numerators run past the 4,300 digits that CPython converts
    # by default; the limit is lifted for the output only, then restored
    vertices = [[0, 0], [10 ** 1500, 0], [0, 10 ** 1500]]
    poly_path, phi_path = tmp_path / "polytope.json", tmp_path / "phi.json"
    write_input(poly_path, {"vertices": vertices})
    write_input(phi_path, {"vars": 2, "terms": [{"coeff": "1", "exps": [2, 0]}]})
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "--format", "json", "todd", "--polytope", str(poly_path),
                        "--phi", str(phi_path))
    assert code == 0 and sys.get_int_max_str_digits() == limit
    expected = apply_todd(build_polytope(vertices), WeightPoly.monomial(2, (2, 0)))
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out) == {"todd": expected.to_json()}
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_info_prints_a_volume_past_the_int_to_str_limit(capsys, tmp_path, fmt):
    # the volume 10^4400 / 2 has 4,400 digits; it is written by the emitter,
    # after the limit is lifted, not while the payload is built
    path = tmp_path / "polytope.json"
    write_input(path, {"vertices": [[0, 0], [10 ** 2200, 0], [0, 10 ** 2200]]})
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "--format", fmt, "info", "--polytope", str(path))
    assert code == 0 and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        volume = json.dumps(str(10 ** 4400 // 2))
    finally:
        sys.set_int_max_str_digits(limit)
    line = f'"volume":{volume}' if fmt == "json" else f"volume: {volume}\n"
    assert line in out


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
    ["--seed", "1", "--count", "1000000", "--dim", "3", "--max-coord", "5"],
])
def test_corpus_bad_count_exits_1(capsys, argv):
    code = cli.main(["--format", "json", "corpus", *argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert "error" in json.loads(out)
    assert "Traceback" not in out + err


def test_corpus_bad_max_coord_exits_1(capsys):
    code, out = run_cli(capsys, "--format", "json", "corpus", "--seed", "1",
                        "--count", "3", "--dim", "2", "--max-coord", "9")
    assert code == 1
    assert json.loads(out) == {"error": "corpus coordinates must stay within 1..5"}


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
    q, y = MultiPoly.variable("q"), MultiPoly.variable("y")
    broken = GFunction(q * y, 2, 0, build_polytope(TRIANGLE["vertices"]), WeightPoly.one(2))
    monkeypatch.setattr(cli, "build_gfun", lambda P, phi: broken)
    code, out = run_cli(capsys, "--format", "json", "gfun", "--polytope",
                        triangle_file, "--check-reciprocity")
    assert code == 2
    payload = json.loads(out)
    assert payload["reciprocity"] is False
    assert payload["transformed"] == reciprocity_image(broken).to_json()


def test_exit_2_on_a_broken_hull(capsys, triangle_file, monkeypatch):
    # the facet y >= 0 moved inward by one leaves the origin outside it
    hull = polytope._hull

    def shifted(pts, n):
        return [h._replace(offset=h.offset - 1) if h.normal == (0, 1) else h
                for h in hull(pts, n)]

    monkeypatch.setattr(polytope, "_hull", shifted)
    code, out = run_cli(capsys, "--format", "json", "info", "--polytope", triangle_file)
    assert code == 2
    assert json.loads(out) == {
        "error": "hull invariant violated: point (0, 0) is outside facet "
                 "HalfSpace(normal=(0, 1), offset=-1)",
        "kind": "invariant-violation"}


def test_exit_2_on_a_wrong_volume_profile(capsys, triangle_file, monkeypatch):
    monkeypatch.setattr(gfun, "volume", lambda P: 7)
    code, out = run_cli(capsys, "--format", "json", "gfun", "--polytope", triangle_file,
                        "--profile")
    assert code == 2
    assert json.loads(out) == {
        "error": "leading coefficient does not match the volume profile",
        "kind": "invariant-violation"}


def test_exit_2_on_a_gap_in_the_face_sum_scan(capsys, pyramid_file, monkeypatch):
    # the pyramid's dilate q = 2 loses (0, 0, 1), the middle of its line z = 0..2
    real = wsum.iter_lattice_points

    def drop_one(P, F, dilate, *args):
        return [p for p in real(P, F, dilate, *args) if (dilate, p) != (2, (0, 0, 1))]

    monkeypatch.setattr(wsum, "iter_lattice_points", drop_one)
    code, out = run_cli(capsys, "--format", "json", "gfun", "--polytope", pyramid_file)
    assert code == 2
    assert json.loads(out) == {
        "error": "lattice scan of the dilate q = 2 has a gap on the line (0, 0)",
        "kind": "invariant-violation"}


def test_exit_2_on_forced_mismatch(capsys, triangle_file, monkeypatch):
    # force the verification to disagree to exercise the invariant path
    monkeypatch.setattr(cli, "apply_todd", lambda P, phi: MultiPoly.const(0))
    code, out = run_cli(capsys, "--format", "json", "todd", "--polytope",
                        triangle_file, "--verify")
    assert code == 2
    payload = json.loads(out)
    assert payload["verified"] is False
    assert "todd" in payload and "gfun" in payload


# sha256 of the stdout of `gfun --format json` at the time the face-sum route
# moved onto coefficient lists; x1 gives G = 0 on both symmetric polytopes,
# which pins the variable tuple, and x1^2 pins the coefficients
GFUN_DIGESTS = [
    (PYRAMID, [1, 0, 0], "2b6c025000e3ed648bc8a2f1b14497cb6f4c6a7a8f9166db87760d420d53a9ca"),
    (CROSS4, [1, 0, 0, 0], "2b6c025000e3ed648bc8a2f1b14497cb6f4c6a7a8f9166db87760d420d53a9ca"),
    (PYRAMID, [2, 0, 0], "b1a586529e6be8eb31257e51f196165401538a1d3521a9ea4ce2edcb28819ccc"),
]


@pytest.mark.parametrize("polytope, exps, digest", GFUN_DIGESTS)
def test_gfun_json_digest(capsys, tmp_path, polytope, exps, digest):
    poly_path, phi_path = tmp_path / "polytope.json", tmp_path / "phi.json"
    poly_path.write_text(json.dumps(polytope))
    phi_path.write_text(json.dumps({"vars": len(exps), "terms": [{"coeff": "1", "exps": exps}]}))
    code, out = run_cli(capsys, "gfun", "--format", "json", "--polytope", str(poly_path),
                        "--phi", str(phi_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_console_entry_point(pyramid_file):
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-m", "latticegfun", "info", "--polytope", pyramid_file],
        capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
        env=env)
    assert result.returncode == 0
    assert "f_vector: [5, 8, 5, 1]" in result.stdout


@pytest.mark.parametrize("argv", [
    ["todd"], ["nosuch", "--polytope", "p.json"],
    ["--format", "xml", "info", "--polytope", "p.json"],
    ["todd", "--format", "xml", "--polytope", "p.json"], ["todd", "--polytope", "p.json", "--phi"],
    ["corpus", "--seed", "a", "--count", "1", "--dim", "2"], []])
def test_usage_errors_exit_1_with_json(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "error" in json.loads(captured.out)
    assert captured.err == ""


@pytest.mark.parametrize("command", ["info", "ehrhart", "wsum", "gfun", "todd", "gpoly",
                                     "corpus"])
def test_help_still_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--format" in out
    assert ("--polytope" in out) == (command != "corpus")
    assert ("--phi" in out) == (command in ("wsum", "gfun", "todd"))


# --- fuzzing ----------------------------------------------------------

COORD = st.integers(-2, 3)
JUNK = st.one_of(st.none(), st.booleans(), st.floats(-3, 3), st.text(max_size=3),
                 st.just([]), st.just({}))


def weighted(*choices):
    """Draw from one of the (weight, strategy) choices, in proportion."""
    return st.sampled_from([s for w, s in choices for _ in range(w)]).flatmap(lambda s: s)


def json_file(content):
    """A file body: mostly the JSON of a document, sometimes cut short."""
    text = json.dumps(content)
    return weighted((4, st.just(text)), (1, st.integers(0, 12).map(lambda k: text[:k])))


def polytope_files(max_dim):
    def with_dim(dim):
        point = st.lists(COORD, min_size=dim, max_size=dim)
        vertices = weighted(
            (6, st.lists(point, min_size=dim + 1, max_size=6, unique_by=tuple)),
            (1, st.lists(point, min_size=1, max_size=6)),
            (1, st.lists(st.lists(COORD, max_size=4), max_size=6)),
            (1, st.lists(st.lists(st.one_of(COORD, JUNK), min_size=1, max_size=3),
                         min_size=1, max_size=4)),
            (1, JUNK))
        docs = weighted((6, vertices.map(lambda v: {"vertices": v})), (1, vertices), (1, JUNK))
        return docs.flatmap(json_file)
    return st.integers(1, max_dim).flatmap(with_dim)


def weight_files(max_vars):
    def with_vars(nvars):
        exps = weighted((6, st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)),
                        (1, st.lists(st.one_of(st.integers(-1, 2), JUNK), max_size=4)),
                        (1, JUNK))
        coeff = weighted((6, st.sampled_from(["1", "0", "-3/2", "2/7"])),
                         (1, st.sampled_from(["1/0", "x", "", "1.5"])),
                         (1, st.text(max_size=4)), (1, JUNK))
        term = weighted((6, st.fixed_dictionaries({"coeff": coeff, "exps": exps})), (1, JUNK))
        terms = weighted((6, st.lists(term, max_size=3)), (1, JUNK))
        nvars_field = weighted((6, st.just(nvars)), (1, st.integers(-1, 4)), (1, JUNK))
        docs = weighted((6, st.fixed_dictionaries({"vars": nvars_field, "terms": terms})),
                        (1, JUNK))
        return docs.flatmap(json_file)
    return st.integers(1, max_vars).flatmap(with_vars)


@st.composite
def invocations(draw):
    """(argv, files): a subcommand with its options, and the body of each
    input file named in argv."""
    command = draw(st.sampled_from(["info", "ehrhart", "wsum", "gfun", "todd", "gpoly",
                                    "corpus"]))
    if command == "corpus":
        return ["corpus", "--seed", str(draw(st.integers(0, 99))),
                "--count", str(draw(st.integers(-1, 3))), "--dim", str(draw(st.integers(1, 4))),
                "--max-coord", str(draw(st.integers(0, 3)))], {}
    files = {"polytope.json": draw(polytope_files(3))}
    argv = [command, "--polytope", "polytope.json"]
    if command in ("wsum", "gfun", "todd") and draw(st.booleans()):
        files["phi.json"] = draw(weight_files(3))
        argv += ["--phi", "phi.json"]
    if command == "wsum" and draw(st.booleans()):
        face = draw(st.one_of(st.lists(st.integers(-1, 6), max_size=4).map(
            lambda ix: ",".join(map(str, ix))), st.text("0123,a -", max_size=4)))
        argv.append(f"--face={face}")
    flags = {"gfun": ["--check-reciprocity", "--profile"], "todd": ["--verify"]}
    argv += [f for f in flags.get(command, []) if draw(st.booleans())]
    return argv, files


@st.composite
def usage_errors(draw):
    """(argv, files) that the argument parser rejects: a missing
    --polytope, an unknown subcommand, a bad --format or --phi with no
    value."""
    command = draw(st.sampled_from(["info", "ehrhart", "wsum", "gfun", "todd", "gpoly"]))
    files = {"polytope.json": json.dumps(TRIANGLE)}
    kind = draw(st.sampled_from(["missing", "unknown", "format", "phi"]))
    if kind == "missing":
        return [command], {}
    if kind == "unknown":
        return [draw(st.sampled_from(["", "tod", "help", "TODD"])), "--polytope",
                "polytope.json"], files
    if kind == "format":
        return [command, "--format", draw(st.sampled_from(["", "xml", "JSON"])), "--polytope",
                "polytope.json"], files
    return [command, "--polytope", "polytope.json", "--phi"], files


@settings(max_examples=80, deadline=None)
@given(weighted((9, invocations()), (1, usage_errors())))
def test_cli_fuzz_exits_with_json(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(body)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--format", "json", *argv])
    assert code in (0, 1, 2), (argv, files)
    lines = out.getvalue().splitlines()
    assert lines, (argv, files)
    json.loads(lines[-1])
    assert "Traceback" not in out.getvalue() + err.getvalue()
