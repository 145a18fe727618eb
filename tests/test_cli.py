import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kw1.cli import RunConfig, main, run
from kw1.errors import DuplicateLabel, JacobiError, KW1Error, ParseError
from kw1.registry import (
    builtin_examples,
    get_example,
    parse_document,
    parse_input,
    render_document,
)
from kw1.reports import to_csv, to_json, to_markdown


def test_round_trip_all_builtins():
    for name, pres in builtin_examples().items():
        doc = render_document(pres)
        again = parse_document(doc)
        assert again == pres, name


def test_remark_parametric_constants():
    pres = get_example("remark:2:3")
    assert pres.labels == ("h", "x", "y")
    assert pres.constants[(0, 1)] == {1: 2}
    assert pres.constants[(0, 2)] == {2: 3}
    assert (1, 2) not in pres.constants


def test_parse_undeclared_label():
    doc = {
        "name": "bad",
        "basis": ["a", "b"],
        "brackets": [{"left": "a", "right": "w", "result": {"b": "1"}}],
    }
    with pytest.raises(ParseError):
        parse_document(doc)


def test_parse_duplicate_label():
    with pytest.raises(DuplicateLabel):
        parse_document({"name": "dup", "basis": ["a", "a"], "brackets": []})


def test_parse_bad_rational():
    doc = {
        "name": "bad",
        "basis": ["a", "b"],
        "brackets": [{"left": "a", "right": "b", "result": {"b": "1.5"}}],
    }
    with pytest.raises(ParseError):
        parse_document(doc)


def test_parse_jacobi_error():
    doc = {
        "name": "bad",
        "basis": ["x", "y", "z"],
        "brackets": [
            {"left": "x", "right": "y", "result": {"z": "1"}},
            {"left": "x", "right": "z", "result": {"x": "1"}},
        ],
    }
    with pytest.raises(JacobiError):
        parse_document(doc)


def test_parse_input_from_file(tmp_path):
    pres = get_example("sl2")
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(render_document(pres)))
    assert parse_input(str(path)) == pres
    assert parse_input(json.dumps(render_document(pres))) == pres


def test_run_exit_codes():
    config = RunConfig(primes=(3,), degree_bound=4, seed=0)
    reports, code = run(config, get_example("remark:1:1"))
    assert code == 0 and reports[0].verdict == "verified"
    config_low = RunConfig(primes=(3,), degree_bound=1, seed=0)
    reports, code = run(config_low, get_example("remark:1:1"))
    assert code == 2 and reports[0].verdict == "inconclusive"


def test_run_report_order_follows_primes():
    config = RunConfig(primes=(5, 3), degree_bound=4, seed=0)
    reports, _ = run(config, get_example("heisenberg"))
    assert [r.p for r in reports] == [5, 3]


def test_json_determinism():
    config = RunConfig(primes=(3,), seed=0, with_oracle=True, samples=4)
    a = to_json(run(config, get_example("remark:1:1"))[0])
    b = to_json(run(config, get_example("remark:1:1"))[0])
    assert a == b


def test_report_formats():
    config = RunConfig(primes=(3,), seed=0)
    reports, _ = run(config, get_example("heisenberg"))
    blob = json.loads(to_json(reports))
    assert blob["tool"] == "kw1"
    assert blob["reports"][0]["algebraName"] == "heisenberg"
    md = to_markdown(reports)
    assert "| rankZoverZp | 3 |" in md
    csv_text = to_csv(reports)
    assert csv_text.splitlines()[0].startswith("algebraName,p,e,")
    assert "heisenberg" in csv_text


def test_cli_check_exit_codes(capsys):
    assert main(
        ["check", "--example", "remark:1:1", "--primes", "3", "--degree-bound", "4"]
    ) == 0
    capsys.readouterr()
    assert main(
        ["check", "--example", "remark:1:1", "--primes", "3", "--degree-bound", "1"]
    ) == 2
    capsys.readouterr()
    assert main(["check", "--example", "nosuch", "--primes", "3"]) == 1
    assert main(["check", "--example", "sl2", "--primes", "4"]) == 1
    assert main(["nosuchcommand"]) == 1


def test_cli_check_sl2_at_the_casimir_degree(capsys):
    # the degree 2 slice (1 and the Casimir C) generates Z_p[C], of rank 7
    assert main(["check", "--example", "sl2", "--primes", "7", "--degree-bound", "2"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert (report["rankZoverZp"], report["verdict"], report["mUpper"]) == (7, "verified", 7)


def test_cli_check_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "check",
            "--example",
            "sl2",
            "--primes",
            "3",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["reports"][0]["verdict"] == "verified"
    assert blob["reports"][0]["mUpper"] == 3


def test_cli_center_prints_remark_basis(capsys):
    code = main(
        [
            "center",
            "--example",
            "remark:1:1",
            "--prime",
            "3",
            "--degree-bound",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "x*y^2" in out
    assert "x^2*y" in out
    assert len(out.strip().splitlines()) == 7  # header + 6 elements


def test_cli_index_and_pmap(capsys):
    assert main(["index", "--example", "gl2", "--prime", "5"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["index"] == 2
    assert main(["index", "--example", "gl2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["index"] == 2 and blob["field"] == "QQ"
    assert main(["pmap", "--example", "sl2", "--prime", "5"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["pMap"] == {"h": "h", "e": "0", "f": "0"}


def test_cli_rank_and_oracle(capsys):
    assert main(
        ["rank", "--example", "heisenberg", "--prime", "3", "--degree-bound", "4"]
    ) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rankZoverZp"] == 3
    assert main(
        ["oracle", "--example", "nonabelian2", "--prime", "3", "--samples", "5"]
    ) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["M"] == 3


def test_cli_lemma1(capsys):
    assert main(
        ["lemma1", "--nvars", "2", "--prime", "3", "--gens", "x1"]
    ) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rankOverBAp"] == 3
    assert main(["lemma1", "--nvars", "2", "--prime", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rankOverBAp"] == 9
    assert main(
        ["lemma1", "--nvars", "2", "--prime", "3", "--gens", "x1,x2"]
    ) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rankOverBAp"] == 1


@pytest.mark.parametrize(
    "nvars,prime,gens", [("2", "7", "x1,x2"), ("1", "11", "x1")]
)
def test_cli_lemma1_needs_every_power_below_p(capsys, nvars, prime, gens):
    # the rank needs every product x1^k1 .. xn^kn with k_i < p, up to n (p - 1) factors
    assert main(["lemma1", "--nvars", nvars, "--prime", prime, "--gens", gens]) == 0
    assert json.loads(capsys.readouterr().out)["rankOverBAp"] == 1


def test_cli_lemma1_with_a_large_exponent(capsys):
    # the point coordinates are raised to the distinct exponents only; a
    # table of every power up to x1^(99999999 // 5) ran out of memory
    assert main(["lemma1", "--nvars", "2", "--prime", "5", "--gens", "x1^99999999"]) == 0
    assert json.loads(capsys.readouterr().out)["rankOverBAp"] == 5


def test_cli_lemma1_xi_degree_bound(capsys):
    # x1^N at p = 5 reaches xi-degree 4 N // 5: about 8 * 10^18 fits in
    # int64 although N does not; 8 * 10^22 is refused as an input error
    assert main(["lemma1", "--nvars", "2", "--prime", "5", "--gens", "x1^9999999999999999999"]) == 0
    assert json.loads(capsys.readouterr().out)["rankOverBAp"] == 5
    assert main(["lemma1", "--nvars", "2", "--prime", "5", "--gens", "x1^99999999999999999999999"]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "xi-degree 79999999999999999999999" in err


@pytest.mark.parametrize("gens", ["2*x1*", "*x1", "x1**x2", "x1^", "2*", "x1^2^3", "x"])
def test_bad_polynomial_terms_are_input_errors(gens, capsys):
    assert main(["lemma1", "--nvars", "2", "--prime", "5", "--gens", gens]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and repr(gens) in err


def test_cli_lemma1_refuses_before_the_next_power_table(capsys, monkeypatch):
    # x1..x6 at p = 7: after five generators the table already holds 7^5
    # products over 7^5 reduced monomials, past the byte cap at e = 1, so the
    # input is refused before the sixth table (7^6 products) is formed
    from kw1.pbw import SymPoly

    formed = {"products": 0}
    real_mul = SymPoly.__mul__

    def mul(a, b):
        formed["products"] += 1
        return real_mul(a, b)

    monkeypatch.setattr(SymPoly, "__mul__", mul)
    gens = ",".join(f"x{i}" for i in range(1, 7))
    assert main(["lemma1", "--nvars", "6", "--prime", "7", "--gens", gens]) == 1
    assert "bytes of specialized rank matrices" in capsys.readouterr().err
    assert formed["products"] < 7**6


def test_cli_examples_listing(capsys):
    assert main(["examples"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert "sl2" in blob and "remark:N:M" in blob


def test_cli_check_md_and_csv(capsys):
    assert main(
        ["check", "--example", "heisenberg", "--primes", "3", "--format", "md"]
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("# kw1") and "| verdict | verified |" in out
    assert main(
        ["check", "--example", "heisenberg", "--primes", "3", "--format", "csv"]
    ) == 0
    out = capsys.readouterr().out
    assert "verified" in out and out.count("\n") == 2


def test_cli_check_forced_extension(capsys):
    assert main(
        ["check", "--example", "heisenberg", "--primes", "3", "--ext", "3"]
    ) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["reports"][0]["e"] >= 3
    assert blob["reports"][0]["verdict"] == "verified"


def test_pmap_override_document_flow(tmp_path, capsys):
    doc = {
        "name": "torus1",
        "basis": ["t"],
        "brackets": [],
        "pmapOverride": {"t": {"t": "1"}},
    }
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(doc))
    assert main(["pmap", "--input", str(path), "--prime", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["pMap"] == {"t": "t"}
    # with the torus p-map the center k[t] has rank p over Z_p = k[t^p - t]
    assert main(["check", "--input", str(path), "--primes", "3"]) == 0
    blob = json.loads(capsys.readouterr().out)
    rep = blob["reports"][0]
    assert rep["verdict"] == "verified"
    assert rep["rankZoverZp"] == 3 and rep["ind"] == 1 and rep["mUpper"] == 1


@pytest.mark.parametrize(
    "doc,prime,message",
    [
        # filiform: [a,b] = c, [a,c] = d; (ad a)^2 is not inner at p = 2
        (
            {
                "name": "filiform4",
                "basis": ["a", "b", "c", "d"],
                "brackets": [
                    {"left": "a", "right": "b", "result": {"c": "1"}},
                    {"left": "a", "right": "c", "result": {"d": "1"}},
                ],
            },
            "2",
            "(ad a)^p is not an inner derivation",
        ),
        (
            {
                "name": "heis",
                "basis": ["x", "y", "z"],
                "brackets": [{"left": "x", "right": "y", "result": {"z": "1"}}],
                "pmapOverride": {"x": {"y": "1"}},
            },
            "3",
            "the pmapOverride table fails ad(x^[p]) = (ad x)^p at p = 3",
        ),
    ],
    ids=["no-p-map", "bad-override"],
)
def test_algebras_without_a_valid_p_map_are_input_errors(doc, prime, message, capsys):
    assert main(["check", "--input", json.dumps(doc), "--primes", prime]) == 1
    assert capsys.readouterr().err == f"kw1: input error: {message}\n"


def test_cli_oracle_dimension_cap_is_input_error(capsys):
    assert main(["oracle", "--example", "gl2", "--prime", "7"]) == 1


def _checkout_env():
    # a child interpreter imports kw1 from this checkout's src
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cross_process_byte_determinism(tmp_path):
    import subprocess
    import sys

    cmd = [
        sys.executable,
        "-m",
        "kw1.cli",
        "check",
        "--example",
        "remark:1:1",
        "--primes",
        "3",
        "--oracle",
        "--samples",
        "4",
        "--seed",
        "0",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, env=_checkout_env())
    second = subprocess.run(cmd, capture_output=True, text=True, env=_checkout_env())
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_package_runs_as_a_module_from_the_checkout():
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-m", "kw1", "examples"],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert done.returncode == 0, done.stderr
    assert "remark:N:M" in done.stdout


def test_check_refuses_a_prime_beyond_the_int64_envelope(tmp_path, capsys):
    # int64 elimination overflowed here and reported index 0, "verified"
    args = ["check", "--example", "sl2", "--degree-bound", "1"]
    assert main(args + ["--primes", "4294967311"]) == 1
    assert "3037000493" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert main(args + ["--primes", "3037000493", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["reports"][0]["ind"] == 1
    assert main(["lemma1", "--nvars", "1", "--prime", "4294967311", "--gens", "x1"]) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "g", "basis": ["x"], "brackets": None},
        {"name": "g", "basis": ["x", "y"], "brackets": [{"left": ["x"], "right": "y"}]},
        {"name": "g", "basis": ["x"], "pmapOverride": {"x": "1"}},
    ],
)
def test_malformed_documents_are_input_errors(doc, capsys):
    with pytest.raises(ParseError):
        parse_document(doc)
    assert main(["check", "--input", json.dumps(doc), "--primes", "3"]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name",
    ["abelian:-1", "abelian:2:3", "abelian:", "abelian:x", "remark:1:2:9", "remark:1", "remark:0:1"],
)
def test_bad_example_names_are_input_errors(name, capsys):
    # each builtin family takes exactly its own number of parameters
    with pytest.raises(ParseError):
        get_example(name)
    assert main(["check", "--example", name, "--primes", "3"]) == 1
    assert "input error" in capsys.readouterr().err


_LABELS = st.sampled_from(["x", "y", "z"])
_KEYS = _LABELS | st.sampled_from(["left", "right", "result"])
_SCALARS = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(
    ["x", "y", "", "1", "-1/2", "1/0", "0.5"]
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
_RESULTS = st.dictionaries(_LABELS, st.sampled_from(["1", "-2", "1/3"]) | _VALUES, max_size=2)
_BRACKET = st.fixed_dictionaries({"left": _LABELS, "right": _LABELS, "result": _RESULTS})


@st.composite
def _documents(draw):
    """A well-formed document, then up to two keys of its first bracket
    deleted or replaced and up to two top-level fields replaced by
    arbitrary JSON values."""
    doc = {
        "name": "g",
        "basis": draw(st.lists(_LABELS, min_size=1, max_size=3, unique=True)),
        "brackets": draw(st.lists(_BRACKET, max_size=3)),
        "pmapOverride": draw(st.dictionaries(_LABELS, _RESULTS, max_size=2)),
    }
    if doc["brackets"]:
        entry = doc["brackets"][0]
        for key in draw(st.lists(st.sampled_from(sorted(entry)), max_size=2, unique=True)):
            if draw(st.booleans()):
                del entry[key]
            else:
                entry[key] = draw(_VALUES)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        doc[key] = draw(st.none() | _VALUES)
    return doc


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_documents() | _VALUES)
def test_parse_document_raises_only_package_errors(doc):
    try:
        parse_document(doc)
    except KW1Error:
        pass


@pytest.mark.parametrize(
    "argv, option",
    [
        (["check", "--example", "sl2", "--primes", "3", "--ext", "0"], "--ext"),
        (["check", "--example", "sl2", "--primes", "3", "--ext", "-2"], "--ext"),
        (["check", "--example", "sl2", "--primes", "3", "--samples", "0"], "--samples"),
        (["check", "--example", "sl2", "--primes", "3", "--degree-bound", "0"], "--degree-bound"),
        (["index", "--example", "sl2", "--samples", "-2"], "--samples"),
        (["center", "--example", "sl2", "--prime", "3", "--degree-bound", "0"], "--degree-bound"),
        (["rank", "--example", "sl2", "--prime", "3", "--degree-bound", "-1"], "--degree-bound"),
        (["oracle", "--example", "sl2", "--prime", "3", "--samples", "-3"], "--samples"),
        (["lemma1", "--nvars", "-1", "--prime", "3"], "--nvars"),
    ],
)
def test_count_options_below_their_minimum_are_input_errors(argv, option, capsys):
    assert main(argv) == 1
    assert f"argument {option}: must be >=" in capsys.readouterr().err


def test_check_refuses_rank_matrices_over_budget(capsys):
    import tracemalloc

    # the 1821 x 1316 rank over F_{7^8} at D = 12 needs 1.38 GB for its
    # coefficient array and blocked form, over the 1 GiB cap
    argv = ["check", "--example", "abelian:4", "--primes", "7", "--degree-bound", "12", "--ext", "8"]
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert "bytes of specialized rank matrices exceed" in capsys.readouterr().err


def test_zero_variable_algebra(capsys):
    assert main(["check", "--example", "abelian:0", "--primes", "3"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert (report["verdict"], report["rankZoverZp"], report["mUpper"]) == ("verified", 1, 1)
    assert main(["rank", "--example", "abelian:0", "--prime", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["rankZoverZp"] == 1
    assert main(["center", "--example", "abelian:0", "--prime", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1"]
    assert main(["lemma1", "--nvars", "0", "--prime", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["rankOverBAp"] == 1
    assert main(["oracle", "--example", "abelian:0", "--prime", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["M"] == 1
