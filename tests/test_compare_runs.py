"""tools/compare_runs.py compare, on two hand-made run directories."""

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)


def make_run(root, csv_text, result):
    out = root / "orbit_sweep" / "cmd01" / "out"
    out.mkdir(parents=True)
    (out / "lyapunov.csv").write_text(csv_text)
    (out / "verify.json").write_text('{"ok": true, "worst": 0.5}')
    library = root / "orbit_sweep" / "library"
    library.mkdir()
    with open(library / "00_lyapunov_library.pkl", "wb") as fh:
        pickle.dump(result, fh)
    return root


def test_csv_artifacts_compare_column_by_column(tmp_path, capsys):
    first = make_run(tmp_path / "first",
                     "E,L1,L2,error\n0.5,1.25,-1.25,\n1.5,2,-2,\n"
                     "# config=abc version=0.1.0 seed=1\n",
                     {"exponents": [1.25, -1.25]})
    second = make_run(tmp_path / "second",
                      "E,L1,L2,error\n0.5,1.25,-1.5,\n1.5,2.0000000002,nan,no split\n"
                      "# config=abc version=0.1.0 seed=2\n",
                      {"exponents": [1.25, -1.25]})
    assert compare_runs.compare(first, first) == 0
    capsys.readouterr()

    assert compare_runs.compare(first, second) == 1
    lines = capsys.readouterr().out.splitlines()
    item = "orbit_sweep/cmd01/out/lyapunov.csv"
    assert lines == [
        "%s: column L1: 1 cells differ, largest absolute difference 2e-10, relative 1e-10"
        % item,
        "%s: column L2: 2 cells differ, largest absolute difference 0.25, relative 0.167"
        % item,
        "%s: column error: 1 cells differ" % item,
        "%s: footer [['# config=abc version=0.1.0 seed=1']] vs "
        "[['# config=abc version=0.1.0 seed=2']]" % item,
        "1 CLI artifacts identical, 1 differ; 1 library results equal, 0 differ; "
        "0 demo outputs identical, 0 differ",
    ]


def test_demo_outputs_compare_as_text(tmp_path, capsys):
    runs = []
    for name, splitting_text in (("first", "dims (1, 0, 1)\ngap 6.85\n"),
                                 ("second", "dims (1, 0, 1)\ngap 6.86\n")):
        root = make_run(tmp_path / name, "E,L1\n0.5,1.25\n", {"exponents": [1.25]})
        demos = root / "demos"
        demos.mkdir()
        (demos / "free_line.txt").write_text("m = 0.5j\n")
        (demos / "splitting.txt").write_text(splitting_text)
        runs.append(root)
    (runs[1] / "demos" / "extra.txt").write_text("")
    assert compare_runs.compare(runs[0], runs[0]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 CLI artifacts identical, 0 differ; 1 library results equal, 0 differ; "
        "2 demo outputs identical, 0 differ")

    assert compare_runs.compare(*runs) == 2
    assert capsys.readouterr().out.splitlines() == [
        "demos/extra.txt: only in %s" % runs[1],
        "demos/splitting.txt: line 2: 'gap 6.85' vs 'gap 6.86'",
        "2 CLI artifacts identical, 0 differ; 1 library results equal, 0 differ; "
        "1 demo outputs identical, 2 differ",
    ]


def test_text_differences_name_the_first_line_that_differs():
    assert compare_runs.text_differences("a\nb\n", "a\nb\n") == []
    assert compare_runs.text_differences("a\nb\n", "a\nc\nd\n") == ["line 2: 'b' vs 'c'"]
    assert compare_runs.text_differences("a\nb\n", "a\nb\nc\n") == [
        "line 3: '' vs 'c'"]
    assert compare_runs.text_differences("a\nb", "a\nb\n") == ["1 newlines vs 2"]


def test_csv_artifacts_with_other_rows_differ_as_a_whole():
    problems = compare_runs.csv_differences("E,N\n0.5,0.25\n", "E,N\n0.5,0.25\n1.0,0.5\n")
    assert problems == ["header ['E', 'N'] and 1 rows vs header ['E', 'N'] and 2 rows"]


def test_library_results_name_their_largest_relative_difference(tmp_path, capsys):
    # a corpus manifest whose envelope moved by one unit in its last
    # place, 2^-49 of 12, and an exponent that moved by a quarter of 4
    runs = []
    for name, envelope, exponent in (("first", 12.0, 4.0),
                                     ("second", 12.0 + 2.0 ** -49, 3.0)):
        root = make_run(tmp_path / name, "E,L1\n0.5,1.25\n", {"exponents": [1.25, exponent]})
        (root / "corpus").mkdir()
        checks = [{"label": "envelope", "value": envelope}]
        with open(root / "corpus" / "run_corpus.pkl", "wb") as fh:
            pickle.dump({"ok": True, "entries": [{"name": "amo_subcritical",
                                                  "checks": checks}]}, fh)
        runs.append(root)
    assert compare_runs.compare(*runs) == 2
    assert capsys.readouterr().out.splitlines() == [
        "corpus/run_corpus.pkl: result.entries[0].checks[0].value: not bitwise equal, "
        "largest absolute difference 1.78e-15, relative 1.48e-16",
        "orbit_sweep/library/00_lyapunov_library.pkl: result.exponents[1]: not bitwise "
        "equal, largest absolute difference 1, relative 0.25",
        "2 CLI artifacts identical, 0 differ; 0 library results equal, 2 differ; "
        "0 demo outputs identical, 0 differ",
    ]
    assert compare_runs.differences([1.0, np.nan], [1.0 + 1e-12, 2.0]) == [
        "result[0]: not bitwise equal, largest absolute difference 1e-12, relative 1e-12",
        "result[1]: not bitwise equal, largest absolute difference nan, relative nan",
    ]
    assert compare_runs.differences(np.array([1.0, np.nan]), np.array([1.0 + 1e-12, 2.0])) == [
        "result: not bitwise equal, largest absolute difference 1e-12, relative 1e-12"]


def test_a_call_that_raised_in_one_run_names_its_exception(tmp_path, capsys):
    raised = {"raised": "ConvergenceError",
              "message": "plain product overflowed along the orbit"}
    runs = [make_run(tmp_path / name, "E,L1\n0.5,1.25\n", result)
            for name, result in (("first", raised), ("second", np.zeros((4, 4), complex)))]
    assert compare_runs.compare(*runs) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "orbit_sweep/library/00_lyapunov_library.pkl: result: raised ConvergenceError: "
        "plain product overflowed along the orbit vs complex128(4, 4)")
    assert compare_runs.differences([np.nan], raised) == [
        "result: float64(1,) vs raised ConvergenceError: plain product overflowed along "
        "the orbit"]
    assert compare_runs.differences(raised, dict(raised, message="non-finite step")) == [
        "result.message: 'plain product overflowed along the orbit' vs 'non-finite step'"]


def test_compare_refuses_a_missing_or_empty_run(tmp_path, capsys):
    run = make_run(tmp_path / "run", "E,L1\n0.5,1.25\n", {"exponents": [1.25]})
    (tmp_path / "empty" / "demos").mkdir(parents=True)
    (tmp_path / "empty" / "config.json").write_text("{}")
    for first, second, message in (
        (tmp_path / "nowhere", run, "%s does not exist" % (tmp_path / "nowhere")),
        (run, tmp_path / "empty", "%s holds no CLI artifact, library result or demo output"
         % (tmp_path / "empty")),
    ):
        with pytest.raises(SystemExit) as refused:
            compare_runs.main(["compare", str(first), str(second)])
        # a message as the exit code: printed to stderr, exit status 1
        assert refused.value.code == "compare: " + message
    assert capsys.readouterr().out == ""
