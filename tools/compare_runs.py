"""Check that two checkouts of qplattice give the same numbers.

Runs every operation of the three benchmark workloads once, at one seed,
against the qplattice sources of a checkout, and saves what they leave:
the CLI artifacts as written, and each library call's result, reduced to
plain numbers and arrays and pickled.  It also runs the whole
verification corpus once (``run_corpus()``) and keeps its manifest as one
more library result.  It keeps, as library results too, what no workload
computes: two ``center_variation_check`` reports, and the forward and
backward ``iterate`` products of a seeded K=2 strip over 600 steps and
over 3000, where the plain product overflows and raises.  It runs the
repository's ``demos/*.py`` against the checkout and keeps what each
prints.  A second command compares two such runs file by file and
result by result, bit for bit.

    python3 tools/compare_runs.py run --checkout PARENT --seed 1 --out runs/parent-1
    python3 tools/compare_runs.py run --checkout . --seed 1 --out runs/change-1
    python3 tools/compare_runs.py compare runs/parent-1 runs/change-1

The operation lists come from ``perfbench/workloads.py`` of the repository
this script lives in, imported read-only, so both runs make the same
calls whatever the checkouts hold.  ``compare`` prints one line per item
that differs or is missing, then a summary, and exits 1 if anything does;
it refuses, with exit status 1, a run directory that is missing or holds
no item.
A JSON artifact whose bytes differ is compared field by field, and a CSV
artifact column by column with its provenance footer as text, so the line
names the field or column that moved and by how much.  A library result
that moved is named value by value, with the largest absolute and
relative difference, so a stated tolerance can be read off the line.  A
call that raised in one run only is named by its exception's class and
message, against the other run's dtype and shape.  A demo's output is
compared as text, and the line names the first output line that differs.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("orbit_sweep", "weyl_near_spectrum", "spectra_tables")


def plain(value):
    """The value with dataclasses as dicts and tuples as lists: a pickle
    that loads without the checkout's qplattice, compared field by field."""
    if dataclasses.is_dataclass(value):
        return {"type": type(value).__name__,
                **{f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}}
    if isinstance(value, list | tuple):
        return [plain(v) for v in value]
    return value


def outcome(call):
    """What ``call()`` returns; a raising call is recorded as such."""
    try:
        return call()
    except Exception as exc:
        return {"raised": type(exc).__name__, "message": str(exc)}


def save(path, result):
    with open(path, "wb") as fh:
        pickle.dump(plain(result), fh)


def center_variation_cases(qplattice):
    """Strips and energies of the ``center_variation_check`` reports kept
    by name: the tests' mixed K=2 strip (one expanding, two neutral and
    one contracting direction) and AMO(0.5) inside its spectrum."""
    import numpy as np
    sys.path.insert(0, str(HERE / "tests"))
    from conftest import random_line

    line = random_line(np.random.default_rng(0), 2)
    amo = qplattice.almost_mathieu(0.5)
    return {
        "mixed_strip": (qplattice.fold_to_strip(line), np.sort(
            qplattice.eigenvalues_banded(line.assemble_banded(400)))[200]),
        "amo_half": (qplattice.fold_to_strip(amo), qplattice.spectrum_sample(amo, 8)[4]),
    }


def run(checkout, seed, out):
    """Run every operation of the workloads once, the verification corpus,
    the center-variation reports, the ``iterate`` products and every demo;
    CLI artifacts land in ``out/<workload>/cmdNN/out``, library results in
    ``out/<workload>/library/NN_<group>.pkl``, the corpus manifest in
    ``out/corpus/run_corpus.pkl``, the reports in
    ``out/center_variation/<name>.pkl``, the products in
    ``out/iterate/<direction>[_3000].pkl``, and what demo ``name.py`` prints in
    ``out/demos/name.txt``."""
    src = (Path(checkout) / "src").resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(src), str(HERE / "perfbench")]
    import qplattice
    if not Path(qplattice.__file__).resolve().is_relative_to(src):
        raise SystemExit("imported qplattice from %s, not from %s" % (qplattice.__file__, src))
    from workloads import Session, build

    for name in WORKLOADS:
        directory = Path(out) / name
        library = directory / "library"
        library.mkdir(parents=True)
        session = Session(str(directory))
        for index, op in enumerate(build(name, seed, session)):
            result = outcome(op.call)
            if op.cli:
                if result != 0:
                    print("%s op %d (%s): exit code %s" % (name, index, op.group, result))
                continue
            save(library / ("%02d_%s.pkl" % (index, op.group)), result)

    (Path(out) / "corpus").mkdir()
    save(Path(out) / "corpus" / "run_corpus.pkl", outcome(qplattice.run_corpus))
    (Path(out) / "center_variation").mkdir()
    cases = center_variation_cases(qplattice)
    for name, (strip, energy) in cases.items():
        report = outcome(lambda: qplattice.center_variation_check(
            strip, energy, eps_grid=(0.0, 1e-4, 1e-3), n_max=256))
        save(Path(out) / "center_variation" / (name + ".pkl"), report)
    # 600 steps cross an orbit chunk of the 4x4 transfer matrices (512
    # steps) and stay finite on the mixed strip; 3000 steps overflow
    (Path(out) / "iterate").mkdir()
    cocycle = qplattice.transfer_cocycle(*cases["mixed_strip"])
    for name, n in (("forward", 600), ("backward", -600),
                    ("forward_3000", 3000), ("backward_3000", -3000)):
        save(Path(out) / "iterate" / (name + ".pkl"),
             outcome(lambda: qplattice.iterate(cocycle, 0.2, n)))

    demos = Path(out) / "demos"
    demos.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    for script in sorted((HERE / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(script)], env=env, cwd=out,
                              capture_output=True, text=True)
        if done.returncode:
            print("demo %s: exit code %d\n%s" % (script.name, done.returncode, done.stderr))
        (demos / (script.stem + ".txt")).write_text(done.stdout)


def summary(value):
    """A raised call as its exception's class and message, anything else as
    its dtype and shape."""
    import numpy as np

    if isinstance(value, dict) and value.keys() == {"raised", "message"}:
        return "raised %s: %s" % (value["raised"], value["message"])
    x = np.asarray(value)
    return "%s%s" % (x.dtype, x.shape)


def differences(a, b, path="result"):
    """Paths at which two plain values differ, with how."""
    import numpy as np

    if isinstance(a, dict) != isinstance(b, dict):  # one run raised, say
        return ["%s: %s vs %s" % (path, summary(a), summary(b))]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return ["%s: keys %s vs %s" % (path, sorted(a), sorted(b))]
        return [d for k in a
                for d in differences(a[k], b[k], "%s.%s" % (path, k) if path else k)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return ["%s: length %d vs %d" % (path, len(a), len(b))]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, "%s[%d]" % (path, i))]
    if isinstance(a, str) or isinstance(b, str):
        return [] if a == b else ["%s: %r vs %r" % (path, a, b)]
    x, y = np.asarray(a), np.asarray(b)
    if x.dtype != y.dtype or x.shape != y.shape:
        return ["%s: %s%s vs %s%s" % (path, x.dtype, x.shape, y.dtype, y.shape)]
    if x.tobytes() == y.tobytes():
        return []
    if x.dtype.kind not in "iufc":
        return ["%s: not bitwise equal" % path]
    return ["%s: not bitwise equal, %s" % (path, largest_gaps(x, y))]


def largest_gaps(x, y):
    """The largest absolute and relative difference of two numeric arrays
    of one shape; a cell that is nan in one array only is skipped."""
    import numpy as np

    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.abs(x - y).ravel()
        relative = gap / np.maximum(np.abs(x), np.abs(y)).ravel()
    return ("largest absolute difference %.3g, relative %.3g"
            % (np.fmax.reduce(gap), np.fmax.reduce(relative)))


def csv_differences(a, b):
    """Columns in which two CSV artifacts differ, each with its count of
    differing cells and their largest absolute and relative difference,
    and the provenance footers (rows that start with ``#``) if they differ."""
    import numpy as np

    tables = []
    for text in (a, b):
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        footer = [row for row in rows if row and row[0].startswith("#")]
        tables.append((header, [dict(zip(header, row)) for row in rows
                                if row not in footer], footer))
    (header, rows_a, footer_a), (header_b, rows_b, footer_b) = tables
    if header != header_b or len(rows_a) != len(rows_b):
        return ["header %s and %d rows vs header %s and %d rows"
                % (header, len(rows_a), header_b, len(rows_b))]
    problems = []
    for name in header:
        cells = [(x.get(name, ""), y.get(name, "")) for x, y in zip(rows_a, rows_b)
                 if x.get(name) != y.get(name)]
        if not cells:
            continue
        line = "column %s: %d cells differ" % (name, len(cells))
        try:
            x, y = np.array(cells, dtype=float).T
        except ValueError:  # text cells, such as the error column
            problems.append(line)
            continue
        problems.append("%s, %s" % (line, largest_gaps(x, y)))
    if footer_a != footer_b:
        problems.append("footer %s vs %s" % (footer_a, footer_b))
    return problems


def text_differences(a, b):
    """The first line at which two outputs differ, if any."""
    lines_a, lines_b = a.split("\n"), b.split("\n")
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return ["line %d: %r vs %r" % (number, x, y)]
    # otherwise the two differ at most in trailing newlines
    return [] if a == b else ["%d newlines vs %d" % (a.count("\n"), b.count("\n"))]


def item_kind(item):
    """What a file of a run holds: a library result, a demo's output or
    a CLI artifact; None for anything else."""
    if item.suffix == ".pkl":
        return "result"
    if item.parts[0] == "demos":
        return "demo"
    return "artifact" if "out" in item.parts else None


def compare(first, second):
    """Print what differs between two runs; return the number of items
    (files, results and demo outputs) that differ or exist in one run only.
    A missing run directory, or one that holds no item, exits with an
    error: there is nothing to compare."""
    first, second = Path(first), Path(second)
    runs = [{p.relative_to(root) for p in root.rglob("*")
             if p.is_file() and item_kind(p.relative_to(root))} for root in (first, second)]
    for root, run_items in zip((first, second), runs):
        if not run_items:
            raise SystemExit("compare: %s %s" % (root, "holds no CLI artifact, library result "
                                                 "or demo output" if root.is_dir()
                                                 else "does not exist"))
    items = sorted(runs[0] | runs[1])
    counts = {"artifact": [0, 0], "result": [0, 0], "demo": [0, 0]}
    for item in items:
        kind = item_kind(item)
        a, b = first / item, second / item
        if not (a.is_file() and b.is_file()):
            problems = ["only in %s" % (first if a.is_file() else second)]
        elif kind == "demo":
            problems = text_differences(a.read_text(), b.read_text())
        elif kind == "artifact":
            problems = [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]
            if problems and item.suffix == ".json":
                problems = differences(json.loads(a.read_text()),
                                       json.loads(b.read_text()), "") or problems
            elif problems and item.suffix == ".csv":
                problems = csv_differences(a.read_text(), b.read_text()) or problems
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                problems = differences(pickle.load(fa), pickle.load(fb))
        counts[kind][bool(problems)] += 1
        for problem in problems:
            print("%s: %s" % (item, problem))
    print("%d CLI artifacts identical, %d differ; %d library results equal, %d differ; "
          "%d demo outputs identical, %d differ"
          % (*counts["artifact"], *counts["result"], *counts["demo"]))
    return sum(differ for _, differ in counts.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run every workload operation once")
    run_parser.add_argument("--checkout", required=True,
                            help="directory whose src/qplattice is run")
    run_parser.add_argument("--seed", type=int, required=True)
    run_parser.add_argument("--out", required=True, help="new directory for the results")
    compare_parser = commands.add_parser("compare", help="compare two runs")
    compare_parser.add_argument("first")
    compare_parser.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.checkout, args.seed, args.out)
        return 0
    return 1 if compare(args.first, args.second) else 0


if __name__ == "__main__":
    sys.exit(main())
