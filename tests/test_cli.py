"""Command-line artifacts: sweeps, exit codes, bytes, and provenance."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from qplattice import __version__
from qplattice.cli import main
from qplattice.operators import config_digest

FREE_OPERATOR = {
    "hopping": [[1, 1.0, 0.0]],
    "potential": {"type": "fourier", "coefficients": []},
    "epsilon": 0.0,
}
AMO_HALF = {
    "hopping": [[1, 1.0, 0.0]],
    "potential": {"type": "fourier", "coefficients": [[1, 0.5, 0.0], [-1, 0.5, 0.0]]},
    "theta": 0.2,
    "epsilon": 1.0,
}
FREE_EXPONENT_AT_3 = 0.9624236501192069
STABLE_ANGLE_AT_3 = 0.3648638281134832


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_table(path):
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[-1][0].startswith("# config=")
    return lines[0], lines[1:-1], lines[-1][0]


# ── sweeps and artifacts ─────────────────────────────────────────────────────

def test_lyapunov_artifact(tmp_path):
    cfg = {"operator": FREE_OPERATOR, "grid": {"values": [3.0, 4.0]},
           "steps": 3000, "samples": 4}
    assert main(["lyapunov", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    header, rows, footer = read_table(tmp_path / "lyapunov.csv")
    assert header == ["E", "L1", "L2", "spread"]
    assert len(rows) == 2
    energy, top, bottom, spread = (float(v) for v in rows[0])
    assert energy == 3.0
    assert abs(top - FREE_EXPONENT_AT_3) < 5e-3
    assert abs(top + bottom) < 1e-9      # exponents pair to zero
    assert spread < 1e-6                 # constant potential: no phase scatter
    assert footer == "# config=%s version=%s seed=0" % (config_digest(cfg),
                                                        __version__)


@pytest.mark.parametrize("command, cfg", [
    ("lyapunov", {"operator": FREE_OPERATOR,
                  "grid": {"start": 2.5, "stop": 4.5, "count": 3},
                  "steps": 1500, "samples": 4}),
    ("splitting", {"operator": AMO_HALF, "grid": {"values": [3.0, 0.335]}}),
    ("thouless", {"operator": AMO_HALF, "grid": {"values": [3.0, 2.5]},
                  "steps": 1500, "samples": 4,
                  "ids": {"truncation": 256, "samples": 4}}),
], ids=["lyapunov", "splitting", "thouless"])
def test_parallel_runs_emit_identical_bytes(tmp_path, command, cfg):
    # the rows ship the built operator (and the thouless table) to the pool
    path = write_config(tmp_path, cfg)
    serial, fanned = tmp_path / "serial", tmp_path / "fanned"
    assert main([command, "--config", path, "--out", str(serial)]) == 0
    assert main([command, "--config", path, "--out", str(fanned),
                 "--jobs", "2"]) == 0
    artifact = command + ".csv"
    assert (serial / artifact).read_bytes() == (fanned / artifact).read_bytes()


def test_ids_artifact(tmp_path):
    cfg = {"operator": FREE_OPERATOR,
           "grid": {"start": -2.5, "stop": 2.5, "count": 41},
           "truncation": 256, "samples": 4}
    assert main(["ids", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    header, rows, _ = read_table(tmp_path / "ids.csv")
    assert header == ["E", "N"]
    assert len(rows) == 41
    values = np.array([float(r[1]) for r in rows])
    assert values[20] == 0.5             # grid midpoint sits at zero energy
    assert np.all(np.diff(values) >= 0)
    assert values[0] == 0.0 and values[-1] == 1.0


def test_splitting_survey(tmp_path):
    cfg = {"operator": FREE_OPERATOR, "grid": {"values": [3.0, 0.0]}}
    assert main(["splitting", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    header, rows, _ = read_table(tmp_path / "splitting.csv")
    assert header == ["E", "dim_unstable", "dim_center", "dim_stable", "gap",
                      "angle_stable", "angle_center"]
    hyperbolic, elliptic = rows
    assert [float(v) for v in hyperbolic[1:4]] == [1.0, 0.0, 1.0]
    assert float(hyperbolic[4]) > 1.0
    assert abs(float(hyperbolic[5]) - STABLE_ANGLE_AT_3) < 1e-6
    assert [float(v) for v in elliptic[1:4]] == [0.0, 2.0, 0.0]
    assert elliptic[4] == "nan"


def test_thouless_partial_failure_keeps_good_rows(tmp_path):
    # the second energy sits on the spectrum, where the quadrature refuses
    cfg = {"operator": FREE_OPERATOR, "grid": {"values": [3.0, 0.0]},
           "steps": 3000, "samples": 4,
           "ids": {"truncation": 256, "samples": 4}}
    assert main(["thouless", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 2
    header, rows, _ = read_table(tmp_path / "thouless.csv")
    assert header == ["E", "exponent_sum", "residual", "error"]
    good, bad = rows
    assert float(good[2]) < 1e-2 and good[3] == ""
    assert bad[1] == "nan" and "grid step" in bad[3]


def test_thouless_reads_an_explicit_ids_grid(tmp_path):
    # an ids block with a grid of its own replaces the default table grid
    # (257 points over 1.05 times the norm bound)
    residuals = []
    for ids_block in ({"start": -3.5, "stop": 3.5, "count": 257},
                      {}):
        cfg = {"operator": FREE_OPERATOR, "grid": {"values": [3.0]},
               "steps": 3000, "samples": 4,
               "ids": dict(ids_block, truncation=256, samples=4)}
        assert main(["thouless", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        header, (row,), _ = read_table(tmp_path / "thouless.csv")
        assert header == ["E", "exponent_sum", "residual"]
        assert abs(float(row[1]) - FREE_EXPONENT_AT_3) < 5e-3
        residuals.append(float(row[2]))
    assert max(residuals) < 1e-2
    assert residuals[0] != residuals[1]


def test_weyl_artifact(tmp_path):
    cfg = {"operator": FREE_OPERATOR, "energy": 0.0,
           "eps_grid": {"values": [0.1, 0.03]}}
    assert main(["weyl", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    header, rows, _ = read_table(tmp_path / "weyl.csv")
    assert header == ["eps", "trace_im", "mu_bound", "growth_bound",
                      "criterion_lhs", "criterion_rhs"]
    for row in rows:
        values = [float(v) for v in row]
        assert values[1] > 0
        assert values[2] <= values[3] * (1 + 1e-9)


def test_weyl_declared_dims_write_the_detected_rows(tmp_path):
    cfg = {"operator": FREE_OPERATOR, "energy": 0.0,
           "eps_grid": {"values": [0.1, 0.03]}}
    configs = {"detected": cfg, "declared": dict(cfg, dims=[0, 2, 0])}
    tables = {}
    for name, payload in configs.items():
        assert main(["weyl", "--config", write_config(tmp_path, payload, name + ".json"),
                     "--out", str(tmp_path / name)]) == 0
        tables[name] = read_table(tmp_path / name / "weyl.csv")
    assert tables["declared"][:2] == tables["detected"][:2]
    # only the footer differs: it carries the config digest
    assert tables["declared"][2] == "# config=%s version=%s seed=0" % (
        config_digest(configs["declared"]), __version__) != tables["detected"][2]


def test_weyl_needs_a_neutral_direction(tmp_path):
    cfg = {"operator": FREE_OPERATOR, "energy": 3.0,
           "eps_grid": {"values": [0.1]}}
    assert main(["weyl", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 1


# ── config errors ────────────────────────────────────────────────────────────

def test_config_errors(tmp_path):
    assert main(["lyapunov", "--out", str(tmp_path)]) == 1
    assert main(["lyapunov", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 1
    empty = write_config(tmp_path, {"operator": FREE_OPERATOR,
                                    "grid": {"values": []}}, "empty.json")
    assert main(["lyapunov", "--config", empty, "--out", str(tmp_path)]) == 1
    bad_root = tmp_path / "list.json"
    bad_root.write_text("[1, 2]")
    assert main(["ids", "--config", str(bad_root), "--out", str(tmp_path)]) == 1
    not_json = tmp_path / "broken.json"
    not_json.write_text('{"operator": ')
    assert main(["ids", "--config", str(not_json), "--out", str(tmp_path)]) == 1
    # sizes below one: step and sample counts, radii, the duality window
    for command, cfg in [
        ("lyapunov", {"grid": {"values": [3.0]}, "steps": 0}),
        ("lyapunov", {"grid": {"values": [3.0]}, "steps": -5}),
        ("lyapunov", {"grid": {"values": [3.0]}, "samples": 0}),
        ("thouless", {"grid": {"values": [3.0]}, "steps": 0}),
        ("thouless", {"grid": {"values": [3.0]}, "samples": 0}),
        ("ids", {"grid": {"values": [-1.0, 1.0]}, "truncation": 64, "samples": 0}),
        ("duality", {"energy": 0.5, "truncation": 101, "window": 0}),
        ("subordinacy", {"energy": 0.0, "radii": [0, 16]}),
        ("subordinacy", {"energy": 0.0, "radii": []}),
        # values of the wrong type or form
        ("lyapunov", {"grid": {"values": [3.0]}, "steps": "many"}),
        ("splitting", {"grid": {"values": [3.0]}, "window": None}),
        ("weyl", {"energy": "x"}),
        ("thouless", {"grid": {"values": [3.0]}, "ids": 5}),
        ("subordinacy", {"energy": 0.0, "solution": []}),
        ("subordinacy", {"energy": 0.0, "solution": {"type": "plane_wave"}}),
        ("duality", {"energy": 0.5, "x": "a"}),
        ("ids", {"grid": {"values": [-1.0, 1.0]}, "samples": [4]}),
        ("verify", {"filter": 3}),
        ("verify", {"filter": "zzz"}),
    ]:
        path = write_config(tmp_path, dict(cfg, operator=FREE_OPERATOR), "sizes.json")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1, cfg


# ── JSON commands ────────────────────────────────────────────────────────────

def test_subordinacy_report(tmp_path):
    cfg = {"operator": FREE_OPERATOR, "energy": 0.0, "radii": [64, 128]}
    assert main(["subordinacy", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "subordinacy.json").read_text())
    assert payload["ok"] is True
    assert payload["trend"] == "saturating"
    assert len(payload["records"]) == 2
    prov = payload["provenance"]
    assert prov == {"config": config_digest(cfg), "version": __version__,
                    "seed": 0}


def test_subordinacy_takes_solution_values(tmp_path):
    # cos(pi n / 2) solves the free line at energy 0: given as values on
    # sites -264 .. 264 it yields the records of the built-in cosine root
    first = -264
    values = np.cos(np.pi * np.arange(first, -first + 1) / 2).tolist()
    payloads = []
    for solution in ({"type": "values", "values": values, "first_site": first},
                     {"type": "cosine_root"}):
        cfg = {"operator": FREE_OPERATOR, "energy": 0.0, "radii": [64, 128],
               "solution": solution}
        assert main(["subordinacy", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        payloads.append(json.loads((tmp_path / "subordinacy.json").read_text()))
    assert payloads[0]["ok"] is True
    assert payloads[0]["records"] == payloads[1]["records"]


def test_duality_report(tmp_path):
    # 0.335 lies in the spectrum of AMO_HALF; 0.5 lies in the gap between
    # its bands at 0.335 and 1.298, where the nearest dual eigenvalue
    # belongs to a state bound to the truncation's end (site 400), whose
    # transform solves nothing: the report is still written, with exit 2
    for energy, dual_energy, solves in ((0.335, 0.3350041705931766, True),
                                        (0.5, 0.5590958685625913, False)):
        cfg = {"operator": AMO_HALF, "energy": energy,
               "truncation": 801, "window": 128}
        assert main(["duality", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == (0 if solves else 2)
        payload = json.loads((tmp_path / "duality.json").read_text())
        assert abs(payload["dual_energy"] - dual_energy) < 1e-9
        assert (payload["residual"] < 1e-6) == solves
        assert 0.0 <= payload["dual_tail_mass"] <= 1.0
        assert payload["window"] == 128


def test_duality_command_memory(tmp_path):
    # the default truncation and window, where a dense sites x coefficients
    # transform would take about 78 MB
    cfg = write_config(tmp_path, {"operator": AMO_HALF, "energy": 0.335,
                                  "truncation": 2001, "window": 512})
    tracemalloc.start()
    try:
        assert main(["duality", "--config", cfg, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_verify_filtered(tmp_path):
    cfg = {"filter": "free"}
    assert main(["verify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["ok"] is True
    (entry,) = payload["entries"]
    assert entry["name"] == "free_laplacian"
