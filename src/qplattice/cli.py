"""Batch front end: config-driven sweeps with CSV/JSON artifacts.

Every command reads a JSON config file holding the operator description
(the schema consumed by ``operator_from_config``) plus per-command grid
blocks, runs the sweep, and writes one artifact into the output
directory.  Grids are embarrassingly parallel; ``--jobs N`` fans the
grid points over a process pool and the rows come back keyed by grid
index, so serial and parallel runs emit identical bytes.

Exit codes: 0 success, 1 config error, 2 numerical non-convergence on
some grid point (or a duality transform that solves nothing), 3
invariant failure.  Failed grid points are kept in the CSV as ``nan``
rows with the message in a trailing ``error`` column.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from . import __version__
from .linalg import (
    ArgumentError,
    ConvergenceError,
    InvariantError,
    nearest_eigenpair,
)
from .operators import (
    config_digest,
    dual_operator,
    fold_to_strip,
    operator_from_config,
)
from .cocycle import (
    DEFAULT_SAMPLES,
    companion_cocycle,
    lyapunov_spectrum,
    transfer_cocycle,
    upper_lyapunov_sum,
)
from .splitting import DEFAULT_WINDOW, detect_splitting, vertical_angle
from .weyl import spectral_bound
from .measures import (
    DEFAULT_THETA_SAMPLES,
    DEFAULT_TRUNCATION,
    ids,
    thouless_residual,
)
from .longrange import DEFAULT_RADII, subordinacy_probe, duality_transform
from .corpus import cosine_root_state, run_corpus

# a duality transform whose residual exceeds this solves nothing
DUALITY_RESIDUAL_TOL = 1e-6
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOCONV = 2
EXIT_INVARIANT = 3
_REQUIRED = object()


# ── config plumbing ──────────────────────────────────────────────────────────


def _load_config(path):
    if path is None:
        raise ArgumentError("a config file is required (--config PATH)")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ArgumentError("cannot read config: %s" % (exc,)) from exc
    except json.JSONDecodeError as exc:
        raise ArgumentError("config is not valid JSON: %s" % (exc,)) from exc
    if not isinstance(cfg, dict):
        raise ArgumentError("config root must be a JSON object")
    return cfg


def _read(block, key, kind, default=_REQUIRED):
    """``kind(block[key])``, or ``default`` when the key is absent.  A
    missing required key, or a value ``kind`` rejects (a ``dict`` or
    ``str`` entry must already be one), is a config error."""
    if key not in block:
        if default is _REQUIRED:
            raise ArgumentError("config needs the %r key" % (key,))
        return default
    value = block[key]
    try:
        if kind in (dict, str) and not isinstance(value, kind):
            raise TypeError("expected a %s" % kind.__name__)
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ArgumentError("bad %s value %.80r: %s" % (key, value, exc)) from exc


def _ints(values):
    return tuple(int(v) for v in values)


def _parse_grid(block, what="grid"):
    """Grid block: either {"values": [...]} or {start, stop, count[, scale]}."""
    if not isinstance(block, dict):
        raise ArgumentError("missing or malformed %s block" % what)
    try:
        if "values" in block:
            values = np.asarray(block["values"], dtype=float)
        else:
            count = int(block["count"])
            if count <= 0:
                raise ArgumentError("empty %s" % what)
            space = np.geomspace if block.get("scale") == "log" else np.linspace
            values = space(float(block["start"]), float(block["stop"]), count)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError("bad %s block: %s" % (what, exc)) from exc
    if values.ndim != 1 or values.size == 0:
        raise ArgumentError("empty %s" % what)
    return values


def _line_from(cfg):
    return operator_from_config(_read(cfg, "operator", dict))


def _strip_from(cfg):
    return fold_to_strip(_line_from(cfg))


def _orbit_counts(cfg):
    """Orbit steps and phase samples of a QR sweep; a count below one is a
    config error, not a failed row."""
    steps = _read(cfg, "steps", int, 10000)
    samples = _read(cfg, "samples", int, DEFAULT_SAMPLES)
    if steps < 1 or samples < 1:
        raise ArgumentError("steps and samples must be at least one")
    return steps, samples


def _out_path(args, filename):
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ArgumentError("output directory not writable: %s" % (exc,)) from exc
    return os.path.join(args.out, filename)


# ── artifact emission ────────────────────────────────────────────────────────


def _fmt(value):
    return format(float(value), ".17g")


def _emit_csv(cfg, args, filename, header, rows, errors=None, code=EXIT_OK, note=""):
    """Write an RFC-4180 CSV artifact, report it and return the exit code.

    The CSV holds a header row, one row per grid point and a provenance
    footer.  Rows shorter than the header are padded with nan (failed
    points); the ``error`` column appears only when some point failed.
    """
    path = _out_path(args, filename)
    errors = errors or [""] * len(rows)
    has_errors = any(errors)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["error"] if has_errors else header)
        for row, err in zip(rows, errors):
            padded = list(row) + [np.nan] * (len(header) - len(row))
            out = [_fmt(v) for v in padded]
            if has_errors:
                out.append(err)
            writer.writerow(out)
        writer.writerow(["# config=%s version=%s seed=%d"
                         % (config_digest(cfg), __version__, args.seed)])
    print("wrote %s (%d rows%s)" % (path, len(rows), note))
    return code


def _emit_json(cfg, args, filename, payload, code=EXIT_OK, note="", lines=()):
    """Write a JSON artifact with its provenance, print ``lines``, report
    the artifact and return the exit code."""
    path = _out_path(args, filename)
    payload = dict(payload)
    payload["provenance"] = {
        "config": config_digest(cfg),
        "version": __version__,
        "seed": args.seed,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in lines:
        print(line)
    print("wrote %s%s" % (path, note))
    return code


_NOT_CONVERGED = (ConvergenceError, np.linalg.LinAlgError)


def _grid_point(row, not_converged, task):
    """Row, error message and exit code of one grid point; a failed point
    keeps only its energy (the last task entry) and reports why."""
    try:
        return row(*task), "", EXIT_OK
    except not_converged as exc:
        return [task[-1]], str(exc), EXIT_NOCONV
    except InvariantError as exc:
        return [task[-1]], str(exc), EXIT_INVARIANT


def _run_grid(row, tasks, jobs, not_converged=_NOT_CONVERGED):
    """Map a picklable row function over the tasks, keyed by grid index.

    Returns the rows, the error messages and the worst exit code.
    """
    worker = partial(_grid_point, row, not_converged)
    if jobs <= 1:
        results = [worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, tasks))
    rows = [r for r, _, _ in results]
    errors = [e for _, e, _ in results]
    code = max((c for _, _, c in results), default=EXIT_OK)
    return rows, errors, code


# ── grid rows (module level: they must survive pickling) ─────────────────────


def _lyapunov_row(strip, steps, samples, energy):
    est = lyapunov_spectrum(transfer_cocycle(strip, energy), steps, samples=samples)
    return [energy] + [float(x) for x in est.exponents] + [est.spread]


def _splitting_row(strip, theta, window, energy):
    split = detect_splitting(transfer_cocycle(strip, energy), theta, window)
    gap = min(split.certificates) if split.certificates else np.nan
    return [
        energy,
        split.dims[0],
        split.dims[1],
        split.dims[2],
        gap,
        vertical_angle(split.stable),
        vertical_angle(split.center),
    ]


def _thouless_row(op, table, steps, samples, energy):
    lyap = upper_lyapunov_sum(
        companion_cocycle(op, energy), op.hopping.range, steps, samples=samples
    )[0]
    return [energy, lyap, thouless_residual(op, energy, table, lyap)]


# ── commands ─────────────────────────────────────────────────────────────────


def _ids_table(op, energies, block):
    return ids(
        op,
        energies,
        n_sites=_read(block, "truncation", int, DEFAULT_TRUNCATION),
        samples=_read(block, "samples", int, DEFAULT_THETA_SAMPLES),
    )


def _cmd_lyapunov(cfg, args):
    strip = _strip_from(cfg)
    steps, samples = _orbit_counts(cfg)
    energies = _parse_grid(cfg.get("grid"))
    rows, errors, code = _run_grid(
        _lyapunov_row, [(strip, steps, samples, e) for e in energies], args.jobs
    )
    header = (["E"]
              + ["L%d" % j for j in range(1, 2 * strip.width + 1)]
              + ["spread"])
    return _emit_csv(cfg, args, "lyapunov.csv", header, rows, errors, code)


def _cmd_ids(cfg, args):
    table = _ids_table(_line_from(cfg), _parse_grid(cfg.get("grid")), cfg)
    rows = [[e, v] for e, v in zip(table.energies, table.values)]
    return _emit_csv(cfg, args, "ids.csv", ["E", "N"], rows)


def _cmd_weyl(cfg, args):
    strip = _strip_from(cfg)
    eps_grid = (tuple(_parse_grid(cfg["eps_grid"], "eps_grid"))
                if "eps_grid" in cfg else None)
    report = spectral_bound(
        strip,
        _read(cfg, "energy", float),
        eps_grid=eps_grid,
        theta=_read(cfg, "theta", float, 0.0),
        dims=_read(cfg, "dims", _ints, None),
        n_window=_read(cfg, "window", int, DEFAULT_WINDOW),
    )
    header = ["eps", "trace_im", "mu_bound", "growth_bound",
              "criterion_lhs", "criterion_rhs"]
    rows = [
        [eps, report.trace_im[i], report.mu_bound[i], report.jl_rhs[i],
         report.criterion_lhs[i], report.criterion_rhs[i]]
        for i, eps in enumerate(report.eps_grid)
    ]
    note = ("; growth constant %.6g, criterion constant %.6g"
            % (report.jl_constant, report.criterion_constant))
    return _emit_csv(cfg, args, "weyl.csv", header, rows, note=note)


def _cmd_splitting(cfg, args):
    strip = _strip_from(cfg)
    energies = _parse_grid(cfg.get("grid"))
    theta = _read(cfg, "theta", float, 0.0)
    window = _read(cfg, "window", int, DEFAULT_WINDOW)
    rows, errors, code = _run_grid(
        _splitting_row, [(strip, theta, window, e) for e in energies], args.jobs
    )
    header = ["E", "dim_unstable", "dim_center", "dim_stable", "gap",
              "angle_stable", "angle_center"]
    return _emit_csv(cfg, args, "splitting.csv", header, rows, errors, code)


def _cmd_thouless(cfg, args):
    op = _line_from(cfg)
    steps, samples = _orbit_counts(cfg)
    energies = _parse_grid(cfg.get("grid"))
    ids_block = _read(cfg, "ids", dict, {})
    if "values" in ids_block or "count" in ids_block:
        table_grid = _parse_grid(ids_block, "ids grid")
    else:
        bound = 1.05 * op.norm_bound()
        table_grid = np.linspace(-bound, bound, 257)
    table = _ids_table(op, table_grid, ids_block)
    # an energy the table cannot serve (next to its mass) fails only its row
    rows, errors, code = _run_grid(
        _thouless_row, [(op, table, steps, samples, e) for e in energies],
        args.jobs, _NOT_CONVERGED + (ArgumentError,),
    )
    header = ["E", "exponent_sum", "residual"]
    return _emit_csv(cfg, args, "thouless.csv", header, rows, errors, code)


def _cmd_subordinacy(cfg, args):
    op = _line_from(cfg)
    energy = _read(cfg, "energy", float)
    radii = _read(cfg, "radii", _ints, DEFAULT_RADII)
    if not radii:
        raise ArgumentError("empty radii grid")
    solution = _read(cfg, "solution", dict, {"type": "cosine_root"})
    kind = solution.get("type")
    if kind == "cosine_root":
        n_max = 2 * max(radii) + op.hopping.range + 8
        u, _root = cosine_root_state(op, n_max)
        first = -n_max
    elif kind == "values":
        u = _read(solution, "values", partial(np.asarray, dtype=float))
        first = _read(solution, "first_site", int)
    else:
        raise ArgumentError("solution type must be cosine_root or values")
    report = subordinacy_probe(
        op,
        energy,
        u,
        r_grid=radii,
        alpha=_read(cfg, "alpha_exponent", float, 1.0),
        first_site=first,
    )
    return _emit_json(cfg, args, "subordinacy.json", asdict(report),
                      EXIT_OK if report.ok else EXIT_INVARIANT,
                      " (trend: %s)" % report.trend)


def _cmd_duality(cfg, args):
    op = _line_from(cfg)
    energy = _read(cfg, "energy", float)
    x = _read(cfg, "x", float, 0.0)
    truncation = _read(cfg, "truncation", int, 2001)
    window = _read(cfg, "window", int, 512)
    if window < op.hopping.range:
        raise ArgumentError("window must reach the hopping range")
    if truncation < 2 * window + 1:
        raise ArgumentError("truncation must cover the output window")
    dual = replace(dual_operator(op), theta=x)
    value, vector = nearest_eigenpair(dual.assemble_banded(truncation), energy)
    first_index = -(truncation // 2)
    sites = np.arange(-window, window + 1)
    u = duality_transform(vector, first_index, x, op.theta, op.alpha, sites)
    scale = float(np.max(np.abs(u)))
    if scale <= 0:
        raise ConvergenceError("duality transform produced the zero sequence")
    u = u / scale
    hu = op.apply(u, first_site=-window)
    k = op.hopping.range
    residual = float(np.max(np.abs(hu - value * u)[k : u.size - k]))
    # Concentration is measured around the eigenvector's own peak: a
    # localized dual state can sit anywhere in the truncation box.
    weights = np.abs(vector)
    peak = int(np.argmax(weights))
    inner = np.abs(np.arange(truncation) - peak) <= window // 2
    tail = float(weights[~inner].sum() / weights.sum())
    payload = {
        "target_energy": energy,
        "dual_energy": value,
        "bloch_phase": x,
        "residual": residual,
        "dual_peak_site": peak + first_index,
        "dual_tail_mass": tail,
        "truncation": truncation,
        "window": window,
    }
    return _emit_json(cfg, args, "duality.json", payload,
                      EXIT_OK if residual <= DUALITY_RESIDUAL_TOL else EXIT_NOCONV,
                      " (dual energy %.12g, residual %.3e)" % (value, residual))


def _cmd_verify(cfg, args):
    manifest = run_corpus(_read(cfg, "filter", str, None))
    if not manifest["entries"]:
        raise ArgumentError("filter %r matches no corpus entry" % cfg["filter"])
    lines = []
    for entry in manifest["entries"]:
        lines.append("%-20s %s" % (entry["name"], "ok" if entry["ok"] else "FAIL"))
        if not entry["ok"]:
            lines.extend("    %-28s value %.6g limit %.6g"
                         % (check["label"], check["value"], check["limit"])
                         for check in entry["checks"] if not check["ok"])
    return _emit_json(cfg, args, "verify.json", manifest,
                      EXIT_OK if manifest["ok"] else EXIT_INVARIANT, lines=lines)


COMMANDS = {
    "lyapunov": (_cmd_lyapunov, "Lyapunov spectrum over an energy grid -> CSV"),
    "ids": (_cmd_ids, "integrated density of states over an energy grid -> CSV"),
    "weyl": (_cmd_weyl,
             "boundary-matrix traces and bounds over imaginary offsets -> CSV"),
    "splitting": (_cmd_splitting,
                  "splitting dimensions, gaps, and angles over energies -> CSV"),
    "thouless": (_cmd_thouless, "exponent-sum / state-density residuals -> CSV"),
    "subordinacy": (_cmd_subordinacy, "boundary-pairing probe at one energy -> JSON"),
    "duality": (_cmd_duality, "dual eigenvector transform residual -> JSON"),
    "verify": (_cmd_verify, "run the reference battery; nonzero exit on failure"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qplattice",
        description="Quasi-periodic lattice-operator sweeps: Lyapunov spectra, "
                    "state densities, boundary matrices, splittings, and the "
                    "reference verification battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config file (optional only for verify)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="process-pool width for grid sweeps")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in artifact provenance; sweeps are "
                            "deterministic")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if (args.config or args.command != "verify") else {}
        return COMMANDS[args.command][0](cfg, args)
    except ArgumentError as exc:
        print("config error: %s" % (exc,), file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print("did not converge: %s" % (exc,), file=sys.stderr)
        return EXIT_NOCONV
    except InvariantError as exc:
        print("invariant violated: %s" % (exc,), file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
