"""Benchmark of qplattice: seeded workloads through the CLI and the library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbit_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

One caller issues each workload's operations in a closed loop and repeats
the whole sequence (a pass) until ``--seconds`` have gone by; a timing is
the median over the run's passes.  ``--trace 1`` adds one pass with every public
``qplattice`` function wrapped from outside and reports per-layer self
times.  A fixed reference loop (``probe``) is timed between operations,
so each operation's time can also be read at a fixed host speed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record with provenance.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("orbit_sweep", "weyl_near_spectrum", "spectra_tables")
GROUPS = ("lyapunov", "splitting", "thouless", "ids", "weyl", "duality",
          "subordinacy", "verify", "m_matrix_wide", "m_matrix_narrow",
          "green_oracle", "center_growth", "ids_library")

Pass = namedtuple("Pass", "wall_s wall_ref_s probe_s cli_s library_s groups "
                          "attempted failed failures defective defects artifact_bytes")

# The probe's time on a host running at the speed these figures are scaled to.
REF_PROBE_S = 0.010


def program_env():
    """Environment of every process here: one BLAS thread unless the caller
    chose a count, and this checkout's sources first on the path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def load_program():
    """Import qplattice from this checkout; exit non-zero without it."""
    if not (SRC / "qplattice" / "__init__.py").is_file():
        raise SystemExit("perfbench: no qplattice sources under %s" % SRC)
    os.environ.update(program_env())
    sys.path.insert(0, str(SRC))
    import qplattice.cli
    if not Path(qplattice.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("perfbench: imported qplattice from %s, not from %s"
                         % (qplattice.__file__, SRC))


# ── passes ───────────────────────────────────────────────────────────────────


def warm_up(session):
    from workloads import free_line
    command = session.command("lyapunov", {
        "operator": free_line(), "grid": {"values": [3.0]}, "steps": 64, "samples": 2})
    if command() != 0:
        raise SystemExit("perfbench: the warm-up command failed")


def probe():
    """Seconds taken by a fixed reference loop of the kinds of work the
    workloads do: small-matrix products and QR steps, interpreter
    arithmetic and one banded eigensolve.  It calls no qplattice code."""
    import numpy as np
    import scipy.linalg as sla

    rng = np.random.default_rng(0)
    step = np.eye(6) + 0.01 * rng.normal(size=(6, 6))
    band = rng.normal(size=(4, 400))
    began = time.perf_counter()
    frame = np.eye(6, dtype=complex)
    for _ in range(150):
        frame, _ = np.linalg.qr(step @ frame)
    total = 0
    for i in range(15000):
        total += i * i
    sla.eig_banded(band, lower=False, eigvals_only=True)
    return time.perf_counter() - began


def run_pass(ops, session):
    """Issue every operation once, in order; only the call and its check
    are timed.  The probe runs between operations, and each operation's
    time is also scaled by REF_PROBE_S over the mean of the probes on
    either side of it: the host's speed changes for tens of seconds at a
    time, and the scaled figure follows the program rather than the host."""
    from workloads import Check

    session.artifact_bytes = 0
    groups = {}
    totals = {True: 0.0, False: 0.0}
    failures, defects = [], []
    failed = defective = 0
    wall = scaled = 0.0
    probes = [probe()]
    for op in ops:
        began = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed one
            elapsed = time.perf_counter() - began
            checks = [Check("raised %s: %s" % (type(exc).__name__, exc), 1.0, 0.5, False)]
        else:
            elapsed = time.perf_counter() - began
            try:
                checks = op.check(result)
            except Exception as exc:  # e.g. a missing or truncated artifact
                checks = [Check("check raised %s: %s" % (type(exc).__name__, exc),
                                1.0, 0.5, False)]
        checked = time.perf_counter() - began
        probes.append(probe())
        wall += checked
        scaled += checked * REF_PROBE_S / statistics.fmean(probes[-2:])
        groups[op.group] = groups.get(op.group, 0.0) + elapsed
        totals[op.cli] += elapsed
        bad = [c for c in checks if not c.ok and c.gated]
        if bad:
            failed += 1
            failures += [dict(c._asdict(), group=op.group) for c in bad]
        known = [c for c in checks if not c.ok and not c.gated]
        if bad or known:
            defective += 1
            defects += [dict(c._asdict(), group=op.group) for c in known]
    return Pass(wall, scaled, statistics.median(probes), totals[True], totals[False],
                groups, len(ops), failed, failures, defective, defects,
                session.artifact_bytes)


def run(workload, seed, seconds, trace, workdir):
    """Set up, measure for ``seconds`` (at least one pass), and with ``trace``
    add one traced pass.  Returns the result line and the full record."""
    import spans
    from workloads import Session, build

    session = Session(workdir)
    ops = build(workload, seed, session)
    warm_up(session)
    setup_s = time.perf_counter() - PROCESS_START

    # start another pass only while it is expected to end within the budget
    passes, durations = [], []
    began = time.perf_counter()
    while not passes or (time.perf_counter() - began
                         + statistics.median(durations) <= seconds):
        passes.append(run_pass(ops, session))
        durations.append(time.perf_counter() - began - sum(durations))

    def median(field):
        return statistics.median(field(p) for p in passes)

    # On a shared machine the same pass runs up to 1.7 times slower for tens
    # of seconds to minutes at a time, longer than a run; the wall time at
    # the reference probe speed moved far less (perfbench/README.md).
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (median(lambda p: p.wall_ref_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Unscaled times, and times of one command or call type (these exist only
    # on the workloads that issue it), are reported beside the gated metrics.
    per_group = {
        "wall_s": (median(lambda p: p.wall_s), "s"),
        "probe_ms": (1e3 * median(lambda p: p.probe_s), "ms"),
        "cli_s": (median(lambda p: p.cli_s), "s"),
        "library_s": (median(lambda p: p.library_s), "s"),
    }
    per_group.update({"%s_s" % g: (median(lambda p: p.groups.get(g, 0.0)), "s")
                      for g in GROUPS})

    measured = list(passes)
    layers = {}
    if trace:
        tracer = spans.Tracer()
        with tracer.install("qplattice"):
            traced = run_pass(ops, session)
        measured.append(traced)
        layers = {name: (value, _unit(name))
                  for name, value in spans.layer_metrics(tracer.spans).items()}
        layers["cli.artifact_bytes"] = (traced.artifact_bytes, "bytes")
        layers["trace.overhead_s"] = (
            traced.wall_s - statistics.median(p.wall_s for p in passes), "s")
        layers.update(per_group)

    attempted = sum(p.attempted for p in measured)
    failed = sum(p.failed for p in measured)
    metrics = layers if trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    op_counts = {}
    for op in ops:
        op_counts[op.group] = op_counts.get(op.group, 0) + 1
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "provenance": provenance(),
        "passes": len(passes),
        "operations_per_pass": op_counts,
        # every check, known defects included (the result line counts
        # only the gated ones)
        "failed_ratio": sum(p.defective for p in measured) / attempted,
        "failures": _distinct(f for p in measured for f in p.failures),
        "known_defects": _distinct(f for p in measured for f in p.defects),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_wall_ref_s": [p.wall_ref_s for p in passes],
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in {**end_to_end, **per_group}.items()},
    }
    if trace:
        record["per_layer"] = result["metrics"]
    return result, record


def _distinct(misses, limit=20):
    """The first ``limit`` misses, each check once: passes repeat them."""
    seen = {}
    for miss in misses:
        seen.setdefault((miss["group"], miss["label"]), miss)
    return list(seen.values())[:limit]


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "count"


# ── provenance ───────────────────────────────────────────────────────────────


def _blas(module):
    """Name, version and live thread count of the BLAS a package links."""
    import ctypes
    import glob

    info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                        module.__name__ + ".libs", "*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def provenance():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "jobs": 1,
    }


# ── entry point ──────────────────────────────────────────────────────────────


def _print_report(record, result):
    print("perfbench %s seed=%d: %d passes, %d/%d operations failed"
          % (record["workload"], record["seed"], record["passes"],
             result["failed"], result["attempted"]))
    for section in ("end_to_end", "per_layer"):
        for name, metric in record.get(section, {}).items():
            print("  %-40s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-40s %16.6g" % ("failed_ratio", record["failed_ratio"]))
    for kind, key in (("FAILED", "failures"), ("KNOWN DEFECT", "known_defects")):
        for failure in record[key]:
            print("  %s [%s] %s: value %.6g limit %.6g" % (
                kind, failure["group"], failure["label"], failure["value"],
                failure["limit"]))


def _run_all(args):
    """Every workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout[: done.stdout.rstrip().rfind("\n") + 1])
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    if args.workload == "all":
        return _run_all(args)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result, record = run(args.workload, args.seed, args.seconds, args.trace,
                             str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # others may still be using it
            workdir.parent.rmdir()
    record["process_wall_s"] = time.perf_counter() - PROCESS_START
    _print_report(record, result)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
