"""The ROADMAP's baseline calls, timed and traced by this benchmark's harness.

Run from the root of a checkout:

    python3 perfbench/baseline.py

Each call runs ``REPEATS`` times untraced and once traced.  The table
puts the ROADMAP's single-run figure next to the untraced median, the
spread of the repeats (max - min) and the traced inclusive time of the
layer span the call enters.  A figure marked ``differs`` lies further
from the median than the spread of the repeats.
"""

import statistics
import time

import run

REPEATS = 3
ROADMAP = (
    # label, ROADMAP seconds, traced layer span
    ("AMO(0.5) m_matrix at z=0.3+0.01i", 0.6, "weyl.m_matrix"),
    ("K=3 strip lyapunov_spectrum, n=1e4, 32 phases", 2.4, "cocycle.lyapunov_spectrum"),
    ("AMO(0.5) line ids, 2048 sites, 32 phases", 2.7, "measures.ids"),
    ("K=3 strip ids, 256 blocks, 4 phases", 3.5, "measures.ids"),
)


def calls():
    import numpy as np
    import qplattice as qp
    from workloads import almost_mathieu, random_line

    amo = qp.operator_from_config(almost_mathieu(0.5))
    strip3 = qp.fold_to_strip(qp.operator_from_config(
        random_line(np.random.default_rng(0), 3)))
    grid = np.linspace(-3.2, 3.2, 257)
    cocycle = qp.transfer_cocycle(strip3, 0.2)
    return (
        lambda: qp.m_matrix(qp.fold_to_strip(amo), 0.3 + 0.01j),
        lambda: qp.lyapunov_spectrum(cocycle, 10000, samples=32),
        lambda: qp.ids(amo, grid),
        lambda: qp.ids(strip3, np.linspace(-8.0, 8.0, 257), n_sites=256, samples=4),
    )


def main():
    run.load_program()
    import spans

    print("%-48s %8s %8s %8s %8s  %s" % ("call", "roadmap", "median", "spread",
                                         "traced", "verdict"))
    for (label, roadmap, layer), call in zip(ROADMAP, calls()):
        times = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            call()
            times.append(time.perf_counter() - began)
        tracer = spans.Tracer()
        with tracer.install("qplattice"):
            call()
        traced = spans.self_times(tracer.spans)[layer]["inclusive_s"]
        median = statistics.median(times)
        spread = max(times) - min(times)
        verdict = "differs" if abs(roadmap - median) > spread else "agrees"
        print("%-48s %8.3f %8.3f %8.3f %8.3f  %s"
              % (label, roadmap, median, spread, traced, verdict))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
