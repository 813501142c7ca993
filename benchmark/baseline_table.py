"""Per-operation reference table on N x N cylinders (not a benchmark metric).

    python3 benchmark/baseline_table.py

Regenerates the table of single library calls on
``catalog.cylinder_net(N, N, 2/N, 2 pi/N)``, N = 16, 32, 64, that the
ROADMAP baseline quotes.  Each cell is the minimum of ``REPEAT`` calls in
milliseconds, followed in brackets by their median calibrated as in
``timing.py``.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import timing  # noqa: E402
from isothermic import catalog, conserved, minkowski, nets, transforms  # noqa: E402

#: Grid sizes N and calls per cell.
SIZES = (16, 32, 64)
REPEAT = 3


def operations(N):
    net = catalog.cylinder_net(N, N, 2.0 / N, 2.0 * np.pi / N)
    cq = catalog.cylinder_quantity(net)
    center = net.domain.center()
    start = minkowski.euclidean_lift(np.array([3.0, 0.5, 0.2]))
    backlund = transforms.darboux_propagate(net, -1.0, transforms.backlund_init(cq, -1.0, 0.3))
    return {
        "verify_isothermic": lambda: nets.verify_isothermic(net.lifts),
        "face_regularity": lambda: nets.face_regularity(net.lifts),
        "holonomy_residual (1 lambda)": lambda: nets.holonomy_residual(net, [0.4]),
        "lcq_solve_grid": lambda: conserved.lcq_solve_grid(net, minkowski.Q_EUCLIDEAN),
        "pcq_propagate": lambda: conserved.pcq_propagate(net, cq.at(center), center),
        "calapso": lambda: nets.calapso(net, 0.2),
        "darboux_propagate": lambda: transforms.darboux_propagate(net, 0.4, start),
        "pcq_verify": lambda: conserved.pcq_verify(net, cq),
        "pcq_backlund": lambda: transforms.pcq_backlund(cq, backlund),
    }


def main() -> int:
    clock = timing.Clock()
    table = {}
    for N in SIZES:
        for name, fn in operations(N).items():
            table.setdefault(name, {})[N] = [clock.measure(fn)[1] for _ in range(REPEAT)]

    print("| op | " + " | ".join(f"{N}²" for N in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    for name, row in table.items():
        cells = [f"{min(s[0] for s in row[N]) * 1e3:.0f} ms ({clock.calibrated(row[N]) * 1e3:.0f})"
                 for N in SIZES]
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
