#!/usr/bin/env python3
"""Time the layers of greensign one by one, on fixed seeded inputs.

    python scripts/layer_times.py [OTHER_TREE]

Each layer is one library call, timed alone in CPU time
(time.process_time) after one warm-up call, REPEATS times; the median is
printed in milliseconds.  The layers are transfer_matrix at 1, 2 and 6
shifts, plain and lifted, a FundamentalSolutions build, a 201 x 201
grid_eval, max_kernel_value, gamma_quadrature with the principal
eigenfunction weight at t-grid 41, solve_linear on 101 nodes,
solve_nonlinear on 2001 nodes for f = 1 + 50x, the subinterval search
(find_subinterval), and build_report at t-grid 41 and cone grid 201 for
f = 1 + x/(1+x).  Each runs under periodic conditions, and
gamma_quadrature also under Dirichlet ones, whose separated kernel sums
its slices on a path of its own (gamma._fixed_parts), on three
potentials: two sampled on 2001 nodes, "wavy", a(t) = 60 + 10 sin(2 pi t),
and "trig", one seeded draw of the kind the numeric-report benchmark
workload draws (mean in [45, 80], three modes of amplitude at most 2.5),
and "rho", the constant a = 60 of the paper's clamped example, whose
kernels are exact: on it solve_nonlinear starts from the solve on the
kernel of a - 50, on the sampled ones from the first image.
A call that reads a kernel gets a fresh one, built outside the timing, as
each CLI job builds its own; build_report, which builds its kernel and its
weight itself, gets a fresh copy of the potential, with nothing cached on
it.

Given OTHER_TREE, a checkout root with its own src/, each of ROUNDS rounds
runs the layers once in a subprocess on this tree and once on that one,
the order alternating from round to round, and it prints per layer the
median of each tree's times, the median over rounds of this tree's time
over the other's, and the rounds in which this tree was faster.
"""
import dataclasses
import pathlib
import statistics
import sys
import time

SCRIPTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS))
from trees import in_tree  # noqa: E402
#: timed calls of each layer per process
REPEATS = 51
#: subprocesses per tree when two trees are compared
ROUNDS = 9
SEED = 7


def potentials() -> dict:
    """The three potentials the layers run on."""
    import math

    import numpy as np

    from greensign.potentials import constant, sampled

    ts = np.linspace(0.0, 1.0, 2001)
    rng = np.random.default_rng(SEED)
    mean, alpha, beta = rng.uniform(45.0, 80.0), rng.uniform(-2.5, 2.5, 3), rng.uniform(-2.5, 2.5, 3)
    k = np.arange(1, 4)[:, None]
    trig = mean + np.sum(alpha[:, None] * np.cos(2 * np.pi * k * ts)
                         + beta[:, None] * np.sin(2 * np.pi * k * ts), axis=0)
    return {"wavy": sampled(ts, 60.0 + 10.0 * np.sin(2 * np.pi * ts)),
            "trig": sampled(ts, trig), "rho": constant(math.sqrt(60.0))}


def layers(pot) -> list:
    """(name, make) for each layer on pot: make() returns the call to time."""
    import numpy as np

    from greensign.cone import build_report, find_subinterval, max_kernel_value
    from greensign.fundamental import FundamentalSolutions, transfer_matrix
    from greensign.gamma import gamma_quadrature
    from greensign.greens import build_kernel
    from greensign.potentials import BoundaryKind
    from greensign.solver import solve_linear, solve_nonlinear
    from greensign.spectral import principal_eigenfunction

    bc, dirichlet = BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET
    lams = np.random.default_rng(SEED).uniform(-50.0, 300.0, 6)
    weight = principal_eigenfunction(pot, bc)
    sine = principal_eigenfunction(pot, dirichlet)
    ss = np.linspace(0.0, 1.0, 201)

    def sigma(t):
        return 1.0 + 0.5 * np.cos(2 * np.pi * t)

    def f(t, x):
        return 1.0 + x / (1.0 + x)

    def affine(t, x):
        return 1.0 + 50.0 * x

    out = [(f"transfer_matrix {k} {'lifted' if lift else 'plain'}",
            lambda k=k, lift=lift: lambda: transfer_matrix(pot, lams[:k], lift=lift))
           for k in (1, 2, 6) for lift in (False, True)]
    kernel = build_kernel(pot, bc)
    return out + [
        ("FundamentalSolutions", lambda: lambda: FundamentalSolutions(pot, 1.5)),
        ("grid_eval 201x201", lambda: lambda: kernel.grid_eval(ss, ss)),
        ("max_kernel_value", lambda: lambda k=build_kernel(pot, bc): max_kernel_value(k)),
        ("gamma_quadrature t-grid 41",
         lambda: lambda k=build_kernel(pot, bc): gamma_quadrature(k, weight, 41)),
        ("gamma_quadrature t-grid 41 dirichlet",
         lambda: lambda k=build_kernel(pot, dirichlet): gamma_quadrature(k, sine, 41)),
        ("solve_linear 101 nodes",
         lambda: lambda k=build_kernel(pot, bc): solve_linear(k, sigma, 101)),
        ("solve_nonlinear 2001 nodes",
         lambda: lambda k=build_kernel(pot, bc): solve_nonlinear(k, affine, 2001)),
        ("find_subinterval", lambda: lambda k=build_kernel(pot, bc): find_subinterval(k)),
        ("build_report t-grid 41",
         lambda: lambda p=dataclasses.replace(pot): build_report(p, bc, f, 201, 41)),
    ]


def measure(repeats: int = REPEATS) -> dict:
    """{'layer [potential]': median CPU seconds} on the greensign importable here."""
    out = {}
    for label, pot in potentials().items():
        for name, make in layers(pot):
            make()()
            times = []
            for _ in range(repeats):
                call = make()
                start = time.process_time()
                call()
                times.append(time.process_time() - start)
            out[f"{name} [{label}]"] = statistics.median(times)
    return out


def main(argv: list, rounds: int = ROUNDS, repeats: int = REPEATS) -> int:
    if len(argv) > 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    if not argv:
        for name, t in measure(repeats).items():
            print(f"{name:44s} {1e3 * t:9.3f} ms")
        return 0
    trees = (SCRIPTS.parent, pathlib.Path(argv[0]).resolve())
    here, there = [], []
    for r in range(rounds):
        for tree in trees[::1 if r % 2 == 0 else -1]:
            times = in_tree(tree, "layer_times", "measure", repeats)
            (here if tree is trees[0] else there).append(times)
    print(f"{'layer':44s} {'this ms':>9s} {'other ms':>9s} {'ratio':>6s}  won")
    for name in here[0]:
        a, b = [x[name] for x in here], [x[name] for x in there]
        ratio = statistics.median(x / y for x, y in zip(a, b))
        won = sum(x < y for x, y in zip(a, b))
        print(f"{name:44s} {1e3 * statistics.median(a):9.3f} {1e3 * statistics.median(b):9.3f} "
              f"{ratio:6.3f}  {won}/{rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
