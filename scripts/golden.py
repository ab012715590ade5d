#!/usr/bin/env python3
"""Print one SHA-256 per output of a fixed list of CLI calls.

Runs every call in-process through ``greensign.cli.main`` and hashes what it
writes: the CSV file for ``figure N``, stdout for everything else.  An
exception that escapes ``main`` is printed as ``exit=uncaught <Type>`` and
its message is hashed.  Two trees that print the same lines produce
byte-identical outputs on these calls, so comparing the lines of two
checkouts checks that a change kept the outputs:

    PYTHONPATH=src python scripts/golden.py > golden.txt

scripts/golden_diff.py runs the same calls in two trees and measures how
far the numbers of each output that differs have moved.

The sampled potentials are "wavy", a(t) = 60 + 10 sin(2 pi t),
"repro-a", a(t) = 30 + 0.01 cos(2 pi t) + 5 cos(6 pi t), whose first
antiperiodic gap is narrow, and "half-period", a(t) = 2000 sin(4 pi t),
whose antiperiodic gaps are all closed; each is written on 2001 nodes to a
temporary CSV file.
"""
import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

import numpy as np

from greensign.cli import main as cli_main

WAVY_F = "1 + x/(1+x)"


POTENTIALS = {
    "wavy": lambda t: 60 + 10 * np.sin(2 * np.pi * t),
    "repro-a": lambda t: 30 + 0.01 * np.cos(2 * np.pi * t) + 5 * np.cos(6 * np.pi * t),
    "half-period": lambda t: 2000 * np.sin(4 * np.pi * t),
}


def write_samples(path: pathlib.Path, a) -> None:
    ts = np.linspace(0.0, 1.0, 2001)
    rows = [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, a(ts))]
    path.write_text("t,a\n" + "\n".join(rows) + "\n")


def calls(wavy: str, repro_a: str, half_period: str) -> list:
    out = [["figure", str(n)] for n in range(1, 6)]
    # eigenvalue search: the spectra the periodic sign verdict compares
    for bc in ("periodic", "antiperiodic"):
        out.append(["eigen", "--bc", bc, "--samples", wavy, "--count", "6"])
    out.append(["classify", "--bc", "periodic", "--samples", wavy])
    for bc in ("periodic", "dirichlet"):
        src = ["--bc", bc, "--samples", wavy]
        out += [["gamma", *src], ["check", *src, "--f", WAVY_F],
                ["solve", *src, "--rhs", "1"]]
    # the numeric root finder at pinned ends: Neumann pins none, mixed1
    # pins u(T), mixed2 u(0), and a coarse grid tests the Dirichlet ends
    for bc in ("neumann", "mixed1", "mixed2"):
        src = ["--bc", bc, "--samples", wavy]
        out += [["gamma", *src], ["solve", *src, "--rhs", "1"]]
    out.append(["gamma", "--bc", "dirichlet", "--samples", wavy, "--grid", "251"])
    out.append(["check", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "t*(1-t)"])
    # fixed-point solves: a contraction, and a periodic f whose damped
    # Picard map is not contractive, which the Anderson-mixed steps solve
    # (u = 1/15.25); JSON carries their converged flag and step count, which
    # CSV leaves to stderr
    out.append(["solve", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "t*(1-t) + 5*x", "--format", "json"])
    out.append(["solve", "--bc", "periodic", "--rho", "7.5",
                "--f", "1 + 41*x", "--format", "json"])
    # a weakly nonlinear f, on which the shifted start of an exact kernel is
    # one chord step and not the answer, and whose positive solution the
    # hypothesis report also certifies
    out.append(["solve", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "sin(pi*t)*(1+0.1*sin(x))", "--format", "json"])
    # a narrow antiperiodic gap, which decides the periodic sign class
    for bc in ("periodic", "antiperiodic"):
        out.append(["eigen", "--bc", bc, "--samples", repro_a, "--count", "6"])
    out.append(["classify", "--bc", "periodic", "--samples", repro_a])
    # the weight labels: the coefficient weight of gamma_star, the weight
    # one, and a Neumann check, which reports both weighted ratios
    for weight in ("coefficient", "one"):
        out.append(["gamma", "--bc", "periodic", "--samples", wavy,
                    "--weight", weight])
    out.append(["check", "--bc", "neumann", "--samples", wavy, "--f", WAVY_F])
    # kernel tables on the outer grid, numeric and closed form
    for bc in ("periodic", "mixed1"):
        out.append(["green", "--bc", bc, "--samples", wavy, "--nodes", "51"])
    out.append(["green", "--bc", "dirichlet", "--rho", "7.5", "--nodes", "51"])
    # a cone grid too coarse to put an s-sample in every T/64 window
    out.append(["check", "--bc", "dirichlet", "--rho", "7.5", "--f", "1",
                "--cone-grid", "2"])
    # the characteristic value of each separated condition, the mixed
    # spectra a Neumann verdict compares, and the boundary error and
    # positivity verdict of a paired and a separated solve
    for bc in ("dirichlet", "neumann", "mixed1", "mixed2"):
        out.append(["eigen", "--bc", bc, "--samples", wavy, "--count", "6"])
    out.append(["classify", "--bc", "neumann", "--samples", wavy])
    for bc in ("antiperiodic", "neumann"):
        out.append(["solve", "--bc", bc, "--samples", wavy, "--rhs", "1",
                    "--format", "json"])
    # a non-contractive Dirichlet solve, u'' + 10 u = 1 written as
    # u'' + 60 u = 1 + 50 u, on which damped Picard steps diverge
    out.append(["solve", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "1+50*x", "--format", "json"])
    # eigenvalues at full precision (JSON prints every digit; the text lines
    # above round to 12), on the narrow-gap potential under every condition
    for bc in ("periodic", "antiperiodic", "dirichlet", "neumann", "mixed1",
               "mixed2"):
        out.append(["eigen", "--bc", bc, "--samples", repro_a, "--count", "8",
                    "--format", "json"])
    # the sign verdict of every separated condition on both potentials, and
    # the Neumann verdict, decided by both mixed spectra, on the narrow gap
    for bc in ("dirichlet", "mixed1", "mixed2"):
        out += [["classify", "--bc", bc, "--samples", src] for src in (wavy, repro_a)]
    out.append(["classify", "--bc", "neumann", "--samples", repro_a])
    # fine-check verdicts on a coarse grid, which JSON carries: the
    # non-contractive Dirichlet solve above, and a periodic one without a
    # solution (u'' + 4 pi^2 u = cos 2 pi t), both converged=false at 101 nodes
    coarse = ["--solve-grid", "101", "--format", "json"]
    out.append(["solve", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "1+50*x", *coarse])
    out.append(["solve", "--bc", "periodic", "--rho", "7.5",
                "--f", "cos(2*pi*t) + (7.5^2 - 4*pi^2)*x", *coarse])
    # ratios at full precision: the coefficient weight, whose kinks sit at
    # the sample nodes, and a coarse kernel grid, whose pair kinks at its nodes
    out.append(["gamma", "--bc", "neumann", "--samples", wavy,
                "--weight", "coefficient", "--format", "json"])
    out.append(["gamma", "--bc", "dirichlet", "--samples", wavy, "--grid", "251",
                "--format", "json"])
    # the limit slices at a pinned end, u(T) = 0 and u(0) = 0, in full (the
    # text lines above round to 12 digits)
    for bc in ("mixed1", "mixed2"):
        out.append(["gamma", "--bc", bc, "--samples", wavy, "--format", "json"])
    # a check that finds no window: all 328 candidates of the subinterval
    # search, with their eta_hat, are in its trace
    out.append(["check", "--bc", "mixed1", "--samples", wavy, "--f", WAVY_F])
    # constant potentials stand on the exact pair under every condition:
    # a Neumann table, the separable Dirichlet table, and a mixed ratio
    out.append(["green", "--bc", "neumann", "--rho", "7", "--nodes", "11",
                "--format", "json"])
    out.append(["green", "--bc", "dirichlet", "--rho", "sqrt(60)", "--nodes", "11"])
    out.append(["gamma", "--bc", "mixed1", "--rho", "6", "--format", "json"])
    # the exact weights that no closed form of gamma checks: one under
    # Neumann conditions and sin(pi t / 2) under mixed2, in full
    out.append(["gamma", "--bc", "neumann", "--rho", "7", "--format", "json"])
    out.append(["gamma", "--bc", "mixed2", "--rho", "6", "--format", "json"])
    # the read with the most slice zeros: 1001 Dirichlet slices at rho = 17.3
    # beside the closed form, in full
    out.append(["gamma", "--bc", "dirichlet", "--rho", "17.3", "--format", "json"])
    # the paired conditions' tables on the exact pair, in full
    out.append(["green", "--bc", "periodic", "--rho", "3*pi/2", "--nodes", "11",
                "--format", "json"])
    out.append(["green", "--bc", "antiperiodic", "--rho", "7", "--nodes", "11",
                "--format", "json"])
    # double eigenvalues: closed antiperiodic gaps between bands about 2e-8
    # wide, in full
    out.append(["eigen", "--bc", "antiperiodic", "--samples", half_period,
                "--count", "8", "--format", "json"])
    # the hypothesis report on a coarse RK4 grid: check, like every other
    # subcommand, runs on the grid that --grid gives the potential
    out.append(["check", "--bc", "dirichlet", "--samples", wavy, "--grid", "251",
                "--f", WAVY_F])
    # the closed-form read of an exact pair and weight, in full: the
    # eigenfunction weights of Neumann and mixed conditions, the weight one,
    # the coefficient of gamma_star, and a weight of the kernel's own
    # frequency but for 1e-6 of it; then the periodic cone and gamma_star of
    # a check
    for bc, rho in (("neumann", "8.5"), ("mixed1", "5.5"), ("mixed2", "7")):
        out.append(["gamma", "--bc", bc, "--rho", rho, "--format", "json"])
    out.append(["gamma", "--bc", "neumann", "--rho", "8.5", "--weight", "one",
                "--format", "json"])
    out.append(["gamma", "--bc", "periodic", "--rho", "7.5", "--weight", "coefficient",
                "--format", "json"])
    out.append(["gamma", "--bc", "dirichlet", "--rho", "pi*(1+1e-6)", "--format", "json"])
    out.append(["check", "--bc", "periodic", "--rho", "7.5", "--f", "1+x"])
    # the closed forms as text: the periodic case-2b note, and the Dirichlet
    # form beside the quadrature; then periodic rho*T just above pi, where
    # 1 - sin(rho*T/2) rounds to 0 unless it is written as a square of a sine
    out.append(["gamma", "--bc", "periodic", "--rho", "5*pi/2"])
    out.append(["gamma", "--bc", "dirichlet", "--rho", "sqrt(60)"])
    out.append(["gamma", "--bc", "periodic", "--rho", "pi*(1+1e-9)", "--format", "json"])
    out.append(["check", "--bc", "periodic", "--rho", "pi*(1+1e-9)", "--f", "1"])
    # a separated kernel's slice zeros, found once on its limit rows, where
    # a search of every row placed them a rounding apart from row to row
    out.append(["gamma", "--bc", "neumann", "--rho", "17.3", "--format", "json"])
    # a constant periodic kernel under the weight one, whose ratio does not
    # depend on t: the slice at t = 0 alone, in full
    out.append(["gamma", "--bc", "periodic", "--rho", "11", "--T", "2", "--weight", "one",
                "--format", "json"])
    # a separated exact kernel off the unit interval, whose minimum is the
    # limit slice at its pinned end T = 2, in full
    out.append(["gamma", "--bc", "mixed1", "--rho", "9", "--T", "2", "--format", "json"])
    # fixed-point solves on the RK4 pair, whose cells break at its grid
    # nodes as well as at the output nodes, with their steps and fine check
    for bc in ("periodic", "dirichlet"):
        out.append(["solve", "--bc", bc, "--samples", wavy, "--f", WAVY_F,
                    "--format", "json"])
    return out


def run(argv: list, workdir: pathlib.Path) -> tuple:
    """(exit code, bytes written) of one CLI call; for an exception that
    escapes main, ("uncaught <Type>", its message)."""
    stdout = io.StringIO()
    target = None
    if argv[0] == "figure":
        target = workdir / f"figure{argv[1]}.csv"
        argv = argv + ["--output", str(target)]
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    except Exception as exc:
        return f"uncaught {type(exc).__name__}", str(exc).encode()
    data = target.read_bytes() if target is not None else stdout.getvalue().encode()
    return code, data


def outputs():
    """(label, exit code, bytes written) of every call, in order, with the
    potentials written to a temporary directory; the label is the call with
    each sample file named by its potential."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        files = {}
        for name, a in POTENTIALS.items():
            files[str(workdir / f"{name}.csv")] = name
            write_samples(workdir / f"{name}.csv", a)
        for argv in calls(*files):
            yield (" ".join(files.get(a, a) for a in argv), *run(argv, workdir))


def main() -> int:
    for label, code, data in outputs():
        print(f"{hashlib.sha256(data).hexdigest()}  exit={code}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
