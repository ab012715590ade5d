#!/usr/bin/env python3
"""Print one SHA-256 per output of a fixed list of CLI calls.

Runs every call in-process through ``greensign.cli.main`` and hashes what it
writes: the CSV file for ``figure N``, stdout for everything else.  Two
trees that print the same lines produce byte-identical outputs on these
calls, so comparing the lines of two checkouts checks that a change kept
the outputs:

    PYTHONPATH=src python scripts/golden.py > golden.txt

The sampled potentials are "wavy", a(t) = 60 + 10 sin(2 pi t), and
"repro-a", a(t) = 30 + 0.01 cos(2 pi t) + 5 cos(6 pi t), whose first
antiperiodic gap is narrow; each is written on 2001 nodes to a temporary
CSV file.
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
}


def write_samples(path: pathlib.Path, a) -> None:
    ts = np.linspace(0.0, 1.0, 2001)
    rows = [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, a(ts))]
    path.write_text("t,a\n" + "\n".join(rows) + "\n")


def calls(wavy: str, repro_a: str) -> list:
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
    # (u = 1/15.25)
    out.append(["solve", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "t*(1-t) + 5*x"])
    out.append(["solve", "--bc", "periodic", "--rho", "7.5",
                "--f", "1 + 41*x"])
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
                "--f", "1+50*x"])
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
    # a check that finds no window: all 328 candidates of the subinterval
    # search, with their eta_hat, are in its trace
    out.append(["check", "--bc", "mixed1", "--samples", wavy, "--f", WAVY_F])
    return out


def run(argv: list, workdir: pathlib.Path) -> tuple:
    """(exit code, bytes written) of one CLI call."""
    stdout = io.StringIO()
    target = None
    if argv[0] == "figure":
        target = workdir / f"figure{argv[1]}.csv"
        argv = argv + ["--output", str(target)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    data = target.read_bytes() if target is not None else stdout.getvalue().encode()
    return code, data


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        files = {}
        for name, a in POTENTIALS.items():
            files[str(workdir / f"{name}.csv")] = name
            write_samples(workdir / f"{name}.csv", a)
        for argv in calls(*files):
            code, data = run(argv, workdir)
            label = " ".join(files.get(a, a) for a in argv)
            print(f"{hashlib.sha256(data).hexdigest()}  exit={code}  {label}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
