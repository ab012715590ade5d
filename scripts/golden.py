#!/usr/bin/env python3
"""Print one SHA-256 per output of a fixed list of CLI calls.

Runs every call in-process through ``greensign.cli.main`` and hashes what it
writes: the CSV file for ``figure N``, stdout for everything else.  Two
trees that print the same lines produce byte-identical outputs on these
calls, so comparing the lines of two checkouts checks that a change kept
the outputs:

    PYTHONPATH=src python scripts/golden.py > golden.txt

The sampled potential is "wavy", a(t) = 60 + 10 sin(2 pi t) on 2001 nodes,
written to a temporary CSV file.
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


def write_wavy(path: pathlib.Path) -> None:
    ts = np.linspace(0.0, 1.0, 2001)
    a = 60 + 10 * np.sin(2 * np.pi * ts)
    rows = [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, a)]
    path.write_text("t,a\n" + "\n".join(rows) + "\n")


def calls(wavy: str) -> list:
    out = [["figure", str(n)] for n in range(1, 6)]
    # eigenvalue search: the spectra the periodic sign verdict compares
    for bc in ("periodic", "antiperiodic"):
        out.append(["eigen", "--bc", bc, "--samples", wavy, "--count", "6"])
    out.append(["classify", "--bc", "periodic", "--samples", wavy])
    for bc in ("periodic", "dirichlet"):
        src = ["--bc", bc, "--samples", wavy]
        out += [["gamma", *src], ["check", *src, "--f", WAVY_F],
                ["solve", *src, "--rhs", "1"]]
    out.append(["check", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "t*(1-t)"])
    # fixed-point solves: a contraction that converges, and a periodic f
    # whose Picard map is not contractive, which ends converged=False
    out.append(["solve", "--bc", "dirichlet", "--rho", "sqrt(60)",
                "--f", "t*(1-t) + 5*x"])
    out.append(["solve", "--bc", "periodic", "--rho", "7.5",
                "--f", "1 + 41*x"])
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
        wavy = workdir / "wavy.csv"
        write_wavy(wavy)
        for argv in calls(str(wavy)):
            code, data = run(argv, workdir)
            label = " ".join("wavy" if a == str(wavy) else a for a in argv)
            print(f"{hashlib.sha256(data).hexdigest()}  exit={code}  {label}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
