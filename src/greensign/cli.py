"""Command-line interface.

Subcommands map one-to-one onto the library: green (tabulate a kernel),
eigen (leading eigenvalues), classify (kernel sign class), gamma
(sign-ratio constant, closed form and quadrature side by side), check
(hypothesis report), solve (linear or fixed-point solve), and figure
(regenerate the reference CSV datasets).  Exit codes: 0 success, 1 module
error, 2 usage error, 3 resonant potential, 4 failed hypothesis check
under --strict.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from .cone import build_report
from .errors import GreensignError, ResonantPotential
from .expressions import Expression, evaluate_scalar
from .fundamental import MIN_GRID
from .gamma import (CELL_ORDER, gamma_closed, gamma_dirichlet_closed,
                    gamma_dirichlet_t_closed, gamma_periodic_closed,
                    gamma_quadrature, gamma_star, pointwise_ratio)
from .greens import DirichletConstantKernel, build_kernel
from .potentials import DEFAULT_GRID, BoundaryKind, constant, sampled
from .solver import solve_linear, solve_nonlinear
from .spectral import classify_sign, principal_eigenfunction, smallest_eigenvalues

BC_CHOICES = [str(bc) for bc in BoundaryKind]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    return obj


@contextlib.contextmanager
def _open_out(path):
    """stdout for no path or "-", else the file, closed on the way out."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _emit_json(obj, path):
    with _open_out(path) as out:
        json.dump(_jsonable(obj), out, indent=2, sort_keys=True)
        out.write("\n")


def _emit_csv(header, rows, path):
    with _open_out(path) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _default_grid() -> int:
    env = os.environ.get("GREENSIGN_GRID")
    if env:
        try:
            return _int_at_least(MIN_GRID)(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise GreensignError(f"GREENSIGN_GRID must be an integer >= {MIN_GRID}, got {env!r}")
    return DEFAULT_GRID


def _is_sample_row(fields: list) -> bool:
    try:
        float(fields[0]), float(fields[1])
    except (ValueError, IndexError):
        return False
    return True


def _read_rows(path: str) -> np.ndarray:
    """Rows t,a of a CSV file, one csv row at a time."""
    rows = []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line:
                continue
            try:
                rows.append((float(line[0]), float(line[1])))
            except (ValueError, IndexError):
                if rows:
                    raise GreensignError(f"bad sample row {line!r} in {path}")
                continue  # header
    return np.array(rows, dtype=float).reshape(-1, 2)


def _load_samples(path: str):
    """Rows t,a of a CSV file.  Rows before the first data row are a header;
    blank rows are skipped.

    A file without quotes is split into rows where the csv module ends them
    and into fields at commas, and its data rows are parsed by one
    np.loadtxt call.  np.loadtxt reads a subset of what float() reads, so
    a file with quotes, or one it refuses (a bad row, or a number such as
    1_000), goes through _read_rows, one csv row at a time.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    data = None
    if '"' not in text:
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        start = next((i for i, line in enumerate(lines)
                      if _is_sample_row(line.split(","))), len(lines))
        try:
            data = (np.loadtxt(lines[start:], delimiter=",", usecols=(0, 1),
                               ndmin=2, comments=None)
                    if start < len(lines) else np.empty((0, 2)))
        except ValueError:
            pass
    if data is None:
        data = _read_rows(path)
    if len(data) < 2:
        raise GreensignError(f"need at least two sample rows in {path}")
    return sampled(data[:, 0], data[:, 1])


def _potential(args):
    T = 1.0 if args.T is None else evaluate_scalar(args.T)
    if getattr(args, "samples", None):
        pot = _load_samples(args.samples)
        if args.T is not None and abs(pot.interval.T - T) > 1e-12:
            raise GreensignError(
                f"--T {args.T} conflicts with the sample grid ending at "
                f"{pot.interval.T}")
        return pot
    if getattr(args, "rho", None) is None:
        raise GreensignError("give a potential: --rho EXPR or --samples FILE")
    return constant(evaluate_scalar(args.rho, T=T), T)


def _bc(args) -> BoundaryKind:
    return BoundaryKind(args.bc)


def _add_potential_args(p, bc_required=True):
    p.add_argument("--rho", help="constant potential a = rho^2; expression, e.g. sqrt(60)")
    p.add_argument("--samples", help="CSV of t,a rows defining a sampled potential")
    p.add_argument("--T", default=None, help="interval length (expression, default 1)")
    p.add_argument("--bc", required=bc_required, choices=BC_CHOICES,
                   help="boundary condition")
    p.add_argument("--grid", type=_int_at_least(MIN_GRID), default=None,
                   help=f"fundamental-solution grid size "
                        f"(default GREENSIGN_GRID or {DEFAULT_GRID})")


def _arg_type(convert, ok, rule: str):
    """argparse type: the converted text where ok holds, a usage error
    saying the rule otherwise."""
    def value(text: str):
        x = convert(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return x
    value.__name__ = convert.__name__
    return value


def _int_at_least(least: int):
    return _arg_type(int, lambda n: n >= least, f"must be at least {least}")


def _grid_size(args) -> int:
    return args.grid if args.grid is not None else _default_grid()


# ---------------------------------------------------------------- commands

def _cmd_green(args) -> int:
    pot = _potential(args)
    kernel = build_kernel(pot, _bc(args), grid_size=_grid_size(args))
    ts = np.linspace(0.0, kernel.T, args.nodes)
    g = kernel.grid_eval(ts, ts)
    if args.format == "json":
        _emit_json({"t": list(ts), "s": list(ts),
                    "value": [list(row) for row in g],
                    "bc": str(kernel.bc), "form": kernel.form}, args.output)
    else:
        rows = ((ts[i], ts[j], g[i, j])
                for i in range(len(ts)) for j in range(len(ts)))
        _emit_csv(["t", "s", "value"], rows, args.output)
    return 0


def _cmd_eigen(args) -> int:
    pot = _potential(args)
    results = smallest_eigenvalues(pot, _bc(args), args.count,
                                   grid_size=_grid_size(args))
    if args.format == "json":
        _emit_json([{"value": r.value, "bc": str(r.bc), "method": r.method}
                    for r in results], args.output)
    else:
        with _open_out(args.output) as out:
            for i, r in enumerate(results, 1):
                out.write(f"lambda_{i} = {r.value:.12g} ({r.bc}, {r.method})\n")
    return 0


def _cmd_classify(args) -> int:
    pot = _potential(args)
    cls = classify_sign(pot, _bc(args), grid_size=_grid_size(args))
    if args.format == "json":
        _emit_json({"bc": args.bc, "classification": str(cls)}, args.output)
    else:
        with _open_out(args.output) as out:
            out.write(f"{cls}\n")
    return 0


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _cmd_gamma(args) -> int:
    pot = _potential(args)
    bc = _bc(args)
    grid_size = _grid_size(args)
    kernel = build_kernel(pot, bc, grid_size=grid_size)
    closed = gamma_closed(pot, bc) if args.weight == "eigenfunction" else None
    if args.weight == "coefficient":
        quad = gamma_star(kernel, pot, t_grid_size=args.t_grid,
                          s_quadrature_order=args.order)
    else:
        weight = (principal_eigenfunction(pot, bc, grid_size=grid_size)
                  if args.weight == "eigenfunction" else None)
        quad = gamma_quadrature(kernel, weight, t_grid_size=args.t_grid,
                                s_quadrature_order=args.order)
    cls = classify_sign(pot, bc, grid_size=grid_size)
    if args.format == "json":
        _emit_json({"closed": closed.to_dict() if closed else None,
                    "quadrature": quad.to_dict(),
                    "classification": str(cls)}, args.output)
    else:
        with _open_out(args.output) as out:
            if closed is not None:
                case = f", case {closed.case}" if closed.case else ""
                out.write(f"gamma_closed     = {_fmt_value(closed.value)}"
                          f" ({closed.method}{case})\n")
                if closed.note:
                    out.write(f"note: {closed.note}\n")
            out.write(f"gamma_quadrature = {_fmt_value(quad.value)}"
                      f" (argmin t = {quad.argmin_t:.6g}, weight {quad.weight})\n")
            out.write(f"classification   = {cls}\n")
    return 0


def _cmd_check(args) -> int:
    pot = _potential(args)
    f = Expression(args.f, variables=("t", "x"), T=pot.interval.T)
    report = build_report(pot, _bc(args), f, grid=args.cone_grid,
                          gamma_t_grid=args.t_grid)
    _emit_json(report.to_dict(), args.output)
    if args.strict and not report.all_passed:
        print("error: hypothesis check failed", file=sys.stderr)
        return 4
    return 0


def _cmd_solve(args) -> int:
    if (args.rhs is None) == (args.f is None):
        raise GreensignError("give exactly one of --rhs (linear) or --f (fixed point)")
    pot = _potential(args)
    kernel = build_kernel(pot, _bc(args), grid_size=_grid_size(args))
    if args.rhs is not None:
        sigma = Expression(args.rhs, variables=("t",), T=pot.interval.T)
        profile = solve_linear(kernel, sigma, args.solve_grid)
    else:
        f = Expression(args.f, variables=("t", "x"), T=pot.interval.T)
        profile = solve_nonlinear(kernel, f, args.solve_grid,
                                  damping=args.damping,
                                  max_iter=args.max_iter, tol=args.tol)
    if args.format == "json":
        _emit_json(profile.to_dict(include_values=True), args.output)
    else:
        _emit_csv(["t", "u"], zip(profile.grid, profile.values), args.output)
        summary = profile.to_dict()
        print(", ".join(f"{k}={v}" for k, v in summary.items()), file=sys.stderr)
    return 0


FIGURE_HELP = ("1: periodic gamma(rho) sweep; 2: clamped gamma(t) at rho=10.8; "
               "3: clamped gamma(rho) sweep; 4: positive example profile; "
               "5: sign-changing example profile")


def _cmd_figure(args) -> int:
    n = args.number
    out = args.output or f"figure{n}.csv"
    if n == 1:
        rhos = math.pi * np.linspace(1.02, 6.98, 300)
        rows = []
        for rho in rhos:
            closed = gamma_periodic_closed(rho)
            quad = gamma_quadrature(build_kernel(constant(rho),
                                                 BoundaryKind.PERIODIC),
                                    None, t_grid_size=3)
            rows.append((rho, closed.value, quad.value))
        _emit_csv(["rho", "gamma_closed", "gamma_quadrature"], rows, out)
    elif n == 2:
        rho = 10.8
        kernel = DirichletConstantKernel(rho)
        weight = principal_eigenfunction(constant(rho), BoundaryKind.DIRICHLET)
        ts = np.linspace(0.005, 0.995, 199)
        rows = [(t, gamma_dirichlet_t_closed(float(t), rho), quad)
                for t, quad in zip(ts, pointwise_ratio(kernel, ts, weight).tolist())]
        _emit_csv(["t", "gamma_closed", "gamma_quadrature"], rows, out)
    elif n == 3:
        rows = []
        # the principal clamped eigenfunction is sin(pi t) for every rho
        weight = principal_eigenfunction(constant(2.0), BoundaryKind.DIRICHLET)
        for rho in math.pi * np.linspace(1.02, 5.98, 200):
            closed = gamma_dirichlet_closed(float(rho))
            kernel = DirichletConstantKernel(float(rho))
            quad = gamma_quadrature(kernel, weight, t_grid_size=101)
            rows.append((rho, closed.value, quad.value))
        _emit_csv(["rho", "gamma_closed", "gamma_quadrature"], rows, out)
    elif n in (4, 5):
        kernel = DirichletConstantKernel(math.sqrt(60.0))
        rhs = (lambda s: s * (1.0 - s)) if n == 4 else (lambda s: s)
        profile = solve_linear(kernel, rhs, 2001)
        _emit_csv(["t", "u"], zip(profile.grid, profile.values), out)
    else:
        raise GreensignError(f"no figure {n}")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greensign",
        description="Green's-function sign analysis for second-order "
                    "boundary value problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="tabulate G(t,s) on a square lattice")
    _add_potential_args(p)
    p.add_argument("--nodes", type=_int_at_least(1), default=101, help="lattice size per axis")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("eigen", help="smallest eigenvalues under the boundary condition")
    _add_potential_args(p)
    p.add_argument("--count", type=_int_at_least(1), default=6)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("classify", help="sign class of the Green's function")
    _add_potential_args(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gamma", help="sign-ratio constant")
    _add_potential_args(p)
    p.add_argument("--weight", choices=["eigenfunction", "coefficient", "one"],
                   default="eigenfunction",
                   help="weight in the part-integral ratio")
    p.add_argument("--t-grid", type=_int_at_least(1), default=1001, dest="t_grid",
                   help="t-nodes for the quadrature infimum")
    p.add_argument("--order", type=_int_at_least(1), default=CELL_ORDER,
                   help="Gauss points per cell of the antiderivative table")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("check", help="existence-hypothesis report (JSON)")
    _add_potential_args(p)
    p.add_argument("--f", required=True,
                   help="nonlinearity f(t,x) as an expression")
    p.add_argument("--t-grid", type=_int_at_least(1), default=1001, dest="t_grid")
    p.add_argument("--cone-grid", type=_int_at_least(2), default=201, dest="cone_grid",
                   help="s-samples of H3 and eta, and side of the coarse max-G lattice")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when any hypothesis fails")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="solve the boundary value problem")
    _add_potential_args(p)
    p.add_argument("--rhs", help="linear right-hand side sigma(t)")
    p.add_argument("--f", help="nonlinearity f(t,x) for the fixed-point solve")
    p.add_argument("--solve-grid", type=_int_at_least(5), default=2001, dest="solve_grid",
                   help="output grid size")
    p.add_argument("--damping", default=0.5,
                   type=_arg_type(float, lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"))
    p.add_argument("--max-iter", type=_int_at_least(1), default=200, dest="max_iter")
    p.add_argument("--tol", default=1e-10, type=_arg_type(
        float, lambda x: 0.0 < x < math.inf, "must be positive and finite"))
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("figure", help="regenerate a reference dataset: " + FIGURE_HELP)
    p.add_argument("number", type=int, choices=[1, 2, 3, 4, 5])
    p.add_argument("--output", help="CSV path (default figureN.csv)")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResonantPotential as exc:
        print(f"error: ResonantPotential: {exc}", file=sys.stderr)
        return 3
    except GreensignError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
