"""Command-line interface.

Subcommands map one-to-one onto the library: green (tabulate a kernel),
eigen (leading eigenvalues), classify (kernel sign class), gamma
(sign-ratio constant, closed form and quadrature side by side), check
(hypothesis report), solve (linear or fixed-point solve), and figure
(regenerate the reference CSV datasets).  Exit codes: 0 success, 1 module
error, 2 usage error, 3 resonant potential, 4 failed hypothesis check
under --strict.

Every command writes through one function, _write, once its result is
computed: it hands over its JSON document and its text or CSV rendering,
and --format picks one, so a failed command opens no --output file.  A
default that the library also states (--t-grid, --cone-grid, --count,
--damping, --max-iter, --tol) is read from the library.

main(argv) may be called again and again in one process: it builds its
parser on the first call and reuses it, and reads GREENSIGN_GRID on every
call.  Errors, file errors among them, print one line "error: <Type>:
<message>" on stderr.  JSON output has two-space indent and sorted keys,
escapes every non-ASCII character, and writes inf, -inf and nan as the
strings "inf", "-inf" and "nan", so json.loads then json.dumps(indent=2,
sort_keys=True) gives back the same text.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import cone, solver, spectral
from .cone import build_report
from .errors import GreensignError, ResonantPotential
from .expressions import Expression, evaluate_scalar
from .gamma import (T_GRID_SIZE, gamma_closed, gamma_dirichlet_closed,
                    gamma_dirichlet_t_closed, gamma_periodic_closed,
                    gamma_quadrature, gamma_star, pointwise_ratio)
from .greens import build_kernel
from .potentials import DEFAULT_GRID, MIN_GRID, BoundaryKind, constant, sampled
from .solver import solve_linear, solve_nonlinear
from .spectral import classify_sign, principal_eigenfunction, smallest_eigenvalues

BC_CHOICES = [str(bc) for bc in BoundaryKind]


def _json_key(key) -> str:
    """A dict key as json writes it: json's own rule for a key not a str."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: None})[1:-len(": null}")]


def _json_text(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it once numpy
    scalars are Python numbers and inf, -inf and nan the strings "inf",
    "-inf" and "nan".  indent is the line break and indentation that obj's
    own line starts with.  Any other type raises TypeError, as in json."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = float.__repr__(float(obj))
        return f'"{text}"' if "n" in text else text     # only inf and nan have an n
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{" + inner + sep.join(_json_key(k) + ": " + _json_text(v, inner)
                                       for k, v in sorted(obj.items()))
                + indent + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:        # finite floats, as json writes them, in one join
            text = sep.join(map(float.__repr__, obj))
        except TypeError:       # an item that is not a float
            text = None
        if text is None or "n" in text:
            text = sep.join(_json_text(v, inner) for v in obj)
        return "[" + inner + text + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(args, document, rendering=(), path=None):
    """The one writer of every command, called once its output is computed:
    document as JSON under --format json, else rendering, CSV rows under
    --format csv and text lines under --format text.  It writes to path,
    else --output, and to stdout where that is None or "-"; nothing opens
    the file before this call."""
    path = path or args.output
    with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
          else open(path, "w", newline="")) as out:
        if args.format == "json":
            out.write(_json_text(document) + "\n")
        elif args.format == "csv":
            csv.writer(out).writerows(rendering)
        else:
            out.writelines(rendering)


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


def _load_samples(path: str, grid_size: int = DEFAULT_GRID):
    """The potential sampled by the rows t,a of a CSV file, on an RK4 grid
    of grid_size nodes.  Rows before the first data row are a header; blank
    rows are skipped.

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
    return sampled(data[:, 0], data[:, 1], grid_size=grid_size)


def _potential(args):
    T = 1.0 if args.T is None else evaluate_scalar(args.T)
    if getattr(args, "samples", None):
        pot = _load_samples(args.samples, _grid_size(args))
        if args.T is not None and abs(pot.interval.T - T) > 1e-12:
            raise GreensignError(
                f"--T {args.T} conflicts with the sample grid ending at "
                f"{pot.interval.T}")
        return pot
    if getattr(args, "rho", None) is None:
        raise GreensignError("give a potential: --rho EXPR or --samples FILE")
    return constant(evaluate_scalar(args.rho, T=T), T, _grid_size(args))


def _bc(args) -> BoundaryKind:
    return BoundaryKind(args.bc)


def _add_output_args(p, formats=("json",), help="file path (default stdout)"):
    """--format choosing among formats, the first the default, where there
    is a choice, and --output."""
    if len(formats) > 1:
        p.add_argument("--format", choices=list(formats), default=formats[0])
    else:
        p.set_defaults(format=formats[0])
    p.add_argument("--output", help=help)


def _add_potential_args(p):
    p.add_argument("--rho", help="constant potential a = rho^2; expression, e.g. sqrt(60)")
    p.add_argument("--samples", help="CSV of t,a rows defining a sampled potential")
    p.add_argument("--T", default=None, help="interval length (expression, default 1)")
    p.add_argument("--bc", required=True, choices=BC_CHOICES,
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
    kernel = build_kernel(pot, _bc(args))
    ts = np.linspace(0.0, kernel.T, args.nodes)
    t, g = ts.tolist(), kernel.grid_eval(ts, ts).tolist()
    _write(args, {"t": t, "s": t, "value": g, "bc": str(kernel.bc), "form": kernel.form},
           chain([("t", "s", "value")],
                 ((ti, si, v) for ti, row in zip(t, g) for si, v in zip(t, row))))
    return 0


def _cmd_eigen(args) -> int:
    pot = _potential(args)
    results = smallest_eigenvalues(pot, _bc(args), args.count)
    _write(args, [{"value": r.value, "bc": str(r.bc), "method": r.method} for r in results],
           (f"lambda_{i} = {r.value:.12g} ({r.bc}, {r.method})\n"
            for i, r in enumerate(results, 1)))
    return 0


def _cmd_classify(args) -> int:
    pot = _potential(args)
    cls = classify_sign(pot, _bc(args))
    _write(args, {"bc": args.bc, "classification": str(cls)}, [f"{cls}\n"])
    return 0


def _fmt_value(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def _cmd_gamma(args) -> int:
    pot = _potential(args)
    bc = _bc(args)
    kernel = build_kernel(pot, bc)
    closed = gamma_closed(pot, bc) if args.weight == "eigenfunction" else None
    if args.weight == "coefficient":
        quad = gamma_star(kernel, pot, t_grid_size=args.t_grid)
    else:
        weight = (principal_eigenfunction(pot, bc)
                  if args.weight == "eigenfunction" else None)
        quad = gamma_quadrature(kernel, weight, t_grid_size=args.t_grid)
    cls = classify_sign(pot, bc)
    lines = []
    if closed is not None:
        case = f", case {closed.case}" if closed.case else ""
        lines.append(f"gamma_closed     = {_fmt_value(closed.value)}"
                     f" ({closed.method}{case})\n")
        if closed.note:
            lines.append(f"note: {closed.note}\n")
    lines += [f"gamma_quadrature = {_fmt_value(quad.value)}"
              f" (argmin t = {quad.argmin_t:.6g}, weight {quad.weight})\n",
              f"classification   = {cls}\n"]
    _write(args, {"closed": closed.to_dict() if closed else None,
                  "quadrature": quad.to_dict(), "classification": str(cls)}, lines)
    return 0


def _cmd_check(args) -> int:
    pot = _potential(args)
    f = Expression(args.f, variables=("t", "x"), T=pot.interval.T)
    report = build_report(pot, _bc(args), f, grid=args.cone_grid,
                          gamma_t_grid=args.t_grid)
    _write(args, report.to_dict())
    if args.strict and not report.all_passed:
        print("error: hypothesis check failed", file=sys.stderr)
        return 4
    return 0


def _cmd_solve(args) -> int:
    if (args.rhs is None) == (args.f is None):
        raise GreensignError("give exactly one of --rhs (linear) or --f (fixed point)")
    pot = _potential(args)
    kernel = build_kernel(pot, _bc(args))
    if args.rhs is not None:
        sigma = Expression(args.rhs, variables=("t",), T=pot.interval.T)
        profile = solve_linear(kernel, sigma, args.solve_grid)
    else:
        f = Expression(args.f, variables=("t", "x"), T=pot.interval.T)
        profile = solve_nonlinear(kernel, f, args.solve_grid,
                                  damping=args.damping,
                                  max_iter=args.max_iter, tol=args.tol)
    document = profile.to_dict(include_values=True)
    _write(args, document, chain([("t", "u")], zip(document["t"], document["u"])))
    if args.format == "csv":
        print(", ".join(f"{k}={v}" for k, v in profile.to_dict().items()), file=sys.stderr)
    return 0


FIGURE_HELP = ("1: periodic gamma(rho) sweep; 2: clamped gamma(t) at rho=10.8; "
               "3: clamped gamma(rho) sweep; 4: positive example profile; "
               "5: sign-changing example profile")


def _sweep(rhos, closed, bc, weight=None, t_grid=T_GRID_SIZE) -> list:
    """Rows (rho, closed(rho), gamma_quadrature) of the figures that sweep
    rho, on the exact kernel of a = rho^2 under bc at every rho of rhos."""
    return [(rho, closed(rho).value,
             gamma_quadrature(build_kernel(constant(rho), bc), weight, t_grid).value)
            for rho in rhos.tolist()]


def _cmd_figure(args) -> int:
    n = args.number
    out = args.output or f"figure{n}.csv"
    header = ("rho", "gamma_closed", "gamma_quadrature")
    if n == 1:
        rows = _sweep(math.pi * np.linspace(1.02, 6.98, 300), gamma_periodic_closed,
                      BoundaryKind.PERIODIC)
    elif n == 2:
        header = ("t", "gamma_closed", "gamma_quadrature")
        rho = 10.8
        kernel = build_kernel(constant(rho), BoundaryKind.DIRICHLET)
        weight = principal_eigenfunction(constant(rho), BoundaryKind.DIRICHLET)
        ts = np.linspace(0.005, 0.995, 199)
        quads = pointwise_ratio(kernel, ts, weight).tolist()
        rows = [(t, gamma_dirichlet_t_closed(t, rho), quad)
                for t, quad in zip(ts.tolist(), quads)]
    elif n == 3:
        # the principal clamped eigenfunction is sin(pi t) for every rho
        weight = principal_eigenfunction(constant(2.0), BoundaryKind.DIRICHLET)
        rows = _sweep(math.pi * np.linspace(1.02, 5.98, 200), gamma_dirichlet_closed,
                      BoundaryKind.DIRICHLET, weight, 101)
    elif n in (4, 5):
        kernel = build_kernel(constant(math.sqrt(60.0)), BoundaryKind.DIRICHLET)
        rhs = (lambda s: s * (1.0 - s)) if n == 4 else (lambda s: s)
        profile = solve_linear(kernel, rhs, 2001)
        header = ("t", "u")
        rows = zip(profile.grid.tolist(), profile.values.tolist())
    _write(args, None, chain([header], rows), path=out)
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
    _add_output_args(p, ("csv", "json"))
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("eigen", help="smallest eigenvalues under the boundary condition")
    _add_potential_args(p)
    p.add_argument("--count", type=_int_at_least(1), default=spectral.COUNT)
    _add_output_args(p, ("text", "json"))
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("classify", help="sign class of the Green's function")
    _add_potential_args(p)
    _add_output_args(p, ("text", "json"))
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gamma", help="sign-ratio constant")
    _add_potential_args(p)
    p.add_argument("--weight", choices=["eigenfunction", "coefficient", "one"],
                   default="eigenfunction",
                   help="weight in the part-integral ratio")
    p.add_argument("--t-grid", type=_int_at_least(1), default=T_GRID_SIZE, dest="t_grid",
                   help="t-nodes for the quadrature infimum")
    _add_output_args(p, ("text", "json"))
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("check", help="existence-hypothesis report (JSON)")
    _add_potential_args(p)
    p.add_argument("--f", required=True,
                   help="nonlinearity f(t,x) as an expression")
    p.add_argument("--t-grid", type=_int_at_least(1), default=T_GRID_SIZE, dest="t_grid")
    p.add_argument("--cone-grid", type=_int_at_least(2), default=cone.GRID, dest="cone_grid",
                   help="s-samples of H3 and eta, and side of the coarse max-G lattice")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when any hypothesis fails")
    _add_output_args(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="solve the boundary value problem")
    _add_potential_args(p)
    p.add_argument("--rhs", help="linear right-hand side sigma(t)")
    p.add_argument("--f", help="nonlinearity f(t,x) for the fixed-point solve")
    p.add_argument("--solve-grid", type=_int_at_least(5), default=2001, dest="solve_grid",
                   help="output grid size")
    p.add_argument("--damping", default=solver.DAMPING,
                   type=_arg_type(float, lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"))
    p.add_argument("--max-iter", type=_int_at_least(1), default=solver.MAX_ITER, dest="max_iter")
    p.add_argument("--tol", default=solver.TOL, type=_arg_type(
        float, lambda x: 0.0 < x < math.inf, "must be positive and finite"))
    _add_output_args(p, ("csv", "json"))
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("figure", help="regenerate a reference dataset: " + FIGURE_HELP)
    p.add_argument("number", type=int, choices=[1, 2, 3, 4, 5])
    _add_output_args(p, ("csv",), help="CSV path (default figureN.csv)")
    p.set_defaults(func=_cmd_figure)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on its first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResonantPotential as exc:
        print(f"error: ResonantPotential: {exc}", file=sys.stderr)
        return 3
    except (GreensignError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
