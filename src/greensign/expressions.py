"""Small arithmetic expression language for command-line inputs.

Grammar, loosest binding first:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') unary)?        right associative
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names resolve to the call variables (typically t, or t and x), the constants
pi and T, or one of the functions sin, cos, exp, sqrt, abs, pow.  A formula
parses to a tree of floats, variable names and tuples (numpy ufunc, operand,
...), which `_value` evaluates.  Operations on floats only are folded while
parsing, in the same IEEE arithmetic, so 1/0 is inf as 1/t is at t = 0.
"""
from __future__ import annotations

import math
import re

import numpy as np

from .errors import ExpressionError

MAX_DEPTH = 100         # the formula, plus one per parenthesis, minus or '^' nested

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
             "abs": np.abs, "pow": np.power}

# the binary operators by binding level, loosest first
_BINARY = ({"+": np.add, "-": np.subtract}, {"*": np.multiply, "/": np.divide})

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),])"
    r"|(?P<ws>\s+)"
    r"|(?P<bad>.)")


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExpressionError(
                f"unexpected character {m.group()!r} at position {m.start()}")
        val = "^" if m.group() == "**" else m.group()
        toks.append((kind, val, m.start()))
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, variables, T: float | None):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.variables = tuple(variables)
        self.constants = {"pi": math.pi, **({} if T is None else {"T": float(T)})}
        self.depth = 0          # unary() calls open

    def peek(self):
        return self.toks[self.i]

    def take(self, op=None):
        kind, val, pos = self.toks[self.i]
        if op is not None and val != op:
            raise ExpressionError(
                f"expected {op!r} at position {pos} in {self.text!r}")
        self.i += 1
        return kind, val, pos

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(
                f"unexpected {val!r} at position {pos} in {self.text!r}")
        return node

    @staticmethod
    def apply(fn, *args):
        """The node fn(*args), folded to its float if every operand is one."""
        if all(type(a) is float for a in args):
            with np.errstate(all="ignore"):
                return float(fn(*args))
        return (fn, *args)

    def expr(self, level=0):
        if level == len(_BINARY):
            return self.unary()
        ops = _BINARY[level]
        node = self.expr(level + 1)
        while self.peek()[1] in ops:
            node = self.apply(ops[self.take()[1]], node, self.expr(level + 1))
        return node

    def unary(self):
        """A unary minus, or an atom with an optional '^' exponent."""
        self.depth += 1         # every nesting of the text passes through here
        if self.depth > MAX_DEPTH:
            raise ExpressionError(
                f"nesting deeper than {MAX_DEPTH} levels at position {self.peek()[2]}")
        if self.peek()[1] == "-":
            self.take()
            node = self.apply(np.negative, self.unary())
        else:
            node = self.atom()
            if self.peek()[1] == "^":
                self.take()
                node = self.apply(np.power, node, self.unary())
        self.depth -= 1
        return node

    def atom(self):
        kind, val, pos = self.take()
        if val == "(":
            node = self.expr()
            self.take(")")
            return node
        if kind == "num":
            return float(val)
        if kind == "name":
            if self.peek()[1] == "(":
                if val not in FUNCTIONS:
                    raise ExpressionError(
                        f"unknown function {val!r} at position {pos}; "
                        f"known: {', '.join(sorted(FUNCTIONS))}")
                fn = FUNCTIONS[val]
                args = []
                while not args or self.peek()[1] == ",":
                    self.take()         # '(' or ','
                    args.append(self.expr())
                self.take(")")
                if len(args) != fn.nin:
                    raise ExpressionError(
                        f"{val} takes {fn.nin} argument(s), got {len(args)} "
                        f"at position {pos}")
                return self.apply(fn, *args)
            if val in self.variables:
                return val
            if val in self.constants:
                return self.constants[val]
            raise ExpressionError(
                f"unknown name {val!r} at position {pos}; variables: "
                f"{', '.join(self.variables) or 'none'}; constants: "
                f"{', '.join(sorted(self.constants))}")
        raise ExpressionError(
            f"unexpected {val or 'end of input'!r} at position {pos} "
            f"in {self.text!r}")


def _value(node, env):
    """Value of a tree, with env mapping each variable's name to its array.

    The first operands are followed down in a loop and the operations
    applied on the way back up, so a long chain such as a + b + ... + z,
    which nests to the left one node per operator, costs no recursion."""
    if type(node) is not tuple:
        return env[node] if type(node) is str else node
    spine = [node]
    while type(node := node[1]) is tuple:
        spine.append(node)
    x = _value(node, env)
    for op in reversed(spine):
        x = op[0](x) if len(op) == 2 else op[0](x, _value(op[2], env))
    return x


class Expression:
    """Compiled expression; calling it broadcasts over numpy arrays."""

    __slots__ = ("text", "variables", "_node")

    def __init__(self, text: str, variables=("t",), T: float | None = None):
        self.text = text
        self.variables = tuple(variables)
        self._node = _Parser(text, self.variables, T).parse()

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise ExpressionError(
                f"{self.text!r} expects {len(self.variables)} argument(s) "
                f"({', '.join(self.variables)}), got {len(args)}")
        scalar = all(np.ndim(a) == 0 for a in args)
        env = {name: np.asarray(a, dtype=float)
               for name, a in zip(self.variables, args)}
        with np.errstate(all="ignore"):
            out = np.asarray(_value(self._node, env), dtype=float)
        if scalar:
            return float(out)
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        return np.broadcast_to(out, shape) if out.shape != shape else out

    def __repr__(self):
        return f"Expression({self.text!r}, variables={self.variables})"


def evaluate_scalar(text: str, T: float | None = None) -> float:
    """Evaluate a closed expression like 'sqrt(60)' or '3*pi/2'."""
    return _Parser(text, (), T).parse()
