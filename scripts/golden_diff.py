#!/usr/bin/env python3
"""Compare the outputs of the golden CLI calls of two trees, number by number.

    python scripts/golden_diff.py OTHER_TREE

Runs every call of ``golden.calls`` (scripts/golden.py of this tree) once
on the greensign of this tree and once on that of OTHER_TREE, a checkout
root with its own ``src/``, one subprocess per tree.  For every call whose
output differs it prints the structure check, that the two outputs are the
same text once every number and word in them is masked, and then how many
numbers differ, max |delta| over them, max |value| over both outputs,
their ratio, and the largest change of one number relative to its own size,
|delta| / max(1, |old value|), which reads directly against a relative
tolerance such as the eigenvalue search's stop width.  Integers that
moved, such as a step count, are left out of both maxima and listed on a
line of their own, each after the name it follows in the output, and so
are words that moved, such as a converged flag or a sign verdict.  For
an output that is a JSON object whose numbers moved under more than one
top-level key it then prints max |delta| under each of those keys, so
that a residual, which the second difference amplifies by 1/h^2, is told
apart from the values it is measured on.  A changed exit code is printed as such.  Exits 1 when any
output differs, 0 otherwise.
"""
import json
import pathlib
import re
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS))
from trees import in_tree  # noqa: E402
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
INTEGER = re.compile(r"[-+]?\d+")
WORD = re.compile(r"[A-Za-z_]\w*")
#: the name an integer or a word follows, as in '"iterations": 65',
#: 'converged=True' or '"positivity": "Positive"'
NAME = re.compile(r"([A-Za-z_]\w*)\W{0,4}$")


def dump() -> list:
    """[label, exit code, output] of every golden call, run on the greensign
    that is importable here."""
    import golden

    return [[label, code, data.decode()] for label, code, data in golden.outputs()]


def compare(old: str, new: str) -> str:
    """The structure check and the size of the numeric change from old to
    new, with the integers and the words that moved on lines of their own."""
    old_text, new_text = NUMBER.sub("#", old), NUMBER.sub("#", new)
    if WORD.sub("@", old_text) != WORD.sub("@", new_text):
        return "structure differs"
    a = [float(x) for x in NUMBER.findall(old)]
    b = [float(x) for x in NUMBER.findall(new)]
    deltas, rels, moved = [], [], []
    for x, y, u, v in zip(NUMBER.finditer(old), NUMBER.finditer(new), a, b):
        # a number can change its spelling and keep its value ("1.0", "1.00")
        if u == v:
            continue
        if INTEGER.fullmatch(x[0]) and INTEGER.fullmatch(y[0]):
            moved.append(_named(old, x, y[0]))
        else:
            deltas.append(abs(u - v))
            rels.append(abs(u - v) / max(1.0, abs(u)))
    words = [_named(old_text, x, y[0])
             for x, y in zip(WORD.finditer(old_text), WORD.finditer(new_text)) if x[0] != y[0]]
    delta, scale = max(deltas, default=0.0), max(map(abs, a + b), default=0.0)
    out = (f"structure same, {len(deltas) + len(moved)} of {len(a)} numbers differ, "
           f"max|delta| {delta:.2e} / max|value| {scale:.2e} = "
           f"{delta / scale if scale else 0.0:.1e}, "
           f"max|delta|/max(1, |value|) {max(rels, default=0.0):.1e}")
    if moved:
        out += "\n    integers moved: " + ", ".join(moved)
    if words:
        out += "\n    words moved: " + ", ".join(words)
    keys = _by_key(old, new)
    if len(keys) > 1:
        out += "\n    max|delta| by key: " + ", ".join(f"{k} {d:.2e}" for k, d in keys.items())
    return out


def _by_key(old: str, new: str) -> dict:
    """max |delta| of the numbers under each top-level key of old and new,
    both JSON objects of one structure, for the keys whose numbers moved,
    integers that stay integers left out; empty for any other output."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return {}
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return {}
    out = {}
    for key in a:
        deltas = [abs(u - v) for u, v in zip(_numbers(a[key]), _numbers(b[key]))
                  if u != v and not (type(u) is int and type(v) is int)]
        if deltas:
            out[key] = max(deltas)
    return out


def _numbers(value) -> list:
    """The numbers in a parsed JSON value, in order; true and false are
    words, not numbers."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    return [value] if type(value) in (int, float) else []


def _named(text: str, x: re.Match, now: str) -> str:
    """'name old -> now' for the match x in text, after the name it follows."""
    name = NAME.search(text[max(0, x.start() - 40):x.start()])
    return f"{name[1] + ' ' if name else ''}{x[0]} -> {now}"


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    here, there = (in_tree(tree, "golden_diff", "dump")
                   for tree in (SCRIPTS.parent, pathlib.Path(argv[0]).resolve()))
    moved = 0
    for (label, code, new), (_, old_code, old) in zip(here, there):
        if (code, new) == (old_code, old):
            continue
        moved += 1
        if code != old_code:
            print(f"{label}: exit {old_code} -> {code}")
        else:
            print(f"{label}: {compare(old, new)}")
    print(f"{moved} of {len(here)} outputs differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
