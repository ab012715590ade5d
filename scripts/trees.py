"""Run a function of a script in this directory on the greensign of a tree.

scripts/golden_diff.py and scripts/layer_times.py compare this tree with
another checkout through ``in_tree``: the function runs in a subprocess
whose PYTHONPATH is the tree's ``src/``, and its result comes back as JSON.
"""
import json
import os
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent


def in_tree(tree: pathlib.Path, module: str, function: str, *args):
    """module.function(*args), module a script of this directory, run in a
    subprocess on the greensign under tree/src; args and the result pass as
    JSON."""
    code = (f"import json, sys; sys.path.insert(0, {str(SCRIPTS)!r}); import {module}; "
            f"sys.stdout.write(json.dumps({module}.{function}(*json.loads(sys.argv[1]))))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(args)], cwd=tree,
                          check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return json.loads(proc.stdout)
