"""The CLI's conversion of an object for json.dump, kept as the oracle of its
one-pass writer: what the CLI writes for obj is

    json.dumps(jsonable(obj), indent=2, sort_keys=True)

Numpy scalars become Python numbers, inf, -inf and nan the strings "inf",
"-inf" and "nan", tuples lists; json itself then sorts the keys, escapes
the strings and raises TypeError on any other type.
"""
import math

import numpy as np


def jsonable(obj):
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
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
