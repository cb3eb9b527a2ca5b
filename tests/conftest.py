import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from schurkit.replinalg import ExactMatrix
from schurkit.rootdata import LieType, Weight


def load_tool(name):
    """The script tools/<name>.py, loaded by path as a module."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def all_lie_types(max_rank=3):
    out = []
    for family in "BCD":
        lo = 2 if family == "D" else 1
        out.extend(LieType(family, n) for n in range(lo, max_rank + 1))
    return out


def fundamental_weights(rs):
    """Weights dual to the coroots, in closed coordinate form."""
    n = rs.rank
    half = Fraction(1, 2)
    out = []
    for j in range(1, n + 1):
        ones = (1,) * j + (0,) * (n - j)
        if rs.family == "C":
            w = Weight(ones)
        elif rs.family == "B":
            w = Weight(ones) if j < n else Weight((half,) * n)
        else:  # D
            if j <= n - 2:
                w = Weight(ones)
            elif j == n - 1:
                w = Weight((half,) * (n - 1) + (-half,))
            else:
                w = Weight((half,) * n)
        out.append(w)
    return tuple(out)


def rebuild(obj, **changes):
    """A copy of obj made by its class's constructor, with the named arguments changed.

    Every other constructor argument is read back from the attribute of the
    same name, so the copy goes through the constructor's own checks.
    """
    params = inspect.signature(type(obj)).parameters
    unknown = changes.keys() - params.keys()
    if unknown:
        raise TypeError(f"{type(obj).__name__} takes no argument {sorted(unknown)}")
    return type(obj)(**{name: changes[name] if name in changes else getattr(obj, name) for name in params})


def naive_matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


def dense(m):
    """The entries of an ExactMatrix as a list of rows."""
    return [[m.entry(i, j) for j in range(m.size)] for i in range(m.size)]


def unfused_combine(size, products, terms=(), rows=None):
    """Dense oracle for the sparse row-wise kernel: sum c * (x @ y) plus sum c * x, on `rows` only if given.

    Every product and term is formed on its own as a whole dense matrix and
    the parts are then added up entry by entry, so nothing is fused; the
    rows outside `rows` are cleared only at the end.
    """
    parts = [(c, naive_matmul(dense(x), dense(y))) for c, x, y in products] + [(c, dense(x)) for c, x in terms]
    total = [[0] * size for _ in range(size)]
    for c, part in parts:
        for i in range(size):
            for j in range(size):
                total[i][j] += c * part[i][j]
    if rows is not None:
        kept = set(rows)
        total = [row if i in kept else [0] * size for i, row in enumerate(total)]
    return ExactMatrix.from_dense(total)
