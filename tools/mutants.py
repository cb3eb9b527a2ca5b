"""Run a fixed list of source mutants against the Tier-1 suite.

Each mutant is one text edit of one source file: an operator flip, a gate
bypass or a dropped check in `presentation`, `closure`, `replinalg` or
`cli`.  For each, the checkout (without `.git`) is copied to a temporary
directory, the edit is applied to the copy, and `pytest -x -q` runs there;
the checkout itself is never written.  A mutant is `killed` when the suite
fails and `survived` when it passes.  Each run takes up to about 35 s.

    python tools/mutants.py             # every mutant
    python tools/mutants.py --check     # only confirm each anchor occurs once in its file
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "schurkit")

# (name, file under src/schurkit, anchor text, replacement, note)
MUTANTS = [
    (
        "_needed_rows keeps only row a",
        "presentation.py",
        "        needed.update(b for b, _ in stored.get(a, ()))\n",
        "        pass\n",
        "",
    ),
    (
        "orbit_rows' place gate always passes",
        "replinalg.py",
        "    for x in operators:\n",
        "    for x in ():\n",
        "",
    ),
    (
        "the idempotent gate leaves out the projector table",
        "presentation.py",
        "orbit_rows(rep, [*rep.e, *rep.f, *fam.table.values()])",
        "orbit_rows(rep, [*rep.e, *rep.f])",
        "",
    ),
    (
        "the Serre gate leaves out the H_i",
        "presentation.py",
        "rows = orbit_rows(rep, rep.generator_lists())",
        "rows = orbit_rows(rep, [*e, *f])",
        "",
    ),
    (
        "the closure gate leaves out the H_i",
        "closure.py",
        "orbits = orbit_rows(rep, rep.generator_lists())",
        "orbits = orbit_rows(rep, [*rep.e, *rep.f])",
        "",
    ),
    (
        "orbit_rows drops the rows whose first digit is m-1",
        "replinalg.py",
        "        for digits in itertools.combinations_with_replacement(range(m), s):\n",
        "        for digits in itertools.combinations_with_replacement(range(m), s):\n"
        "            if digits and digits[0] == m - 1:\n"
        "                continue\n",
        "",
    ),
    (
        "_place_maps keeps only the rotation",
        "replinalg.py",
        "return [p for p in (swap, rotate) if",
        "return [p for p in (rotate,) if",
        "",
    ),
    (
        "_closure_seeds drops X2",
        "closure.py",
        "itertools.chain(x2, _x3_cases(rs, rep, orbits))",
        "itertools.chain(_x3_cases(rs, rep, orbits))",
        "",
    ),
    (
        "_closure_seeds drops X3",
        "closure.py",
        "itertools.chain(x2, _x3_cases(rs, rep, orbits))",
        "itertools.chain(x2)",
        "X2 alone does not suffice: on the C1 r=2 tower, a fault that passes the place gate and X2 and breaks X3 "
        "on both sides seeds a dimension of 7 against the full closure's 10",
    ),
    (
        "_x3_cases flips the sign of X3's shift term",
        "presentation.py",
        "_combine(rep.dim, ((1, hk, x), (-1, x, hk)), ((shift, x),), rows)",
        "_combine(rep.dim, ((1, hk, x), (-1, x, hk)), ((-shift, x),), rows)",
        "",
    ),
    (
        "_check_many gives ties to the later case (>=)",
        "presentation.py",
        "if worst is None or mag > worst[0]:",
        "if worst is None or mag >= worst[0]:",
        "",
    ),
    (
        "|W mu| counted as 1 where dim 1_mu A 1_mu' = 1",
        "closure.py",
        "sum(orbit(c) * d for (c, _), d in dims.items())",
        "sum((1 if d == 1 else orbit(c)) * d for (c, _), d in dims.items())",
        "",
    ),
    (
        "the single power is read off blocks[0]",
        "closure.py",
        "_, offset, size = tower.blocks[-1]",
        "_, offset, size = tower.blocks[0]",
        "",
    ),
    (
        "piece_dimensions ignores rows",
        "replinalg.py",
        "            if keep is not None:\n",
        "            if False:\n",
        "",
    ),
    (
        "the piece check keys by row class only",
        "closure.py",
        "                    table.setdefault((mu, nu), [0, 0])[1] += m * n\n"
        "    for (c, d), dim in dims.items():  # at the weights of c[0] and d[0]; "
        "faulty classes can share them, and add up\n"
        "        table.setdefault((weights[c[0]], weights[d[0]]), [0, 0])[0] += dim\n",
        "                    table.setdefault((mu, mu), [0, 0])[1] += m * n\n"
        "    for (c, d), dim in dims.items():\n"
        "        table.setdefault((weights[c[0]], weights[c[0]]), [0, 0])[0] += dim\n",
        "",
    ),
    (
        "the expected table drops the m_lam(mu') factor",
        "closure.py",
        "[1] += m * n\n",
        "[1] += m\n",
        "",
    ),
    (
        "the closure table's matches cell compares totals only",
        "cli.py",
        'report.single_matches],\n        ["tower", report.dim_tower, report.expected_tower, report.tower_matches]',
        'report.dim_single == report.expected_single],\n'
        '        ["tower", report.dim_tower, report.expected_tower, report.dim_tower == report.expected_tower]',
        "",
    ),
    (
        "_same_classes always answers True",
        "closure.py",
        "    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})\n",
        "    return True\n",
        "",
    ),
    (
        "_same_classes labels by zip, so an empty list matches every partition",
        "closure.py",
        "pairs = {(tuple(d[a] for d in diagonals), tuple(d[a] for d in others)) for a in range(size)}",
        "pairs = set(zip(zip(*diagonals), zip(*others)))",
        "",
    ),
]


def anchor_errors():
    """One line for each mutant whose anchor does not occur exactly once in its file."""
    errors = []
    for name, filename, anchor, _, _ in MUTANTS:
        count = (ROOT / PACKAGE / filename).read_text().count(anchor)
        if count != 1:
            errors.append(f"{name}: anchor occurs {count} times in {filename}")
    return errors


def run(filename, anchor, replacement):
    """'killed' with the first failing test, or 'survived', for one mutant on a copy of the checkout."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
    with tempfile.TemporaryDirectory(prefix="schurkit-mutant-") as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=ignore)
        path = copy / PACKAGE / filename
        path.write_text(path.read_text().replace(anchor, replacement, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else f"pytest exit {done.returncode}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="only confirm each anchor occurs once in its file")
    args = parser.parse_args(argv)
    errors = anchor_errors()
    if errors or args.check:
        print("\n".join(errors) or f"{len(MUTANTS)} anchors, each found once")
        return 1 if errors else 0
    for name, filename, anchor, replacement, note in MUTANTS:
        verdict, detail = run(filename, anchor, replacement)
        print(f"{verdict:8}  {name}" + "".join(f"  ({text})" for text in (detail, note) if text), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
