"""The closure of a carrier seeded at the rows that determine it.

`closure._closure_dimension` seeds the closure at the orbit rows of
the tensor-place permutations where the generators pass the place gate,
and only at the dominant weights' rows where X2 and X3 hold, then reads
dim A as sum |W mu| dim 1_mu A.  Each reduction must give the full
closure's dimension: on criterion 6's carriers, and on seeded faults, where
a fault that is not fixed by the place permutations takes every row and one
that breaks X2 or X3 takes every weight class.
`presentations_generate_same_algebra` must give the full comparison's
answer: with no closure where the projector classes are the H classes, and
from two closures on every row where they differ, as where a projector
splits its weight class or the projector table is empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurkit import closure, presentation, replinalg
from schurkit.idempotents import build_idempotents
from schurkit.closure import _closure_dimension, _closure_seeds, presentations_generate_same_algebra
from schurkit.replinalg import ExactMatrix, algebra_closure, orbit_rows, single_power_rep, tower_rep
from schurkit.rootdata import LieType, build_root_system
from conftest import rebuild
from test_ladders import _seeded_faults as ladder_faults
from test_orbits import seeded_faults as orbit_faults

CRITERION_6 = [("C", 1, 2), ("C", 2, 2), ("B", 2, 2), ("D", 2, 2), ("B", 2, 3), ("B", 3, 2), ("D", 3, 2), ("C", 2, 3)]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def carriers(family, rank, r):
    lt = LieType(family, rank)
    return build_root_system(lt), (tower_rep(lt, r), single_power_rep(lt, r))


@pytest.mark.parametrize("family,rank,r", CRITERION_6)
def test_seeded_closure_dimension_is_the_full_closures(family, rank, r):
    rs, reps = carriers(family, rank, r)
    for rep in reps:
        orbits, weight = _closure_seeds(rep, rs)
        assert orbits == orbit_rows(rep) and weight is not None, rep.kind
        dim, res, dominant = _closure_dimension(rep, rs)
        assert dominant
        assert dim == algebra_closure(rep.generator_lists()).dimension, rep.kind
        assert res.dimension < dim or len(orbit_rows(rep)) == rep.dim


def generator_faults(rep, fam):
    """(name, carrier, fixed) for the generator faults of the orbit and ladder tests."""
    for name, bad, _, fixed in orbit_faults(rep, fam):
        if bad is not rep:
            yield name, bad, fixed
    for name, bad, _ in ladder_faults(rep, fam):
        if bad is not rep:
            yield name, bad, None


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_faults_take_every_row_or_every_class_and_keep_the_dimension(family, rank, r):
    rs, reps = carriers(family, rank, r)
    for rep in reps:
        fam = build_idempotents(rep)
        for name, bad, fixed in generator_faults(rep, fam):
            orbits, weight = _closure_seeds(bad, rs)
            if fixed is not None:
                assert (orbits is not None) == fixed, name
            assert weight is None, name  # every seeded fault breaks X2 or X3
            dim, _, dominant = _closure_dimension(bad, rs)
            assert not dominant, name
            assert dim == algebra_closure(bad.generator_lists()).dimension, (rep.kind, name)
        # the place-fixed X3 fault keeps the orbit rows and seeds every class
        bad = {name: carrier for name, carrier, _ in generator_faults(rep, fam)}["e_1 + f_1 in place of e_1"]
        assert _closure_seeds(bad, rs)[0] == orbit_rows(bad)


def full_comparison(rep, fam):
    with_h = algebra_closure(list(rep.e) + list(rep.f) + list(rep.h))
    with_proj = algebra_closure(list(rep.e) + list(rep.f) + list(fam.table.values()))
    return with_h.canonical_rows() == with_proj.canonical_rows()


def recording_closure(monkeypatch):
    """Replace the `algebra_closure` that `closure` calls by one that records the rows it is seeded at."""
    seeded = []

    def recorded(mats, rows=None):
        seeded.append(rows)
        return algebra_closure(mats, rows)

    monkeypatch.setattr(closure, "algebra_closure", recorded)
    return seeded


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2), ("B", 1, 3)])
def test_same_algebra_is_the_full_comparison(family, rank, r, monkeypatch):
    rep = tower_rep(LieType(family, rank), r)
    fam = build_idempotents(rep)
    cases = [("clean", rep, fam)] + [case[:3] for case in orbit_faults(rep, fam)] + list(ladder_faults(rep, fam))
    answers = {}
    for name, bad, bad_fam in cases:
        seeded = recording_closure(monkeypatch)
        answers[name] = presentations_generate_same_algebra(bad, bad_fam)
        monkeypatch.undo()
        assert answers[name] == full_comparison(bad, bad_fam), name
        # the answer is read off the classes with no closure, or both generator sets are closed on every row
        assert seeded in ([], [None, None]), name
        assert seeded or answers[name], name
        if name == "clean":
            assert seeded == []
    # the overlapping projector splits a projector class, and on B the changed H_1 entry splits an H class
    assert False in answers.values()


def test_an_empty_projector_table_is_one_class():
    # every index is labelled () by an empty table, one class, which differs from the H classes: the comparison
    # closes both sets, and the changed H_1 entry is not in the algebra that e_i, f_i and 1 generate
    rep = tower_rep(LieType("B", 2), 2)
    fam = build_idempotents(rep)
    bad = {name: carrier for name, carrier, _ in ladder_faults(rep, fam)}["changed diagonal entry of H_1"]
    empty = rebuild(fam, table={})
    assert full_comparison(bad, empty) is False
    assert presentations_generate_same_algebra(bad, empty) is False


def test_same_algebra_keeps_its_presentation_name():
    from schurkit.presentation import presentations_generate_same_algebra as by_old_name

    assert by_old_name is presentations_generate_same_algebra
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        presentation.no_such_name


def split_projector(fam, keep):
    """The family with its largest weight class's projector replaced by the indicator of the indices `keep` picks."""
    lam = max(fam.table, key=lambda w: fam.table[w].trace())
    diagonal = fam.table[lam].diagonal()
    support = [a for a, v in enumerate(diagonal) if v]
    kept = keep(support)
    assert 0 < len(kept) < len(support)
    table = dict(fam.table)
    table[lam] = ExactMatrix.diag([int(a in kept) for a in range(len(diagonal))])
    return rebuild(fam, table=table)


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_a_projector_that_splits_its_weight_class_generates_another_algebra(family, rank, r, monkeypatch):
    rep = tower_rep(LieType(family, rank), r)
    fam = build_idempotents(rep)
    fixed = replinalg.place_invariance(rep)
    # the gate passes: the split is along the tower blocks, which the place permutations keep
    _, offset, size = rep.blocks[0]
    by_block = split_projector(fam, lambda support: [a for a in support if offset <= a < offset + size])
    assert all(fixed(p) for p in by_block.table.values())
    # the gate fails: one index is kept and the rest of its orbit is not
    by_index = split_projector(fam, lambda support: [min(set(support) - set(orbit_rows(rep)))])
    assert not all(fixed(p) for p in by_index.table.values())
    for bad in (by_block, by_index):
        assert full_comparison(rep, bad) is False
        seeded = recording_closure(monkeypatch)
        assert presentations_generate_same_algebra(rep, bad) is False
        monkeypatch.undo()
        assert seeded == [None, None]  # a split class takes both closures in full


MISMATCH = """
import sys
from schurkit import cli, replinalg

real = replinalg.natural_rep


def scaled_entry(lt):
    rep = real(lt)
    e = list(rep.e)
    (i, j, v), *_ = sorted(e[0].iter_entries())
    e[0] = e[0] + replinalg.ExactMatrix.unit(rep.dim, i, j, v)  # one entry of e_1 doubled
    rep.e = tuple(e)
    return rep


replinalg.natural_rep = scaled_entry
sys.exit(cli.run(["closure", "C", "2", "2"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_closure_mismatch_exits_one_and_names_a_weight(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, *flags, "-c", MISMATCH]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert '"matches_expected": false' in proc.stdout
    (line,) = [line for line in proc.stderr.splitlines() if line.startswith("FAIL:")]
    assert line.startswith("FAIL: closure dimension vs squared-dimension sum (tower: dim 1_mu A = ")
    assert " at mu=(" in line and ", expected " in line
