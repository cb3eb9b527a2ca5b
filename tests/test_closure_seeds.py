"""The tower's closure seeded at the rows that determine it, and the single power read off its top block.

`closure._closure_dimensions` closes the tower once and reads the single
power's dimension off the closure cut to the top block's rows.  It seeds the
closure at the dominant weights' orbit rows of the tensor-place permutations
where the e_i, f_i and H_i pass the place gate and X2 and X3 hold, and reads
dim A as sum |W mu| dim 1_mu A; everywhere else it seeds every row.  Both
seeded dimensions must be the full closures' on criterion 6's carriers, the
cut's dim 1_mu A those of the single power's own closure, and a seeded fault
that is not fixed by the place permutations or breaks X2 or X3 must take
every row.  Each premise is needed: an H_1 changed off the orbit rows of the
C2 r=2 tower passes X2 and X3 there and fails only the gate on the H_i, and
would read 161 for 257; on the C1 r=2 tower a fault that passes the gate and
X2 and breaks X3 on both sides would read 7 for 10, so X2 alone does not
suffice.  A fault confined to one block of the B2 r=2 tower moves the
single power exactly when that block is the top one.  Every run checks each
piece dim 1_mu A 1_mu' against sum_lam m_lam(mu) m_lam(mu'): a closure
whose pieces are off while every total is right exits 1 naming a piece, and
the csv and text `matches` cell of each carrier reads False exactly where
that carrier's pieces are off.
`presentations_generate_same_algebra` must give the full comparison's
answer: with no closure where the projector classes are the H classes, and
from two closures on every row where they differ, as where a projector
splits its weight class or the projector table is empty.
"""

import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurkit import cli, closure, presentation, replinalg
from schurkit.idempotents import build_idempotents
from schurkit.closure import _closure_dimensions, _closure_seeds, presentations_generate_same_algebra
from schurkit.presentation import _commutator_cases, _coroot_element, _x3_cases
from schurkit.replinalg import ExactMatrix, algebra_closure, orbit_rows, single_power_rep, tower_rep
from schurkit.rootdata import LieType, Weight, build_root_system
from conftest import load_tool, rebuild
from test_ladders import _seeded_faults as ladder_faults
from test_orbits import seeded_faults as orbit_faults

CRITERION_6 = [("C", 1, 2), ("C", 2, 2), ("B", 2, 2), ("D", 2, 2), ("B", 2, 3), ("B", 3, 2), ("D", 3, 2), ("C", 2, 3)]
SRC = str(Path(__file__).resolve().parents[1] / "src")
PINS = load_tool("pins")  # its FAULTS["doubled e_1"] is the one copy of the doubled natural e_1 entry


def carriers(family, rank, r):
    lt = LieType(family, rank)
    return build_root_system(lt), (tower_rep(lt, r), single_power_rep(lt, r))


def top_block(rep):
    """The generators of a carrier cut to its top block, as operators of that block's size."""
    _, offset, size = rep.blocks[-1]
    block = range(offset, offset + size)
    return [
        ExactMatrix.from_entries(size, [(i - offset, j - offset, v) for i, j, v in m.iter_entries() if i in block])
        for m in rep.generator_lists()
    ]


def by_weight(weights, pieces):
    """dim 1_mu A 1_mu' per weight pair (mu, mu') from dim 1_c A 1_c' per piece (c, c'); a 0 piece is left out."""
    out = {}
    for (c, d), dim in pieces.items():
        if dim:
            out[weights[c[0]], weights[d[0]]] = out.get((weights[c[0]], weights[d[0]]), 0) + dim
    return out


@pytest.mark.parametrize("family,rank,r", CRITERION_6)
def test_seeded_closure_dimension_is_the_full_closures(family, rank, r):
    rs, (tower, single) = carriers(family, rank, r)
    rows, weight = _closure_seeds(tower, rs)
    assert weight is not None
    assert rows == [a for a in orbit_rows(tower) if rs.in_chamber(weight(a))]
    # the tower's seeds in its top block are the single power's own
    _, offset, _ = tower.blocks[-1]
    assert [a - offset for a in rows if a >= offset] == _closure_seeds(single, rs)[0]
    ((dim_tower, _), (dim_single, _)), dominant = _closure_dimensions(tower, rs)
    assert dominant
    assert dim_tower == algebra_closure(tower.generator_lists()).dimension
    assert dim_single == algebra_closure(single.generator_lists()).dimension
    assert algebra_closure(tower.generator_lists(), rows).dimension < dim_tower or len(rows) == tower.dim


@pytest.mark.parametrize("doubled", [False, True])
@pytest.mark.parametrize("family,rank,r", CRITERION_6)
def test_the_cut_reads_the_single_power_closures_weight_dimensions(family, rank, r, doubled, monkeypatch):
    if doubled:  # one entry of e_1 doubled in the natural module, so both carriers fail X2 and take every row
        monkeypatch.setattr(replinalg, "natural_rep", replinalg.natural_rep)  # restored when the test ends
        exec(PINS.FAULTS["doubled e_1"], {})  # the pins table's fault, which replaces replinalg.natural_rep
    rs, (tower, single) = carriers(family, rank, r)
    (_, (dim_single, cut)), dominant = _closure_dimensions(tower, rs)
    assert dominant is not doubled
    full = algebra_closure(single.generator_lists())
    assert dim_single == full.dimension
    want = by_weight(single.weights, full.piece_dimensions())
    if dominant:  # restriction to the orbit rows is injective on each 1_mu A 1_mu', so a dominant mu keeps its pieces
        want = {(mu, nu): d for (mu, nu), d in want.items() if rs.is_dominant(mu)}
    assert by_weight(tower.weights, cut) == want


def test_quotient_witness_closes_the_tower_once(monkeypatch):
    seeded = recording_closure(monkeypatch)
    monkeypatch.setattr(replinalg, "single_power_rep", None)  # no second carrier is built
    report = closure.quotient_witness(LieType("B", 2), 2)
    assert (report.dim_tower, report.dim_single, report.mismatch) == (322, 297, None)
    tower = tower_rep(LieType("B", 2), 2)
    assert seeded == [_closure_seeds(tower, build_root_system(tower.lie_type))[0]]


def block_fault(rep, name, block):
    """The carrier with one block-diagonal fault confined to the given block (power s, offset, size)."""
    _, offset, size = block
    inside = lambda i: offset <= i < offset + size
    if name == "H_1 shifted":  # H_1 + 1 on every index of the block
        h = list(rep.h)
        h[0] = h[0] + ExactMatrix._diag_at(rep.dim, [(i, 1) for i in range(rep.dim) if inside(i)])
        return rebuild(rep, h=tuple(h))
    f = list(rep.f)  # "f_1 dropped"
    f[0] = ExactMatrix.from_entries(rep.dim, [(i, j, v) for i, j, v in f[0].iter_entries() if not inside(i)])
    return rebuild(rep, f=tuple(f))


@pytest.mark.parametrize(
    "name,level,dims",
    [("H_1 shifted", 0, (323, 297)), ("f_1 dropped", 1, (315, 297)), ("f_1 dropped", 2, (177, 152))],
)
def test_a_fault_confined_to_one_block_moves_the_single_power_only_in_the_top_block(name, level, dims):
    # the B2 r=2 tower holds degrees 0, 1 and 2 (dims 1, 5 and 25) and reads 322 / 297 clean; each fault breaks X2
    rs, (tower, _) = carriers("B", 2, 2)
    assert [s for s, _, _ in tower.blocks] == [0, 1, 2]
    bad = block_fault(tower, name, tower.blocks[level])
    ((dim_tower, _), (dim_single, _)), dominant = _closure_dimensions(bad, rs)
    assert ((dim_tower, dim_single), dominant) == (dims, False)
    assert dim_tower == algebra_closure(bad.generator_lists()).dimension
    assert dim_single == algebra_closure(top_block(bad)).dimension


def generator_faults(rep, fam):
    """(name, carrier, fixed) for the generator faults of the orbit and ladder tests."""
    for name, bad, _, fixed in orbit_faults(rep, fam):
        if bad is not rep:
            yield name, bad, fixed
    for name, bad, _ in ladder_faults(rep, fam):
        if bad is not rep:
            yield name, bad, None


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_faults_take_every_row_and_keep_the_dimension(family, rank, r, monkeypatch):
    rs, reps = carriers(family, rank, r)
    for rep in reps:  # a single power is a carrier whose top block is all of it
        fam = build_idempotents(rep)
        for name, bad, fixed in generator_faults(rep, fam):
            if fixed is not None:
                assert (orbit_rows(bad, bad.generator_lists()) is not None) == fixed, name
            assert _closure_seeds(bad, rs) == (None, None), name  # every seeded fault breaks X2 or X3
            seeded = recording_closure(monkeypatch)
            ((dim, _), _), dominant = _closure_dimensions(bad, rs)
            monkeypatch.undo()
            assert (seeded, dominant) == ([None], False), name
            assert dim == algebra_closure(bad.generator_lists()).dimension, (rep.kind, name)


def ungated_dominant_sum(rep, rs):
    """sum |W mu| dim 1_mu A over the classes of a closure seeded at the dominant orbit rows, with no gate read."""
    weight = lambda a: tuple(h.entry(a, a) for h in rep.h)
    rows = [a for a in orbit_rows(rep) if rs.in_chamber(weight(a))]
    pieces = algebra_closure(rep.generator_lists(), rows).piece_dimensions()
    return sum(len(rs.weyl_orbit(Weight(weight(c[0])))) * d for (c, _), d in pieces.items())


def test_a_fault_that_passes_the_gate_and_x2_and_breaks_x3_on_both_sides_takes_every_row():
    # on the C1 r=2 tower (dim 5: degree 0, then the four digit pairs of degree 2), H_1 = diag(-1, 2, 0, 0, -1),
    # e_1 = E(1,0) + E(0,4) and f_1 = 2 E(0,1) + E(4,0) are fixed by the place permutations and [e_1, f_1] = H_1,
    # which is h_1 on C1 (X2 holds), but [H_1, e_1] = 3 E(1,0) and [H_1, f_1] = -6 E(0,1) (X3 fails on both sides)
    rep = tower_rep(LieType("C", 1), 2)
    rs = build_root_system(rep.lie_type)
    unit = lambda i, j, v=1: ExactMatrix.unit(rep.dim, i, j, v)
    h = ExactMatrix.diag([-1, 2, 0, 0, -1])
    bad = rebuild(rep, e=(unit(1, 0) + unit(0, 4),), f=(unit(0, 1, 2) + unit(4, 0),), h=(h,))
    assert rep.dim == 5 and orbit_rows(bad, bad.generator_lists()) == [0, 1, 2, 4]
    assert all(res.is_zero() for _, res in _commutator_cases(bad.e, bad.f, lambda i: _coroot_element(rs, bad.h, i)))
    assert [case for case, res in _x3_cases(rs, bad, None) if not res.is_zero()] == ["[H_1,e_1]", "[H_1,f_1]"]
    assert _closure_seeds(bad, rs) == (None, None)
    ((dim, _), _), dominant = _closure_dimensions(bad, rs)
    assert (dim, dominant) == (10, False)
    assert algebra_closure(bad.generator_lists()).dimension == 10
    assert ungated_dominant_sum(bad, rs) == 7  # the dominant seeds on X2 alone


def test_an_h_fault_off_the_orbit_rows_takes_every_row():
    # on the C2 r=2 tower, H_1 changed at index 9, which is not an orbit row, is not fixed by the place permutations,
    # and X2 and X3 still hold on the orbit rows: only the place gate on the H_i keeps the dominant seeds out
    rep = tower_rep(LieType("C", 2), 2)
    rs = build_root_system(rep.lie_type)
    h = list(rep.h)
    h[0] = h[0] + ExactMatrix.unit(rep.dim, 9, 9)
    bad = rebuild(rep, h=tuple(h))
    rows = orbit_rows(bad, [*bad.e, *bad.f])
    assert 9 not in rows and orbit_rows(bad, bad.generator_lists()) is None
    x2 = _commutator_cases(bad.e, bad.f, lambda i: _coroot_element(rs, bad.h, i), rows)
    assert all(res.is_zero() for _, res in itertools.chain(x2, _x3_cases(rs, bad, rows)))
    assert _closure_seeds(bad, rs) == (None, None)
    ((dim, _), _), dominant = _closure_dimensions(bad, rs)
    assert (dim, dominant) == (257, False)
    assert algebra_closure(bad.generator_lists()).dimension == 257
    assert ungated_dominant_sum(bad, rs) == 161  # the dominant seeds with the H_i left out of the gate


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
    # the gate passes: the split is along the tower blocks, which the place permutations keep
    _, offset, size = rep.blocks[0]
    by_block = split_projector(fam, lambda support: [a for a in support if offset <= a < offset + size])
    assert orbit_rows(rep, by_block.table.values()) is not None
    # the gate fails: one index is kept and the rest of its orbit is not
    by_index = split_projector(fam, lambda support: [min(set(support) - set(orbit_rows(rep)))])
    assert orbit_rows(rep, by_index.table.values()) is None
    for bad in (by_block, by_index):
        assert full_comparison(rep, bad) is False
        seeded = recording_closure(monkeypatch)
        assert presentations_generate_same_algebra(rep, bad) is False
        monkeypatch.undo()
        assert seeded == [None, None]  # a split class takes both closures in full


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_closure_mismatch_exits_one_and_names_a_piece(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, *flags, "-c", PINS.FAULTS["doubled e_1"] + PINS.RUN, "closure", "C", "2", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert '"matches_expected": false' in proc.stdout
    (line,) = [line for line in proc.stderr.splitlines() if line.startswith("FAIL:")]
    assert line == (
        "FAIL: closure dimension vs squared-dimension sum"
        " (tower: dim 1_mu A 1_mu' = 4 at (mu, mu')=((1, 1), (0, 0)), expected 3)"
    )


class SwappedPieces(replinalg.ClosureResult):
    """A closure in which two pieces of one row class report each other's dimensions (if `uncut_only`, uncut only)."""

    __slots__ = ("swap", "uncut_only")

    def piece_dimensions(self, rows=None):
        dims = super().piece_dimensions(rows)
        if rows is None or not self.uncut_only:
            a, b = self.swap
            dims[a], dims[b] = dims.get(b, 0), dims.get(a, 0)
        return dims


def matches_cells(fmt, document):
    """{carrier: matches cell} of a csv or text closure table."""
    lines = document.splitlines()[1:]  # after the header line
    table = list(csv.reader(lines)) if fmt == "csv" else [line.split() for line in lines[:-1]]  # text: no "passed:"
    columns, *rows = table
    return {row[0]: row[columns.index("matches")] for row in rows}


def closure_with_swapped_pieces(monkeypatch, uncut_only):
    """{format: (exit code, stdout, stderr lines)} of `closure C 2 2` with two of its tower's pieces swapped.

    On the C2 r=2 tower the pieces from weight (1, 1) to (2, 0) and to (1, -1) hold 1 and 2; swapped, every
    row-class sum, and so every total, is kept, and only the piece check sees the fault.  Both weights lie in the
    top block, so the single power's pieces are swapped too, unless `uncut_only` keeps the cut closure right.
    """
    tower = tower_rep(LieType("C", 2), 2)
    cls = lambda *w: tuple(a for a in range(tower.dim) if tower.weights[a] == Weight(w))
    swap = (cls(1, 1), cls(2, 0)), (cls(1, 1), cls(1, -1))

    def swapped(mats, rows=None):
        res = algebra_closure(mats, rows)
        out = SwappedPieces(res.dimension, res.size, res._pieces)
        out.swap, out.uncut_only = swap, uncut_only
        return out

    monkeypatch.setattr(closure, "algebra_closure", swapped)
    runs = {}
    for fmt in ("json", "csv", "text"):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["closure", "C", "2", "2", "--format", fmt], stdout=out, stderr=err)
        runs[fmt] = code, out.getvalue(), err.getvalue().splitlines()
    return runs


PIECE_FAIL = (
    "FAIL: closure piece dimension vs multiplicity sum"
    " (tower: dim 1_mu A 1_mu' = 2 at (mu, mu')=((1, 1), (2, 0)), expected 1)"
)


def test_pieces_off_with_every_total_right_exit_one_and_name_a_piece(monkeypatch):
    runs = closure_with_swapped_pieces(monkeypatch, uncut_only=False)
    assert {fmt: (code, err) for fmt, (code, _, err) in runs.items()} == dict.fromkeys(runs, (1, [PIECE_FAIL]))
    body = json.loads(runs["json"][1])
    assert (body["dim_tower"], body["dim_single_power"]) == (body["expected_tower"], body["expected_single_power"])
    assert body["matches_expected"] is False
    for fmt in ("csv", "text"):  # each carrier's cell is its own verdict, every piece included
        assert matches_cells(fmt, runs[fmt][1]) == {"single_power": "False", "tower": "False"}


def test_pieces_off_in_the_tower_alone_fail_its_row_alone(monkeypatch):
    runs = closure_with_swapped_pieces(monkeypatch, uncut_only=True)
    assert {fmt: (code, err) for fmt, (code, _, err) in runs.items()} == dict.fromkeys(runs, (1, [PIECE_FAIL]))
    assert json.loads(runs["json"][1])["matches_expected"] is False
    for fmt in ("csv", "text"):
        assert matches_cells(fmt, runs[fmt][1]) == {"single_power": "True", "tower": "False"}
