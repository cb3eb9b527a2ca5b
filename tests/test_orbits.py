"""The relation checks on one row per orbit of the tensor-place permutations.

`orbit_rows` must list one index per orbit, C(m+s-1, s) per block, and
its place gate must agree with invariance under every element of the
group its two maps generate.  Where every operator a check reads passes
the gate, every residual is formed once, on the orbit rows alone, and the
reports must equal those of the checks with the gate made to fail, which
form every residual on all rows: on the 24 criterion-1 carriers, on the
rank-4 towers, on seeded faults and on lifted faults of the natural
module.  A residual of place-fixed factors has R[sa, sb] = R[a, b], and
each orbit row is the smallest index of its orbit, so a fault that keeps
the generators fixed leaves a nonzero residual on the orbit rows with the
full residual's witness; one that is not fixed, an H_i or a projector
included, fails the gate and takes all rows.
"""

import inspect
import io
import json
import os
import subprocess
import sys
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import cli, idempotents, presentation
from schurkit.idempotents import IdempotentFamily, build_idempotents
from schurkit.presentation import _serre_sum, verify_idempotent_presentation, verify_serre_presentation
from schurkit.replinalg import ExactMatrix, Representation, _lift_rows, natural_rep, orbit_rows, tower_rep
from schurkit.rootdata import LieType, build_root_system
from schurkit.weightsets import tensor_degrees
from conftest import rebuild

CRITERION_1 = [
    (family, rank, r)
    for family in "BCD"
    for rank in range(2 if family == "D" else 1, 4)
    for r in (1, 2, 3)
]
RANK_4 = [("B", 4, 4, 10000), ("C", 4, 4, 5000), ("D", 4, 4, 5000)]


@lru_cache(maxsize=None)
def tower(family, rank, r, max_dim=None):
    rep = tower_rep(LieType(family, rank), r, max_dim)
    return rep, build_idempotents(rep)


def blocks_only(lt, r, degrees):
    """A carrier record with its blocks and no operators: all that `orbit_rows` reads."""
    m = lt.natural_dim
    blocks, offset = [], 0
    for s in degrees:
        blocks.append((s, offset, m**s))
        offset += m**s
    return Representation(lt, r, (), (), (), offset, (), tuple(blocks), "tower")


def digits(rep, index):
    """(block offset, digit tuple) of a basis index, the first digit most significant."""
    m = rep.lie_type.natural_dim
    for s, offset, size in rep.blocks:
        if offset <= index < offset + size:
            local = index - offset
            return offset, tuple(local // m ** (s - 1 - k) % m for k in range(s))
    raise IndexError(index)


@pytest.mark.parametrize("family,rank,r", CRITERION_1 + [("B", 4, 3), ("C", 4, 4), ("D", 4, 4)])
def test_orbit_rows_are_the_non_decreasing_digit_tuples(family, rank, r):
    rep = tower_rep(LieType(family, rank), r, 5000)
    m = rep.lie_type.natural_dim
    rows = orbit_rows(rep)
    assert len(rows) == sum(comb(m + s - 1, s) for s, _, _ in rep.blocks)
    assert rows == sorted(set(rows))
    # one orbit row per orbit: the index with the same digits, sorted
    sorted_digits = {(offset, tuple(sorted(d))) for offset, d in map(lambda b: digits(rep, b), range(rep.dim))}
    assert [digits(rep, b) for b in rows] == sorted(sorted_digits)


def test_orbit_row_counts_of_the_benchmark_towers():
    for family, rank, r, count in (("B", 3, 4, 330), ("C", 3, 4, 148), ("D", 3, 4, 148), ("B", 3, 5, 792)):
        lt = LieType(family, rank)
        assert len(orbit_rows(blocks_only(lt, r, tensor_degrees(lt, r)))) == count


def group_of(maps):
    """Every permutation the index maps generate, as tuples."""
    identity = tuple(range(len(maps[0])))
    seen, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for p in maps:
            h = tuple(p[a] for a in g)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


def place_maps(rep):
    """The swap of the first two places and the rotation of all places, on every block at once."""
    swap, rotate = list(range(rep.dim)), list(range(rep.dim))
    index = {}
    for b in range(rep.dim):
        offset, d = digits(rep, b)
        index[offset, d] = b
    for b in range(rep.dim):
        offset, d = digits(rep, b)
        if len(d) >= 2:
            swap[b] = index[offset, (d[1], d[0]) + d[2:]]
            rotate[b] = index[offset, d[1:] + d[:1]]
    return swap, rotate


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 1, 3), ("D", 2, 3)])
def test_place_invariance_is_invariance_under_the_generated_group(family, rank, r):
    rep, fam = tower(family, rank, r)
    group = group_of(place_maps(rep))
    rows = set(orbit_rows(rep))
    # the group moves every index onto exactly one orbit row: its own orbit's
    for b in range(rep.dim):
        assert len({g[b] for g in group} & rows) == 1

    def invariant(x):
        entries = dict(((a, b), v) for a, b, v in x.iter_entries())
        return all(x.entry(g[a], g[b]) == v for g in group for (a, b), v in entries.items())

    fixed = lambda x: orbit_rows(rep, [x]) is not None
    dim = rep.dim
    # the H_i, the projectors and the changed H_1 below are diagonal operators, tested as every other operator is
    candidates = list(rep.generator_lists()) + list(fam.table.values())
    candidates += [
        rep.e[0] + ExactMatrix.unit(dim, 1, dim - 2, 3),  # one extra entry
        2 * rep.e[0],
        rep.e[0] + ExactMatrix.unit(dim, dim - 1, dim - 1),  # the last index is its own orbit
        rep.h[0] + ExactMatrix.unit(dim, dim - 2, dim - 2),  # the orbit of the index before it is larger
        rep.e[0].bracket(rep.f[0]),
    ]
    outcomes = [fixed(x) for x in candidates]
    assert outcomes == [invariant(x) for x in candidates]
    assert outcomes[: len(rep.generator_lists())] == [True] * len(rep.generator_lists())
    assert False in outcomes


def test_natural_module_has_no_moving_place():
    rep, _ = tower("B", 2, 1)
    assert orbit_rows(rep) == list(range(rep.dim))
    assert orbit_rows(rep, [ExactMatrix.unit(rep.dim, 0, 3, 7), ExactMatrix.diag([1, 2, 3, 4, 5])]) == orbit_rows(rep)


def all_rows(monkeypatch):
    """Makes the place gate of the relation checks fail, so that they form every residual on all rows."""
    monkeypatch.setattr(presentation, "orbit_rows", lambda rep, operators=(): None)


def reports(rep, fam):
    return verify_serre_presentation(rep).to_json(), verify_idempotent_presentation(rep, fam).to_json()


class RowProbe:
    """Records, for each residual and target the relation checks form, whether it was formed on all rows.

    Recorded, by kind: the `ExactMatrix.bracket` calls; every `_combine` call of `presentation` (X3's
    brackets and X2's targets); X2's coroot targets once more; R2's targets (`IdempotentFamily.weighted_sum`);
    the X6/X7 shift products of the H diagonals; R1's projector cases; the ladder scan; and every `_combine`
    call of `idempotents`, the residuals of failing ladder cases.  `full` lists each call's verdict, and
    `kinds` the kinds seen.
    """

    def __init__(self, monkeypatch):
        self.full, self.kinds = [], set()
        for owner, name, kind in (
            (ExactMatrix, "bracket", "bracket"),
            (presentation, "_combine", "kernel pass"),
            (presentation, "_coroot_element", "X2 target"),
            (IdempotentFamily, "weighted_sum", "R2 target"),
            (presentation, "product_of_shifts", "X6/X7 shift product"),
            (presentation, "_projector_cases", "R1"),
            (presentation, "ladder_check", "ladder scan"),
            (idempotents, "_combine", "ladder residual"),
        ):
            self.wrap(monkeypatch, owner, name, kind)

    def wrap(self, monkeypatch, owner, name, kind):
        real = getattr(owner, name)
        signature = inspect.signature(real)

        def recorded(*args, **kwargs):
            self.kinds.add(kind)
            self.full.append(signature.bind(*args, **kwargs).arguments.get("rows") is None)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)


SERRE_KINDS = {"bracket", "kernel pass", "X2 target", "X6/X7 shift product"}
IDEMPOTENT_KINDS = {"bracket", "R2 target", "R1", "ladder scan"}


@pytest.mark.parametrize("family,rank,r", CRITERION_1)
def test_orbit_path_matches_the_full_path_on_criterion_1_carriers(family, rank, r, monkeypatch):
    rep, fam = tower(family, rank, r)
    probe = RowProbe(monkeypatch)
    orbit = reports(rep, fam)
    assert probe.kinds == SERRE_KINDS | IDEMPOTENT_KINDS
    assert probe.full and not any(probe.full)  # every residual and target was formed on the orbit rows alone
    probe.full.clear()
    all_rows(monkeypatch)
    assert reports(rep, fam) == orbit
    assert probe.full and all(probe.full)


@pytest.mark.parametrize("family,rank,r,max_dim", RANK_4)
def test_orbit_path_matches_the_full_path_on_rank_4_towers(family, rank, r, max_dim, monkeypatch):
    rep, fam = tower(family, rank, r, max_dim)
    orbit = reports(rep, fam)
    all_rows(monkeypatch)
    assert reports(rep, fam) == orbit


def gates(rep, fam):
    """The orbit rows of the Serre check's place gate and of the idempotent check's, each None where it fails."""
    return orbit_rows(rep, rep.generator_lists()), orbit_rows(rep, [*rep.e, *rep.f, *fam.table.values()])


def seeded_faults(rep, fam):
    """(name, carrier, family, fixed): one fault each, and whether it is fixed by the place permutations."""
    dim = rep.dim
    e = list(rep.e)
    e[0] = e[0] + ExactMatrix.unit(dim, 1, dim - 2, 3)
    yield "extra entry in e_1", rebuild(rep, e=tuple(e)), fam, False
    e = list(rep.e)
    e[0] = 2 * e[0]
    yield "2 e_1", rebuild(rep, e=tuple(e)), fam, True
    e = list(rep.e)
    e[0] = e[0] + rep.f[0]  # [e_1 + f_1, [e_1 + f_1, e_2]] = -[h_1, e_2]: a nonzero Serre residual
    yield "e_1 + f_1 in place of e_1", rebuild(rep, e=tuple(e)), fam, True
    lams = list(fam.table)
    table = dict(fam.table)
    table[lams[2]] = 2 * table[lams[2]]
    yield "scaled projector", rep, rebuild(fam, table=table), True


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_faults_take_the_full_path_or_a_nonzero_orbit_residual(family, rank, r, monkeypatch):
    rep, clean = tower(family, rank, r)
    for name, bad, fam, symmetric in seeded_faults(rep, clean):
        assert [rows is not None for rows in gates(bad, fam)] == [symmetric, symmetric], name
        probe = RowProbe(monkeypatch)
        orbit = reports(bad, fam)
        assert any(rel["status"] == "fails" for report in orbit for rel in report["relations"]), name
        # a fixed fault is formed on the orbit rows alone; one that is not fixed on all rows
        assert probe.full and set(probe.full) == {not symmetric}, name
        all_rows(monkeypatch)
        assert reports(bad, fam) == orbit, name
        monkeypatch.undo()


def moved_index(fam, a, to):
    """The family with index a moved from the projector that holds it to the projector of weight `to`."""
    table = dict(fam.table)
    for lam, proj in table.items():
        if proj.entry(a, a):
            table[lam] = proj - ExactMatrix.unit(proj.size, a, a, proj.entry(a, a))
    table[to] = table[to] + ExactMatrix.unit(table[to].size, a, a)
    return rebuild(fam, table=table)


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_a_projector_fault_off_the_orbit_rows_fails_r2_as_on_all_rows(family, rank, r, monkeypatch):
    # index a is not an orbit row, so the two changed projectors are not fixed by the place permutations: the
    # idempotent check's gate fails and every residual goes with every row, and [e_1, f_1] minus R2's target reads
    # -2 at (a, a) (on C2: a = 5, moved from 1_(1,1) to 1_(2,0)); formed on the orbit rows alone, R2 would hold
    rep, clean = tower(family, rank, r)
    a = min(set(range(rep.dim)) - set(orbit_rows(rep)))
    first = next(iter(clean.table))
    assert rep.weights[a] != first and clean.table[rep.weights[a]].entry(a, a) == 1
    fam = moved_index(clean, a, first)
    assert gates(rep, fam)[1] is None
    report = verify_idempotent_presentation(rep, fam).to_json()
    (r2,) = [rel for rel in report["relations"] if rel["label"] == "R2"]
    assert r2["status"] == "fails"
    assert r2["witness"] == {"case": "i=1,j=1", "entry": [a, a], "value": "-2/1", "magnitude": "2"}
    if family == "C":
        assert (a, rep.weights[a].coords, first.coords) == (5, (1, 1), (2, 0))
    all_rows(monkeypatch)
    assert verify_idempotent_presentation(rep, fam).to_json() == report


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_a_doubled_projector_passes_the_gate_and_fails_r1_as_on_all_rows(family, rank, r, monkeypatch):
    # 2 1_lam is fixed by the place permutations, so the idempotent check's gate passes and R1 is formed on the
    # orbit rows alone; (2 1_lam)^2 - 2 1_lam = 2 1_lam reads 2 on lam's support, whose smallest index is an orbit
    # row, and the witness is the one the full residuals give
    rep, clean = tower(family, rank, r)
    a = min(set(range(rep.dim)) - set(orbit_rows(rep)))
    lam = rep.weights[a]  # a projector whose support holds rows that are not formed
    table = dict(clean.table)
    table[lam] = 2 * table[lam]
    fam = rebuild(clean, table=table)
    assert gates(rep, fam)[1] is not None
    probe = RowProbe(monkeypatch)
    report = verify_idempotent_presentation(rep, fam).to_json()
    assert IDEMPOTENT_KINDS <= probe.kinds and not any(probe.full)
    (r1,) = [rel for rel in report["relations"] if rel["label"] == "R1"]
    first = min(b for b in range(rep.dim) if rep.weights[b] == lam)
    case = f"1_{lam.coords} 1_{lam.coords}"
    assert r1 == {"label": "R1", "status": "fails", "witness": {
        "case": case, "entry": [first, first], "value": "2/1", "magnitude": "2"}}
    all_rows(monkeypatch)
    assert verify_idempotent_presentation(rep, fam).to_json() == report


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_swapped_projectors_pass_the_gate_and_fail_the_ladders_on_the_orbit_rows(family, rank, r, monkeypatch):
    # 1_lam and 1_mu under each other's labels are still fixed by the place permutations, so the idempotent check's
    # gate passes; R1 holds and R2-R6 fail, and every ladder residual is one kernel pass on the orbit rows alone,
    # whose witnesses are the ones the full residuals give
    rep, clean = tower(family, rank, r)
    a = min(set(range(rep.dim)) - set(orbit_rows(rep)))
    lam, mu = rep.weights[0], rep.weights[a]
    assert lam != mu
    table = dict(clean.table)
    table[lam], table[mu] = table[mu], table[lam]
    fam = rebuild(clean, table=table)
    assert gates(rep, fam)[1] is not None
    probe = RowProbe(monkeypatch)
    report = verify_idempotent_presentation(rep, fam).to_json()
    assert "ladder residual" in probe.kinds and not any(probe.full)
    assert [rel["label"] for rel in report["relations"] if rel["status"] == "fails"] == ["R2", "R3", "R4", "R5", "R6"]
    probe.full.clear()
    all_rows(monkeypatch)
    assert verify_idempotent_presentation(rep, fam).to_json() == report
    assert probe.full and all(probe.full)


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_an_h_fault_off_the_orbit_rows_fails_x2_as_on_all_rows(family, rank, r, monkeypatch):
    # H_1 changed at index a, which is not an orbit row, is not fixed by the place permutations: the Serre check's
    # gate fails and every residual goes with every row, and [e_1, f_1] minus the coroot target h_1 reads -1 at
    # (a, a); formed on the orbit rows alone, X2 would hold
    rep, _ = tower(family, rank, r)
    a = min(set(range(rep.dim)) - set(orbit_rows(rep)))
    h = list(rep.h)
    h[0] = h[0] + ExactMatrix.unit(rep.dim, a, a)
    bad = rebuild(rep, h=tuple(h))
    assert orbit_rows(bad, bad.generator_lists()) is None
    report = verify_serre_presentation(bad).to_json()
    (x2,) = [rel for rel in report["relations"] if rel["label"] == f"{family}2"]
    assert x2["witness"] == {"case": "i=1,j=1", "entry": [a, a], "value": "-1/1", "magnitude": "1"}
    all_rows(monkeypatch)
    assert verify_serre_presentation(bad).to_json() == report


def test_a_tie_in_magnitude_keeps_the_first_case_in_order():
    # the extra e_1 entry of the C2 r=2 fault leaves residuals of magnitude 3 in [e_1, f_1] and [e_1, f_2]:
    # the witness is the first case in the fixed order, i=1,j=1, not the later i=1,j=2 at [1, 7]
    rep, clean = tower("C", 2, 2)
    bad = {name: carrier for name, carrier, _, _ in seeded_faults(rep, clean)}["extra entry in e_1"]
    witness = {"case": "i=1,j=1", "entry": [1, 16], "value": "-3/1", "magnitude": "3"}
    for report, label in ((verify_serre_presentation(bad), "C2"), (verify_idempotent_presentation(bad, clean), "R2")):
        (rel,) = [rel for rel in report.to_json()["relations"] if rel["label"] == label]
        assert rel["witness"] == witness, label


def lifted_fault(rep, kind, i, a, b, delta):
    """The tower carrier with entry (a, b) of the natural module's kind_i changed by delta, lifted."""
    natural = natural_rep(rep.lie_type)
    gens = {"e": list(rep.e), "f": list(rep.f), "h": list(rep.h)}
    x = getattr(natural, kind)[i] + ExactMatrix.unit(natural.dim, a, b, delta)
    gens[kind][i] = ExactMatrix(rep.dim, _lift_rows(x, rep.blocks))
    return rebuild(rep, **{k: tuple(v) for k, v in gens.items()})


@st.composite
def natural_faults(draw):
    """(carrier, family): a B/C/D tower of rank <= 3 and r <= 3 with one entry of one natural e_i, f_i or H_i changed.

    The entry is any of e_i's or f_i's, zero or not, and a diagonal one of H_i's, so that H_i stays diagonal.
    """
    family = draw(st.sampled_from("BCD"))
    rank = draw(st.integers(2 if family == "D" else 1, 3))
    rep, fam = tower(family, rank, draw(st.integers(1, 3)))
    kind = draw(st.sampled_from("efh"))
    m = rep.lie_type.natural_dim
    a = draw(st.integers(0, m - 1))
    b = a if kind == "h" else draw(st.integers(0, m - 1))
    i = draw(st.integers(0, rank - 1))
    return lifted_fault(rep, kind, i, a, b, draw(st.sampled_from((1, -2)))), fam


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(natural_faults())
def test_lifted_natural_faults_pass_the_gate_and_report_as_on_all_rows(case):
    bad, fam = case
    # a lifted operator is fixed by the place permutations, whatever the natural one is
    assert None not in gates(bad, fam)
    orbit = reports(bad, fam)
    assert any(rel["status"] == "fails" for report in orbit for rel in report["relations"])
    with pytest.MonkeyPatch.context() as monkeypatch:
        all_rows(monkeypatch)
        assert reports(bad, fam) == orbit


def test_most_brackets_of_the_b3_tower_run_on_orbit_rows(monkeypatch):
    # B3 r=4: the 9 commutators [e_i, f_j] and the 11 brackets of the e-side and of the f-side
    # Serre chains (k = 1 - a_ij = 2, 1, 2, 2, 1, 3 over the ordered pairs in order) all run restricted: the
    # last bracket of a chain on the 330 orbit rows, each earlier one on the rows the next reads
    calls = []
    bracket = ExactMatrix.bracket

    def counted(self, other, minus=None, rows=None):
        calls.append(None if rows is None else len(rows))
        return bracket(self, other, minus, rows)

    monkeypatch.setattr(ExactMatrix, "bracket", counted)
    for kind in ("serre", "idempotent"):
        calls.clear()
        argv = ["verify", "B", "3", "4", "--presentation", kind]
        assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert (len(calls) - calls.count(None), calls.count(None)) == (31, 0), kind
        # the rows formed: 11 brackets on 330 rows and 3 on all 2801 before the chains were restricted
        assert sum(calls) <= 12033, kind


def chain_prefixes(rep):
    """(case, x, y, a) for every bracket count 1..k of every Serre chain ad_{x_i}^k(x_j), both sides: a = 1 - count."""
    cartan = build_root_system(rep.lie_type).cartan
    for side, gens in (("e", rep.e), ("f", rep.f)):
        for i in range(rep.rank):
            for j in range(rep.rank):
                if i != j:
                    for count in range(1, 2 - cartan[i][j]):
                        yield f"{side} i={i+1},j={j+1} k={count}", gens[i], gens[j], 1 - count


def restriction(x, rows):
    kept = set(rows)
    return {i: row for i, row in x._data.items() if i in kept}


@pytest.mark.parametrize("family,rank,r", CRITERION_1)
def test_restricted_serre_chains_are_the_full_ones_at_the_orbit_rows(family, rank, r):
    # every prefix of every chain, the a_ij = -2 ones included: the shorter ones are nonzero
    rep, _ = tower(family, rank, r)
    rows = orbit_rows(rep)
    nonzero = 0
    for case, x, y, a in chain_prefixes(rep):
        full = _serre_sum(x, y, a)
        assert _serre_sum(x, y, a, rows)._data == restriction(full, rows), case
        nonzero += not full.is_zero()
    assert nonzero or rank == 1 or (family, rank) == ("D", 2)  # D2 = A1 x A1: every chain is one bracket, zero


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2), ("D", 3, 2)])
def test_a_place_fixed_serre_fault_is_nonzero_on_the_orbit_rows(family, rank, r):
    rep, clean = tower(family, rank, r)
    bad = {name: carrier for name, carrier, _, _ in seeded_faults(rep, clean)}["e_1 + f_1 in place of e_1"]
    rows = orbit_rows(bad, bad.generator_lists())
    assert rows is not None
    a = build_root_system(bad.lie_type).cartan[0][1]
    full = _serre_sum(bad.e[0], bad.e[1], a)
    part = _serre_sum(bad.e[0], bad.e[1], a, rows)
    assert not part.is_zero()
    assert part._data == restriction(full, rows)


VERIFY_LAYERS = """
import io, json, sys, types
import schurkit.cli

LAYERS = ("rootdata", "weightsets", "replinalg", "idempotents", "presentation", "closure", "decomposition", "pathmodel")
executed = {}
for kind in ("serre", "idempotent"):
    schurkit.cli.run(["verify", "C", "2", "2", "--presentation", kind], stdout=io.StringIO())
    executed[kind] = [name for name in LAYERS if type(sys.modules["schurkit." + name]) is types.ModuleType]
print(json.dumps(executed))
"""


def test_verify_jobs_do_not_execute_the_decomposition_layer():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", VERIFY_LAYERS], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    layers = ["rootdata", "weightsets", "replinalg", "idempotents", "presentation"]
    assert json.loads(done.stdout) == {"serre": layers, "idempotent": layers}
