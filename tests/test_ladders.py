"""Property tests for the shared ladder check (relations R3-R6).

Single-entry perturbations of one e_i or f_i on small towers: the ladder
check must agree with a direct evaluation of the four identities, with the
reference below that forms every op 1_lam and 1_lam op, and with the ladder
groups of the projector-presentation report.  Projector faults (dropped,
scaled, overlapping) must give the same ladder report and R1 check from the
one scan of each generator as from one product per projector; an
off-diagonal projector is a failed check.  On seeded generator and
projector faults, the serre and idempotent reports (their witnesses
included) must equal the reports built with every product, sum and bracket
formed unfused by a dense oracle.
"""

import io
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkit import cli, idempotents, presentation, replinalg
from schurkit.idempotents import LadderReport, build_idempotents, ladder_check
from schurkit.presentation import (
    _check_many,
    _commutator_cases,
    _coroot_element,
    _projector_cases,
    _serre_cases,
    _serre_sum,
    _x3_cases,
    verify_idempotent_presentation,
    verify_serre_presentation,
)
from schurkit.replinalg import ExactMatrix, diagonal_index, orbit_rows, tower_rep
from schurkit.rootdata import LieType, build_root_system
from conftest import rebuild, unfused_combine

LADDER_LABELS = ("R3", "R4", "R5", "R6")
CARRIERS = (("B", 1), ("B", 2), ("C", 1), ("C", 2), ("D", 2))


@lru_cache(maxsize=None)
def clean_tower(family, rank, r):
    lt = LieType(family, rank)
    rep = tower_rep(lt, r)
    return lt, rep, build_idempotents(rep)


@st.composite
def perturbed_towers(draw):
    family, rank = draw(st.sampled_from(CARRIERS))
    r = draw(st.integers(1, 2))
    lt, rep, fam = clean_tower(family, rank, r)
    side = draw(st.sampled_from(("e", "f")))
    i = draw(st.integers(0, rank - 1))
    row = draw(st.integers(0, rep.dim - 1))
    col = draw(st.integers(0, rep.dim - 1))
    value = draw(st.sampled_from((-2, -1, 1, 2)))
    gens = list(getattr(rep, side))
    gens[i] = gens[i] + ExactMatrix.unit(rep.dim, row, col, value)
    return lt, r, fam, rebuild(rep, **{side: tuple(gens)})


def direct_ladder_residuals(fam, rep):
    """Each ladder identity evaluated on its own, with no shared products."""
    rs = build_root_system(rep.lie_type)
    members = fam.pi_all.as_set()
    zero = ExactMatrix.zeros(rep.dim)
    found = {}
    for i in range(rep.rank):
        alpha = rs.simple_root(i + 1)
        e, f = rep.e[i], rep.f[i]
        for lam, proj in fam.table.items():
            for label, lhs, target, rhs in (
                ("R3", e @ proj, lam + alpha, lambda p: p @ e),
                ("R4", f @ proj, lam - alpha, lambda p: p @ f),
                ("R5", proj @ e, lam - alpha, lambda p: e @ p),
                ("R6", proj @ f, lam + alpha, lambda p: f @ p),
            ):
                if target not in members:
                    expected = zero
                elif target in fam.table:
                    expected = rhs(fam.table[target])
                else:
                    continue
                if lhs != expected:
                    found.setdefault(label, []).append((f"i={i+1},lam={lam.coords}", lhs - expected))
    return found


def right_products(table):
    """The map op -> {key: op·P} over the diagonal matrices P = table[key]; with left=True also {key: P·op}.

    Both come from one pass over op's rows: column j of op is scaled by the
    diagonal entry at j of each matrix whose support holds j, and row i by
    the entry at i.  A table matrix that is not diagonal raises
    ArithmeticError (`diagonal_index`).
    """
    holders = diagonal_index(table)

    def products(op, left=False):
        data = [[] for _ in table]
        ldata = [[] for _ in table]
        for i, j, a in op.iter_entries():
            for n, d in holders.get(j, ()):
                data[n].append((i, j, a * d))
            for n, d in holders.get(i, ()):
                ldata[n].append((i, j, d * a))
        build = lambda entries: {key: ExactMatrix.from_entries(op.size, e) for key, e in zip(table, entries)}
        return (build(data), build(ldata)) if left else build(data)

    return products


def reference_ladder_check(fam, rep):
    """The ladder report from every product op 1_lam and 1_lam op, formed as matrices one generator at a time."""
    rs = build_root_system(rep.lie_type)
    members = fam.pi_all.as_set()
    zero = ExactMatrix.zeros(rep.dim)
    times_projectors = right_products(fam.table)
    residuals = {label: [] for label in LADDER_LABELS}
    checked = skipped = 0
    for idx in range(1, rep.rank + 1):
        alpha = rs.simple_root(idx)
        for op, shift, left, right in ((rep.e[idx - 1], alpha, "R3", "R5"), (rep.f[idx - 1], -alpha, "R4", "R6")):
            op_lam, lam_op = times_projectors(op, left=True)
            for lam in fam.table:
                for label, lhs, rhs, target in (
                    (left, op_lam[lam], lam_op, lam + shift),
                    (right, lam_op[lam], op_lam, lam - shift),
                ):
                    if target in members:
                        expected = rhs.get(target)
                        if expected is None:
                            skipped += 1
                            continue
                    else:
                        expected = zero
                    checked += 1
                    if lhs != expected:
                        residuals[label].append((f"i={idx},lam={lam.coords}", lhs - expected))
    return LadderReport(residuals=residuals, checked=checked, skipped=skipped)


def assert_same_ladder_report(got, expected):
    assert (got.residuals, got.checked, got.skipped) == (expected.residuals, expected.checked, expected.skipped)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(perturbed_towers())
def test_ladder_check_matches_direct_evaluation_and_report(case):
    lt, r, fam, bad = case
    ladders = ladder_check(fam, bad)
    failing = {label: cases for label, cases in ladders.residuals.items() if cases}
    assert failing == direct_ladder_residuals(fam, bad)
    assert_same_ladder_report(ladders, reference_ladder_check(fam, bad))

    runs = [verify_idempotent_presentation(bad, fam).failing_labels() for _ in range(2)]
    assert runs[0] == runs[1]
    report_ladders = tuple(label for label in runs[0] if label in LADDER_LABELS)
    assert ladders.ok == (not report_ladders)
    assert tuple(failing) == report_ladders


def _faulty_family(fam, kind):
    """A copy of a clean family with one kind of projector fault."""
    lams = list(fam.table)
    table = dict(fam.table)
    dim = fam.rep.dim
    if kind == "dropped":
        del table[lams[len(lams) // 2]]
    elif kind == "scaled":
        table[lams[2]] = 2 * table[lams[2]]
    elif kind == "overlapping":
        table[lams[0]] = table[lams[0]] + table[lams[-1]] + ExactMatrix.unit(dim, 3, 3, -3)
    return rebuild(fam, table=table)


def _per_pair_r1(fam):
    """R1 with one product per pair of projectors."""
    table, dim = fam.table, fam.rep.dim
    cases = []
    for lam in table:
        for mu in table:
            prod = table[lam] @ table[mu]
            cases.append((f"1_{lam.coords} 1_{mu.coords}", prod - table[lam] if lam == mu else prod))
    total = ExactMatrix.zeros(dim)
    for proj in table.values():
        total = total + proj
    cases.append(("completeness", total - ExactMatrix.identity(dim)))
    return _check_many("R1", cases)


@pytest.mark.parametrize("kind", ["clean", "dropped", "scaled", "overlapping"])
@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2)])
def test_one_pass_ladder_check_matches_per_projector_products(family, rank, r, kind):
    lt, rep, clean = clean_tower(family, rank, r)
    fam = _faulty_family(clean, kind)
    products = right_products(fam.table)
    for op in rep.e + rep.f + tuple(fam.table.values()):
        assert products(op) == {lam: op @ proj for lam, proj in fam.table.items()}
    # the left side, as ladder_check takes it, for every e_i and f_i
    for op in rep.e + rep.f:
        assert products(op, left=True) == (
            {lam: op @ proj for lam, proj in fam.table.items()},
            {lam: proj @ op for lam, proj in fam.table.items()},
        )

    # the ladder report against the per-projector route and the reference from all products
    fast = ladder_check(fam)
    assert {label: cases for label, cases in fast.residuals.items() if cases} == direct_ladder_residuals(fam, rep)
    assert_same_ladder_report(fast, reference_ladder_check(fam, rep))
    # a missing projector skips its cases: completeness is R1's check
    assert fast.ok == (kind in ("clean", "dropped"))
    assert (fast.skipped > 0) == (kind == "dropped")

    assert verify_idempotent_presentation(rep, fam).relations[0] == _per_pair_r1(fam)


def test_idempotent_presentation_indexes_the_projector_table_once(monkeypatch):
    _, rep, clean = clean_tower("B", 2, 2)
    fam = rebuild(clean)  # a family whose index no earlier check has built
    calls = []

    def counting_index(table):
        calls.append(len(table))
        return diagonal_index(table)

    monkeypatch.setattr(idempotents, "diagonal_index", counting_index)
    assert verify_idempotent_presentation(rep, fam).all_hold
    assert calls == [len(fam.table)]


def test_projectors_of_another_carrier_are_refused():
    # both directions, before the place gate of the idempotent check reads the table: a larger family on the
    # C2 r=2 carrier used to index past its end (IndexError), and a smaller one reached R2's bracket
    _, small, small_fam = clean_tower("C", 2, 1)
    _, rep, fam = clean_tower("C", 2, 2)
    _, _, large_fam = clean_tower("C", 2, 3)
    for carrier, family in ((small, fam), (rep, large_fam), (rep, small_fam)):
        with pytest.raises(ValueError, match="size mismatch"):
            ladder_check(family, carrier)
        with pytest.raises(ValueError, match="size mismatch"):
            verify_idempotent_presentation(carrier, family)


def _off_diagonal_family(fam):
    """A copy of a clean family whose second projector has an entry off the diagonal."""
    lams = list(fam.table)
    table = dict(fam.table)
    table[lams[1]] = table[lams[1]] + ExactMatrix.unit(fam.rep.dim, 0, fam.rep.dim - 1)
    return rebuild(fam, table=table), lams[1]


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2)])
def test_off_diagonal_projector_is_a_failed_check(family, rank, r, monkeypatch):
    lt, rep, clean = clean_tower(family, rank, r)
    fam, skewed = _off_diagonal_family(clean)
    message = f"projector {skewed!r} not diagonal on the weight basis"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        right_products(fam.table)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        ladder_check(fam)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        verify_idempotent_presentation(rep, fam)

    monkeypatch.setattr(idempotents, "build_idempotents", lambda carrier: _off_diagonal_family(clean)[0])
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["idempotents", family, str(rank), str(r)], stdout=out, stderr=err) == 1
    assert out.getvalue() == ""
    assert err.getvalue() == f"check failed: {message}\n"


def _seeded_faults(rep, fam):
    """(name, carrier, family) with one generator or projector fault each."""
    dim, n = rep.dim, rep.rank
    e = list(rep.e)
    e[0] = e[0] + ExactMatrix.unit(dim, 1, dim - 2, 3)
    f = list(rep.f)
    f[n - 1] = 2 * f[n - 1]
    h = list(rep.h)
    h[0] = h[0] + ExactMatrix.unit(dim, dim - 1, dim - 1, 1)  # still diagonal: X3 and X6 scan it
    f_1 = list(rep.f)
    f_1[0] = f_1[0] + ExactMatrix.unit(dim, 2, dim - 3, 1)  # no longer fixed by the place permutations
    e_3, f_3 = list(rep.e), list(rep.f)
    e_3[0], f_3[0] = 3 * e_3[0], 3 * f_3[0]  # still fixed, and [e_1, f_1] = 9 h_1
    e_p, f_p = list(rep.e), list(rep.f)
    e_p[0] = e_p[0] + ExactMatrix.unit(dim, 1, dim - 2, 3)
    f_p[0] = f_p[0] + ExactMatrix.unit(dim, dim - 2, 1, 3)  # mirrored entries: the Serre sums fail on both sides
    yield "off-diagonal e_1 entry", rebuild(rep, e=tuple(e)), fam
    yield "2 f_n", rebuild(rep, f=tuple(f)), fam
    yield "changed diagonal entry of H_1", rebuild(rep, h=tuple(h)), fam
    yield "f_1 plus a unit entry", rebuild(rep, f=tuple(f_1)), fam
    yield "3 e_1 and 3 f_1", rebuild(rep, e=tuple(e_3), f=tuple(f_3)), fam
    yield "transposed entries of e_1 and f_1", rebuild(rep, e=tuple(e_p), f=tuple(f_p)), fam
    for kind in ("dropped", "scaled", "overlapping"):
        yield f"{kind} projector", rep, _faulty_family(fam, kind)


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2)])
def test_fused_witnesses_match_an_unfused_dense_reference(family, rank, r, monkeypatch):
    lt, rep, clean = clean_tower(family, rank, r)
    faults = list(_seeded_faults(rep, clean))
    fused = [
        (verify_serre_presentation(bad).to_json(), verify_idempotent_presentation(bad, fam).to_json())
        for _, bad, fam in faults
    ]
    monkeypatch.setattr(replinalg, "_combine", unfused_combine)
    monkeypatch.setattr(presentation, "_combine", unfused_combine)
    for (name, bad, fam), (serre, idem) in zip(faults, fused):
        assert serre == verify_serre_presentation(bad).to_json(), name
        assert idem == verify_idempotent_presentation(bad, fam).to_json(), name
    # every fault is seen, so the witnesses compared above are not all empty
    assert all(any(rel["status"] == "fails" for rel in serre["relations"] + idem["relations"]) for serre, idem in fused)


def _direct_cases(rep, fam):
    """The cases of X2-X5 and R2, R7, R8 with every bracket formed in full: no orbit rows, no diagonal scan."""
    rs = build_root_system(rep.lie_type)
    n = rep.rank
    e, f, h = rep.e, rep.f, rep.h
    pairs = [(i, j) for i in range(n) for j in range(n)]

    def commutators(target):
        return [(f"i={i+1},j={j+1}", e[i].bracket(f[j], target(i) if i == j else None)) for i, j in pairs]

    def serre(gens):
        return [(f"i={i+1},j={j+1}", _serre_sum(gens[i], gens[j], rs.cartan[i][j])) for i, j in pairs if i != j]

    def projector_target(i):
        total = ExactMatrix.zeros(rep.dim)
        for lam, proj in fam.table.items():
            total = total + rs.coroot(i + 1).dot(lam) * proj
        return total

    x3 = []
    for i in range(n):
        for j in range(n):
            c = rs.simple_root(j + 1).num[i]
            for name, x, d in ("e", e[j], -c), ("f", f[j], c):
                x3.append((f"[H_{i+1},{name}_{j+1}]", h[i] @ x - x @ h[i] + d * x))
    return {
        "X2": commutators(lambda i: _coroot_element(rs, h, i)),
        "X3": x3,
        "X4": serre(e),
        "X5": serre(f),
        "R2": commutators(projector_target),
    }


def _nonzero(cases):
    return [(case, res) for case, res in cases if not res.is_zero()]


def _on_rows(cases, rows):
    """Each residual restricted to `rows` (None: all)."""
    if rows is None:
        return cases
    kept = set(rows)
    return [(case, ExactMatrix(res.size, {i: row for i, row in res._data.items() if i in kept})) for case, res in cases]


@pytest.mark.parametrize("family,rank,r", [("C", 2, 2), ("B", 2, 2)])
def test_shortcut_groups_match_the_direct_brackets(family, rank, r):
    lt, rep, clean = clean_tower(family, rank, r)
    rs = build_root_system(lt)
    cases = [("clean", rep, clean)] + list(_seeded_faults(rep, clean))
    # both paths run: the orbit rows are dropped exactly where a unit entry broke the place symmetry
    full_path = {name for name, bad, _ in cases if orbit_rows(bad, bad.generator_lists()) is None}
    assert full_path == {"off-diagonal e_1 entry", "f_1 plus a unit entry", "transposed entries of e_1 and f_1"}
    for name, bad, fam in cases:
        direct = _direct_cases(bad, fam)
        x1 = [(f"H_{i+1}H_{j+1}", bad.h[i].bracket(bad.h[j])) for i in range(rank) for j in range(i + 1, rank)]
        serre = [_check_many(f"{family}1", x1)]
        serre += [_check_many(f"{family}{k}", direct[f"X{k}"]) for k in range(2, 6)]
        assert verify_serre_presentation(bad).relations[:5] == serre, name
        idem = [_per_pair_r1(fam), _check_many("R2", direct["R2"])]
        idem += [_check_many(f"R{k}", direct[f"X{k - 3}"]) for k in (7, 8)]
        relations = verify_idempotent_presentation(bad, fam).relations
        assert [relations[k] for k in (0, 1, 6, 7)] == idem, name
        # every nonzero residual, not only each group's witness
        per_pair = [
            (f"1_{lam.coords} 1_{mu.coords}", p @ q - p if lam == mu else p @ q)
            for lam, p in fam.table.items()
            for mu, q in fam.table.items()
        ]
        total = sum(fam.table.values(), ExactMatrix.zeros(bad.dim)) - ExactMatrix.identity(bad.dim)
        expected = _nonzero(per_pair) + [("completeness", total)]
        assert list(_projector_cases(fam, bad.dim)) == expected, name
        target = lambda i: _coroot_element(rs, bad.h, i)
        # in full, and on the orbit rows where the generators are fixed by the place permutations
        for rows in (None, orbit_rows(bad, bad.generator_lists())):
            for label, cases in (
                ("X2", _commutator_cases(bad.e, bad.f, target, rows)),
                ("X3", _x3_cases(rs, bad, rows)),
                ("X4", _serre_cases(bad.e, rs.cartan, rows)),
                ("X5", _serre_cases(bad.f, rs.cartan, rows)),
            ):
                assert _nonzero(cases) == _nonzero(_on_rows(direct[label], rows)), (name, label)
