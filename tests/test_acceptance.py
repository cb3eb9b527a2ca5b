"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic, so every comparison is equality with
zero tolerance.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines.
"""

import time
from collections import Counter
from functools import lru_cache

from schurkit.closure import quotient_witness
from schurkit.decomposition import (
    compare_pi0_pi,
    decompose_tensor_character,
    freudenthal_multiplicities,
    pi0_weyl_rules,
    schur_dimensions,
    weyl_dimension,
)
from schurkit.idempotents import build_idempotents, ladder_check, reconstruct_H
from schurkit.pathmodel import basis_census, generate_crystal
from schurkit.presentation import (
    verify_idempotent_presentation,
    verify_serre_presentation,
    zero_locus,
)
from schurkit.replinalg import ExactMatrix, Representation, tower_rep
from schurkit.rootdata import LieType, Weight, build_root_system
from schurkit.weightsets import tensor_dominant_pi, tensor_weights_Pi
from conftest import rebuild

MAX_CARRIER = 3000


def grid(max_rank, max_r):
    for family in ("B", "C", "D"):
        lo = 2 if family == "D" else 1
        for n in range(lo, max_rank + 1):
            for r in range(1, max_r + 1):
                yield LieType(family, n), r


@lru_cache(maxsize=None)
def cached_tower(family, rank, r):
    return tower_rep(LieType(family, rank), r)


@lru_cache(maxsize=None)
def cached_family(family, rank, r):
    return build_idempotents(cached_tower(family, rank, r))


def report(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:10])


def test_criterion_1_presentations_hold_exactly():
    failures = []
    cases = 0
    for lt, r in grid(4, 3):
        dim = sum(lt.natural_dim**s for s in range(r + 1))
        if dim > MAX_CARRIER:
            continue
        rep = cached_tower(lt.family, lt.rank, r)
        assert rep.dim <= MAX_CARRIER
        serre = verify_serre_presentation(rep)
        if not serre.all_hold:
            failures.append((str(lt), r, "serre", serre.failing_labels()))
        idem = verify_idempotent_presentation(rep, cached_family(lt.family, lt.rank, r))
        if not idem.all_hold:
            failures.append((str(lt), r, "idempotent", idem.failing_labels()))
        cases += 1
    assert cases == 33  # the whole grid fits under the carrier cap
    report("criterion 1 (presentations, exact, 33 tower carriers)", failures)


def test_criterion_2_zero_locus():
    failures = []
    for lt, r in grid(3, 4):
        pi_all = tensor_weights_Pi(lt, r).as_set()
        full = zero_locus(lt, r, include_p1hi=True).as_set()
        if full != pi_all:
            failures.append((str(lt), r, "locus with all equations differs from Pi"))
        dropped = zero_locus(lt, r, include_p1hi=False).as_set()
        if lt.family in ("C", "D"):
            if dropped != pi_all:
                failures.append((str(lt), r, "locus changed after dropping the H_i equations"))
        elif lt.rank >= 2:
            extra = dropped - pi_all
            if not (pi_all < dropped):
                failures.append((str(lt), r, "locus did not grow after dropping the H_i equations"))
            elif not extra or any(w.is_integral() for w in extra):
                failures.append((str(lt), r, "no half-integer witness"))
        else:
            # rank 1 boundary: +H_1 is itself a sign choice, so the dropped
            # system still contains the H_1 equation and nothing can change
            if dropped != pi_all:
                failures.append((str(lt), r, "rank-1 locus unexpectedly changed"))
    report("criterion 2 (zero locus vs tensor weights, n<=3, r<=4)", failures)


def test_criterion_3_idempotent_families():
    failures = []
    for lt, r in grid(4, 3):
        rep = cached_tower(lt.family, lt.rank, r)
        fam = cached_family(lt.family, lt.rank, r)
        ident = ExactMatrix.identity(rep.dim)
        total = ExactMatrix.zeros(rep.dim)
        table = list(fam.table.items())
        for lam, proj in table:
            if proj @ proj != proj:
                failures.append((str(lt), r, f"projector at {lam.coords} not idempotent"))
            total = total + proj
        if total != ident:
            failures.append((str(lt), r, "projectors do not sum to the identity"))
        for a, (lam, pa) in enumerate(table):
            for mu, pb in table[a + 1 :]:
                if not (pa @ pb).is_zero():
                    failures.append((str(lt), r, f"projectors {lam.coords},{mu.coords} not orthogonal"))
        for i in range(1, lt.rank + 1):
            if reconstruct_H(fam, i) != rep.h[i - 1]:
                failures.append((str(lt), r, f"H_{i} not recovered from projectors"))
        ladders = ladder_check(fam)
        if not ladders.ok or ladders.skipped:
            failing = [label for label, cases in ladders.residuals.items() if cases]
            failures.append((str(lt), r, f"ladder failures {failing}, {ladders.skipped} skipped"))
        counts = Counter(rep.weights)
        for lam, rank_value in fam.rank_table().items():
            if rank_value != counts.get(lam, 0):
                failures.append((str(lt), r, f"rank mismatch at {lam.coords}"))
    report("criterion 3 (idempotent families on all criterion-1 carriers)", failures)


def test_criterion_4_decomposition_oracle_agreement():
    failures = []
    for lt, r in grid(3, 4):
        rs = build_root_system(lt)
        oracle = decompose_tensor_character(lt, r)
        rules = pi0_weyl_rules(lt, r)
        if rules.as_set() != oracle.pi0.as_set():
            failures.append((str(lt), r, "factor rules disagree with the character oracle"))
        total = sum(m * weyl_dimension(rs, w) for w, m in oracle.multiplicities.items())
        if total != lt.natural_dim**r:
            failures.append((str(lt), r, f"dimension total {total} != m^r"))
    report("criterion 4 (factor rules vs character oracle, n<=3, r<=4)", failures)


def test_criterion_5_pi0_vs_pi_dichotomy():
    failures = []
    for lt, r in grid(3, 4):
        if lt.family == "B":
            continue
        if not compare_pi0_pi(lt, r).equal:
            failures.append((str(lt), r, "expected equality"))
    for n in (1, 2, 3):
        if compare_pi0_pi(LieType("B", n), 1).equal:
            failures.append((f"B{n}", 1, "expected strict inclusion at degree one"))
    res = compare_pi0_pi(LieType("B", 2), 2)
    if res.equal or [w.coords for w in res.pi_minus_pi0()] != [(1, 0)]:
        failures.append(("B2", 2, "expected pi minus pi0 == {(1,0)}"))
    for r in range(2, 7):
        if not compare_pi0_pi(LieType("B", 1), r).equal:
            failures.append(("B1", r, "expected equality"))
    report("criterion 5 (pi0 vs pi dichotomy)", failures)


def test_criterion_6_closure_dimensions():
    expected = {
        ("C", 1, 2): (10, 10),
        ("C", 2, 2): (126, 126),
        ("B", 2, 2): (322, 297),
        ("D", 2, 2): (100, 100),
        ("B", 2, 3): (2447, 2250),
        ("B", 3, 2): (1220, 1171),
        ("D", 3, 2): (626, 626),
        ("C", 2, 3): (672, 672),
    }
    failures = []
    for (family, n, r), (dim_pi, dim_schur) in expected.items():
        lt = LieType(family, n)
        started = time.monotonic()
        witness = quotient_witness(lt, r)
        elapsed = time.monotonic() - started
        if (witness.dim_tower, witness.dim_single) != (dim_pi, dim_schur):
            failures.append((str(lt), r, f"got tower={witness.dim_tower}, single={witness.dim_single}"))
        if (witness.expected_tower, witness.expected_single) != (dim_pi, dim_schur):
            failures.append((str(lt), r, "squared-dimension sums off"))
        if not witness.matches_expected or witness.mismatch is not None:
            failures.append((str(lt), r, f"a piece differs: {witness.mismatch}"))
        if elapsed >= 60:
            failures.append((str(lt), r, f"took {elapsed:.1f}s"))
    report("criterion 6 (generated-algebra dimensions, each case < 60 s)", failures)


def test_criterion_7_path_model():
    failures = []
    for family, max_rank in (("B", 3), ("C", 3), ("D", 3)):
        lo = 2 if family == "D" else 1
        for n in range(lo, max_rank + 1):
            lt = LieType(family, n)
            rs = build_root_system(lt)
            seen = set()
            for r in range(1, 5):
                for lam in tensor_dominant_pi(lt, r):
                    if lam in seen:
                        continue
                    seen.add(lam)
                    dim = weyl_dimension(rs, lam)
                    if dim > 200:
                        continue
                    crystal = generate_crystal(rs, lam)
                    if len(crystal) != dim:
                        failures.append((str(lt), lam.coords, f"crystal size {len(crystal)} != {dim}"))
                    if crystal.endpoint_multiset() != freudenthal_multiplicities(rs, lam).as_dict():
                        failures.append((str(lt), lam.coords, "endpoint multiset differs from character"))
    for family, n, r in (("C", 1, 2), ("C", 2, 2), ("B", 2, 2), ("D", 2, 2)):
        lt = LieType(family, n)
        census = basis_census(lt, r)
        tower_dim = schur_dimensions(lt, r)[0]
        if not census.ok or census.total != tower_dim:
            failures.append((str(lt), r, f"census total {census.total} != {tower_dim}"))
    report("criterion 7 (path model counts and census)", failures)


def test_criterion_8_fault_injection():
    failures = []
    lt = LieType("C", 2)
    rep = cached_tower("C", 2, 2)
    fam = cached_family("C", 2, 2)

    scaled = Representation(
        lie_type=rep.lie_type,
        r=rep.r,
        e=rep.e,
        f=rep.f[:-1] + (2 * rep.f[-1],),
        h=rep.h,
        dim=rep.dim,
        weights=rep.weights,
        blocks=rep.blocks,
        kind=rep.kind,
    )
    flagged = [verify_serre_presentation(scaled).failing_labels() for _ in range(2)]
    if flagged[0] != ("C2",) or flagged[0] != flagged[1]:
        failures.append(("scaled f_n", f"flagged {flagged}"))

    removed = rebuild(fam, table={lam: mat for lam, mat in fam.table.items() if lam != Weight((0, 0))})
    flagged_r = [verify_idempotent_presentation(rep, removed).failing_labels() for _ in range(2)]
    if flagged_r[0] != ("R1",) or flagged_r[0] != flagged_r[1]:
        failures.append(("removed projector", f"flagged {flagged_r}"))
    report("criterion 8 (fault injection flags exactly one relation)", failures)
