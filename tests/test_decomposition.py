import io
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import schurkit
from schurkit import cli, closure, decomposition
from schurkit.decomposition import (
    DecompositionResult,
    classify_type_B,
    compare_pi0_pi,
    decompose_tensor_character,
    freudenthal_multiplicities,
    pi0_weyl_rules,
    schur_dimensions,
    weyl_dimension,
)
from schurkit.rootdata import InvariantError, LieType, Weight, build_root_system
from schurkit.weightsets import WeightSet, tensor_dominant_pi
from conftest import all_lie_types, fundamental_weights, rebuild

SRC = os.path.dirname(os.path.dirname(schurkit.__file__))


def coords(ws):
    return {w.coords for w in ws}


def natural_character(lt):
    """{weight: multiplicity} of the natural module: +-eps_i, and 0 in type B."""
    n = lt.rank
    d = {}
    for i in range(1, n + 1):
        d[Weight.eps(n, i)] = 1
        d[-Weight.eps(n, i)] = 1
    if lt.family == "B":
        d[Weight.zero(n)] = 1
    return d


def convolve(a, b):
    out = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            key = w1 + w2
            out[key] = out.get(key, 0) + m1 * m2
    return out


def peeled_multiplicities(lt, r):
    """Reference oracle: convolve the natural character r times, then peel.

    Repeatedly selects the lexicographically greatest dominant weight with
    positive multiplicity (which is dominance-maximal, since nonzero sums
    of simple roots have positive leading coordinate) and subtracts that
    many copies of its full Freudenthal character.  Any negative
    multiplicity on the way signals a broken oracle and raises.
    """
    rs = build_root_system(lt)
    nat = natural_character(lt)
    remaining = nat
    for _ in range(r - 1):
        remaining = convolve(remaining, nat)
    mults = {}
    while True:
        best = None
        for w, m in remaining.items():
            if m == 0:
                continue
            if m < 0:
                raise ArithmeticError(f"negative multiplicity {m} at {w!r} while decomposing {lt} r={r}")
            if rs.is_dominant(w) and (best is None or w.coords > best.coords):
                best = w
        if best is None:
            if any(m != 0 for m in remaining.values()):
                raise ArithmeticError("nonzero character left with no dominant weight")
            return mults
        count = remaining[best]
        for w, m in freudenthal_multiplicities(rs, best).terms:
            remaining[w] = remaining.get(w, 0) - count * m
            if remaining[w] < 0:
                raise ArithmeticError(f"negative multiplicity at {w!r} after stripping {best!r}")
        mults[best] = count


def is_weyl_invariant(char, rs):
    return all(
        char.multiplicity(rs.simple_reflect(i, w)) == m for w, m in char.terms for i in range(1, rs.rank + 1)
    )


def test_pi0_rules_frozen_examples():
    assert coords(pi0_weyl_rules(LieType("B", 2), 2)) == {(2, 0), (1, 1), (0, 0)}
    assert coords(pi0_weyl_rules(LieType("D", 2), 2)) == {(2, 0), (1, 1), (1, -1), (0, 0)}
    for n in (1, 2, 3):
        only = coords(pi0_weyl_rules(LieType("B", n), 1))
        assert only == {tuple(1 if k == 0 else 0 for k in range(n))}


def test_pi0_rules_match_pi_for_c_and_d_by_construction():
    for family in ("C", "D"):
        for n in (2, 3):
            for r in (1, 2, 3):
                lt = LieType(family, n)
                assert coords(pi0_weyl_rules(lt, r)) == coords(tensor_dominant_pi(lt, r))


def test_natural_character():
    ch = natural_character(LieType("B", 2))
    assert sum(ch.values()) == 5
    assert ch[Weight((0, 0))] == 1
    assert ch[Weight((0, -1))] == 1


def test_freudenthal_highest_weight_line_and_dimension():
    rs = build_root_system(LieType("B", 2))
    ch = freudenthal_multiplicities(rs, Weight((1, 0)))
    assert ch.multiplicity(Weight((1, 0))) == 1
    assert ch.total() == 5
    assert len(ch.terms) == 5
    ch2 = freudenthal_multiplicities(build_root_system(LieType("C", 2)), Weight((1, 1)))
    assert ch2.total() == 5


def test_freudenthal_adjoint_has_cartan_multiplicity():
    rs = build_root_system(LieType("B", 2))
    ch = freudenthal_multiplicities(rs, Weight((1, 1)))
    assert ch.total() == 10
    assert ch.multiplicity(Weight((0, 0))) == 2


def test_freudenthal_rejects_non_dominant():
    rs = build_root_system(LieType("B", 2))
    with pytest.raises(ValueError):
        freudenthal_multiplicities(rs, Weight((0, 1)))
    with pytest.raises(ValueError):
        weyl_dimension(rs, Weight((0, 1)))


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_characters_are_weyl_invariant_and_match_dimension(lt, r):
    rs = build_root_system(lt)
    for lam in tensor_dominant_pi(lt, r):
        ch = freudenthal_multiplicities(rs, lam)
        assert ch.total() == weyl_dimension(rs, lam)
        assert is_weyl_invariant(ch, rs)


def test_weyl_dimension_values():
    rs = build_root_system(LieType("B", 2))
    assert weyl_dimension(rs, Weight((0, 0))) == 1
    assert weyl_dimension(rs, Weight((1, 1))) == 10
    assert weyl_dimension(rs, Weight((2, 0))) == 14
    rsc = build_root_system(LieType("C", 2))
    assert weyl_dimension(rsc, Weight((2, 0))) == 10
    from fractions import Fraction

    assert weyl_dimension(rs, Weight((Fraction(1, 2), Fraction(1, 2)))) == 4


def test_decompose_c2_r2():
    res = decompose_tensor_character(LieType("C", 2), 2)
    assert {w.coords: m for w, m in res.multiplicities.items()} == {(2, 0): 1, (1, 1): 1, (0, 0): 1}
    assert res.equal


def test_decompose_b2_r2_support():
    res = decompose_tensor_character(LieType("B", 2), 2)
    assert coords(res.pi0) == {(2, 0), (1, 1), (0, 0)}
    assert not res.equal
    assert [w.coords for w in res.pi_minus_pi0()] == [(1, 0)]


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_decompose_degree_one(lt):
    res = decompose_tensor_character(lt, 1)
    top = tuple(1 if k == 0 else 0 for k in range(lt.rank))
    assert {w.coords: m for w, m in res.multiplicities.items()} == {top: 1}


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_total_dimension_identity(lt, r):
    rs = build_root_system(lt)
    res = decompose_tensor_character(lt, r)
    total = sum(m * weyl_dimension(rs, w) for w, m in res.multiplicities.items())
    assert total == lt.natural_dim**r


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_rules_agree_with_oracle(lt, r):
    res = compare_pi0_pi(lt, r)
    assert res.pi0.as_set() <= res.pi.as_set()
    if lt.family in ("C", "D"):
        assert res.equal


def test_compare_type_b_special_cases():
    res = compare_pi0_pi(LieType("B", 2), 2)
    assert not res.equal
    assert [w.coords for w in res.pi_minus_pi0()] == [(1, 0)]
    for r in (2, 3, 4, 5, 6):
        assert compare_pi0_pi(LieType("B", 1), r).equal
    for n in (1, 2, 3):
        assert not compare_pi0_pi(LieType("B", n), 1).equal


def test_classification_rows():
    rows = classify_type_B(2, 3)
    by_key = {(row["n"], row["r"]): row["equal"] for row in rows}
    assert by_key[(1, 1)] is False
    assert by_key[(1, 3)] is True
    assert by_key[(2, 2)] is False
    first = rows[0]
    assert set(first) == {"family", "n", "r", "equal", "pi_size", "pi0_size", "dim_S_pi", "dim_Schur"}


def count_calls(monkeypatch, module, names):
    """Replace each named function of module by a wrapper that counts its calls."""
    calls = Counter()
    for name in names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_classification_builds_each_root_system_and_dimension_once(monkeypatch):
    calls = count_calls(monkeypatch, decomposition, ("build_root_system", "weyl_dimension"))
    rows = classify_type_B(3, 5)
    assert calls["build_root_system"] == len(rows) == 15
    assert calls["weyl_dimension"] == sum(row["pi_size"] for row in rows)
    for row in rows:
        assert (row["dim_S_pi"], row["dim_Schur"]) == schur_dimensions(LieType("B", row["n"]), row["r"])


def test_dims_command_reads_dimensions_once(monkeypatch):
    calls = count_calls(monkeypatch, decomposition, ("build_root_system", "weyl_dimension"))
    assert cli.run(["dims", "B", "3", "4"], stdout=io.StringIO()) == 0
    assert calls == {"build_root_system": 1, "weyl_dimension": len(tensor_dominant_pi(LieType("B", 3), 4))}


def test_schur_dimensions_values():
    assert schur_dimensions(LieType("C", 2), 2) == (126, 126)
    assert schur_dimensions(LieType("B", 2), 2) == (322, 297)
    assert schur_dimensions(LieType("C", 1), 2) == (10, 10)
    assert schur_dimensions(LieType("D", 2), 2) == (100, 100)


def test_result_json_shape():
    doc = compare_pi0_pi(LieType("B", 2), 2).to_json()
    assert doc["equal"] is False
    assert doc["pi_minus_pi0"] == [[1, 0]]
    assert {"weight": [2, 0], "mult": 1} in doc["multiplicities"]


def test_inconsistent_decomposition_is_an_invariant_error():
    pi = tensor_dominant_pi(LieType("C", 1), 2)
    with pytest.raises(InvariantError, match="decomposition consistency"):
        DecompositionResult(LieType("C", 1), 2, pi, pi, {}, True)


def test_invariant_check_survives_optimized_mode():
    code = (
        "from schurkit.decomposition import DecompositionResult\n"
        "from schurkit.rootdata import LieType\n"
        "from schurkit.weightsets import tensor_dominant_pi\n"
        "pi = tensor_dominant_pi(LieType('C', 1), 2)\n"
        "DecompositionResult(LieType('C', 1), 2, pi, pi, {}, True)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "InvariantError: decomposition consistency" in proc.stderr


def fraction_freudenthal(rs, lam):
    """Freudenthal's recursion on Fraction coordinate tuples: {coords: mult}."""

    def vec(w):
        return tuple(Fraction(c) for c in w.coords)

    def add(x, y, k=1):
        return tuple(a + k * b for a, b in zip(x, y))

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    rho = vec(rs.rho)
    top = add(vec(lam), rho)
    simple = [vec(a) for a in rs.simple_roots]
    positive = [vec(a) for a in rs.positive_roots]
    mult = {vec(lam): 1}
    frontier = list(mult)
    while frontier:
        candidates = {add(mu, alpha, -1) for mu in frontier for alpha in simple}
        frontier = []
        for mu in sorted(candidates, reverse=True):
            if mu in mult:
                continue
            num = 0
            for alpha in positive:
                k = 1
                while add(mu, alpha, k) in mult:
                    nu = add(mu, alpha, k)
                    num += 2 * mult[nu] * dot(nu, alpha)
                    k += 1
            if num == 0:
                continue
            m = num / (dot(top, top) - dot(add(mu, rho), add(mu, rho)))
            assert m.denominator == 1 and m > 0
            mult[mu] = int(m)
            frontier.append(mu)
    return mult


@pytest.mark.parametrize("lt", all_lie_types(3), ids=str)
def test_freudenthal_matches_fraction_recursion(lt):
    rs = build_root_system(lt)
    highest = [k * w for w in fundamental_weights(rs) for k in (1, 2)] + [rs.rho]
    for lam in highest:
        char = freudenthal_multiplicities(rs, lam)
        assert {w.coords: m for w, m in char.terms} == fraction_freudenthal(rs, lam)
        assert [w.coords for w, _ in char.terms] == sorted((w.coords for w, _ in char.terms), reverse=True)
        assert all(m > 0 for _, m in char.terms)
        for w, m in char.terms:
            assert char.multiplicity(w) == m
        assert char.multiplicity(lam + rs.rho + rs.rho) == 0


WALK_GRID = [(lt, r) for lt in all_lie_types(4) for r in range(1, 6 if lt.rank <= 3 else 5)]


@pytest.mark.parametrize("lt,r", WALK_GRID, ids=str)
def test_chamber_walks_match_peeling_reference(lt, r):
    walked = decompose_tensor_character(lt, r).multiplicities
    assert walked == peeled_multiplicities(lt, r)


SKEWED_COMPARE = (
    "import sys\n"
    "from schurkit import cli, decomposition\n"
    "real = decomposition._chamber_walks\n"
    "def skewed(lt, r):\n"
    "    walks = real(lt, r)\n"
    "    top = max(walks)\n"
    "    return {**walks, top: walks[top] + 1}\n"
    "decomposition._chamber_walks = skewed\n"
    "sys.exit(cli.run(['compare', 'B', '2', '2']))\n"
)


def run_script(flags, script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_miscounted_walk_fails_the_dimension_check(flags):
    proc = run_script(flags, SKEWED_COMPARE)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "check failed: tensor dimension" in proc.stderr


# A non-dominant weight from a faulty walk or rule is a failed check (exit 1),
# caught before any Weyl dimension is asked for, not bad input (exit 2).
UNCHAMBERED_COMPARE = (
    "import sys\n"
    "from schurkit import cli\n"
    "from schurkit.rootdata import RootSystem\n"
    "RootSystem.in_chamber = lambda self, num: True\n"
    "sys.exit(cli.run(['compare', 'B', '2', '2']))\n"
)
EXTRA_RULE_CLOSURE = (
    "import sys\n"
    "from schurkit import cli, decomposition\n"
    "from schurkit.rootdata import Weight\n"
    "from schurkit.weightsets import WeightSet\n"
    "real = decomposition.pi0_weyl_rules\n"
    "def extra(lt, r):\n"
    "    return WeightSet.make([*real(lt, r), Weight((0, 1))], 'pi0')\n"
    "decomposition.pi0_weyl_rules = extra\n"
    "sys.exit(cli.run(['closure', 'B', '2', '2']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "script,message",
    [
        (UNCHAMBERED_COMPARE, "check failed: chamber walk: endpoints [Weight("),
        (EXTRA_RULE_CLOSURE, "check failed: factor rules: [Weight(0, 1)] of B2 r=2 are not dominant tensor weights"),
    ],
    ids=["walk-outside-the-chamber", "rule-outside-pi"],
)
def test_non_dominant_factor_weight_is_a_failed_check(flags, script, message):
    proc = run_script(flags, script)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(message)
    assert "is not dominant" not in proc.stderr


def test_closure_checks_pi_before_either_closure(monkeypatch):
    # the closure job chamber-checks pi and the factor rules after building both carriers and before closing
    # either, so a non-dominant weight in pi is exit 1 with no closure formed and no oracle asked
    real = decomposition.tensor_dominant_pi
    extra = lambda lt, r: WeightSet.make([*real(lt, r), Weight((-1, 0))], "pi")
    monkeypatch.setattr(decomposition, "tensor_dominant_pi", extra)
    calls = []
    monkeypatch.setattr(closure, "algebra_closure", lambda *args: calls.append(args))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["closure", "C", "2", "2"], stdout=out, stderr=err) == 1
    assert (out.getvalue(), calls) == ("", [])
    assert err.getvalue() == (
        "check failed: dominant tensor weights: [Weight(-1, 0)] of C2 r=2 lie outside the dominant chamber\n"
    )


# The census checks each weight and its dual -w0(lam) against the chamber
# before any dimension or crystal is built, so a fault there is exit 1 too.
IDENTITY_W0_CENSUS = (
    "import sys\n"
    "from schurkit import cli\n"
    "from schurkit.rootdata import RootSystem\n"
    "real = RootSystem.longest_element\n"
    "def identity_action(self):\n"
    "    word, _ = real(self)\n"
    "    return word, lambda w: w\n"
    "RootSystem.longest_element = identity_action\n"
    "sys.exit(cli.run(['census', 'C', '2', '2']))\n"
)
EXTRA_PI_CENSUS = (
    "import sys\n"
    "from schurkit import cli, pathmodel\n"
    "from schurkit.rootdata import Weight\n"
    "from schurkit.weightsets import WeightSet\n"
    "real = pathmodel.tensor_dominant_pi\n"
    "def extra(lt, r):\n"
    "    return WeightSet.make([*real(lt, r), Weight((0, 1))], 'pi')\n"
    "pathmodel.tensor_dominant_pi = extra\n"
    "sys.exit(cli.run(['census', 'C', '2', '2']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "script,message",
    [
        (
            IDENTITY_W0_CENSUS,
            "check failed: census weights: Weight(-2, 0), from Weight(2, 0), lies outside the dominant chamber of C2\n",
        ),
        (
            EXTRA_PI_CENSUS,
            "check failed: census weights: Weight(0, 1), from Weight(0, 1), lies outside the dominant chamber of C2\n",
        ),
    ],
    ids=["dual-outside-the-chamber", "weight-outside-the-chamber"],
)
def test_non_dominant_census_weight_is_a_failed_check(flags, script, message):
    proc = run_script(flags, script)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == message
    assert "is not dominant" not in proc.stderr


def test_type_b_zero_step_needs_a_positive_last_coordinate(monkeypatch):
    rs = build_root_system(LieType("B", 2))
    assert set(decomposition._chamber_walks(rs, 2)) == {(2, 0), (1, 1), (0, 0)}
    monkeypatch.setattr(decomposition, "_zero_step_allowed", lambda family, lam: family == "B")
    mutant = decomposition._chamber_walks(rs, 2)
    assert (1, 0) in mutant
    assert set(mutant) != coords(pi0_weyl_rules(LieType("B", 2), 2))
    with pytest.raises(ArithmeticError):
        compare_pi0_pi(LieType("B", 2), 2)


def test_type_d_chamber_signs_the_last_coordinate(monkeypatch):
    d2, d3 = build_root_system(LieType("D", 2)), build_root_system(LieType("D", 3))
    assert set(decomposition._chamber_walks(d2, 2)) == {(2, 0), (1, 1), (1, -1), (0, 0)}
    walks = decomposition._chamber_walks(d3, 3)
    assert (1, 1, 1) in walks and (1, 1, -1) in walks

    def unsigned(rs):  # last coroot eps_n: lam_1 >= ... >= lam_n >= 0 in every family
        return rebuild(rs, coroots=rs.coroots[:-1] + (Weight.eps(rs.rank, rs.rank),))

    assert (1, 1, -1) not in decomposition._chamber_walks(unsigned(d3), 3)
    real = decomposition._chamber_walks
    monkeypatch.setattr(decomposition, "_chamber_walks", lambda rs, r: real(unsigned(rs), r))
    for lt, r in ((LieType("D", 2), 2), (LieType("D", 3), 3)):
        with pytest.raises(ArithmeticError):
            compare_pi0_pi(lt, r)
