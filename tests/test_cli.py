import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import schurkit
from schurkit import cli, decomposition, pathmodel, presentation, replinalg
from schurkit.presentation import RelationCheck, RelationReport
from schurkit.replinalg import ExactMatrix, tower_rep
from schurkit.rootdata import Weight
from schurkit.weightsets import WeightSet
from conftest import rebuild

SRC = os.path.dirname(os.path.dirname(schurkit.__file__))
ROOT = Path(__file__).resolve().parents[1]

# The names `schurkit` re-exported when it imported every layer eagerly, in `__all__` order (`quotient_witness` is `closure`'s).
EXPORTS = [
    "CapExceeded", "LieType", "RootSystem", "Weight", "build_root_system",
    "WeightSet", "is_saturated", "lambda_minus", "lambda_plus", "lambda_pm", "signed_compositions",
    "tensor_dominant_pi", "tensor_weights_Pi",
    "ExactMatrix", "Representation", "algebra_closure", "natural_rep", "single_power_rep",
    "tensor_lift", "tower_rep",
    "IdempotentFamily", "build_idempotents", "ladder_check", "p1", "p2", "polynomial_idempotent", "reconstruct_H",
    "RelationReport", "verify_idempotent_presentation", "verify_serre_presentation",
    "zero_locus", "zero_locus_report", "quotient_witness",
    "DecompositionResult", "FormalCharacter", "classify_type_B", "compare_pi0_pi", "decompose_tensor_character",
    "freudenthal_multiplicities", "pi0_weyl_rules", "schur_dimensions", "weyl_dimension",
    "Crystal", "Path", "basis_census", "e_op", "f_op", "generate_crystal", "opposite_strings", "straight_path",
    "string_tuples",
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    return code, json.loads(out), err


def test_compare_b2_r2_json():
    code, doc, _ = run_json(["compare", "B", "2", "2"])
    assert code == 0
    assert doc["equal"] is False
    assert doc["pi_minus_pi0"] == [[1, 0]]
    assert doc["header"]["tool_version"]
    assert doc["header"]["reduced_word"] == [1, 2, 1, 2]


def test_verify_serre_exit_zero():
    code, doc, err = run_json(["verify", "C", "2", "2", "--presentation", "serre"])
    assert code == 0 and err == ""
    assert all(rel["status"] == "holds" for rel in doc["relations"])


def test_verify_idempotent_exit_zero():
    code, doc, _ = run_json(["verify", "D", "2", "2", "--presentation", "idempotent"])
    assert code == 0
    assert [rel["label"] for rel in doc["relations"]] == [f"R{k}" for k in range(1, 9)]


def test_zero_locus_reports_growth_without_h_equations():
    code, doc, _ = run_json(["zero-locus", "B", "2", "2", "--drop-p1hi"])
    assert code == 0
    assert doc["equals_pi"] is False
    assert doc["locus_size"] > doc["pi_size"]
    assert doc["extra_points"]


def test_zero_locus_full_equations_pass():
    code, doc, _ = run_json(["zero-locus", "B", "2", "2"])
    assert code == 0
    assert doc["equals_pi"] is True


def test_weights_and_pi0_outputs():
    code, doc, _ = run_json(["weights", "C", "2", "2"])
    assert code == 0
    assert doc["pi"]["elements"] == [[2, 0], [1, 1], [0, 0]]
    code2, doc2, _ = run_json(["pi0", "B", "2", "2"])
    assert code2 == 0
    assert doc2["pi0"]["elements"] == [[2, 0], [1, 1], [0, 0]]


def test_dims_csv_columns():
    code, out, _ = run_cli(["dims", "C", "2", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "family,n,r,equal,|pi|,|pi0|,dim_S_pi,dim_Schur"
    assert lines[2] == "C,2,2,True,3,3,126,126"


def test_classify_b_csv():
    code, out, _ = run_cli(["classify-b", "1", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "family,n,r,equal,|pi|,|pi0|,dim_S_pi,dim_Schur"
    assert lines[2].startswith("B,1,1,False")
    assert lines[3].startswith("B,1,2,True")


def test_closure_command():
    code, doc, _ = run_json(["closure", "C", "1", "2"])
    assert code == 0
    assert doc["dim_single_power"] == 10 and doc["dim_tower"] == 10
    assert doc["matches_expected"] is True


def test_census_command():
    code, doc, _ = run_json(["census", "C", "1", "2"])
    assert code == 0
    assert doc["total"] == 10 == doc["expected_total"]


def test_idempotents_command():
    code, doc, _ = run_json(["idempotents", "C", "1", "2"])
    assert code == 0
    assert doc["ladders_ok"] is True and doc["ranks_match_multiplicities"] is True


def test_crystal_command():
    code, doc, _ = run_json(["crystal", "B", "2", "--lambda", "1,0"])
    assert code == 0
    assert doc["size"] == 5 == doc["weyl_dimension"]
    assert doc["size_matches_dimension"] is True


def test_crystal_rejects_non_dominant():
    code, out, err = run_cli(["crystal", "B", "2", "--lambda", "0,1"])
    assert code == 2
    assert "not dominant" in err


def _refuse_every_crystal(monkeypatch):
    def refused(*args, **kwargs):
        pytest.fail("a crystal was generated for a job whose dimension exceeds the crystal cap")

    monkeypatch.setattr(pathmodel, "generate_crystal", refused)


def test_oversized_crystal_is_refused_before_any_crystal_is_generated(monkeypatch):
    _refuse_every_crystal(monkeypatch)
    code, out, err = run_cli(["crystal", "C", "3", "--lambda", "5,3,1"])  # Weyl dimension 5460
    assert (code, out) == (2, "")
    assert "5460" in err and "cap" in err


def test_census_with_an_oversized_crystal_is_refused_before_any_crystal_is_generated(monkeypatch):
    _refuse_every_crystal(monkeypatch)
    code, out, err = run_cli(["census", "C", "3", "9"])  # (5,3,1) and larger rows exceed the cap
    assert (code, out) == (2, "")
    assert "cap" in err


def test_invalid_arguments_exit_two(capsys):
    assert run_cli(["weights", "E", "2", "2"])[0] == 2
    assert run_cli(["crystal", "B", "2", "--lambda", "1,x"])[0] == 2
    assert run_cli(["crystal", "B", "2", "--lambda", "1"])[0] == 2
    assert run_cli(["nonsense"])[0] == 2
    # argparse's usage errors and --help go to the streams passed in, not the process's own
    code, out, err = run_cli(["verify", "B", "3"])
    assert code == 2 and out == ""
    assert err.startswith("usage: schurkit verify") and "the following arguments are required: r" in err
    code, out, err = run_cli(["verify", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: schurkit verify") and "--presentation" in out
    assert capsys.readouterr() == ("", "")


def test_cap_exceeded_exits_two():
    code, out, err = run_cli(["verify", "C", "2", "2", "--presentation", "serre", "--max-dim", "10"])
    assert code == 2
    assert "cap" in err


def test_cap_env_variable(monkeypatch):
    monkeypatch.setenv("SCHURKIT_MAX_DIM", "10")
    code, _, err = run_cli(["verify", "C", "2", "2", "--presentation", "serre"])
    assert code == 2 and "cap" in err


ONE_JOB_PER_COMMAND = [
    ["weights", "C", "2", "1"],
    ["pi0", "C", "2", "2"],
    ["compare", "C", "2", "2"],
    ["classify-b", "2", "2"],
    ["idempotents", "C", "2", "2"],
    ["verify", "C", "2", "2", "--presentation", "serre"],
    ["zero-locus", "C", "2", "2"],
    ["dims", "C", "2", "2"],
    ["closure", "C", "2", "2"],
    ["crystal", "B", "2", "--lambda", "1,0"],
    ["census", "C", "2", "2"],
]


def test_nonpositive_cap_exits_two(monkeypatch):
    assert [argv[0] for argv in ONE_JOB_PER_COMMAND] == list(cli._COMMANDS)
    with monkeypatch.context() as patched:
        # every command refuses the cap before its handler starts
        for name in cli._COMMANDS:
            patched.setitem(cli._COMMANDS, name, lambda args: pytest.fail(f"{args.command} ran"))
        for argv in ONE_JOB_PER_COMMAND:
            for cap in ("0", "-3"):
                code, out, err = run_cli(argv + ["--max-dim", cap])
                assert code == 2 and out == "", argv
                assert f"--max-dim must be a positive dimension cap, got {cap}" in err, argv
            # so is the variable, which is the cap where --max-dim is not given
            for value, shown in (("0", "0"), ("-5", "-5"), ("abc", "'abc'")):
                patched.setenv("SCHURKIT_MAX_DIM", value)
                code, out, err = run_cli(argv)
                assert code == 2 and out == "", (argv, value)
                assert err == f"error: SCHURKIT_MAX_DIM must be a positive dimension cap, got {shown}\n", (argv, value)


def test_idempotents_ladder_failure_exits_one(monkeypatch):
    def perturbed_tower(lt, r, max_dim=None):
        rep = tower_rep(lt, r, max_dim)
        # e_1 acting on basis vector 0 without shifting its weight
        e1 = rep.e[0] + ExactMatrix.unit(rep.dim, 0, 0)
        return rebuild(rep, e=(e1,) + rep.e[1:])

    monkeypatch.setattr(replinalg, "tower_rep", perturbed_tower)
    code, doc, err = run_json(["idempotents", "C", "2", "2"])
    assert code == 1
    assert doc["ladders_ok"] is False and doc["ranks_match_multiplicities"] is True
    assert "FAIL: ladder relations (R3)-(R6)" in err


def test_byte_identical_reruns():
    for argv in (
        ["compare", "B", "2", "2"],
        ["census", "C", "2", "2", "--format", "text"],
        ["zero-locus", "D", "2", "2", "--format", "csv"],
    ):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


def test_failing_verification_exits_one_and_names_label(monkeypatch):
    def fake_verify(rep):
        return RelationReport(
            presentation="serre",
            family=rep.lie_type.family,
            rank=rep.rank,
            r=rep.r,
            carrier="tower",
            reduced_word=(1,),
            generator_convention="",
            relations=[RelationCheck(label="C2", holds=False, witness={"case": "i=2,j=2"})],
        )

    monkeypatch.setattr(presentation, "verify_serre_presentation", fake_verify)
    code, out, err = run_cli(["verify", "C", "2", "2", "--presentation", "serre"])
    assert code == 1
    assert "C2" in err


def test_invariant_error_exits_one_and_names_label(monkeypatch):
    real = decomposition.decompose_tensor_character

    def dropped_multiplicity(lt, r):
        res = real(lt, r)
        kept = dict(list(res.multiplicities.items())[1:])
        return decomposition.DecompositionResult(res.lie_type, res.r, res.pi, res.pi0, kept, res.equal)

    monkeypatch.setattr(decomposition, "decompose_tensor_character", dropped_multiplicity)
    code, out, err = run_cli(["compare", "B", "2", "2"])
    assert code == 1
    assert out == ""
    assert "check failed: decomposition consistency" in err


def test_carrier_weight_outside_window_exits_one(monkeypatch):
    def mislabeled_tower(lt, r, max_dim=None):
        return rebuild(tower_rep(lt, r, max_dim), r=r - 1)

    monkeypatch.setattr(replinalg, "tower_rep", mislabeled_tower)
    code, out, err = run_cli(["idempotents", "C", "2", "2"])
    assert code == 1 and out == ""
    assert "check failed: carrier weight" in err


def census_with_altered_crystals(monkeypatch, alter):
    real = pathmodel.generate_crystal

    def altered(rs, lam):
        crystal = real(rs, lam)
        return alter(crystal) if len(crystal) > 1 else crystal

    monkeypatch.setattr(pathmodel, "generate_crystal", altered)
    return run_cli(["census", "C", "2", "2"])


def test_wrong_dominant_path_fails_string_extraction(monkeypatch):
    def swap_first_two(crystal):
        first, second, *rest = crystal.elements
        return rebuild(crystal, elements=(second, first, *rest))

    code, out, err = census_with_altered_crystals(monkeypatch, swap_first_two)
    assert code == 1 and out == ""
    assert "check failed: string extraction" in err


def test_repeated_crystal_element_fails_string_injectivity(monkeypatch):
    def repeat_last(crystal):
        return rebuild(crystal, elements=crystal.elements + crystal.elements[-1:])

    code, out, err = census_with_altered_crystals(monkeypatch, repeat_last)
    assert code == 1 and out == ""
    assert "check failed: string injectivity" in err


def test_second_preimage_under_one_lowering_fails_the_crystal_axiom(monkeypatch):
    def duplicate_edge_target(crystal):
        src, i, dst = crystal.edges[-1]
        other = next(x for x in range(len(crystal)) if x != src)
        return rebuild(crystal, edges=crystal.edges + ((other, i, dst),))

    code, out, err = census_with_altered_crystals(monkeypatch, duplicate_edge_target)
    assert code == 1 and out == ""
    assert "check failed: crystal axiom" in err


@pytest.mark.parametrize("command", ["dims", "closure"])
def test_non_dominant_tensor_weight_exits_one(monkeypatch, command):
    real = decomposition.tensor_dominant_pi

    def with_outsider(lt, r):
        pi = real(lt, r)
        return WeightSet.make(list(pi) + [Weight((0, 1))], pi.label)

    monkeypatch.setattr(decomposition, "tensor_dominant_pi", with_outsider)
    code, out, err = run_cli([command, "C", "2", "2"])
    assert code == 1 and out == ""
    assert "check failed: dominant tensor weights" in err


def test_non_integral_cartan_matrix_exits_one(monkeypatch):
    eps = Weight.eps

    def stretched_eps(n, i):
        return 3 * eps(n, i) if i == n else eps(n, i)

    monkeypatch.setattr(Weight, "eps", stretched_eps)
    code, out, err = run_cli(["crystal", "B", "2", "--lambda", "1,0"])
    assert code == 1 and out == ""
    assert "check failed: integral Cartan matrix" in err


def test_non_integral_crystal_path_exits_one(monkeypatch):
    # heights along alpha_1^vee of C2 are 0, -1/2, 1: a minimum at a half level
    bad = pathmodel.Path.from_points([Weight((0, 0)), Weight((Fraction(-1, 2), 0)), Weight((1, 0))])
    monkeypatch.setattr(pathmodel, "_lower", lambda alpha, path, h: bad)
    code, out, err = run_cli(["crystal", "C", "2", "--lambda", "1,1"])
    assert code == 1 and out == ""
    assert "check failed: integral-path regime" in err


def test_non_integral_crystal_path_exits_one_under_optimized_mode():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from schurkit import cli, pathmodel\n"
        "from schurkit.rootdata import Weight\n"
        "bad = pathmodel.Path.from_points([Weight((0, 0)), Weight((Fraction(-1, 2), 0)), Weight((1, 0))])\n"
        "pathmodel._lower = lambda alpha, path, h: bad\n"
        "sys.exit(cli.run(['crystal', 'C', '2', '--lambda', '1,1']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "check failed: integral-path regime" in proc.stderr


def test_text_format_has_header_and_table():
    code, out, _ = run_cli(["weights", "C", "1", "1", "--format", "text"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1].split() == ["set", "weight"]
    assert lines[-1] == "passed: True"


def test_package_exports_resolve_through_their_layers():
    assert schurkit.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(schurkit, name)
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        schurkit.no_such_name


def test_traced_job_prints_the_plain_document():
    argv = ["-m", "schurkit.cli", "verify", "C", "2", "2", "--presentation", "serre"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    plain = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=ROOT)
    traced = subprocess.run(
        [sys.executable, "bench/trace_child.py", *argv], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    spans = json.loads(traced.stderr.splitlines()[-1].removeprefix("SPANS "))
    assert {"replinalg.tower_rep", "presentation.verify_serre_presentation"} <= {span[0] for span in spans}
