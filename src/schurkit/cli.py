"""Batch command-line interface with machine-readable outputs.

One job per process.  Every command emits a single document on stdout in
the requested format (json by default, csv or aligned text otherwise) and
uses the exit code to report the job outcome: 0 when all checks in the
job pass, 1 when a verification fails (the violated labels go to stderr),
and 2 for invalid arguments or a carrier over the dimension cap.

Identical invocations produce byte-identical output: every collection in
the package is canonically ordered, and each document carries a header
with the tool version and the reduced word in use.

The layer modules are imported as modules and called through, so that
importing this one executes only `rootdata` (the package registers the
others lazily) and each job executes only the layers its command uses:
`compare` runs `weightsets` and `decomposition`, `census` adds `pathmodel`,
`verify` needs all but `closure`, `decomposition` and `pathmodel`, and
`closure` all but `pathmodel`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as csv_module
import io
import json
import sys
from . import __version__, closure, decomposition, idempotents, pathmodel, presentation, replinalg, weightsets
from .rootdata import CapExceeded, LieType, Weight, build_root_system, resolve_max_dim


class JobResult:
    __slots__ = ("header", "body", "columns", "rows", "passed", "failures")

    def __init__(self, header, body, columns, rows, passed=True, failures=()):
        self.header = header
        self.body = body
        self.columns = columns
        self.rows = rows
        self.passed = passed
        self.failures = failures


def _header(lt=None, r=None):
    doc = {"tool_version": __version__, "family": None, "rank": None, "r": r, "reduced_word": None}
    if lt is not None:
        doc["family"] = lt.family
        doc["rank"] = lt.rank
        word, _ = build_root_system(lt).longest_element()
        doc["reduced_word"] = list(word)
    return doc


def _weight_str(w):
    return ",".join(str(c) for c in w.coords)


def _parse_type(args) -> LieType:
    return LieType(args.family, args.rank)


def _parse_lambda(text, rank):
    parts = text.split(",")
    if len(parts) != rank:
        raise ValueError(f"--lambda needs {rank} comma-separated integers, got {text!r}")
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--lambda must be integers, got {text!r}") from None
    return Weight(coords)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_weights(args):
    lt = _parse_type(args)
    pi_all = weightsets.tensor_weights_Pi(lt, args.r)
    pi_dom = weightsets.tensor_dominant_pi(lt, args.r)
    body = {"Pi": pi_all.to_json(), "pi": pi_dom.to_json()}
    rows = [["Pi", _weight_str(w)] for w in pi_all] + [["pi", _weight_str(w)] for w in pi_dom]
    return JobResult(_header(lt, args.r), body, ["set", "weight"], rows)


def _cmd_pi0(args):
    lt = _parse_type(args)
    ws = decomposition.pi0_weyl_rules(lt, args.r)
    body = {"pi0": ws.to_json()}
    return JobResult(_header(lt, args.r), body, ["weight"], [[_weight_str(w)] for w in ws])


def _cmd_compare(args):
    lt = _parse_type(args)
    res = decomposition.compare_pi0_pi(lt, args.r)
    body = res.to_json()
    rows = [
        [
            lt.family,
            lt.rank,
            args.r,
            res.equal,
            len(res.pi),
            len(res.pi0),
            " ".join(_weight_str(w) for w in res.pi_minus_pi0()),
        ]
    ]
    cols = ["family", "n", "r", "equal", "|pi|", "|pi0|", "pi_minus_pi0"]
    return JobResult(_header(lt, args.r), body, cols, rows)


def _cmd_classify_b(args):
    table = decomposition.classify_type_B(args.n_max, args.r_max)
    cols = ["family", "n", "r", "equal", "|pi|", "|pi0|", "dim_S_pi", "dim_Schur"]
    rows = [
        [t["family"], t["n"], t["r"], t["equal"], t["pi_size"], t["pi0_size"], t["dim_S_pi"], t["dim_Schur"]]
        for t in table
    ]
    body = {"table": table}
    return JobResult(_header(LieType("B", args.n_max), args.r_max), body, cols, rows)


def _cmd_idempotents(args):
    lt = _parse_type(args)
    rep = replinalg.tower_rep(lt, args.r, args.max_dim)
    fam = idempotents.build_idempotents(rep)
    ladders = idempotents.ladder_check(fam)
    mult = {}
    for w in rep.weights:
        mult[w] = mult.get(w, 0) + 1
    body = fam.summary_json()
    ranks = [(lam, item["rank"]) for lam, item in zip(fam.table, body["ranks"])]
    ranks_ok = all(rank == mult.get(lam, 0) for lam, rank in ranks)
    body["ladders_ok"] = ladders.ok
    body["ranks_match_multiplicities"] = ranks_ok
    rows = [[_weight_str(lam), rank] for lam, rank in ranks]
    failures = []
    if not ladders.ok:
        failures.append("ladder relations (R3)-(R6)")
    if not ranks_ok:
        failures.append("rank(1_lam) vs weight multiplicity")
    return JobResult(_header(lt, args.r), body, ["weight", "rank"], rows, not failures, failures)


def _cmd_verify(args):
    lt = _parse_type(args)
    rep = replinalg.tower_rep(lt, args.r, args.max_dim)
    if args.presentation == "serre":
        report = presentation.verify_serre_presentation(rep)
    else:
        report = presentation.verify_idempotent_presentation(rep, idempotents.build_idempotents(rep))
    rows = [[c.label, "holds" if c.holds else "fails"] for c in report.relations]
    failures = [f"relation {label}" for label in report.failing_labels()]
    return JobResult(_header(lt, args.r), report.to_json(), ["label", "status"], rows, report.all_hold, failures)


def _cmd_zero_locus(args):
    lt = _parse_type(args)
    include = not args.drop_p1hi
    report = presentation.zero_locus_report(lt, args.r, include_p1hi=include)
    body = report.to_json()
    rows = [[_weight_str(w), w in report.pi_all] for w in report.locus]
    passed = True
    failures = []
    if include and not report.equals_pi:
        passed = False
        failures.append("zero locus differs from the tensor weight set")
    return JobResult(_header(lt, args.r), body, ["point", "in_Pi"], rows, passed, failures)


def _cmd_dims(args):
    lt = _parse_type(args)
    res = decomposition.compare_pi0_pi(lt, args.r)
    dim_pi, dim_schur = res.squared_dimension_sums()
    per_weight = [{"weight": w.to_json(), "dim": res.dims[w], "in_pi0": w in res.pi0} for w in res.pi]
    body = {
        "dim_S_pi": dim_pi,
        "dim_Schur": dim_schur,
        "equal": res.equal,
        "per_weight": per_weight,
    }
    cols = ["family", "n", "r", "equal", "|pi|", "|pi0|", "dim_S_pi", "dim_Schur"]
    rows = [[lt.family, lt.rank, args.r, res.equal, len(res.pi), len(res.pi0), dim_pi, dim_schur]]
    return JobResult(_header(lt, args.r), body, cols, rows)


def _cmd_closure(args):
    lt = _parse_type(args)
    report = closure.quotient_witness(lt, args.r, args.max_dim)
    body = report.to_json()
    cols = ["carrier", "dimension", "expected", "matches"]
    rows = [
        ["single_power", report.dim_single, report.expected_single, report.single_matches],
        ["tower", report.dim_tower, report.expected_tower, report.tower_matches],
    ]
    failures = []
    if not report.matches_expected:
        what = "piece dimension vs multiplicity sum" if report.totals_match else "dimension vs squared-dimension sum"
        where = f" ({report.mismatch})" if report.mismatch else ""
        failures.append(f"closure {what}{where}")
    return JobResult(_header(lt, args.r), body, cols, rows, report.matches_expected, failures)


def _cmd_crystal(args):
    lt = _parse_type(args)
    rs = build_root_system(lt)
    lam = _parse_lambda(args.lam, lt.rank)
    if not rs.is_dominant(lam):
        raise ValueError(f"--lambda {args.lam} is not dominant for {lt}")
    (dim,) = pathmodel.crystal_dimensions(rs, [lam])
    crystal = pathmodel.generate_crystal(rs, lam)
    body = crystal.to_json()
    body["weyl_dimension"] = dim
    body["size_matches_dimension"] = len(crystal) == dim
    rows = [[idx, _weight_str(p.endpoint)] for idx, p in enumerate(crystal.elements)]
    passed = len(crystal) == dim
    failures = [] if passed else ["crystal size vs simple dimension"]
    return JobResult(_header(lt, None), body, ["index", "endpoint"], rows, passed, failures)


def _cmd_census(args):
    lt = _parse_type(args)
    report = pathmodel.basis_census(lt, args.r)
    body = report.to_json()
    cols = ["weight", "dim", "strings", "opposite_strings", "product", "expected", "ok"]
    rows = [
        [
            ",".join(str(c) for c in row["weight"]),
            row["dim"],
            row["strings"],
            row["opposite_strings"],
            row["product"],
            row["expected"],
            row["ok"],
        ]
        for row in report.rows
    ]
    failures = [] if report.ok else ["string census vs squared-dimension total"]
    return JobResult(_header(lt, args.r), body, cols, rows, report.ok, failures)


_COMMANDS = {
    "weights": _cmd_weights,
    "pi0": _cmd_pi0,
    "compare": _cmd_compare,
    "classify-b": _cmd_classify_b,
    "idempotents": _cmd_idempotents,
    "verify": _cmd_verify,
    "zero-locus": _cmd_zero_locus,
    "dims": _cmd_dims,
    "closure": _cmd_closure,
    "crystal": _cmd_crystal,
    "census": _cmd_census,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Exact verification and computation for generalized Schur algebras of types B, C, D.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    common.add_argument("--max-dim", type=int, default=None, help="carrier dimension cap (env SCHURKIT_MAX_DIM)")

    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("family", choices=("B", "C", "D"))
    typed.add_argument("rank", type=int)

    with_r = argparse.ArgumentParser(add_help=False)
    with_r.add_argument("r", type=int)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("weights", parents=[typed, with_r, common], help="Pi and pi of a tensor power")
    sub.add_parser("pi0", parents=[typed, with_r, common], help="highest weights of the tensor factors")
    sub.add_parser("compare", parents=[typed, with_r, common], help="pi0 vs pi, with the oracle cross-check")
    cb = sub.add_parser("classify-b", parents=[common], help="equality table for family B over a grid")
    cb.add_argument("n_max", type=int)
    cb.add_argument("r_max", type=int)
    sub.add_parser("idempotents", parents=[typed, with_r, common], help="projector family summary on the tower")
    vf = sub.add_parser("verify", parents=[typed, with_r, common], help="check a presentation on the tower")
    vf.add_argument("--presentation", choices=("serre", "idempotent"), required=True)
    zl = sub.add_parser("zero-locus", parents=[typed, with_r, common], help="scan the annihilator equations")
    zl.add_argument("--drop-p1hi", action="store_true", help="omit the per-H_i polynomial equations")
    sub.add_parser("dims", parents=[typed, with_r, common], help="squared-dimension totals over pi and pi0")
    sub.add_parser("closure", parents=[typed, with_r, common], help="generated-algebra dimensions, both carriers")
    cr = sub.add_parser("crystal", parents=[typed, common], help="path crystal of a dominant weight")
    cr.add_argument("--lambda", dest="lam", required=True, help="comma-separated integer coordinates")
    sub.add_parser("census", parents=[typed, with_r, common], help="string-count basis census over pi")
    return parser


def _emit(result: JobResult, fmt: str) -> str:
    if fmt == "json":
        doc = {"header": result.header, **result.body, "passed": result.passed}
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# " + json.dumps(result.header) + "\n")
        writer = csv_module.writer(buf, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow(row)
        return buf.getvalue().rstrip("\n")
    # aligned text
    table = [result.columns] + [[str(c) for c in row] for row in result.rows]
    widths = [max(len(row[k]) for row in table) for k in range(len(result.columns))]
    lines = ["# " + json.dumps(result.header)]
    for row in table:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    lines.append(f"passed: {result.passed}")
    return "\n".join(lines)


def run(argv, stdout=None, stderr=None) -> int:
    """Run one job and return its exit code: 0 passed, 1 a failed check, 2 invalid arguments or over a cap.

    A bad --max-dim or SCHURKIT_MAX_DIM (`rootdata.resolve_max_dim`) is
    refused before any command starts.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse writes usage, its errors and --help to sys.stdout and sys.stderr
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        resolve_max_dim(args.max_dim)  # refuse a bad --max-dim or SCHURKIT_MAX_DIM before any work
        result = _COMMANDS[args.command](args)
    except (CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except ArithmeticError as exc:
        print(f"check failed: {exc}", file=stderr)
        return 1
    print(_emit(result, args.format), file=stdout)
    if not result.passed:
        for reason in result.failures:
            print(f"FAIL: {reason}", file=stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
