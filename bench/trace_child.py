"""Run one benchmark job with a span around each call into schurkit's layers.

    PYTHONPATH=src python3 bench/trace_child.py -m schurkit.cli verify B 3 4 --presentation serre
    PYTHONPATH=src python3 bench/trace_child.py bench/same_algebra.py

The arguments are those the untraced job passes to the interpreter.  Before
the job starts, every function named in `TRACED` is replaced, in each
`schurkit` module namespace that holds it, by a wrapper that records a span;
the job then runs exactly as `python3 <args>` would, so its stdout and exit
code are unchanged and the parent checks them as for an untraced job.  The
package's source is not modified.

A span is `[name, start, end, parent]`, with `perf_counter` times (the
system-wide monotonic clock on Linux, so the parent can place them in its own
timeline) and the index of the enclosing span or null, followed by the counts
read from the call's return value.  Spans stay in memory and are written as
one line `SPANS <json>` on stderr when the job ends.
"""

import functools
import json
import runpy
import sys
import time


def _carrier(rep):
    return {"replinalg.carrier_dim": rep.dim, "replinalg.generator_nnz": sum(m.nnz for m in rep.generator_lists())}


def _relations(report):
    return {
        "presentation.relations_checked": len(report.relations),
        "presentation.relations_failed": len(report.failing_labels()),
    }


# Traced public functions, as "<module>.<function>", each with the counts it
# contributes; the counts come from return values, after the span has ended.
TRACED = {
    "replinalg.tower_rep": _carrier,
    "replinalg.single_power_rep": _carrier,
    "replinalg.algebra_closure": lambda res: {
        "replinalg.algebra_closure.dim": res.dimension,
        "replinalg.algebra_closure.columns": res.size**2,
    },
    "idempotents.build_idempotents": lambda fam: {"idempotents.projectors": len(fam.table)},
    "idempotents.ladder_check": lambda rep: {"idempotents.ladder_check.checked": rep.checked},
    "presentation.verify_serre_presentation": _relations,
    "presentation.verify_idempotent_presentation": _relations,
    "presentation.presentations_generate_same_algebra": None,
    "presentation.zero_locus_report": lambda rep: {
        "presentation.zero_locus.grid_points": (4 * rep.r + 1) ** rep.lie_type.rank,
        "presentation.zero_locus.locus_size": len(rep.locus),
    },
    "decomposition.decompose_tensor_character": None,
    "decomposition.pi0_weyl_rules": lambda ws: {"decomposition.pi0_size": len(ws)},
    "decomposition.classify_type_B": None,
    "decomposition.schur_dimensions": None,
    "pathmodel.basis_census": None,
    "pathmodel.generate_crystal": lambda crystal: {"pathmodel.crystal_elements": len(crystal)},
    "weightsets.tensor_weights_Pi": None,
    "weightsets.tensor_dominant_pi": None,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None, {}])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                self.spans[idx][4] = count(result)
            return result

        return traced

    def install(self):
        import schurkit  # imports every layer module

        modules = [m for key, m in sys.modules.items() if key == "schurkit" or key.startswith("schurkit.")]
        for name, count in TRACED.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"schurkit.{module}"], attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)


def main(args):
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        if args[0] == "-m":
            sys.argv = [args[1], *args[2:]]
            runpy.run_module(args[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(args)
            runpy.run_path(args[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        print("SPANS " + json.dumps(tracer.spans), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
