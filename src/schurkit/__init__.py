"""Exact-arithmetic toolkit for generalized Schur algebras of types B, C, D.

The package realizes the algebras as concrete operator algebras on towers
of tensor powers of the natural module, verifies their presentations as
exact matrix identities, reproduces the weight-set and decomposition
combinatorics with an independent character oracle, and counts bases
through the path model.

Importing the package runs no layer code.  Each of the eight layer modules
is registered in `sys.modules` at once, under its full name, as a lazy
module (`importlib.util.LazyLoader`) that executes on its first attribute
access, so a CLI job executes only the layers it calls into.  The names
re-exported here resolve through the module `__getattr__`, which reads
them from their layer.  Registration, rather than a bare `__getattr__`,
keeps every layer module in `sys.modules` after `import schurkit`, for
code that looks the layers up there by name, as `bench/trace_child.py`
does.

No module uses `dataclasses`: the record classes are `__slots__` classes
with explicit constructors, and define `==` (and a hash, for the immutable
ones) only where instances are compared (`LieType`, `WeightSet`, `Path`,
`RelationCheck`), so `import schurkit.cli` loads neither `dataclasses` nor
`inspect`.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "rootdata": ("CapExceeded", "LieType", "RootSystem", "Weight", "build_root_system"),
    "weightsets": (
        "WeightSet",
        "is_saturated",
        "lambda_minus",
        "lambda_plus",
        "lambda_pm",
        "signed_compositions",
        "tensor_dominant_pi",
        "tensor_weights_Pi",
    ),
    "replinalg": (
        "ExactMatrix",
        "Representation",
        "algebra_closure",
        "natural_rep",
        "single_power_rep",
        "tensor_lift",
        "tower_rep",
    ),
    "idempotents": (
        "IdempotentFamily",
        "build_idempotents",
        "ladder_check",
        "p1",
        "p2",
        "polynomial_idempotent",
        "reconstruct_H",
    ),
    "presentation": (
        "RelationReport",
        "verify_idempotent_presentation",
        "verify_serre_presentation",
        "zero_locus",
        "zero_locus_report",
    ),
    "closure": ("quotient_witness",),
    "decomposition": (
        "DecompositionResult",
        "FormalCharacter",
        "classify_type_B",
        "compare_pi0_pi",
        "decompose_tensor_character",
        "freudenthal_multiplicities",
        "pi0_weyl_rules",
        "schur_dimensions",
        "weyl_dimension",
    ),
    "pathmodel": (
        "Crystal",
        "Path",
        "basis_census",
        "e_op",
        "f_op",
        "generate_crystal",
        "opposite_strings",
        "straight_path",
        "string_tuples",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}


def _register_lazy(layer):
    """Put the layer module into sys.modules and onto the package, unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[layer] = module


for _layer in _EXPORTS:
    _register_lazy(_layer)
del _layer


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
