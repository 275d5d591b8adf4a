"""Exact homological invariants of quiver representations over commutative rings.

The namespace is lazy (PEP 562): ``import quivlat`` runs no submodule.
Each submodule of _EXPORTS is entered in sys.modules, and as an attribute
here, as a module whose source runs on its first attribute access
(importlib.util.LazyLoader); a public name is read off its submodule when
it is first used, and kept.  So a caller compiles only the modules whose
names it uses, and those they import, while code that looks a submodule
up in sys.modules before using it, as perfbench/tracing.py does, still
finds it there.
"""

import importlib.util
import sys

# The names of verify's self-check suites, held here rather than in verify
# so that the command line can offer them without loading verify.
SUITES = ("euler", "basechange", "braid", "theoremA", "theoremB", "theoremC")

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "BoundExceeded", "CyclicQuiver", "DimensionMismatch", "IncompatibleBase",
        "IncompatibleRing", "NeitherMonoNorEpi", "NonFreeCokernel", "NotComputable",
        "NotNilpotentKernel", "NotProjective", "NotRigid", "NotSchurRoot", "ParseError",
        "PeelFailure", "PreconditionViolated", "QuivlatError", "TheoremViolation"),
    "rings": (
        "ExactMatrix", "Feps", "GF", "QQ", "RingHom", "RingSpec", "ZZ", "Zmod", "apply_hom",
        "block_diag", "canonical_hom", "identity_hom"),
    "elimination": (
        "ModulePresentation", "NormalFormResult", "cokernel", "cokernel_data",
        "cokernel_projection", "constant_rank", "howell_rows", "invert", "is_invertible",
        "kernel_basis", "normal_form", "presentation_base_change", "solve"),
    "quiver": (
        "Quiver", "Rep", "RepMorphism", "base_change", "cokernel_rep", "direct_sum",
        "direct_sum_injections", "direct_sum_many", "direct_sum_projections", "euler_form",
        "kernel_rep", "projective_rep", "tensor_free", "tits_form"),
    "homology": (
        "HomExtResult", "check_base_change", "differential", "hom_ext", "is_exceptional",
        "is_rigid", "rigid_hom_ext_ranks"),
    "mutation": (
        "ExcSequence", "MutationResult", "braid_act", "is_exceptional_pair", "left_mutate",
        "orbit_search", "right_mutate", "standard_sequence"),
    "structure": (
        "SCHUR_BOUNDED_FALSE", "SCHUR_PREFILTER_FALSE", "SCHUR_REAL", "GenericDims",
        "RigidDecomposition", "decompose_rigid", "exceptional_lattice", "generic_dims",
        "is_isomorphic_rigid", "is_real_schur_root", "lift_rigid", "rigid_isomorphism",
        "schur_root_status"),
    "verify": ("run_suite",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = tuple(_OWNER) + ("SUITES",)

__version__ = "0.1.0"


def _lazy(module: str):
    """The submodule, entered in sys.modules unrun: LazyLoader runs its
    source on its first attribute access."""
    spec = importlib.util.find_spec(__name__ + "." + module)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


globals().update({module: _lazy(module) for module in _EXPORTS})


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
