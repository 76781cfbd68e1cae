"""Effective bounds for the Jordan property of algebraic groups.

The package computes every constant behind the uniform Jordan property of
connected algebraic groups and of automorphism groups of projective
varieties: classification data for the simple types, minimal faithful
representation dimensions over all semisimple isogeny classes, Jordan and
Minkowski constants for general linear groups, and the closed-form bounds
they assemble into, together with a small language for structured group
descriptions and an exact finite-group verifier.

The names below are resolved on first use (PEP 562), so `import jordanbounds`
loads no submodule and a CLI verb loads only the modules it runs.
"""

import importlib

# exported name -> defining submodule
_SUBMODULE = {name: module for module, names in (
    ("abelian", "FiniteAbelianGroup"),
    ("boundvalue", "BoundValue"),
    ("calculus", "BoundTriple DerivationTrace aut0_jordan_bound aut0_rank_bound "
                 "aut0_triple combine_extension combine_product "
                 "connected_jordan_bound connected_rank_bound connected_triple "
                 "gl_jordan_bound leaf_triple minkowski_bound "
                 "rank_bound_mod_commutator semisimple_jordan_bound"),
    ("caps", "Caps CapExceeded DEFAULT_CAPS load_caps"),
    ("dsl", "GroupExpr ParseError evaluate parse parse_file_text print_expr"),
    ("enumeration", "IsogenyClass SemisimpleType class_table embedding_dim "
                    "enumerate_semisimple isogeny_classes max_center_order "
                    "min_faithful_dim quotient_center"),
    ("permgroups", "PermGroup Permutation abelian_invariants closure "
                   "direct_product jordan_constant jordan_index load_group "
                   "max_abelian_order verify_bound"),
    ("rootsystems", "CatalogEntry CentralCharacter DominantWeight RootSystem "
                    "SimpleType admissible_types build_root_system catalog_entry "
                    "central_character weyl_dim"),
) for name in names.split()}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    # a name outside the table raises, so `from jordanbounds import calculus`
    # falls through to the submodule import
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
