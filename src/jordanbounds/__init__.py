"""Effective bounds for the Jordan property of algebraic groups.

The package computes every constant behind the uniform Jordan property of
connected algebraic groups and of automorphism groups of projective
varieties: classification data for the simple types, minimal faithful
representation dimensions over all semisimple isogeny classes, Jordan and
Minkowski constants for general linear groups, and the closed-form bounds
they assemble into, together with a small language for structured group
descriptions and an exact finite-group verifier.
"""

from .abelian import CenterSubgroup, FiniteAbelianGroup
from .boundvalue import BoundValue
from .calculus import (BoundTriple, DerivationTrace, aut0_jordan_bound,
                       aut0_rank_bound, aut0_triple, combine_extension,
                       combine_product, connected_jordan_bound,
                       connected_rank_bound, connected_triple,
                       gl_jordan_bound, leaf_triple, make_triple,
                       minkowski_bound, rank_bound_mod_commutator,
                       reductive_jordan_bound, reductive_rank_bound,
                       semisimple_jordan_bound)
from .caps import Caps, CapExceeded, DEFAULT_CAPS, load_caps
from .dsl import GroupExpr, ParseError, evaluate, parse, parse_file_text, print_expr
from .enumeration import (IsogenyClass, SemisimpleType, class_table,
                          embedding_dim, enumerate_central_subgroups,
                          enumerate_semisimple, isogeny_classes,
                          max_center_order, min_faithful_dim, quotient_center)
from .extnat import INF, ExtNat
from .permgroups import (PermGroup, Permutation, abelian_invariants,
                         abelian_rank, closure, direct_product, jordan_constant,
                         jordan_index, load_group, max_abelian_order,
                         verify_bound)
from .rootsystems import (CatalogEntry, CentralCharacter, DominantWeight,
                          RootSystem, SimpleType, admissible_types,
                          build_root_system, catalog_entry, central_character,
                          irrep_kernel_on_center, weyl_dim)

__version__ = "0.1.0"
