"""Resource caps shared by the enumeration and search routines.

The enumeration, the subgroup lattices, permutation closures and the
decimal expansion of symbolic bounds are guarded by explicit caps; a
breached cap raises :class:`CapExceeded` instead of returning a partial or
silently wrong answer.  The exact closed forms for the general linear group
(`cnbound`, `minkowski`, and the DSL leaves `gl(n)` and `gl_q(n)`) have no
cap: their cost grows fast with n.  From n = 176 (calculus._GL_DECIMAL_N,
a size and not a cap) the GL floor is computed in libmpdec: cnbound at
n = 1024 prints its 4,113,495 digits in about 1.6 s, and
gl_jordan_bound(1024), which converts the 13.7M-bit value to an int, takes
about 7 s.
"""

from __future__ import annotations

from typing import NamedTuple


class Caps(NamedTuple):
    """Default resource limits.

    enumeration_dim      largest total dimension for semisimple enumeration
    center_order         largest center order whose subgroups are enumerated
    subgroup_count       abort subgroup enumeration past this many subgroups
    closure_order        permutation-group closure limit
    decimal_digits       largest decimal expansion of a symbolic bound
    """

    enumeration_dim: int = 64
    center_order: int = 4096
    subgroup_count: int = 100_000
    closure_order: int = 10_000
    decimal_digits: int = 1_000_000


DEFAULT_CAPS = Caps()


class CapExceeded(Exception):
    """A configured cap was breached.

    `observed` carries the best certified lower bound available when the
    computation stopped (e.g. the number of elements already produced by a
    closure), or None when no partial information is meaningful.
    """

    def __init__(self, what: str, limit: int, observed=None, module: str = ""):
        self.what = what
        self.limit = limit
        self.observed = observed
        self.module = module
        msg = f"cap exceeded in {module or 'jordanbounds'}: {what} (limit {limit}"
        if observed is not None:
            msg += f", reached at least {observed}"
        msg += ")"
        super().__init__(msg)


def load_caps(path: str) -> Caps:
    """Read cap overrides from a JSON file; unknown keys are rejected."""
    import json  # deferred: most commands read no caps file

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"caps file {path} must hold a JSON object, got {data!r}")
    unknown = set(data) - set(Caps._fields)
    if unknown:
        raise ValueError(f"unknown cap names in {path}: {sorted(unknown)}")
    for key, val in data.items():
        if not isinstance(val, int) or isinstance(val, bool) or val <= 0:
            raise ValueError(f"cap {key} must be a positive integer, got {val!r}")
    return DEFAULT_CAPS._replace(**data)
