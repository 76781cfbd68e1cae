"""Resource caps shared by the enumeration and search routines.

Every potentially unbounded computation is guarded by an explicit cap; a
breached cap raises :class:`CapExceeded` instead of returning a partial or
silently wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Caps:
    """Default resource limits.

    enumeration_dim      largest total dimension for semisimple enumeration
    center_order         largest center order whose subgroups are enumerated
    subgroup_count       abort subgroup enumeration past this many subgroups
    search_dim           largest total dimension of a faithful representation
                         searched per simply connected form, in one pass
    closure_order        permutation-group closure limit
    decimal_digits       largest decimal expansion of a symbolic bound
    """

    enumeration_dim: int = 64
    center_order: int = 4096
    subgroup_count: int = 100_000
    search_dim: int = 512
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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"caps file {path} must hold a JSON object, got {data!r}")
    known = {f.name for f in fields(Caps)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown cap names in {path}: {sorted(unknown)}")
    for key, val in data.items():
        if not isinstance(val, int) or isinstance(val, bool) or val <= 0:
            raise ValueError(f"cap {key} must be a positive integer, got {val!r}")
    return replace(DEFAULT_CAPS, **data)
