import pathlib
import sys

import pytest

from jordanbounds import permgroups

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.grp"))


@pytest.fixture(scope="session")
def corpus_groups():
    """All bundled permutation groups, loaded once."""
    return {p.stem: permgroups.load_group(str(p)) for p in CORPUS.glob("*.grp")}


@pytest.fixture
def int_str_limit():
    """Restore the interpreter's int -> str digit limit after the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int -> str digit limit")
    old = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(old)


def corpus_path(name: str) -> str:
    return str(CORPUS / name)
