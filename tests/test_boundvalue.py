import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanbounds.boundvalue import INF, ONE, BoundValue, _coprime_basis, bv_min
from jordanbounds.extnat import INF as EN_INF
from jordanbounds.extnat import ExtNat


def test_extnat_arithmetic():
    assert ExtNat(2) + ExtNat(3) == ExtNat(5)
    assert ExtNat(2) + EN_INF == EN_INF
    assert ExtNat(3) * EN_INF == EN_INF
    assert ExtNat(0) * EN_INF == ExtNat(0)
    assert ExtNat(4) < EN_INF
    assert not (EN_INF < EN_INF)
    assert EN_INF <= EN_INF
    assert ExtNat(7) == 7
    assert str(EN_INF) == "inf"
    assert int(ExtNat(9)) == 9
    with pytest.raises(OverflowError):
        int(EN_INF)
    with pytest.raises(ValueError):
        ExtNat(-1)


def test_construction_and_identity():
    assert BoundValue.from_int(1).is_one
    assert BoundValue.from_int(12).to_int() == 12
    assert ONE.to_int() == 1
    assert (ONE * ONE).is_one
    with pytest.raises(ValueError):
        BoundValue.from_int(0)


def test_equality_is_mathematical():
    assert BoundValue.from_int(4).pow(24) == BoundValue.from_int(2).pow(48)
    assert BoundValue.from_int(4096).pow(4) == BoundValue.from_int(2).pow(48)
    assert BoundValue.from_int(6).pow(2) == BoundValue.from_int(2) * BoundValue.from_int(18)
    assert BoundValue.from_int(6).pow(2) != BoundValue.from_int(35)
    assert BoundValue.from_int(10).pow(10 ** 6) == BoundValue.from_int(100).pow(500_000)


def test_comparisons():
    assert BoundValue.from_int(2).pow(100) < BoundValue.from_int(3).pow(100)
    assert BoundValue.from_int(2).pow(1000) > BoundValue.from_int(10).pow(300)
    assert BoundValue.from_int(2).pow(10 ** 6) < BoundValue.from_int(2).pow(10 ** 6) * 3
    assert INF > BoundValue.from_int(10).pow(10 ** 9)
    assert INF == INF
    # values needing a precision escalation to separate
    a = BoundValue.from_int(2).pow(10 ** 6)
    b = BoundValue.from_int(2).pow(10 ** 6) * BoundValue.from_int(2)
    assert a < b
    assert bv_min(b, a, b) == a


def test_infinite_arithmetic():
    assert (INF * 5).is_infinite
    assert (BoundValue.from_int(5) * INF).is_infinite
    assert INF.pow(3).is_infinite
    assert INF.pow(0).is_one


def test_digit_cap_controls_expansion():
    big = BoundValue.from_int(10).pow(100)
    assert big.to_int(max_digits=50) is None
    assert big.to_int(max_digits=200) == 10 ** 100
    lo, hi = big.digits10_interval()
    assert lo <= 101 <= hi
    huge = BoundValue.from_int(7).pow(10 ** 7)
    assert huge.to_int(max_digits=1_000_000) is None


@pytest.mark.parametrize("value, expands_at_digit_count", [
    (BoundValue.from_int(9), True),
    (BoundValue.from_int(10), True),
    (BoundValue([(2, 3), (3, 1), (7, 2)]), True),
    (BoundValue.from_int(10 ** 5 - 1), True),
    (BoundValue.from_int(10 ** 5), True),
    (BoundValue([(2, 15), (3, 5), (7, 2)]), True),
    (BoundValue.from_int(10 ** 30 - 1), True),
    (BoundValue.from_int(10 ** 30), True),
    (BoundValue([(2, 90), (3, 30), (7, 2)]), True),
    (BoundValue.from_int(10 ** 100 - 1), True),
    (BoundValue.from_int(10 ** 100), True),
    (BoundValue([(2, 300), (3, 100), (7, 2)]), True),
])
def test_to_int_at_the_digit_cap(value, expands_at_digit_count):
    exact = 1
    for base, exp in value.factors:
        exact *= base ** exp
    digits = len(str(exact))
    assert value.to_int(digits) == (exact if expands_at_digit_count else None)
    assert value.to_int(digits - 1) is None


@st.composite
def near_powers(draw):
    """(BoundValue, exact int) a few units from a power of 10 or of 2; an
    exact power is also drawn in factored form."""
    base = draw(st.sampled_from([2, 10]))
    k = draw(st.integers(1, 400))
    offset = draw(st.integers(-3, 3))
    value = base ** k + offset
    if offset == 0 and draw(st.booleans()):
        return BoundValue([(base, k)]), value
    return BoundValue.from_int(max(value, 1)), max(value, 1)


@settings(max_examples=300, deadline=None)
@given(near_powers())
def test_digit_interval_contains_the_digit_count(pair):
    value, exact = pair
    lo, hi = value.digits10_interval()
    assert lo <= len(str(exact)) <= hi
    assert value.to_int(len(str(exact))) == exact
    assert value.to_int(len(str(exact)) - 1) is None


@settings(max_examples=300, deadline=None)
@given(near_powers(), near_powers())
def test_compare_near_powers_matches_int(a, b):
    (va, ia), (vb, ib) = a, b
    assert va.compare(vb) == (ia > ib) - (ia < ib)


def test_compare_adjacent_big_values_is_exact():
    above = BoundValue.from_int(10 ** 30)
    below = BoundValue.from_int(10 ** 30 - 1)
    assert above.compare(below) == 1
    assert below.compare(BoundValue([(10, 30)])) == -1
    assert below.log10_interval()[0] < 30 < below.log10_interval()[1]


def test_log10_interval_encloses_truth():
    mpmath.mp.dps = 60
    cases = [BoundValue.from_int(2).pow(100),
             BoundValue.from_int(1234567).pow(89) * BoundValue.from_int(3),
             ONE]
    for val in cases:
        lo, hi = val.log10_interval()
        true = mpmath.mpf(0)
        for b, e in val.factors:
            true += e * mpmath.log10(b)
        assert lo <= float(true) <= hi
        assert hi - lo < 1e-6


def test_render_and_json_round_trip():
    v = BoundValue.from_int(74814184347878) * BoundValue.from_int(256).pow(2816)
    data = v.to_json()
    assert data["infinite"] is False
    rebuilt = BoundValue((int(b), int(e)) for b, e in data["factors"])
    assert rebuilt == v
    assert data["decimal"] is not None  # ~6800 digits, below the cap
    small = BoundValue.from_int(390624)
    assert small.render() == "390624"
    assert INF.to_json() == {"infinite": True, "factors": None, "log10": None,
                             "decimal": None}
    sym = BoundValue.from_int(3).pow(10 ** 7)
    assert "^" in sym.render(max_digits=100)


def test_coprime_basis_properties():
    basis = _coprime_basis([12, 18, 8])
    assert basis == sorted(basis)
    for i, p in enumerate(basis):
        for q in basis[i + 1:]:
            assert math.gcd(p, q) == 1
    for n in (12, 18, 8):
        m = n
        for p in basis:
            while m % p == 0:
                m //= p
        assert m == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=10 ** 6), min_size=1, max_size=6))
def test_coprime_basis_random(nums):
    basis = _coprime_basis(nums)
    for i, p in enumerate(basis):
        assert p > 1
        for q in basis[i + 1:]:
            assert math.gcd(p, q) == 1
    for n in nums:
        m = n
        for p in basis:
            while m % p == 0:
                m //= p
        assert m == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 50), st.integers(0, 8)), max_size=4),
       st.lists(st.tuples(st.integers(2, 50), st.integers(0, 8)), max_size=4))
def test_mul_matches_integer_arithmetic(fa, fb):
    a = BoundValue(fa)
    b = BoundValue(fb)
    assert (a * b).to_int() == a.to_int() * b.to_int()
    assert (a == b) == (a.to_int() == b.to_int())
    assert a.compare(b) == (a.to_int() > b.to_int()) - (a.to_int() < b.to_int())


def test_render_keeps_an_unlimited_str_digit_limit(int_str_limit):
    sys.set_int_max_str_digits(0)
    assert BoundValue.from_int(12345).render() == "12345"
    big = BoundValue.from_int(7).pow(2000)
    assert big.render() == str(7 ** 2000)
    assert big.to_json()["decimal"] == str(7 ** 2000)
    assert sys.get_int_max_str_digits() == 0


def test_render_raises_a_low_str_digit_limit(int_str_limit):
    sys.set_int_max_str_digits(640)
    text = BoundValue.from_int(7).pow(2000).render()
    assert len(text) == 1691
    assert sys.get_int_max_str_digits() >= 1691


def test_bases_past_the_str_digit_limit_render_and_serialise(int_str_limit):
    base = 7 ** 6000  # 5071 digits
    sys.set_int_max_str_digits(0)
    text = str(base)
    past_cap = BoundValue.from_int(base) * BoundValue.from_int(2).pow(10 ** 7)
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    assert past_cap.to_json()["factors"] == [["2", "10000000"], [text, "1"]]
    sys.set_int_max_str_digits(4300)
    assert past_cap.render().startswith(f"2^10000000 * {text} (~10^[")
