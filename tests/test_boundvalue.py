import math
import random
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jordanbounds import boundvalue
from jordanbounds.boundvalue import INF, ONE, BoundValue, _coprime_basis


def test_construction_and_identity():
    assert BoundValue.from_int(1) == ONE
    assert BoundValue.from_int(12).to_int() == 12
    assert ONE.to_int() == 1
    assert ONE * ONE == ONE
    with pytest.raises(ValueError):
        BoundValue.from_int(0)
    # these checks are what keep every finite value at least 1
    with pytest.raises(ValueError):
        BoundValue([(0, 1)])
    with pytest.raises(ValueError):
        BoundValue([(2, -1)])
    with pytest.raises(ValueError):
        BoundValue.from_int(5).pow(-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(0, 10 ** 4)), max_size=5))
def test_every_finite_value_is_at_least_one(factors):
    assert BoundValue(factors).compare(ONE) >= 0


def test_equality_is_mathematical():
    assert BoundValue.from_int(4).pow(24) == BoundValue.from_int(2).pow(48)
    assert BoundValue.from_int(4096).pow(4) == BoundValue.from_int(2).pow(48)
    assert BoundValue.from_int(6).pow(2) == BoundValue.from_int(2) * BoundValue.from_int(18)
    assert BoundValue.from_int(6).pow(2) != BoundValue.from_int(35)
    assert BoundValue.from_int(10).pow(10 ** 6) == BoundValue.from_int(100).pow(500_000)


@pytest.mark.parametrize("value", [ONE, BoundValue.from_int(5), INF])
def test_equality_with_an_int_below_one_is_false(value):
    # no BoundValue is below 1, so == answers False where from_int would raise
    for n in (0, -3):
        assert not value == n and value != n
        assert not n == value and n != value
    # ordering still refuses what from_int refuses
    with pytest.raises(ValueError, match="BoundValue must be >= 1"):
        value < 0


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
    assert min(b, a, b) == a


def test_infinite_arithmetic():
    assert (INF * 5).is_infinite
    assert (BoundValue.from_int(5) * INF).is_infinite
    assert INF.pow(3).is_infinite
    assert INF.pow(0) == ONE


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
    # log10(10^30 - 1) = 30 - 4.3e-31: the upper end may round to 30.0 itself
    lo, hi = below.log10_interval()
    assert lo < 30
    with mpmath.workdps(60):
        true = mpmath.log10(10 ** 30 - 1)
        assert lo <= true <= hi


def test_compare_separates_values_within_one_ulp_of_log10(monkeypatch):
    log2_bounds = boundvalue._log2_bounds

    def no_escalation(base, prec):
        if prec > boundvalue._LOG_PREC:
            raise AssertionError("precision escalation")
        return log2_bounds(base, prec)

    # past the digit cap, and their log10 enclosures round to the same floats;
    # the 128-bit integer log2 enclosures part them without escalating
    monkeypatch.setattr(boundvalue, "_log2_bounds", no_escalation)
    a = BoundValue([(2, 4 * 10 ** 6), (10 ** 12 + 39, 1)])
    b = BoundValue([(2, 4 * 10 ** 6), (10 ** 12 + 61, 1)])
    assert a.log10_interval() == b.log10_interval()
    start = time.perf_counter()
    assert a.compare(b) == -1
    assert b.compare(a) == 1
    assert time.perf_counter() - start < 1.0


def test_compare_edge_cases():
    assert ONE.compare(ONE) == 0 and ONE.compare(BoundValue()) == 0
    assert ONE.compare(BoundValue.from_int(2)) == -1
    assert BoundValue.from_int(2 ** 64).compare(BoundValue.from_int(2 ** 64 - 1)) == 1
    assert BoundValue.from_int(2 ** 64 - 1).compare(BoundValue.from_int(2 ** 64)) == -1
    assert BoundValue([(2, 64)]).compare(BoundValue.from_int(2 ** 64)) == 0
    assert BoundValue.from_int(2 ** 64).compare(BoundValue([(2, 64)])) == 0


def test_compare_by_bit_lengths_takes_no_logarithm(monkeypatch):
    def no_log(*args):
        raise AssertionError("logarithm taken")

    monkeypatch.setattr(boundvalue, "_log2_bounds", no_log)
    bound = BoundValue([(256, 3840), (74814184347878, 1)])
    assert BoundValue.from_int(20).compare(bound) == -1
    assert bound.compare(BoundValue.from_int(20)) == 1
    assert BoundValue.from_int(1000).compare(BoundValue.from_int(2 ** 64)) == -1


# 3^q against 2^p for a continued-fraction convergent p/q of log2(3): both
# past the digit cap, 3^q / 2^p within about 1e-39 of 1, so the enclosures
# overlap at 128 and 256 bits and part at 512
_CONVERGENT_P = 1652732724689252413744725775301698846303
_CONVERGENT_Q = 1042758250707673434220052163136628837601


def test_compare_escalates_precision_on_a_convergent_of_log2_3():
    three = BoundValue([(3, _CONVERGENT_Q)])
    two = BoundValue([(2, _CONVERGENT_P)])
    assert three.compare(two) == -1
    assert two.compare(three) == 1


def test_compare_past_the_precision_cap_raises(monkeypatch):
    monkeypatch.setattr(boundvalue, "_LOG_PREC_MAX", 256)
    three = BoundValue([(3, _CONVERGENT_Q)])
    two = BoundValue([(2, _CONVERGENT_P)])
    with pytest.raises(ArithmeticError, match="failed to converge"):
        three.compare(two)
    with pytest.raises(ArithmeticError, match="failed to converge"):
        two.compare(three)


@st.composite
def log_bases(draw):
    """Small and large bases, powers of 10 and of 2 and their neighbours."""
    kind = draw(st.sampled_from(["small", "large", "ten", "two"]))
    if kind == "small":
        return draw(st.integers(2, 1000))
    if kind == "large":
        return draw(st.integers(2, 2 ** 4000))
    base = 10 if kind == "ten" else 2
    return max(2, base ** draw(st.integers(1, 400)) + draw(st.sampled_from([0, 0, -1, 1])))


def _iv_sum(terms, dps=60):
    """Exact ends (as Fractions) of an mpmath interval at dps digits enclosing
    sum(coef * log(b) / log(base)) over (coef, b, base) terms."""
    iv = mpmath.iv
    old = iv.dps
    try:
        iv.dps = dps
        total = iv.mpf(0)
        for coef, b, base in terms:
            total += iv.mpf(coef) * iv.log(iv.mpf(b)) / iv.log(iv.mpf(base))
        return tuple(Fraction(*mpmath.libmp.to_rational(end)) for end in total._mpi_)
    finally:
        iv.dps = old


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(log_bases(), st.one_of(st.integers(1, 1000),
                                                   st.integers(1, 2 ** 80))),
                max_size=4))
def test_log10_interval_is_a_certified_two_ulp_enclosure(factors):
    value = BoundValue(factors)
    lo, hi = value.log10_interval()
    true_lo, true_hi = _iv_sum((e, b, 10) for b, e in value.factors)
    assert lo <= true_hi and true_lo <= hi
    assert hi <= math.nextafter(math.nextafter(lo, math.inf), math.inf)


@settings(max_examples=200, deadline=None)
@given(log_bases(), st.sampled_from([128, 256, 512, 1024]))
def test_log2_bounds_enclose_the_scaled_logarithm(base, prec):
    lo, hi = boundvalue._log2_bounds(base, prec)
    # 2^1024 * log2(2^4000) < 10^313, so 400 digits resolve far below a unit
    true_lo, true_hi = _iv_sum([(2 ** prec, base, 2)], dps=400)
    assert lo <= true_hi and true_lo <= hi
    assert hi - lo <= 2
    if base & (base - 1) == 0:
        assert lo == hi == (base.bit_length() - 1) << prec


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
    sys.set_int_max_str_digits(0)
    want = str(7 ** 2000)
    sys.set_int_max_str_digits(640)
    text = BoundValue.from_int(7).pow(2000).render()
    assert len(text) == 1691 and text == want
    # raised for the one conversion only: the limit also guards int(str)
    assert sys.get_int_max_str_digits() == 640


def test_decimal_leaves_the_str_digit_limit_as_it_found_it(int_str_limit):
    value = 7 ** 10000
    assert value.bit_length() <= boundvalue._DECIMAL_SPLIT_BITS
    sys.set_int_max_str_digits(0)
    want = str(value)
    assert len(want) == 8451
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    assert boundvalue.decimal(value) == want
    assert sys.get_int_max_str_digits() == 4300


def test_bases_past_the_str_digit_limit_render_and_serialise(int_str_limit):
    base = 7 ** 6000  # 5071 digits
    sys.set_int_max_str_digits(0)
    text = str(base)
    past_cap = BoundValue.from_int(base) * BoundValue.from_int(2).pow(10 ** 7)
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    assert past_cap.to_json()["factors"] == [["2", "10000000"], [text, "1"]]
    sys.set_int_max_str_digits(4300)
    assert past_cap.render().startswith(f"2^10000000 * {text} (~10^[")


def test_decimal_matches_str_on_both_sides_of_the_split(int_str_limit):
    sys.set_int_max_str_digits(0)
    split = boundvalue._DECIMAL_SPLIT_BITS
    rng = random.Random(8)
    sizes = [1, 64, split - 1, split, split + 1, 2 * split, 100_003, 400_000]
    for bits in sizes:
        for value in (rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1, 1 << bits):
            assert boundvalue.decimal(value) == str(value)
    value = rng.getrandbits(3 * split)
    assert boundvalue.decimal(-value) == str(-value)
    assert boundvalue.decimal(0) == "0"
    assert boundvalue.decimal(10 ** 20_000) == "1" + "0" * 20_000


def test_decimal_to_int_inverts_decimal_product_on_both_sides_of_its_leaf():
    leaf = boundvalue._DECIMAL_TO_INT_LEAF
    rng = random.Random(9)
    for digits in (1, leaf - 1, leaf, leaf + 1, 2 * leaf + 1, 20_011, 218_000):
        for value in (rng.randrange(10 ** (digits - 1), 10 ** digits), 10 ** digits - 1,
                      10 ** digits):
            d = boundvalue._decimal_product([(value, 1)])
            got = boundvalue._decimal_to_int(d)
            assert type(got) is int and got == value, digits
    assert boundvalue._decimal_to_int(boundvalue._decimal_product([])) == 1


@pytest.mark.parametrize("leaf", [1, 2, 3, 7])
def test_decimal_to_int_splits_down_to_any_leaf(monkeypatch, leaf):
    monkeypatch.setattr(boundvalue, "_DECIMAL_TO_INT_LEAF", leaf)
    rng = random.Random(leaf)
    for digits in (1, 2, 9, 10, 11, 999):
        value = rng.randrange(10 ** (digits - 1), 10 ** digits)
        for v in (value, 10 ** digits, 10 ** digits - 1):
            assert boundvalue._decimal_to_int(boundvalue._decimal_product([(v, 1)])) == v


def test_render_of_a_value_past_the_split_leaves_the_str_digit_limit(int_str_limit):
    sys.set_int_max_str_digits(0)
    value = 3 ** 419_179
    want = str(value)
    assert len(want) == 200_000
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    bound = BoundValue.from_int(3).pow(419_179)
    assert bound.render() == want
    assert BoundValue.from_int(value).to_json()["decimal"] == want
    assert sys.get_int_max_str_digits() == 4300


def _renders_like_to_int(value, max_digits):
    """render() and to_json()["decimal"] agree with to_int() at this cap;
    True when the value expands."""
    exact = value.to_int(max_digits)
    text = value.to_json(max_digits)["decimal"]
    shown = value.render(max_digits)
    if exact is None:
        assert text is None and shown.endswith("])")
        return False
    sys.set_int_max_str_digits(0)
    assert text == shown == str(exact)
    return True


SPLIT_CASES = [
    BoundValue([(2, 300), (3, 100), (7, 2)]),
    BoundValue([(3, 12_000), (7, 5_000)]),  # 39,000 bits: below the split
    BoundValue([(3, 13_000), (7, 5_000)]),  # 41,000 bits: past it
    BoundValue([(3, 20_000), (7, 5_000), (11, 3)]),
    BoundValue([(7 ** 15_000, 2)]),  # a 42,117-bit base, squared
    BoundValue([(7 ** 15_000, 2), (3, 5)]),
    BoundValue.from_int(7 ** 15_000),
]


@pytest.mark.parametrize("value", SPLIT_CASES)
def test_render_and_json_expand_exactly_on_both_sides_of_the_split(int_str_limit, value):
    sys.set_int_max_str_digits(0)
    digits = len(str(value.to_int()))
    assert _renders_like_to_int(value, 1_000_000)
    # digit counts exactly at the cap and one past it
    assert _renders_like_to_int(value, digits)
    assert not _renders_like_to_int(value, digits - 1)


def test_a_straddling_digit_cap_is_decided_exactly_past_the_split(int_str_limit):
    k = 13_000  # 10^k has 43,186 bits
    below = BoundValue.from_int(10 ** k - 1)  # k digits
    power = BoundValue([(2, k), (5, k)])  # 10^k: k + 1 digits
    for value in (below, power):
        # at a cap of k digits the certified logarithm cannot tell: only the
        # expansion decides
        assert value._past_cap(k) is True
    assert _renders_like_to_int(below, k)
    assert not _renders_like_to_int(power, k)
    assert _renders_like_to_int(power, k + 1)
    assert not _renders_like_to_int(below, k - 1)


# --- input validation -----------------------------------------------------------


@pytest.mark.parametrize("factors", [
    [(2.9, 3)], [(2, 3.0)], [(8.0, 1)], [("12", 1)], [(2, "3")],
    [(True, 1)], [(2, True)], [(2, False)], [(None, 1)],
])
def test_non_integer_factors_are_refused(factors):
    with pytest.raises(ValueError, match="must be ints"):
        BoundValue(factors)


@pytest.mark.parametrize("n", [7.5, 7.0, "12", True, False, None])
def test_from_int_refuses_non_integers(n):
    with pytest.raises(ValueError, match="takes an int"):
        BoundValue.from_int(n)


def test_from_int_builds_its_one_factor():
    assert BoundValue.from_int(12).factors == ((12, 1),)
    assert BoundValue.from_int(1).factors == () and BoundValue.from_int(1) == ONE
    for n in (0, -3):
        with pytest.raises(ValueError, match=">= 1"):
            BoundValue.from_int(n)
    for n in (2, 3, 255, 256, 2 ** 64 + 1):
        value = BoundValue.from_int(n)
        assert (value._low_bits, value._bits) == (n.bit_length() - 1, n.bit_length())


@pytest.mark.parametrize("exponent", [2.9, 2.0, "2", True, None])
def test_pow_refuses_non_integer_exponents(exponent):
    with pytest.raises(ValueError, match="must be an int"):
        BoundValue.from_int(5).pow(exponent)
    with pytest.raises(ValueError, match="must be an int"):
        BoundValue.from_int(5) ** exponent


def test_bools_and_floats_are_not_coerced():
    assert (BoundValue.from_int(1) == True) is False  # noqa: E712
    assert BoundValue.from_int(3) == 3
    with pytest.raises(TypeError):
        BoundValue.from_int(2) * 2.0
    with pytest.raises(TypeError):
        BoundValue.from_int(2).compare(True)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2 ** 70), st.integers(0, 40)), max_size=4),
       st.integers(0, 5))
def test_bit_bounds_are_kept_through_arithmetic(factors, k):
    value = BoundValue(factors)
    for v in (value, value * value, value.pow(k), value * BoundValue.from_int(k + 1)):
        exact = v.to_int()
        assert 2 ** v._low_bits <= exact <= 2 ** v._bits
        assert v._bits == sum(e * b.bit_length() for b, e in v.factors)
        assert v._low_bits == sum(e * (b.bit_length() - 1) for b, e in v.factors)


# --- repr past the int -> str digit limit ---------------------------------------


def test_repr_of_a_base_past_the_str_digit_limit(int_str_limit):
    base = 7 ** 6000  # 5071 digits
    sys.set_int_max_str_digits(0)
    want = f"BoundValue([(2, 10000000), ({base}, 3)])"
    value = BoundValue([(base, 3), (2, 10 ** 7)])
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    assert repr(value) == want
    assert sys.get_int_max_str_digits() == 4300
    assert repr(BoundValue([(2, 3), (3, 1)])) == "BoundValue([(2, 3), (3, 1)])"
    assert repr(ONE) == "BoundValue([])" and repr(INF) == "BoundValue.INF"


# --- one rendering path ---------------------------------------------------------


@st.composite
def rendered_values(draw):
    """Values of one to four factors, at most about 60,000 bits, with small
    bases, bases near and past the 2,048-bit leaf, and exponent 1 or more."""
    factors, budget = [], 60_000
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["small", "medium", "leaf", "large"]))
        if kind == "small":
            base = draw(st.integers(2, 1000))
        elif kind == "medium":
            base = draw(st.integers(2, 2 ** 1500))
        elif kind == "leaf":
            base = draw(st.integers(2 ** 2040, 2 ** 2056))
        else:
            base = draw(st.integers(2 ** 2048, 2 ** 12_000))
        most = max(1, budget // (2 * base.bit_length()))
        exp = draw(st.integers(1, min(most, 50) if kind != "small" else most))
        budget -= exp * base.bit_length()
        factors.append((base, exp))
        if budget <= 0:
            break
    return BoundValue(factors)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rendered_values())
def test_render_and_json_take_their_strings_from_one_conversion(int_str_limit, value):
    sys.set_int_max_str_digits(0)
    exact = str(value._expand())
    digits = len(exact)
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    bases = [[boundvalue.decimal(b), boundvalue.decimal(e)] for b, e in value.factors]
    for cap in (1_000_000, digits):
        data = value.to_json(cap)
        assert value.render(cap) == data["decimal"] == exact
        assert data["factors"] == bases
    data = value.to_json(digits - 1)
    assert data["decimal"] is None and value.render(digits - 1).endswith("])")
    assert data["factors"] == bases
    assert sys.get_int_max_str_digits() == 4300


# --- small values compare as ints -----------------------------------------------


def _sign(a: int, b: int) -> int:
    return (a > b) - (a < b)


def _near_ties(bits):
    """Pairs one unit apart and equal pairs written differently, whose
    larger member has `bits` bits."""
    top = (1 << bits) - 1  # bits bits, as one int
    three = 3 ** math.floor((bits - 1) / math.log2(3))
    return [
        (BoundValue.from_int(top), BoundValue.from_int(top - 1)),
        (BoundValue.from_int(1 << (bits - 1)), BoundValue.from_int((1 << (bits - 1)) + 1)),
        (BoundValue([(2, 1), (1 << (bits - 2), 1)]), BoundValue.from_int((1 << (bits - 1)) - 1)),
        (BoundValue.from_int(three), BoundValue.from_int(three + 1)),
        (BoundValue.from_int(three - 1), BoundValue.from_int(three)),
        (BoundValue.from_int(6) * BoundValue.from_int(top // 6),
         BoundValue.from_int(6 * (top // 6))),
    ]


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_near_ties_at_the_small_value_threshold_match_int(offset):
    bits = boundvalue._SMALL_BITS + offset
    pairs = _near_ties(bits)
    assert pairs[0][0]._bits == bits  # on the side of the threshold meant
    for a, b in pairs:
        ia, ib = a._expand(), b._expand()
        assert a.compare(b) == _sign(ia, ib) and b.compare(a) == _sign(ib, ia)
        assert (a == b) == (ia == ib) and (b == a) == (ia == ib)


def test_equal_values_written_differently_compare_equal():
    forms = [BoundValue([(4, 3)]), BoundValue([(2, 6)]), BoundValue([(8, 2)]),
             BoundValue.from_int(64), BoundValue([(2, 2), (4, 2)])]
    for a in forms:
        for b in forms:
            assert a == b and a.compare(b) == 0
    # the same past the threshold, where the coprime basis decides
    big = [BoundValue([(4, 3000)]), BoundValue([(2, 6000)]), BoundValue([(8, 2000)])]
    assert all(v._bits > boundvalue._SMALL_BITS for v in big)
    for a in big:
        for b in big:
            assert a == b and a.compare(b) == 0


def test_small_values_compare_without_basis_or_logarithm(monkeypatch):
    def refuse(*args):
        raise AssertionError("coprime basis or logarithm taken")

    monkeypatch.setattr(boundvalue, "_log2_bounds", refuse)
    monkeypatch.setattr(boundvalue, "_coprime_basis", refuse)
    a = BoundValue([(3, 1000), (5, 2)])  # 1,591 bits
    b = BoundValue([(2, 1580), (7, 1)])
    assert a.compare(b) == _sign(a._expand(), b._expand())
    assert BoundValue([(9, 50)]) == BoundValue([(3, 100)])
    assert BoundValue([(6, 2)]).compare(BoundValue([(4, 1), (9, 1)])) == 0


def test_values_past_the_small_value_threshold_are_never_expanded(monkeypatch):
    expand = BoundValue._expand

    def guarded(self):
        if self._bits > boundvalue._SMALL_BITS:
            raise AssertionError("a value past the threshold was expanded")
        return expand(self)

    monkeypatch.setattr(BoundValue, "_expand", guarded)
    three = BoundValue([(3, 3000)])  # 4,755 bits
    two = BoundValue([(2, 4755)])  # 3^3000 < 2^4755
    assert three._bits > boundvalue._SMALL_BITS
    assert three.compare(two) == -1 and two.compare(three) == 1
    assert three != two and two != three
    assert BoundValue([(4, 3000)]).compare(BoundValue([(2, 6000)])) == 0
    small = BoundValue.from_int(2 ** 100)
    assert three.compare(small) == 1 and small.compare(three) == -1
    assert min(two, three) == three
