"""Coefficient ring canonicalization and unit arithmetic."""
import contextlib
import operator
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle as dense
from hopfdual.errors import NotInvertible
from hopfdual.rings import MAX_DIGITS, QQ, ZZ, Zmod, ring_from_descriptor

# the interpreter's own int/str digit limit (None) and, where it can be set
# (Python >= 3.11), no limit, the smallest allowed, and the default
DIGIT_LIMITS = [None] + ([0, 640, 4300] if hasattr(sys, "set_int_max_str_digits") else [])


@contextlib.contextmanager
def int_digit_limit(limit):
    """Run with ``sys.set_int_max_str_digits(limit)``, restored afterwards."""
    if limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_modulus_must_be_at_least_two():
    with pytest.raises(ValueError):
        Zmod(1)
    with pytest.raises(ValueError):
        Zmod(0)


def test_canonical_residues():
    r = Zmod(6)
    assert r.of(-1) == 5
    assert r.of(6**20 + 1) == 1
    assert r.of("13") == 1
    with pytest.raises(TypeError):
        r.of(True)
    assert r.add(4, 5) == 3
    assert r.neg(2) == 4


def test_rational_canonical_form():
    assert QQ.of("4/6") == Fraction(2, 3)
    assert QQ.show(QQ.of("-4/6")) == "-2/3"
    assert QQ.show(QQ.of(5)) == "5"
    assert QQ.of("7/2") == Fraction(7, 2)
    assert QQ.of("-8/4") == -2 and type(QQ.of("-8/4")) is int
    assert QQ.zero == 0 and QQ.one == 1 and type(QQ.zero) is type(QQ.one) is int


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(7)])
@pytest.mark.parametrize("text", ["1e6", "1.5", "0x10", "1_000", " 12", "12\n", "٣",
                                  "+", "", "1/2/3", "inf", "nan"])
def test_element_strings_outside_the_grammar_are_rejected(ring, text):
    with pytest.raises(ValueError):
        ring.of(text)


def test_rational_strings_in_the_grammar():
    assert [QQ.of(t) for t in ("-3", "+3", "007", "-6/4", "+0/5")] == \
        [-3, 3, 7, Fraction(-3, 2), 0]
    with pytest.raises(ValueError):
        ZZ.of("6/3")
    with pytest.raises(ZeroDivisionError):
        QQ.of("1/0")


@pytest.mark.parametrize("limit", DIGIT_LIMITS)
def test_constants_are_capped_at_the_library_digit_limit(limit):
    ones = (10 ** MAX_DIGITS - 1) // 9  # MAX_DIGITS ones
    with int_digit_limit(limit):
        assert MAX_DIGITS == 4300
        assert ZZ.of("1" * MAX_DIGITS) == ones
        assert ZZ.of("-" + "1" * MAX_DIGITS) == -ones
        assert Zmod(7).of("+" + "1" * MAX_DIGITS) == ones % 7
        assert QQ.of("1" * MAX_DIGITS + "/" + "3" * MAX_DIGITS) == Fraction(1, 3)
        for ring, text in ((ZZ, "1" * 4301), (Zmod(7), "-" + "1" * 4301),
                           (QQ, "1" * 4301), (QQ, "1/" + "0" * 4300 + "1"),
                           (QQ, "1" * 4301 + "/3")):
            with pytest.raises(ValueError, match="4301 digits, more than 4300"):
                ring.of(text)


def test_integer_units():
    assert ZZ.is_unit(-1)
    assert not ZZ.is_unit(2)
    with pytest.raises(NotInvertible):
        ZZ.inv(2)


def test_modular_units_composite():
    r = Zmod(6)
    assert r.is_unit(5)
    assert not r.is_unit(2)
    assert not r.is_unit(3)
    assert r.inv(5) == 5
    assert Zmod(5).inv(2) == 3


def test_ring_equality_and_descriptors():
    assert Zmod(6) == Zmod(6)
    assert Zmod(6) != Zmod(5)
    assert ZZ != QQ
    for ring in (ZZ, QQ, Zmod(7)):
        assert ring_from_descriptor(ring.describe()) == ring


def test_strings_round_trip():
    assert ZZ.of(ZZ.show(10**30 + 7)) == 10**30 + 7
    assert Zmod(9).of("16") == 7


def _prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_field_flags():
    assert not ZZ.is_field
    assert QQ.is_field
    assert [n for n in range(2, 2001) if Zmod(n).is_field] == \
        [n for n in range(2, 2001) if _prime_by_trial_division(n)]


def test_large_moduli_decided_quickly():
    p, q = 2**40 - 87, 2**40 - 167  # two 40-bit primes
    start = time.perf_counter()
    assert Zmod(2**61 - 1).is_field
    assert Zmod(p).is_field and Zmod(q).is_field
    assert not Zmod(p * q).is_field
    # prime, but past the bound where the test is exact: the Smith path
    assert not Zmod(2**89 - 1).is_field
    assert time.perf_counter() - start < 0.5


def test_strong_pseudoprimes_are_composite():
    # the least composites that pass Miller–Rabin on the first 1, 4 and 12
    # prime bases; only base 41 rejects the last one
    for n in (2047, 3215031751, 318665857834031151167461):
        assert not Zmod(n).is_field


# integral, non-integral, negative and large rationals, in canonical form
rationals = st.one_of(
    st.integers(-10, 10),
    st.integers(-2**80, 2**80),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**40)),
).map(QQ.of)


@given(st.sampled_from([(QQ.add, operator.add), (QQ.sub, operator.sub),
                        (QQ.mul, operator.mul)]), rationals, rationals)
def test_rational_ops_equal_the_fraction_operators(ops, a, b):
    ours, plain = ops
    got, want = ours(a, b), plain(a, b)
    assert got == want
    # an integral rational is an int, any other a Fraction
    assert type(got) is (int if want.denominator == 1 else Fraction)


@given(rationals, rationals, st.lists(rationals, max_size=5))
def test_rational_ops_equal_the_fraction_oracle(a, b, u):
    # every op agrees with the all-Fraction ring in value and hash, and returns
    # the canonical form: an int exactly when the denominator is 1
    oracle = dense.FractionRing()
    calls = [("of", (a,)), ("of", (Fraction(a),)), ("of", (str(a),)),
             ("add", (a, b)), ("sub", (a, b)), ("mul", (a, b)), ("neg", (a,))]
    if b:
        calls.append(("inv", (b,)))
    for name, args in calls:
        boxed = [arg if isinstance(arg, str) else Fraction(arg) for arg in args]
        got, want = getattr(QQ, name)(*args), getattr(oracle, name)(*boxed)
        assert got == want and hash(got) == hash(want), name
        assert dense.is_canonical(QQ, got), name
    # so does a running sum of ``u``, added one op at a time
    got = dense.ring_sum(QQ, u)
    want = dense.ring_sum(oracle, map(Fraction, u))
    assert got == want and hash(got) == hash(want)
    assert dense.is_canonical(QQ, got)
    assert QQ.show(a) == oracle.show(Fraction(a))
