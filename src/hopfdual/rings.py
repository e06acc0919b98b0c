"""Exact coefficient rings: integers, rationals, and integers mod n.

Elements are plain Python values kept in canonical form: ``int`` for the
integers, residues in ``[0, n)`` for the integers mod n, and for the
rationals an ``int`` when the value is integral and a ``fractions.Fraction``
(lowest terms, positive denominator, denominator > 1) when it is not.  So Z
embeds in Q as the identity on elements, integral rational arithmetic is
plain ``int`` arithmetic, and ``Fraction(n) == n`` with equal hashes keeps
equality and hashing exact across both forms.  Ring objects are immutable
and compare by kind (and modulus).

Element strings are decimal integers (``[+-]?digits``) and, over Q,
``[+-]?digits/digits``, each run of digits at most :data:`MAX_DIGITS` long;
anything else is a ``ValueError``.  The cap is the library's own and holds on
every Python version: the digits are read in chunks that ``int`` accepts
under any ``sys.set_int_max_str_digits`` limit.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import NotInvertible

Elem = Union[int, Fraction]


class Ring:
    """Common interface of the three supported coefficient rings."""

    kind: str = ""
    is_field: bool = False

    @property
    def zero(self) -> Elem:
        raise NotImplementedError

    @property
    def one(self) -> Elem:
        raise NotImplementedError

    def of(self, value) -> Elem:
        """Coerce ``value`` (int, Fraction, or decimal / p-over-q string) to canonical form."""
        raise NotImplementedError

    def add(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def sub(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def mul(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def neg(self, a: Elem) -> Elem:
        raise NotImplementedError

    def is_unit(self, a: Elem) -> bool:
        raise NotImplementedError

    def inv(self, a: Elem) -> Elem:
        raise NotImplementedError

    def is_zero(self, a: Elem) -> bool:
        return a == self.zero

    def is_one(self, a: Elem) -> bool:
        return a == self.one

    def show(self, a: Elem) -> str:
        return str(a)

    def describe(self) -> dict:
        """JSON-ready descriptor, inverse of :func:`ring_from_descriptor`."""
        return {"kind": self.kind}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.kind


class IntegerRing(Ring):
    kind = "integers"

    zero = 0
    one = 1

    def of(self, value) -> int:
        if type(value) is int:
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not an integer ring element")
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            return read_decimal(value)
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        raise TypeError(f"not an integer: {value!r}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible(f"{a} is not a unit in Z", determinant=a)
        return a

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("integers")


class RationalRing(Ring):
    kind = "rationals"
    is_field = True

    zero = 0
    one = 1

    def of(self, value) -> Elem:
        if type(value) is int:
            return value
        if isinstance(value, str):
            if not _RATIONAL.fullmatch(value):
                raise ValueError(f"not a decimal integer or p/q: {value!r}")
            return _canonical(Fraction(*map(read_decimal, value.split("/"))))
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"not a rational: {value!r}")
        return _canonical(Fraction(value))

    def is_zero(self, a):
        return not a

    # int ∘ int stays int; any other result is normalised once
    def add(self, a, b):
        q = a + b
        return q if type(q) is int else _canonical(q)

    def sub(self, a, b):
        q = a - b
        return q if type(q) is int else _canonical(q)

    def mul(self, a, b):
        q = a * b
        return q if type(q) is int else _canonical(q)

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 is not a unit in Q", determinant=a)
        return _canonical(Fraction(1, a))

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("rationals")


def _canonical(q: Fraction) -> Elem:
    return q.numerator if q.denominator == 1 else q


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


MAX_DIGITS = 4300
_CHUNK = 600  # digits per int() call: no int_max_str_digits limit is below 640


def read_decimal(text: str) -> int:
    """The integer of a ``[+-]?digits`` string of at most :data:`MAX_DIGITS`
    digits, else ``ValueError``; also the instance parser's reader for bare
    JSON integers."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    digits = text.lstrip("+-")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"a decimal integer of {len(digits)} digits, "
                         f"more than {MAX_DIGITS}")
    value = 0
    for k in range(0, len(digits), _CHUNK):
        chunk = digits[k:k + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text[0] == "-" else value


class ModularRing(Ring):
    """Integers mod ``n`` with ``n >= 2`` (so that 1 != 0)."""

    kind = "integers_mod"

    def __init__(self, n: int):
        if type(n) is not int or n < 2:
            raise ValueError(f"modulus must be an integer >= 2, not {n!r}")
        self.n = n
        self.is_field = _is_prime(n)

    zero = 0
    one = 1

    def of(self, value) -> int:
        if type(value) is int:
            return value % self.n
        if isinstance(value, bool):
            raise TypeError("bool is not a modular ring element")
        if isinstance(value, str):
            value = read_decimal(value)
        if isinstance(value, Fraction):
            if value.denominator == 1:
                value = int(value)
            else:
                raise TypeError(f"not a residue: {value!r}")
        if not isinstance(value, int):
            raise TypeError(f"not a residue: {value!r}")
        return value % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def is_unit(self, a):
        return math.gcd(a % self.n, self.n) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible(f"{a} is not a unit in Z/{self.n}", determinant=a)
        return pow(a % self.n, -1, self.n)

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n}

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.n == self.n

    def __hash__(self):
        return hash(("integers_mod", self.n))

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Z/{self.n}"


# Miller–Rabin with the primes up to 41 as bases is exact below _MR_BOUND
# (Sorenson and Webster, Math. Comp. 86, 2017).  Larger moduli count as
# composite, which only keeps them on the general Z/n path.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n >= _MR_BOUND or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d·2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(n: int) -> ModularRing:
    return ModularRing(n)


def ring_from_descriptor(desc: dict) -> Ring:
    """Rebuild a ring from its :meth:`Ring.describe` dictionary."""
    kind = desc.get("kind")
    if kind == "integers":
        return ZZ
    if kind == "rationals":
        return QQ
    if kind == "integers_mod":
        return Zmod(desc["n"])
    raise ValueError(f"unknown ring kind: {kind!r}")
