"""Exact base fields.

Two fields are supported behind one small protocol: the rationals (elements
are ``fractions.Fraction``, so lowest terms and positive denominators come
for free) and prime fields GF(p) with canonical representatives in [0, p).
A field handle builds, parses and formats its elements and owns the
integer coding that ``linalg.Matrix`` stores: ``encode_rows`` turns sparse
rows ``{col: element}`` into (codes, scale) pairs (a rational row times the
lcm of its denominators, and that lcm; a GF(p) row's representatives, and
1), ``characteristic`` says whether codes live in Z (0) or mod p, and
``decode`` turns a code over a scale back into an element.  Both run only
where a matrix meets elements.  All other arithmetic goes through the
elements' own operators.

Zero protocol: an element is zero exactly when it is falsy (``Fraction``
and ``PrimeFieldElement`` both define ``__bool__`` that way), so code tests
``if x`` / ``if not x`` and never compares with ``field.zero``, which serves
only as a value (a fill, a default or the start of a sum).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FormatError

# Longest numerator or denominator accepted from a file; CPython's default
# limit on int <-> str conversion, so every parsed value can be written back.
MAX_DIGITS = 4300

# Prime field moduli must lie below this bound; Miller-Rabin with the prime
# bases up to 37 is deterministic for every n < 3.1e23, far beyond it.
MAX_MODULUS = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Coefficient grammars, ASCII digits only ([0-9] never matches other scripts'
# digits): an integer, and over Q also a fraction or a plain decimal.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")
# Field tags: exactly "Q", or "GF(p)" with p in ASCII decimal, no sign, no
# leading zero and at most 20 digits (every modulus below 2^64 fits).
_FIELD_TAG = re.compile(r"Q|GF\(([1-9][0-9]{0,19})\)")


def _coefficient(s, grammar: re.Pattern, kind: str) -> str:
    """str(s) if it matches grammar with at most MAX_DIGITS characters a part
    (a decimal point counts: 10^k, the denominator of k decimals, has k + 1
    digits), checked before any integer is built; else FormatError."""
    s = str(s)
    if grammar.fullmatch(s) and all(len(part.lstrip("-")) <= MAX_DIGITS for part in s.split("/")):
        return s
    raise FormatError(f"bad {kind} coefficient {s[:40]!r}: expected {grammar.pattern}, "
                      f"ASCII digits only, at most {MAX_DIGITS} a part")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for 0 <= n < MAX_MODULUS."""
    if n < 2 or any(n % q == 0 for q in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
        for a in _WITNESSES
    )


class PrimeFieldElement:
    """An element of GF(p), stored as its canonical representative."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _check(self, other: "PrimeFieldElement") -> None:
        if not isinstance(other, PrimeFieldElement) or other.p != self.p:
            raise TypeError(f"mixed-field arithmetic: GF({self.p}) vs {other!r}")

    def __add__(self, other):
        self._check(other)
        return PrimeFieldElement(self.p, self.v + other.v)

    def __sub__(self, other):
        self._check(other)
        return PrimeFieldElement(self.p, self.v - other.v)

    def __mul__(self, other):
        self._check(other)
        return PrimeFieldElement(self.p, self.v * other.v)

    def __truediv__(self, other):
        self._check(other)
        if other.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return PrimeFieldElement(self.p, self.v * pow(other.v, self.p - 2, self.p))

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.v)

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldElement)
            and other.p == self.p
            and other.v == self.v
        )

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class RationalField:
    """The field of rationals; elements are Fraction instances."""

    name = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def encode_rows(self, rows) -> list[tuple[dict[int, int], int]]:
        """Per sparse row, (its entries times the lcm of their denominators, that lcm)."""
        out = []
        for row in rows:
            lcm = math.lcm(*(x.denominator for x in row.values()))
            out.append(({j: x.numerator * (lcm // x.denominator) for j, x in row.items()}, lcm))
        return out

    def decode(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def parse(self, s: str) -> Fraction:
        try:
            return Fraction(_coefficient(s, _RATIONAL, "rational"))
        except ZeroDivisionError as exc:
            raise FormatError(f"rational coefficient {str(s)[:40]!r} has denominator 0") from exc

    def format(self, x: Fraction) -> str:
        return str(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """GF(p) for a prime p."""

    def __init__(self, p: int):
        if not 2 <= p < MAX_MODULUS:
            raise FormatError(f"GF(p) needs 2 <= p < 2^64, got {str(p)[:40]}")
        if not _is_prime(p):
            raise FormatError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.zero = PrimeFieldElement(p, 0)
        self.one = PrimeFieldElement(p, 1)

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def of(self, n) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, int(n))

    def encode_rows(self, rows) -> list[tuple[dict[int, int], int]]:
        """Per sparse row, (its canonical representatives, scale 1)."""
        return [({j: x.v for j, x in row.items()}, 1) for row in rows]

    def decode(self, num: int, den: int) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, num * pow(den, -1, self.p))

    def parse(self, s: str) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, int(_coefficient(s, _INTEGER, f"GF({self.p})")))

    def format(self, x: PrimeFieldElement) -> str:
        return str(x.v)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_by_name(name: str):
    """Resolve a field tag, "Q" or "GF(p)" in the grammar of _FIELD_TAG, to a
    field handle; FormatError for any other string."""
    m = _FIELD_TAG.fullmatch(name)
    if m is None:
        raise FormatError(f"bad field tag {name[:40]!r}: expected {_FIELD_TAG.pattern}")
    return PrimeField(int(m[1])) if m[1] else QQ
