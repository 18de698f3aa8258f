"""Exact coefficient fields: prime fields F_p and the rationals.

Prime-field elements are plain Python ints in [0, p); rational elements are
``fractions.Fraction``.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

#: Default modulus: the largest 31-bit prime.  A field this large reproduces
#: characteristic-zero generic behaviour at desk scale with overwhelming
#: probability while keeping coefficients machine-word sized.
DEFAULT_PRIME = 2147483647

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test (exact for all n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic in F_p for a prime p < 2**31.

    Generic initial ideals need p above the degrees of their generators:
    otherwise a gin is only p-Borel, and ``gin`` raises
    ``CharacteristicTooSmall`` when its result is not Borel-fixed with p at
    most its largest generator degree.  The default prime lies far above
    any degree a computation here reaches."""

    __slots__ = ("p",)

    is_prime_field = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not 2 <= p < 2**31:
            raise ValueError(f"modulus must satisfy 2 <= p < 2**31, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"fp:{self.p}"

    def of(self, value):
        """Coerce an int or Fraction into the field."""
        if isinstance(value, Fraction):
            return value.numerator % self.p * self.inv(value.denominator % self.p) % self.p
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def format(self, a) -> str:
        # symmetric representatives read better in reports
        return str(a - self.p if a > self.p // 2 else a)

    def parse(self, text: str):
        if "/" in text:
            num, den = text.split("/")
            return self.of(Fraction(int(num), int(den)))
        return int(text) % self.p


class RationalField:
    """Exact rational arithmetic via fractions.Fraction."""

    __slots__ = ()

    is_prime_field = False
    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("qq")

    def __repr__(self):
        return "qq"

    def of(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def random(self, rng):
        # bounded integers keep coordinate changes and sampled forms exact but small
        return Fraction(rng.randint(-10**6, 10**6))

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return Fraction(text)


QQ = RationalField()
FP_DEFAULT = PrimeField(DEFAULT_PRIME)


def field_from_spec(spec: str):
    """Parse a field descriptor: ``fp:<p>``, ``fp`` (default prime), or ``qq``."""
    spec = spec.strip().lower()
    if spec == "qq":
        return QQ
    if spec == "fp":
        return FP_DEFAULT
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r} (expected fp:<p> or qq)")
