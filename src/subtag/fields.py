"""Arithmetic for a two-level tower of finite fields.

The tagging protocol works over an extension F_{q^l} of a base field
F_q = F_p[x]/(f).  Elements at both levels are stored as plain integer
indices: a base-field symbol 0..q-1 encodes its coefficient vector in
base p, and an extension element 0..q^l-1 encodes its coordinate vector
over F_q in base q.  The public identification of F_q^l with F_{q^l} is
therefore literally digit decomposition in the polynomial basis
1, a, ..., a^{l-1}, with the first unit vector mapping to 1.

How each field adds and negates indices:

* characteristic 2 (``BaseField(2, m)`` and every ``ExtField`` over it):
  the base-2 digits of an index are its coefficients at both levels, so
  addition is XOR and negation is the identity; no add table is built;
* odd p, tabulated (every ``BaseField``, and an ``ExtField`` of order at
  most ``_MUL_TABLE_MAX``): negation is a lookup in a length-order table
  built once; addition is a lookup in an order x order table when the
  order is at most ``_ADD_TABLE_MAX``, mod p in a prime field, and
  digit by digit otherwise;
* odd p, untabulated ``ExtField``: digit by digit over the base field.

Multiplication and inversion use discrete-log tables whenever the field
is small enough to tabulate (the common case here).  Otherwise a product
is the schoolbook product of the two coordinate vectors, folded back with
the monic modulus (x^l = -sum m_k x^k), and an inverse comes from the
norm: x^-1 = (x^q x^(q^2) ... x^(q^(l-1))) N(x)^-1, where
N(x) = x x^q ... x^(q^(l-1)) lies in F_q.  The q-power Frobenius map on
the extension is precomputed once as an l x l matrix over F_q, since tag
verification and the norm apply it in a chain.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidParams,
    InvariantViolated,
    LengthMismatch,
)

__all__ = [
    "BaseField",
    "ExtField",
    "FieldElement",
    "frobenius",
    "iso_vec",
    "linearized_eval",
    "moore_matrix",
]

# Guard bounds.  Base fields must stay tabulatable so that exhaustive
# oracles elsewhere in the package remain exact.
MAX_BASE_ORDER = 1 << 16
_MUL_TABLE_MAX = 1 << 16
_ADD_TABLE_MAX = 1 << 10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n fits in a few bytes here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class _PrimeOps:
    """Index arithmetic on integers mod p, used while bootstrapping a base field."""

    __slots__ = ("order",)

    def __init__(self, p: int):
        self.order = p

    def add_idx(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def sub_idx(self, a: int, b: int) -> int:
        return (a - b) % self.order

    def neg_idx(self, a: int) -> int:
        return (-a) % self.order

    def mul_idx(self, a: int, b: int) -> int:
        return (a * b) % self.order


# -- little-endian polynomial helpers over a coefficient field ---------------
#
# ``ops`` is a _PrimeOps or a BaseField: anything with ``order``,
# ``sub_idx`` and ``mul_idx`` on coefficient indices.


def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_rem(num: Sequence[int], den: Sequence[int], ops) -> list[int]:
    """Remainder of num by the monic polynomial den."""
    rem = _poly_trim(list(num))
    dd = len(den) - 1
    while len(rem) - 1 >= dd:
        shift = len(rem) - 1 - dd
        coef = rem[-1]
        for i in range(dd + 1):
            if den[i]:
                rem[shift + i] = ops.sub_idx(rem[shift + i], ops.mul_idx(coef, den[i]))
        _poly_trim(rem)
    return rem


def _fold_terms(modulus: Sequence[int], neg) -> tuple[tuple[int, int], ...]:
    """(k, -m_k) for each nonzero lower coefficient of a monic modulus."""
    return tuple((k, neg(c)) for k, c in enumerate(modulus[:-1]) if c)


def _mul_mod(a: Sequence[int], b: Sequence[int], fold, add, mul) -> list[int]:
    """Coefficients of a*b modulo a monic degree-d modulus.

    a and b hold d coefficients each; ``fold`` comes from _fold_terms and
    rewrites x^d as -sum m_k x^k, from the top degree down.
    """
    d = len(a)
    prod = [0] * (2 * d - 1)
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b):
                if y:
                    prod[s + t] = add(prod[s + t], mul(x, y))
    for top in range(2 * d - 2, d - 1, -1):
        c = prod[top]
        if c:
            low = top - d
            for k, m in fold:
                prod[low + k] = add(prod[low + k], mul(c, m))
    return prod[:d]


def _index_digits(value: int, radix: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, d = divmod(value, radix)
        out.append(d)
    return tuple(out)


def _monic_from_value(value: int, radix: int, degree: int) -> tuple[int, ...]:
    """Monic degree-d polynomial whose lower coefficients encode ``value``."""
    return _index_digits(value, radix, degree) + (1,)


def _is_irreducible(poly: Sequence[int], ops) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for value in range(ops.order**d):
            div = _monic_from_value(value, ops.order, d)
            if not _poly_rem(poly, div, ops):
                return False
    return True


def _canonical_irreducible(degree: int, ops) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree.

    Candidates are ordered by the integer whose base-(field order) digits
    are the non-leading coefficients, constant term least significant.
    """
    for value in range(ops.order**degree):
        cand = _monic_from_value(value, ops.order, degree)
        if _is_irreducible(cand, ops):
            return cand
    raise InvalidParams(f"no irreducible polynomial of degree {degree} found")


class FieldElement:
    """An element of a BaseField or ExtField, identified by its index."""

    __slots__ = ("field", "index")

    def __init__(self, field: Union["BaseField", "ExtField"], index: int):
        self.field = field
        self.index = index

    @property
    def coords(self) -> tuple[int, ...]:
        return self.field.coords_of(self.index)

    def _peer(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise FieldMismatch(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._peer(other)
        return FieldElement(self.field, self.field.add_idx(self.index, other.index))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._peer(other)
        return FieldElement(self.field, self.field.sub_idx(self.index, other.index))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._peer(other)
        return FieldElement(self.field, self.field.mul_idx(self.index, other.index))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._peer(other)
        return FieldElement(self.field, self.field.div_idx(self.index, other.index))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow_idx(self.index, e))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg_idx(self.index))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_idx(self.index))

    def __bool__(self) -> bool:
        return self.index != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.index == self.index
        )

    def __hash__(self):
        return hash((self.field, self.index))

    def __repr__(self):
        coords = self.coords
        if len(coords) == 1:
            return f"{self.field.name}:{self.index}"
        return f"{self.field.name}:[" + " ".join(str(c) for c in coords) + "]"


class _TabulatedField:
    """Discrete-log tables, square-and-multiply and subtraction, shared by both levels.

    Subclasses provide ``order``, ``_char2`` (characteristic 2),
    ``_mul_raw`` (multiplication without tables), ``_neg_digits``
    (negation without tables) and the index operations ``add_idx``,
    ``neg_idx``, ``mul_idx`` and ``inv_idx``.
    """

    __slots__ = ()

    def _pow_raw(self, i: int, e: int) -> int:
        acc, base = 1, i
        while e:
            if e & 1:
                acc = self._mul_raw(acc, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return acc

    def _build_log_tables(self) -> None:
        n = self.order - 1
        gen = 1
        if n > 1:
            factors = _prime_factors(n)
            for cand in range(2, self.order):
                if all(self._pow_raw(cand, n // f) != 1 for f in factors):
                    gen = cand
                    break
        exp = [1] * n
        for i in range(1, n):
            exp[i] = self._mul_raw(exp[i - 1], gen)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    def _build_neg_table(self) -> None:
        self._neg = [self._neg_digits(i) for i in range(self.order)]

    def sub_idx(self, i: int, j: int) -> int:
        if self._char2:
            return i ^ j
        return self.add_idx(i, self.neg_idx(j))

    def div_idx(self, i: int, j: int) -> int:
        return self.mul_idx(i, self.inv_idx(j))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self) -> Iterator[FieldElement]:
        return (FieldElement(self, i) for i in range(self.order))


class BaseField(_TabulatedField):
    """F_q with q = p^m; symbols are integers 0..q-1 (base-p digit vectors)."""

    __slots__ = (
        "p",
        "m",
        "order",
        "modulus",
        "_char2",
        "_fold",
        "_exp",
        "_log",
        "_neg",
        "_add_table",
        "_hash",
    )

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise InvalidParams(f"characteristic {p} is not prime")
        if m < 1:
            raise InvalidParams("extension degree must be at least 1")
        order = p**m
        if order > MAX_BASE_ORDER:
            raise InvalidParams(f"base field order {order} exceeds {MAX_BASE_ORDER}")
        self.p = p
        self.m = m
        self.order = order
        ops = _PrimeOps(p)
        if modulus is None:
            mod = _canonical_irreducible(m, ops)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise InvalidParams("modulus must be monic of degree m")
            if not _is_irreducible(mod, ops):
                raise InvalidParams(f"modulus {mod} is reducible over GF({p})")
        self.modulus = mod
        self._hash = hash(("BaseField", p, m, mod))
        self._char2 = p == 2
        self._fold = _fold_terms(mod, ops.neg_idx)
        self._neg = None
        self._add_table = None
        if not self._char2:
            self._build_neg_table()
            if m > 1 and order <= _ADD_TABLE_MAX:
                self._add_table = [
                    [self._add_digits(i, j) for j in range(order)] for i in range(order)
                ]
        self._build_log_tables()

    # -- raw digit arithmetic ------------------------------------------

    def coords_of(self, index: int) -> tuple[int, ...]:
        return _index_digits(index, self.p, self.m)

    def _from_digits(self, digits: Iterable[int]) -> int:
        idx = 0
        for d in reversed(list(digits)):
            idx = idx * self.p + d
        return idx

    def _add_digits(self, i: int, j: int) -> int:
        a, b = self.coords_of(i), self.coords_of(j)
        return self._from_digits((x + y) % self.p for x, y in zip(a, b))

    def _neg_digits(self, i: int) -> int:
        return self._from_digits((-d) % self.p for d in self.coords_of(i))

    def _mul_raw(self, i: int, j: int) -> int:
        if self.m == 1:
            return (i * j) % self.p
        ops = _PrimeOps(self.p)
        prod = _mul_mod(
            self.coords_of(i), self.coords_of(j), self._fold, ops.add_idx, ops.mul_idx
        )
        return self._from_digits(prod)

    # -- index-level operations ----------------------------------------

    def add_idx(self, i: int, j: int) -> int:
        if self._char2:
            return i ^ j
        if self.m == 1:
            return (i + j) % self.p
        if self._add_table is not None:
            return self._add_table[i][j]
        return self._add_digits(i, j)

    def neg_idx(self, i: int) -> int:
        if self._char2:
            return i
        return self._neg[i]

    def mul_idx(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[i] + self._log[j]) % n]

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise DivisionByZero(f"inverse of zero in {self.name}")
        n = self.order - 1
        return self._exp[(n - self._log[i]) % n]

    def pow_idx(self, i: int, e: int) -> int:
        if e < 0:
            return self.pow_idx(self.inv_idx(i), -e)
        if i == 0:
            return 1 if e == 0 else 0
        n = self.order - 1
        return self._exp[(self._log[i] * e) % n]

    # -- element API -----------------------------------------------------

    @property
    def name(self) -> str:
        return f"GF({self.p})" if self.m == 1 else f"GF({self.p}^{self.m})"

    @property
    def char(self) -> int:
        return self.p

    def element(self, x: Union[int, FieldElement]) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatch(f"{x!r} does not belong to {self.name}")
            return x
        if not 0 <= x < self.order:
            raise InvalidParams(f"symbol {x} out of range for {self.name}")
        return FieldElement(self, x)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, BaseField)
            and other.p == self.p
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.name


class ExtField(_TabulatedField):
    """Degree-l extension of a base field, elements indexed 0..q^l-1."""

    __slots__ = (
        "base",
        "l",
        "order",
        "modulus",
        "frobenius_matrix",
        "_char2",
        "_fold",
        "_exp",
        "_log",
        "_neg",
        "_add_table",
        "_hash",
    )

    def __init__(self, base: BaseField, l: int, modulus: Sequence[int] | None = None):
        if l < 1:
            raise InvalidParams("extension degree must be at least 1")
        self.base = base
        self.l = l
        self.order = base.order**l
        if modulus is None:
            mod = _canonical_irreducible(l, base)
        else:
            mod = tuple(int(c) for c in modulus)
            if len(mod) != l + 1 or mod[-1] != 1:
                raise InvalidParams("modulus must be monic of degree l")
            if any(not 0 <= c < base.order for c in mod):
                raise InvalidParams("modulus coefficients out of range")
            if not _is_irreducible(mod, base):
                raise InvalidParams(f"modulus {mod} is reducible over {base.name}")
        self.modulus = mod
        self._hash = hash(("ExtField", base, l, mod))
        self._char2 = base.p == 2
        self._fold = _fold_terms(mod, base.neg_idx)

        self._exp = None
        self._log = None
        self._neg = None
        self._add_table = None
        if self.order <= _MUL_TABLE_MAX:
            self._build_log_tables()
            if not self._char2:
                self._build_neg_table()
                if self.order <= _ADD_TABLE_MAX:
                    self._add_table = [
                        [self._add_digits(i, j) for j in range(self.order)]
                        for i in range(self.order)
                    ]
        self.frobenius_matrix = self._build_frobenius_matrix()
        self._check_frobenius_order()

    # -- raw arithmetic on base-q digit vectors --------------------------

    def coords_of(self, index: int) -> tuple[int, ...]:
        return _index_digits(index, self.base.order, self.l)

    def from_coords(self, coords: Sequence[Union[int, FieldElement]]) -> FieldElement:
        if len(coords) != self.l:
            raise LengthMismatch(f"expected {self.l} coordinates, got {len(coords)}")
        idx = 0
        for c in reversed(list(coords)):
            sym = self.base.element(c).index
            idx = idx * self.base.order + sym
        return FieldElement(self, idx)

    def _add_digits(self, i: int, j: int) -> int:
        add = self.base.add_idx
        a, b = self.coords_of(i), self.coords_of(j)
        return self._from_digits(add(x, y) for x, y in zip(a, b))

    def _from_digits(self, digits: Iterable[int]) -> int:
        idx = 0
        for d in reversed(list(digits)):
            idx = idx * self.base.order + d
        return idx

    def _neg_digits(self, i: int) -> int:
        neg = self.base.neg_idx
        return self._from_digits(neg(d) for d in self.coords_of(i))

    def _mul_raw(self, i: int, j: int) -> int:
        base = self.base
        prod = _mul_mod(
            self.coords_of(i), self.coords_of(j), self._fold, base.add_idx, base.mul_idx
        )
        return self._from_digits(prod)

    def _build_frobenius_matrix(self) -> tuple[tuple[int, ...], ...]:
        q = self.base.order
        cols = []
        for j in range(self.l):
            basis_idx = q**j  # coordinate vector e_{j+1}
            cols.append(self.coords_of(self.pow_idx(basis_idx, q)))
        return tuple(tuple(cols[c][r] for c in range(self.l)) for r in range(self.l))

    def _check_frobenius_order(self) -> None:
        # The q-power map is an F_q-automorphism of order dividing l: l steps
        # must return every basis vector, which also makes it invertible.
        q = self.base.order
        for j in range(self.l):
            if self.frobenius_chain(q**j, self.l + 1)[-1] != q**j:
                raise InvariantViolated(
                    f"Frobenius matrix of {self.name} does not have order dividing {self.l}"
                )

    # -- index-level operations ------------------------------------------

    def add_idx(self, i: int, j: int) -> int:
        if self._char2:
            return i ^ j
        if self._add_table is not None:
            return self._add_table[i][j]
        return self._add_digits(i, j)

    def neg_idx(self, i: int) -> int:
        if self._char2:
            return i
        if self._neg is not None:
            return self._neg[i]
        return self._neg_digits(i)

    def mul_idx(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(self._log[i] + self._log[j]) % n]
        return self._mul_raw(i, j)

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise DivisionByZero(f"inverse of zero in {self.name}")
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(n - self._log[i]) % n]
        # Norm inverse.  An untabulated field has l >= 2, because every
        # base field is tabulated; the norm x * rest lies in F_q, so its
        # index is a base symbol.
        chain = self.frobenius_chain(i, self.l)
        rest = chain[1]
        for c in chain[2:]:
            rest = self._mul_raw(rest, c)
        norm = self._mul_raw(i, rest)
        return self._mul_raw(rest, self.base.inv_idx(norm))

    def pow_idx(self, i: int, e: int) -> int:
        if e < 0:
            return self.pow_idx(self.inv_idx(i), -e)
        if i == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(self._log[i] * e) % n]
        return self._pow_raw(i, e)

    def frobenius_chain(self, i: int, count: int) -> tuple[int, ...]:
        """Indices of x, x^q, ..., x^(q^(count-1)) for x of index i.

        Each step applies the precomputed Frobenius matrix to the
        coordinate vector of the previous power.
        """
        add, mul = self.base.add_idx, self.base.mul_idx
        mat, l = self.frobenius_matrix, self.l
        chain = [i] if count > 0 else []
        while len(chain) < count:
            coords = self.coords_of(chain[-1])
            new = []
            for row in mat:
                acc = 0
                for c in range(l):
                    if coords[c]:
                        acc = add(acc, mul(row[c], coords[c]))
                new.append(acc)
            chain.append(self._from_digits(new))
        return tuple(chain)

    def frobenius_idx(self, i: int, t: int = 1) -> int:
        """Apply the q-power map t times."""
        if t < 0:
            raise InvalidParams("frobenius power must be non-negative")
        return self.frobenius_chain(i, t % self.l + 1)[-1]

    # -- element API -------------------------------------------------------

    @property
    def name(self) -> str:
        if self.base.m == 1:
            return f"GF({self.base.p}^{self.l})" if self.l > 1 else f"GF({self.base.p})"
        return f"GF({self.base.p}^{self.base.m}*{self.l})"

    @property
    def char(self) -> int:
        return self.base.p

    def embed(self, sym: Union[int, FieldElement]) -> FieldElement:
        """Constant embedding of F_q; on indices this is the identity."""
        return FieldElement(self, self.base.element(sym).index)

    def element(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatch(f"{x!r} does not belong to {self.name}")
            return x
        if isinstance(x, (list, tuple)):
            return self.from_coords(x)
        if not 0 <= x < self.order:
            raise InvalidParams(f"index {x} out of range for {self.name}")
        return FieldElement(self, x)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.l == self.l
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.name} over {self.base.name}"


# -- protocol-level helpers ---------------------------------------------


def iso_vec(field: ExtField, vec: Sequence[Union[int, FieldElement]]) -> FieldElement:
    """Identify a length-l vector over F_q with an element of F_{q^l}."""
    return field.from_coords(vec)


def frobenius(x: FieldElement, t: int = 1) -> FieldElement:
    """x ** (q**t) for x in an extension field."""
    field = x.field
    if not isinstance(field, ExtField):
        raise FieldMismatch("frobenius is defined on extension-field elements")
    return FieldElement(field, field.frobenius_idx(x.index, t))


def linearized_eval(
    coeffs: Sequence[FieldElement],
    tracker: Union[int, FieldElement],
    s: FieldElement,
) -> FieldElement:
    """tracker * a_0 + sum_{t=1}^{M} a_t * s^(q^(t-1)).

    Powers are computed by square-and-multiply, independently of the
    Frobenius-matrix path, so the two can cross-check each other.
    """
    field = s.field
    if not isinstance(field, ExtField):
        raise FieldMismatch("linearized maps act on extension-field elements")
    if not coeffs:
        raise LengthMismatch("need at least the constant coefficient")
    for c in coeffs:
        if c.field != field:
            raise FieldMismatch("coefficients must live in the same field as s")
    q = field.base.order
    acc = field.embed(tracker) * coeffs[0]
    power = s
    for t in range(1, len(coeffs)):
        if t > 1:
            power = power**q
        acc = acc + coeffs[t] * power
    return acc


def moore_matrix(elements: Sequence[FieldElement], m: int):
    """Rows (1, s_i, s_i^q, ..., s_i^(q^(m-1))) for each s_i, as a Matrix.

    For r = m+1 elements the matrix is invertible exactly when the
    differences s_i - s_1 are linearly independent over F_q (subtracting
    the first row leaves a classical Moore block of the differences).
    F_q-linear independence of the s_i themselves is sufficient.
    """
    from .linalg import Matrix

    if not elements:
        raise LengthMismatch("need at least one row element")
    field = elements[0].field
    if not isinstance(field, ExtField):
        raise FieldMismatch("moore rows are defined over an extension field")
    rows = []
    for s in elements:
        if s.field != field:
            raise FieldMismatch("all row elements must share one field")
        chain = field.frobenius_chain(s.index, m)
        rows.append((field.one,) + tuple(FieldElement(field, i) for i in chain))
    return Matrix(field, tuple(rows), ncols=m + 1)
