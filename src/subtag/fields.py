"""Arithmetic for a two-level tower of finite fields, F_p < F_q < F_{q^l}.

Every level is one ``Field``: either the prime field F_p, whose indices
are the integers mod p, or subfield[x]/(modulus) for a monic irreducible
modulus, whose index 0..order-1 encodes the coefficient vector over the
subfield in base (subfield order), constant term least significant.
``BaseField(p, m)`` builds F_q = F_p[x]/(f) (F_p itself when m = 1) and
``ExtField(base, l)`` builds F_{q^l} = F_q[x]/(g); both only check their
degrees and name the field, and ``Field`` checks a given modulus as is
(of degree 1 it must be x, so F_p has one name).
The public identification of F_q^l with F_{q^l} is therefore literally
digit decomposition in the polynomial basis 1, a, ..., a^{l-1}, with the
first unit vector mapping to 1.

A field binds its index operations once, when it is built, so no call
branches on the kind: the digit codec ``coords_of`` (index to digits) and
``from_digits`` (digits to index, sum_k d_k r^k for the subfield order r),
and ``mul_idx``, ``add_idx``, ``neg_idx`` and ``sub_idx``.
Addition and negation follow the field's structure, not how it was built
or how large it is:

* characteristic 2: the base-2 digits of an index are its coefficients at
  every level, so addition and subtraction are XOR and negation is the
  identity;
* odd prime order (``BaseField(p)`` and ``ExtField(BaseField(p), 1)``
  alike): addition and subtraction mod p, negation by lookup in a
  length-p table;
* every other odd-p field: digit by digit, in the compiled code below.

Multiplication and inversion use discrete-log tables whenever the order is
at most ``_MUL_TABLE_MAX``: every base field and the small extensions.
Every field built over a subfield has its digit ops generated as one
straight-line source by ``_compile_ops`` when it is built: the digit
codec, the digit-wise sums of odd-p fields, and the schoolbook product of
two coordinate vectors, unrolled for the field's degree, with digit
products read off the subfield's log/exp tables, folded back with the
monic modulus (x^l = -sum m_k x^k) from the top degree down.  Digit sums
are XOR in characteristic 2, int sums reduced mod p over a prime
subfield, and calls of the subfield's own ops otherwise.  Digits come and
go by shift and mask when the subfield order is a power of two, by
division and multiplication otherwise, and no index op loops over them;
a prime field's codec is the identity on its one digit.  A tabulated
field builds its tables with the product (a prime field with i*j mod p)
and then multiplies by table lookup; a larger field multiplies with the
compiled product itself.

Only an extension has a Frobenius step, x -> x^q from index to index,
since tag and label rows and the norm apply it in a chain.  When the
field is built, the images of the basis vectors give its l x l matrix
over F_q, and ``_compile_frobenius`` unrolls that matrix into one
straight-line step with the same digit code: each output digit sums the
input digits weighted by the matrix entries, which enter the source as
int literals (their logs over a non-prime subfield, plain products
reduced mod p over a prime one).  The step is then checked to have
order dividing l.  An untabulated field inverts by the norm:
x^-1 = (x^q x^(q^2) ... x^(q^(l-1))) N(x)^-1, where
N(x) = x x^q ... x^(q^(l-1)) lies in F_q.  A field built again with the
same modulus reuses all of its compiled code.

Every F-linear combination in the package, the compiled Frobenius step
aside, goes through two methods:
``combine`` (sum_k c_k v_k over index vectors) and ``dot`` (sum_k x_k y_k).
They are the one multiply-accumulate.  Packet mixing, tags, labels, matrix
products, elimination, span tests, subset walks and the attacks' key
reconstructions call them.  Both skip zero coefficients;
``dot`` and most fields' ``combine`` also skip zero entries, symbol by
symbol.  A field of prime order p with p(p - 1) <= 255 (p <= 13)
combines whole vectors instead: each vector is one int with a byte lane
per symbol, products and sums are int arithmetic, and ``bytes.translate``
with a 256-byte v -> v mod p table, built once per p, reduces every lane
at once.  A reduced lane holds at most p - 1 and a term adds at most
(p - 1)^2, so lanes are reduced after every (256 - p) // (p - 1)^2
nonzero terms (254 for p = 2, 15 for p = 5, 1 for p = 13) and never
pass 255.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Sequence

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
]

# Guard bounds.  Base fields must stay tabulatable so that exhaustive
# oracles elsewhere in the package remain exact.
MAX_BASE_ORDER = 1 << 16
_MUL_TABLE_MAX = 1 << 16


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


# -- little-endian polynomial helpers over a coefficient field ---------------
#
# ``coef`` is the field the coefficients live in: anything with ``order``,
# ``sub_idx`` and ``mul_idx`` on coefficient indices.


def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_rem(num: Sequence[int], den: Sequence[int], coef) -> list[int]:
    """Remainder of num by the monic polynomial den."""
    rem = _poly_trim(list(num))
    dd = len(den) - 1
    while len(rem) - 1 >= dd:
        shift = len(rem) - 1 - dd
        lead = rem[-1]
        for i in range(dd + 1):
            if den[i]:
                rem[shift + i] = coef.sub_idx(rem[shift + i], coef.mul_idx(lead, den[i]))
        _poly_trim(rem)
    return rem


def _fold_terms(modulus: Sequence[int], neg) -> tuple[tuple[int, int], ...]:
    """(k, -m_k) for each nonzero lower coefficient of a monic modulus."""
    return tuple((k, neg(c)) for k, c in enumerate(modulus[:-1]) if c)


def _index_digits(value: int, radix: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, d = divmod(value, radix)
        out.append(d)
    return tuple(out)


def _power(mul, i: int, e: int) -> int:
    """i^e by square-and-multiply with the product ``mul``, for i != 0."""
    acc, base = 1, i
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc


@functools.lru_cache(maxsize=None)
def _lane_residues(p: int) -> bytes:
    """The 256-byte table v -> v mod p, for bytes.translate."""
    return bytes(v % p for v in range(256))


@functools.lru_cache(maxsize=64)
def _compiled(src: str):
    """Code object of generated source, so a field built again reuses it."""
    return compile(src, "<field ops>", "exec")


def _digit_code(radix: int, degree: int, sub: "Field") -> tuple:
    """Source spellings shared by the generated digit ops of sub[x]/(modulus).

    ``digits(v)`` spells the digits of the index named v, read by shift and
    mask when the radix is a power of two and by // and % otherwise;
    ``placed(terms)`` joins digit expressions back into an index, by shift
    and | or by * and +.  ``total``, ``minus`` and ``negated`` spell digit
    sums: ^ in characteristic 2, int sums reduced mod p over a prime
    subfield, and calls of the subfield's own add, sub and neg otherwise.
    """
    d = degree
    shift = radix.bit_length() - 1
    if radix == 1 << shift:
        down, mod, up, join = " >> {}", f" & {radix - 1}", " << {}", " | "
        place = [shift * k for k in range(d)]
    else:
        down, mod, up, join = " // {}", f" % {radix}", " * {}", " + "
        place = [radix**k for k in range(d)]

    def digits(v: str) -> list[str]:
        # the top digit needs no reduction, since v < radix**d
        return [
            v + (down.format(place[k]) if k else "") + (mod if k < d - 1 else "")
            for k in range(d)
        ]

    def placed(terms: list[str]) -> str:
        # digits below the radix, so | places them as well as + does
        return join.join(t + (up.format(place[k]) if k else "") for k, t in enumerate(terms))

    minus = negated = None
    if sub.char == 2:
        total = lambda terms: " ^ ".join(terms)
    elif sub.order == sub.char:
        total = lambda terms: f"({' + '.join(terms)}) % {radix}" if terms[1:] else terms[0]
        minus = lambda x, y: f"({x} - {y}) % {radix}"
        negated = lambda x: f"-({x}) % {radix}"
    else:
        total = lambda terms: functools.reduce(lambda x, y: f"add({x}, {y})", terms)
        minus = lambda x, y: f"sub({x}, {y})"
        negated = lambda x: f"neg({x})"
    return digits, placed, total, minus, negated


def _log_code(sub: "Field") -> tuple[list[int], list[int]]:
    """The subfield's log and exp tables as generated code reads them.

    Two digits multiply as e[la + lb]: the log of 0 is the sentinel 2n
    (n = sub.order - 1), and e is exp twice and then 2n + 1 zeros, so any
    sum with a sentinel reads 0."""
    n = sub.order - 1
    lg = list(sub._log)
    lg[0] = 2 * n
    return lg, sub._exp * 2 + [0] * (2 * n + 1)


def _run_code(lines: list[str], names: list[str], sub: "Field", lg, e) -> tuple:
    """The functions ``names`` that the generated ``lines`` define, made
    with lg, e and the subfield's add, sub and neg in scope."""
    src = "\n".join(
        ["def make(lg, e, add, sub, neg):", *lines, f"    return ({', '.join(names)},)"]
    )
    namespace: dict = {}
    exec(_compiled(src), namespace)
    return namespace["make"](lg, e, sub.add_idx, sub.sub_idx, sub.neg_idx)


def _compile_ops(radix: int, degree: int, fold, sub: "Field") -> tuple:
    """The digit ops of sub[x]/(modulus), unrolled for the degree.

    Returns ``coords_of``, ``from_digits`` and ``mul_idx``, and for odd p
    also ``add_idx``, ``sub_idx`` and ``neg_idx``, which work digit by
    digit.  The source spells out the schoolbook product of two digit
    vectors term by term, with digit products read off ``_log_code``
    tables, and folds it with ``fold`` (from _fold_terms) from the top
    degree down; ``_compiled`` keeps the code of recent sources, so a
    field built again skips the compiler.  Fold terms enter as logs of
    -m_k.  Besides lg, e and the subfield's add, sub and neg, the source
    holds only integer literals derived from the radix and the validated
    modulus.
    """
    digits, placed, total, minus, negated = _digit_code(radix, degree, sub)
    lg, e = _log_code(sub)
    d = degree
    body = ["if not (i and j):", "    return 0"]
    body += [f"a{k} = lg[{x}]" for k, x in enumerate(digits("i"))]
    body += [f"b{k} = lg[{x}]" for k, x in enumerate(digits("j"))]
    for s in range(2 * d - 1):
        terms = [f"e[a{u} + b{s - u}]" for u in range(max(0, s - d + 1), min(s, d - 1) + 1)]
        body.append(f"c{s} = {total(terms)}")
    for top in range(2 * d - 2, d - 1, -1):
        body.append(f"t = lg[c{top}]")
        for k, m in fold:
            c = f"c{top - d + k}"
            body.append(f"{c} = {total([c, f'e[t + {lg[m]}]'])}")
    body.append(f"return {placed([f'c{k}' for k in range(d)])}")
    names = ["coords_of", "from_digits", "mul_idx"]
    lines = [
        "    def coords_of(i):",
        f"        return ({', '.join(digits('i'))},)",
        "    def from_digits(c):",
        f"        return {placed([f'c[{k}]' for k in range(d)])}",
        "    def mul_idx(i, j):",
        *(f"        {line}" for line in body),
    ]
    if sub.char != 2:
        ij = list(zip(digits("i"), digits("j")))
        lines += [
            "    def add_idx(i, j):",
            f"        return {placed([total([x, y]) for x, y in ij])}",
            "    def sub_idx(i, j):",
            f"        return {placed([minus(x, y) for x, y in ij])}",
            "    def neg_idx(i):",
            f"        return {placed([negated(x) for x in digits('i')])}",
        ]
        names += ["add_idx", "sub_idx", "neg_idx"]
    return _run_code(lines, names, sub, lg, e)


def _compile_frobenius(radix: int, degree: int, cols, sub: "Field"):
    """The F_sub-linear map that sends basis vector j to the digits
    ``cols[j]``, as one straight-line step from index to index.

    Output digit r is the sum over j of cols[j][r] times input digit j,
    spelled with ``_digit_code``.  Over a prime subfield each entry enters
    the source as its int value, and products are plain int products
    reduced mod p with the sum; over any other subfield it enters as its
    log, and a product reads e[lg[digit] + log].  A unit entry adds its
    digit as it is and a zero entry adds nothing, so the source holds only
    ints derived from the matrix and the radix.
    """
    digits, placed, total, _, _ = _digit_code(radix, degree, sub)
    prime = sub.subfield is None
    lg, e = (None, None) if prime else _log_code(sub)
    body = [f"x{j} = {x}" for j, x in enumerate(digits("i"))]
    if not prime:
        # the log of each digit that some entry other than 1 scales
        body += [f"a{j} = lg[x{j}]" for j, col in enumerate(cols) if max(col) > 1]
    for r in range(degree):
        terms, scaled = [], False
        for j, col in enumerate(cols):
            f = col[r]
            if f == 1:
                terms.append(f"x{j}")
            elif f:
                scaled = True
                terms.append(f"{f} * x{j}" if prime else f"e[a{j} + {lg[f]}]")
        if not terms:
            out = "0"
        elif prime and scaled:
            out = f"({' + '.join(terms)}) % {radix}"
        else:
            out = total(terms)
        body.append(f"c{r} = {out}")
    body.append(f"return {placed([f'c{r}' for r in range(degree)])}")
    lines = ["    def frobenius_idx(i):", *(f"        {line}" for line in body)]
    return _run_code(lines, ["frobenius_idx"], sub, lg, e)[0]


def _monic_from_value(value: int, radix: int, degree: int) -> tuple[int, ...]:
    """Monic degree-d polynomial whose lower coefficients encode ``value``."""
    return _index_digits(value, radix, degree) + (1,)


def _is_irreducible(poly: Sequence[int], coef) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for value in range(coef.order**d):
            div = _monic_from_value(value, coef.order, d)
            if not _poly_rem(poly, div, coef):
                return False
    return True


@functools.lru_cache(maxsize=64)
def _canonical_irreducible(degree: int, coef) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree.

    Candidates are ordered by the integer whose base-(field order) digits
    are the non-leading coefficients, constant term least significant.
    Cached, keyed by the coefficient field's identity, so a field built
    again skips the search.
    """
    for value in range(coef.order**degree):
        cand = _monic_from_value(value, coef.order, degree)
        if _is_irreducible(cand, coef):
            return cand
    raise InvalidParams(f"no irreducible polynomial of degree {degree} found")


class FieldElement:
    """An element of a field, identified by its index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "Field", index: int):
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


class Field:
    """One level of the tower: F_p, or subfield[x]/(modulus).

    The prime field has no subfield and a single digit mod p; every other
    field indexes digit vectors of length ``degree`` over its subfield.
    Build fields through ``BaseField`` and ``ExtField``.
    """

    __slots__ = (
        "subfield",
        "degree",
        "char",
        "order",
        "modulus",
        "name",
        "_frobenius",
        "coords_of",
        "from_digits",
        "add_idx",
        "neg_idx",
        "sub_idx",
        "mul_idx",
        "_label",
        "_radix",
        "_fold",
        "_exp",
        "_log",
        "_lanes",
        "_key",
        "_hash",
    )

    def __init__(
        self,
        subfield: "Field | None",
        degree: int,
        char: int,
        modulus: Sequence[int] | None,
        name: str,
        label: str,
    ):
        self.subfield = subfield
        self.degree = degree
        self.char = char
        self.name = name
        self._label = label
        self._radix = char if subfield is None else subfield.order
        if modulus is not None:
            modulus = tuple(modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1 or any(
                not isinstance(c, int) or not 0 <= c < self._radix for c in modulus
            ):
                raise InvalidParams(
                    f"modulus must be monic of degree {degree} over 0..{self._radix - 1}"
                )
            if degree == 1 and modulus != (0, 1):
                # x + c would name the same field differently
                raise InvalidParams(f"a degree-1 modulus must be x, not {modulus}")
        self.order = self._radix**degree
        if subfield is None:
            self.modulus = (0, 1)
            self._fold = ()
        else:
            if modulus is None:
                modulus = _canonical_irreducible(degree, subfield)
            elif not _is_irreducible(modulus, subfield):
                raise InvalidParams(f"modulus {modulus} is reducible over {subfield.name}")
            self.modulus = modulus
            self._fold = _fold_terms(modulus, subfield.neg_idx)
        self._key = (type(self), char, subfield, degree, self.modulus)
        self._hash = hash(self._key)
        self._frobenius = None
        self._exp = self._log = None
        self._lanes = None
        self._bind_index_ops()

    def _bind_index_ops(self) -> None:
        """Pick coords_of, from_digits and the arithmetic once, by the
        field's structure: its characteristic and whether its order is prime."""
        p = self.char
        if self.subfield is None:
            self.coords_of = lambda i: (i,)
            self.from_digits = operator.itemgetter(0)
            mul = lambda i, j: i * j % p
        else:
            ops = _compile_ops(self._radix, self.degree, self._fold, self.subfield)
            self.coords_of, self.from_digits, mul = ops[:3]
        if self.order <= _MUL_TABLE_MAX:
            self._build_log_tables(mul)
            exp, log, n = self._exp, self._log, self.order - 1
            self.mul_idx = lambda i, j: exp[(log[i] + log[j]) % n] if i and j else 0
        else:
            self.mul_idx = mul
        if self.order == p and p * (p - 1) <= 255:
            # after a reduction a lane holds at most p - 1, and each term
            # adds at most (p - 1)^2
            self._lanes = (_lane_residues(p), (256 - p) // (p - 1) ** 2)
        if p == 2:
            self.add_idx = self.sub_idx = operator.xor
            self.neg_idx = operator.pos
        elif self.order == p:
            self.neg_idx = [(-i) % p for i in range(p)].__getitem__
            self.add_idx = lambda i, j: (i + j) % p
            self.sub_idx = lambda i, j: (i - j) % p
        else:
            self.add_idx, self.sub_idx, self.neg_idx = ops[3:]

    def from_coords(self, coords: Sequence[int]) -> FieldElement:
        """The element whose coordinates over the subfield are the indices
        ``coords``; a prime field takes its own index as its one coordinate."""
        if len(coords) != self.degree:
            raise LengthMismatch(f"expected {self.degree} coordinates, got {len(coords)}")
        coef = self if self.subfield is None else self.subfield
        return FieldElement(self, self.from_digits(coef._symbols(coords)))

    def _build_log_tables(self, mul) -> None:
        """exp and log tables of a generator, found and powered with the product ``mul``."""
        n = self.order - 1
        gen = 1
        if n > 1:
            factors = _prime_factors(n)
            for cand in range(2, self.order):
                if all(_power(mul, cand, n // f) != 1 for f in factors):
                    gen = cand
                    break
        exp = [1] * n
        for i in range(1, n):
            exp[i] = mul(exp[i - 1], gen)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    # -- index-level operations ------------------------------------------

    def div_idx(self, i: int, j: int) -> int:
        return self.mul_idx(i, self.inv_idx(j))

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise DivisionByZero(f"inverse of zero in {self.name}")
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(n - self._log[i]) % n]
        # Norm inverse.  An untabulated field is an extension of degree
        # l >= 2, because every base field is tabulated; the norm
        # x * rest lies in F_q, so its index is a base symbol.
        mul = self.mul_idx
        chain = self.frobenius_chain(i, self.degree)
        rest = chain[1]
        for c in chain[2:]:
            rest = mul(rest, c)
        return mul(rest, self.subfield.inv_idx(mul(i, rest)))

    def combine(
        self, coeffs: Iterable[int], vectors: Iterable[Sequence[int]], width: int
    ) -> tuple[int, ...]:
        """Indices of sum_k coeffs[k] * vectors[k]; the zero vector of length
        ``width`` when there are no vectors.  Vectors may be shorter than
        ``width``; coefficients and entries must be reduced indices of this
        field, which ``combine`` does not check symbol by symbol.  A field
        of prime order p with p(p - 1) <= 255 sums whole vectors as ints
        with a byte lane per symbol (see the module docstring); every other
        field loops over the symbols, and a unit coefficient adds its vector
        without multiplying.  A vector longer than ``width`` raises
        LengthMismatch.  On the byte lanes an entry outside 0..255 or a
        negative sum raises InvalidParams and a non-int entry FieldMismatch,
        while an unreduced entry in p..255 is mixed as the int it is.  The
        symbol loop maps what its arithmetic cannot read the same way, an
        entry past a table to InvalidParams and a non-int one to
        FieldMismatch, and passes an entry it can read unchecked (300 XORed
        over GF(2^8), 130 added digit by digit over GF(5^3), or 1.0 added
        mod 17 under a unit coefficient)."""
        lanes = self._lanes
        if lanes is not None:
            residues, room = lanes
            acc = terms = 0
            try:
                for c, vec in zip(coeffs, vectors):
                    if c:
                        if terms == room:
                            acc = int.from_bytes(
                                acc.to_bytes(width, "little").translate(residues),
                                "little",
                            )
                            terms = 0
                        acc += c * int.from_bytes(bytes(vec), "little")
                        terms += 1
                return tuple(acc.to_bytes(width, "little").translate(residues))
            except OverflowError:
                if acc < 0:
                    raise InvalidParams(
                        f"negative coefficient in a combination over {self.name}"
                    ) from None
                raise LengthMismatch(
                    f"a vector is longer than width {width} over {self.name}"
                ) from None
            except ValueError:
                raise InvalidParams(
                    f"a vector entry is not an index of {self.name}"
                ) from None
            except (TypeError, AttributeError):
                raise FieldMismatch(
                    f"a combination over {self.name} takes int indices"
                ) from None
        add, mul = self.add_idx, self.mul_idx
        acc = [0] * width
        vec = ()
        try:
            for c, vec in zip(coeffs, vectors):
                if c:
                    for i, v in enumerate(vec):
                        if v:
                            acc[i] = add(acc[i], v if c == 1 else mul(c, v))
        except IndexError:
            if len(vec) > width:
                raise LengthMismatch(
                    f"a vector is longer than width {width} over {self.name}"
                ) from None
            raise InvalidParams(f"a vector entry is not an index of {self.name}") from None
        except TypeError:
            raise FieldMismatch(f"a combination over {self.name} takes int indices") from None
        return tuple(acc)

    def dot(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Index of sum_k xs[k] * ys[k]."""
        add, mul = self.add_idx, self.mul_idx
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def pow_idx(self, i: int, e: int) -> int:
        if e < 0:
            return self.pow_idx(self.inv_idx(i), -e)
        if i == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            n = self.order - 1
            return self._exp[(self._log[i] * e) % n]
        return _power(self.mul_idx, i, e)

    # -- Frobenius (extensions only) ---------------------------------------

    def _build_frobenius(self) -> None:
        """The q-power map, compiled from its matrix over F_q and checked to
        have order dividing l."""
        q, l = self._radix, self.degree
        cols = [self.coords_of(self.pow_idx(q**j, q)) for j in range(l)]  # images of e_{j+1}
        self._frobenius = _compile_frobenius(q, l, cols, self.subfield)
        # The q-power map is an F_q-automorphism of order dividing l: l steps
        # must return every basis vector, which also makes it invertible.
        for j in range(l):
            if self.frobenius_chain(q**j, l + 1)[-1] != q**j:
                raise InvariantViolated(
                    f"Frobenius matrix of {self.name} does not have order dividing {l}"
                )

    def frobenius_chain(self, i: int, count: int) -> tuple[int, ...]:
        """Indices of x, x^q, ..., x^(q^(count-1)) for x of index i.

        Each step is the compiled Frobenius step applied to the previous
        power's index: the field's Frobenius matrix, unrolled into one
        straight-line function when the field was built.
        """
        step = self._frobenius
        chain = [i] if count > 0 else []
        for _ in range(count - 1):
            i = step(i)
            chain.append(i)
        return tuple(chain)

    # -- element API -------------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def _symbols(self, values: Iterable[int]) -> tuple[int, ...]:
        """``values`` as indices of this field, each an int in range."""
        out = tuple(values)
        for v in out:
            if not isinstance(v, int):
                raise FieldMismatch(f"{v!r} is not an index of {self.name}")
            if not 0 <= v < self.order:
                raise InvalidParams(f"index {v} out of range for {self.name}")
        return out

    def element(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatch(f"{x!r} does not belong to {self.name}")
            return x
        if isinstance(x, (list, tuple)):
            return self.from_coords(x)
        return FieldElement(self, self._symbols((x,))[0])

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Field) and other._key == self._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._label


class BaseField(Field):
    """F_q with q = p^m; symbols are integers 0..q-1 (base-p digit vectors)."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        # bounded before factoring p and powering p^m; p >= 2, so any m past
        # log2 of the bound overflows it
        if p > MAX_BASE_ORDER:
            raise InvalidParams(f"characteristic {p} exceeds {MAX_BASE_ORDER}")
        if _prime_factors(p) != [p]:
            raise InvalidParams(f"characteristic {p} is not prime")
        if m < 1:
            raise InvalidParams("extension degree must be at least 1")
        if m >= MAX_BASE_ORDER.bit_length() or p**m > MAX_BASE_ORDER:
            raise InvalidParams(f"base field order {p}^{m} exceeds {MAX_BASE_ORDER}")
        self.p = p
        self.m = m
        name = f"GF({p})" if m == 1 else f"GF({p}^{m})"
        super().__init__(BaseField(p) if m > 1 else None, m, p, modulus, name, name)


class ExtField(Field):
    """Degree-l extension of a base field, elements indexed 0..q^l-1."""

    __slots__ = ("base", "l")

    def __init__(self, base: BaseField, l: int, modulus: Sequence[int] | None = None):
        if l < 1:
            raise InvalidParams("extension degree must be at least 1")
        self.base = base
        self.l = l
        if base.m == 1:
            name = f"GF({base.p}^{l})" if l > 1 else f"GF({base.p})"
        else:
            name = f"GF({base.p}^{base.m}*{l})"
        super().__init__(base, l, base.p, modulus, name, f"{name} over {base.name}")
        self._build_frobenius()


def frobenius(x: FieldElement) -> FieldElement:
    """x ** q for x in an extension field."""
    field = x.field
    if not isinstance(field, ExtField):
        raise FieldMismatch("frobenius is defined on extension-field elements")
    return FieldElement(field, field.frobenius_chain(x.index, 2)[-1])
