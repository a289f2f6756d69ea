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
A tabulated field and the code generated over it read one layout: log 0
is the sentinel 2n (n = order - 1), exp the n powers twice, then 2n + 1
zeros, so a product is exp[log[i] + log[j]] and an inverse exp[n - log[i]].
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
field finds the smallest generator g of its multiplicative group with the
product, then walks its exp table with one compiled step, x -> g x (a
prime field steps by v * g mod p), checks that the walk closes and
reaches every nonzero index, and multiplies by table lookup; a larger
field multiplies with the compiled product itself.

Multiplication by g and the Frobenius step x -> x^q are both linear over
the subfield, and ``_compile_linear`` compiles either from the images of
the basis vectors, found with the product, into one straight-line step
from index to index, with the same digit code: each output digit sums
the input digits weighted by the matrix entries, which enter the source
as int literals (their logs over a non-prime subfield, plain products
reduced mod p over a prime one).  Only an extension keeps a Frobenius
step, since tag and label rows and the norm apply it in a chain; its
l x l matrix over F_q is compiled when the field is built and checked to
have order dividing l.  An untabulated field inverts by the norm:
x^-1 = (x^q x^(q^2) ... x^(q^(l-1))) N(x)^-1, where
N(x) = x x^q ... x^(q^(l-1)) lies in F_q.  A field built again with the
same modulus binds the functions of its first build, cached per process,
and walks its log tables again.

Every F-linear combination in the package, the compiled linear steps
aside, goes through ``combine`` (sum_k c_k v_k over index vectors), its
batch ``_mix`` (one combine per coefficient row over one set of vectors),
``dot`` (sum_k x_k y_k) or ``_parity_check`` (is every row's dot with x
zero?).  They are the one multiply-accumulate.  Packet mixing, tags,
labels, matrix products, elimination, span tests, subset walks and the
attacks' key reconstructions call the first three; verification builds a
key's matrix with ``dot`` and checks each wire with ``_parity_check``.
``dot`` sums its products unreduced and reduces once, by the rule that
picks the field's addition: it XORs the products in characteristic 2,
sums the plain int products and reduces mod p once at prime order, and
otherwise runs a loop generated with the same digit code, which sums
each product's base-p digits as ints and reduces each digit sum mod p
once at the end.  At every level of the tower the base-p digits of an
index are its coordinates over F_p, so this holds over a non-prime
subfield too.  ``combine`` skips zero coefficients, and most fields'
``combine`` also skips zero entries, symbol by symbol.  A field of prime
order p with p(p - 1) <= 255 (p <= 13) combines whole vectors instead:
each vector is one int with a byte lane per symbol, products and sums
are int arithmetic, and ``bytes.translate`` with a 256-byte v -> v mod p
table, built once per p, reduces every lane at once.  A reduced lane
holds at most p - 1 and a term adds at most (p - 1)^2, so lanes are
reduced after every (256 - p) // (p - 1)^2 nonzero terms (254 for p = 2,
15 for p = 5, 1 for p = 13) and never pass 255.  ``_mix`` packs each
vector into its lane int once, however many rows weight it, and a
one-row ``combine`` runs the same lane code.  ``_parity_check`` turns
the lanes the other way: it packs each column of its matrix once, a lane
per row, so checking x is one int sum of x's entries times the columns,
reduced as above, and a compare with zero bytes.
"""

from __future__ import annotations

import functools
import itertools
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


def _check_int(what: str, v) -> None:
    """Refuse a field parameter that is not an int; a bool is refused too."""
    if type(v) is not int:
        raise InvalidParams(f"{what} {v!r} is not an int")


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
    """i^e for i != 0 and e >= 0, by left-to-right square-and-multiply
    with the product ``mul``: starting from i, one squaring per bit of e
    after the leading one and one product by i per set bit among them,
    bit_length(e) + popcount(e) - 2 products in all; e = 0 gives 1."""
    if not e:
        return 1
    acc = i
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, i)
    return acc


@functools.lru_cache(maxsize=None)
def _lane_residues(p: int) -> bytes:
    """The 256-byte table v -> v mod p, for bytes.translate."""
    return bytes(v % p for v in range(256))


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


def _maker(lines: list[str], names: list[str], params: str = "lg, e, add, sub, neg"):
    """The function ``make(params)`` that returns the functions ``names``
    which the generated ``lines`` define; the ops call it with lg, e and
    the subfield's add, sub and neg, the dot product with its field's
    product."""
    src = "\n".join([f"def make({params}):", *lines, f"    return ({', '.join(names)},)"])
    namespace: dict = {}
    exec(compile(src, "<field ops>", "exec"), namespace)
    return namespace["make"]


@functools.lru_cache(maxsize=64)
def _compile_ops(radix: int, degree: int, fold, sub: "Field") -> tuple:
    """The digit ops of sub[x]/(modulus), unrolled for the degree.

    Returns ``coords_of``, ``from_digits`` and ``mul_idx``, and for odd p
    also ``add_idx``, ``sub_idx`` and ``neg_idx``, which work digit by
    digit.  The source spells out the schoolbook product of two digit
    vectors term by term, as e[lg[a] + lg[b]] over the subfield's tables,
    and folds it with ``fold`` (from _fold_terms) from the top degree down;
    cached, so a field built again generates no source.  Fold terms enter
    as logs of -m_k.  Besides lg, e and the subfield's add, sub and neg,
    the source holds only integer literals derived from the radix and the
    validated modulus.
    """
    digits, placed, total, minus, negated = _digit_code(radix, degree, sub)
    lg = sub._log
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
    return _maker(lines, names)(lg, sub._exp, sub.add_idx, sub.sub_idx, sub.neg_idx)


@functools.lru_cache(maxsize=64)
def _compile_dot(p: int, width: int, prime: "Field"):
    """``make(mul)`` for the dot product of an odd-p field of order
    p**width that is not F_p itself, given the field's product ``mul``.

    At every level of the tower the base-p digits of an index are its
    coordinates over F_p, so a sum is digit-wise mod p.  The loop sums each
    product's base-p digits, spelled with ``_digit_code`` over the prime
    field ``prime``, as plain ints, and reduces each digit sum mod p once,
    at the end.  Cached, as ``_compile_ops``.
    """
    digits, placed, _, _, _ = _digit_code(p, width, prime)
    sums = [f"c{k}" for k in range(width)]
    lines = [
        "    def dot(xs, ys):",
        f"        {' = '.join(sums)} = 0",
        "        for v in map(mul, xs, ys):",
        *(f"            {c} += {x}" for c, x in zip(sums, digits("v"))),
        f"        return {placed([f'{c} % {p}' for c in sums])}",
    ]
    return _maker(lines, ["dot"], "mul")


@functools.lru_cache(maxsize=64)
def _compile_linear(radix: int, degree: int, cols, sub: "Field"):
    """The F_sub-linear map that sends basis vector j to the digits
    ``cols[j]``, as one straight-line step from index to index.

    It compiles two maps of a field built over ``sub``: multiplication by
    the generator of its log tables, which walks the exp table, and the
    q-power Frobenius step of an extension.  Output digit r is the sum
    over j of cols[j][r] times input digit j, spelled with
    ``_digit_code``.  Over a prime subfield each entry enters the source
    as its int value, and products are plain int products reduced mod p
    with the sum; over any other subfield it enters as its log, and a
    product reads e[lg[digit] + log].  A unit entry adds its digit as it
    is and a zero entry adds nothing, so the source holds only ints
    derived from the matrix and the radix.  Cached, as ``_compile_ops``.
    """
    digits, placed, total, _, _ = _digit_code(radix, degree, sub)
    prime = sub.subfield is None
    lg = sub._log
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
    lines = ["    def linear_idx(i):", *(f"        {line}" for line in body)]
    return _maker(lines, ["linear_idx"])(lg, sub._exp, sub.add_idx, sub.sub_idx, sub.neg_idx)[0]


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
        "_dot",
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
            modulus, r = tuple(modulus), self._radix
            monic = f"modulus must be monic of degree {degree} over 0..{r - 1}"
            for c in modulus:
                _check_int(f"{monic}: coefficient", c)
            shaped = len(modulus) == degree + 1 and modulus[-1] == 1
            if not shaped or not all(0 <= c < r for c in modulus):
                raise InvalidParams(monic)
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
            exp, log = self._exp, self._log
            self.mul_idx = lambda i, j: exp[log[i] + log[j]]
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
        self._bind_dot()

    def _bind_dot(self) -> None:
        """Pick ``dot`` by the same structure as addition: XOR of the
        products in characteristic 2, the int sum of the plain products
        reduced mod p once at prime order, and compiled base-p digit sums,
        each reduced mod p once, for every other odd-p field."""
        p, mul = self.char, self.mul_idx
        if p == 2:
            self._dot = lambda xs, ys: functools.reduce(operator.xor, map(mul, xs, ys), 0)
        elif self.order == p:
            self._dot = lambda xs, ys: sum(map(operator.mul, xs, ys)) % p
        else:
            prime, width = self.subfield, self.degree
            while prime.subfield is not None:
                prime, width = prime.subfield, width * prime.degree
            self._dot = _compile_dot(p, width, prime)(mul)[0]

    def from_coords(self, coords: Sequence[int]) -> FieldElement:
        """The element whose coordinates over the subfield are the indices
        ``coords``; a prime field takes its own index as its one coordinate."""
        if len(coords) != self.degree:
            raise LengthMismatch(f"expected {self.degree} coordinates, got {len(coords)}")
        coef = self if self.subfield is None else self.subfield
        return FieldElement(self, self.from_digits(coef._symbols(coords)))

    def _build_log_tables(self, mul) -> None:
        """exp and log tables of the smallest generator g, in the layout of
        the module docstring.

        The product ``mul`` finds g and, over a subfield, the images of the
        basis vectors under x -> g x, which ``_compile_linear`` turns into
        one straight-line step; a prime field steps by v * g mod p.  The
        walk exp[i] = step(exp[i - 1]) is then checked to close, step(g^(n-1))
        = 1, and to reach every nonzero index once."""
        n = self.order - 1
        gen = 1
        if n > 1:
            factors = _prime_factors(n)
            for cand in range(2, self.order):
                if all(_power(mul, cand, n // f) != 1 for f in factors):
                    gen = cand
                    break
        if self.subfield is None:
            p = self.char
            step = lambda v: v * gen % p
        else:
            r, d = self._radix, self.degree
            cols = tuple(self.coords_of(mul(gen, r**j)) for j in range(d))  # images of e_{j+1}
            step = _compile_linear(r, d, cols, self.subfield)
        exp = [1] * n
        for i in range(1, n):
            exp[i] = step(exp[i - 1])
        log = [2 * n] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        # a generator's n powers are the n nonzero indices, so each of them
        # has a log (and 0 keeps the sentinel), and the n-th power is 1
        if step(exp[-1]) != 1 or 2 * n in log[1:]:
            raise InvariantViolated(
                f"the log tables of {self.name} do not cycle through its nonzero indices"
            )
        self._exp = exp * 2 + [0] * (2 * n + 1)
        self._log = log

    # -- index-level operations ------------------------------------------

    def div_idx(self, i: int, j: int) -> int:
        return self.mul_idx(i, self.inv_idx(j))

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise DivisionByZero(f"inverse of zero in {self.name}")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[i]]
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
        with a byte lane per symbol, in the lane code it shares with
        ``_mix`` (see the module docstring); every other field loops over
        the symbols, and a unit coefficient adds its vector without
        multiplying.  A vector longer than ``width`` raises
        LengthMismatch.  On the byte lanes an entry outside 0..255 or a
        negative sum raises InvalidParams, a non-int entry FieldMismatch
        and a nonzero coefficient without a vector LengthMismatch, while an
        unreduced entry in p..255 is mixed as the int it is.  The
        symbol loop maps what its arithmetic cannot read the same way, an
        entry past a table to InvalidParams and a non-int one to
        FieldMismatch, and passes an entry it can read unchecked (300 XORed
        over GF(2^8), 130 added digit by digit over GF(5^3), or 1.0 added
        mod 17 under a unit coefficient)."""
        if self._lanes is not None:
            return self._lane_mix((coeffs,), tuple(vectors), width)[0]
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

    def _mix(
        self, rows: Iterable[Iterable[int]], vectors: Sequence[Sequence[int]], width: int
    ) -> tuple[tuple[int, ...], ...]:
        """``combine(row, vectors, width)`` for each coefficient row of
        ``rows``, in one call: the out-edges of a network node, the rows of
        a matrix product.  On the byte lanes each vector is packed into its
        lane int once, however many rows weight it; every other field loops
        over ``combine``.  Results, and the errors of malformed input, are
        those of ``combine``."""
        if self._lanes is None:
            return tuple(self.combine(row, vectors, width) for row in rows)
        return tuple(self._lane_mix(rows, vectors, width))

    def _lane_mix(self, rows, vectors: Sequence[Sequence[int]], width: int) -> list:
        """The byte-lane sums behind ``combine`` and ``_mix``, a list with
        one vector per row.  vectors[k] is packed into one int, a byte lane
        per symbol, the first time a nonzero coefficient weights it, and
        kept for the later rows; a vector no row weights is never read."""
        residues, room = self._lanes
        packed = [None] * len(vectors)
        out = []
        acc = 0
        try:
            for coeffs in rows:
                acc = terms = 0
                for k, c in enumerate(coeffs):
                    if c:
                        if terms == room:
                            acc = int.from_bytes(
                                acc.to_bytes(width, "little").translate(residues), "little"
                            )
                            terms = 0
                        v = packed[k]
                        if v is None:
                            v = packed[k] = int.from_bytes(bytes(vectors[k]), "little")
                        acc += c * v
                        terms += 1
                out.append(tuple(acc.to_bytes(width, "little").translate(residues)))
        except IndexError:
            raise LengthMismatch(
                f"a combination over {self.name} has more coefficients than vectors"
            ) from None
        except OverflowError:
            if acc < 0:
                raise InvalidParams(
                    f"negative coefficient in a combination over {self.name}"
                ) from None
            raise LengthMismatch(
                f"a vector is longer than width {width} over {self.name}"
            ) from None
        except ValueError:
            raise InvalidParams(f"a vector entry is not an index of {self.name}") from None
        except (TypeError, AttributeError):
            raise FieldMismatch(f"a combination over {self.name} takes int indices") from None
        return out

    def _parity_check(self, rows: Sequence[Sequence[int]], width: int):
        """The predicate x -> (every row's ``dot`` with x is 0) for vectors x
        of ``width`` reduced indices, which it does not check.

        The field's structure picks the evaluation, as for ``combine``: on
        the byte lanes each column of ``rows`` is packed once into an int
        with a byte lane per row, and x is one int sum of its entries times
        those columns, one ``translate`` per (256 - p) // (p - 1)^2
        columns and a compare with zero bytes; every other field runs one
        ``dot`` per row and stops at the first nonzero one."""
        rows = tuple(map(tuple, rows))
        if self._lanes is None:
            dot = self._dot
            return lambda x: not any(map(dot, rows, itertools.repeat(x)))
        residues, room = self._lanes
        height, mul = len(rows), operator.mul
        zero = bytes(height)
        cols = tuple(int.from_bytes(bytes(col), "little") for col in zip(*rows))
        if width <= room:
            return lambda x: sum(map(mul, x, cols)).to_bytes(height, "little").translate(
                residues
            ) == zero
        # a reduced lane holds at most p - 1, and room terms add at most 256 - p
        spans = tuple((lo, lo + room, cols[lo : lo + room]) for lo in range(0, width, room))

        def check(x) -> bool:
            acc = 0
            for lo, hi, part in spans:
                acc += sum(map(mul, x[lo:hi], part))
                acc = int.from_bytes(acc.to_bytes(height, "little").translate(residues), "little")
            return acc == 0

        return check

    def dot(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Index of sum_k xs[k] * ys[k], 0 for no terms.  The products are
        accumulated unreduced and reduced once, by the rule the field picked
        when it was built (see the module docstring); entries are reduced
        indices, not checked."""
        return self._dot(xs, ys)

    def pow_idx(self, i: int, e: int) -> int:
        if e < 0:
            return self.pow_idx(self.inv_idx(i), -e)
        if i == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[self._log[i] * e % (self.order - 1)]
        return _power(self.mul_idx, i, e)

    # -- Frobenius (extensions only) ---------------------------------------

    def _build_frobenius(self) -> None:
        """The q-power map, compiled from its matrix over F_q and checked to
        have order dividing l."""
        q, l = self._radix, self.degree
        cols = tuple(self.coords_of(self.pow_idx(q**j, q)) for j in range(l))  # images of e_{j+1}
        self._frobenius = _compile_linear(q, l, cols, self.subfield)
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
            if type(v) is not int:
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
        _check_int("characteristic", p)
        _check_int("extension degree", m)
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
        _check_int("extension degree", l)
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
