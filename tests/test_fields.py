import dis
import itertools
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtag import fields
from subtag.errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidParams,
    LengthMismatch,
    SubtagError,
)
from subtag.fields import BaseField, ExtField, Field, FieldElement, frobenius
from subtag.linalg import Matrix

from oracles import combine_mod_p, elements, embed, linearized_eval, reference_field


# hand-checked canonical moduli (little-endian, monic)
CANONICAL_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (5, 2): (2, 0, 1),        # x^2 + 2
    (5, 3): (1, 1, 0, 1),     # x^3 + x + 1
}


@pytest.mark.parametrize("p,m", sorted(CANONICAL_MODULI))
def test_canonical_modulus(p, m):
    base, ext = BaseField(p, m), ExtField(BaseField(p), m)
    assert base.modulus == CANONICAL_MODULI[(p, m)]
    assert ext.modulus == CANONICAL_MODULI[(p, m)]
    # a saved modulus passes the modulus check and rebuilds the same field
    assert BaseField(p, m, CANONICAL_MODULI[(p, m)]) == base
    assert ExtField(BaseField(p), m, CANONICAL_MODULI[(p, m)]) == ext
    # the same quotient ring built at either level of the tower
    for i in range(base.order):
        assert base.neg_idx(i) == ext.neg_idx(i)
        if i:
            assert base.inv_idx(i) == ext.inv_idx(i)
        for j in range(base.order):
            assert base.add_idx(i, j) == ext.add_idx(i, j)
            assert base.mul_idx(i, j) == ext.mul_idx(i, j)


def test_f4_tables_frozen(f4):
    # with modulus x^2+x+1 and index 2 = x: x*x = x+1, x*(x+1) = 1
    assert f4.mul_idx(2, 2) == 3
    assert f4.mul_idx(2, 3) == 1
    assert f4.mul_idx(3, 3) == 2
    assert f4.add_idx(2, 3) == 1
    assert f4.add_idx(3, 3) == 0


def test_prime_field_is_mod_p():
    f7 = BaseField(7)
    for a in range(7):
        for b in range(7):
            assert f7.add_idx(a, b) == (a + b) % 7
            assert f7.mul_idx(a, b) == (a * b) % 7


@pytest.mark.parametrize("maker", [lambda: BaseField(3, 2), lambda: ExtField(BaseField(2), 3)])
def test_field_axioms_exhaustive(maker):
    f = maker()
    els = elements(f)
    for x in els:
        assert x + f.zero == x
        assert x * f.one == x
        assert x - x == f.zero
        if x:
            assert x * x**-1 == f.one
    for x, y, z in itertools.product(els[:5], els, els[:5]):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


DIFFERENTIAL_FIELDS = {
    "GF(2)": lambda: BaseField(2),
    "GF(2^8)": lambda: BaseField(2, 8),
    "GF(2^4)^2": lambda: ExtField(BaseField(2, 4), 2),
    "GF(2^8)^3": lambda: ExtField(BaseField(2, 8), 3),  # untabulated
    "GF(5)^3": lambda: ExtField(BaseField(5), 3),
    "GF(7^2)^2": lambda: ExtField(BaseField(7, 2), 2),
    "GF(3)^11": lambda: ExtField(BaseField(3), 11),  # untabulated, odd p
    "GF(31^2)": lambda: BaseField(31, 2),
    "GF(5)^4": lambda: ExtField(BaseField(5), 4),
    # tabulated, adding as their structure says: GF(5) built as an
    # extension adds mod 5, and GF(3^2) adds compiled digit sums mod 3
    "GF(5)^1": lambda: ExtField(BaseField(5), 1),
    "GF(3^2)": lambda: BaseField(3, 2),
    # untabulated: digit sums through GF(7^2)'s own compiled ops; a
    # power-of-two radix other than 256; division digits and a two-term
    # fold over GF(5)
    "GF(7^2)^3": lambda: ExtField(BaseField(7, 2), 3),
    "GF(2^4)^5": lambda: ExtField(BaseField(2, 4), 5),
    "GF(5)^7": lambda: ExtField(BaseField(5), 7),
    # x^3 + 3x^2 + x + 1: every lower coefficient is nonzero, so the fold
    # of x^4 lands on the x^3 digit that is folded next
    "GF(2^8)^3 dense": lambda: ExtField(BaseField(2, 8), 3, modulus=(1, 1, 3, 1)),
}


def draw_operand(r: random.Random, f: Field) -> int:
    """A uniform index, a subfield element, or an index with a zero digit."""
    x = r.randrange(f.order)
    kind = r.randrange(3)
    if kind == 1:
        return x % f._radix
    if kind == 2:
        coords = list(f.coords_of(x))
        coords[r.randrange(f.degree)] = 0
        return f.from_coords(coords).index
    return x


@pytest.mark.parametrize("name", list(DIFFERENTIAL_FIELDS))
def test_index_ops_match_reference(name):
    f = DIFFERENTIAL_FIELDS[name]()
    ref = reference_field(f)
    assert ref.order == f.order
    r = random.Random(name)
    for k in range(200):
        x, y = draw_operand(r, f), draw_operand(r, f)
        assert f.add_idx(x, y) == ref.add(x, y)
        assert f.neg_idx(x) == ref.neg(x)
        assert f.sub_idx(x, y) == ref.sub(x, y)
        assert f.mul_idx(x, y) == ref.mul(x, y)
        if x:
            inv = f.inv_idx(x)
            assert f.mul_idx(x, inv) == 1
            # inverses are unique, so a reference product of 1 pins inv
            # down; the costly Fermat power runs on a prefix as well
            assert ref.mul(x, inv) == 1
            if k < 25:
                assert inv == ref.inv(x)
    # combine and dot against sums of reference products, with zeros and
    # ones drawn often among coefficients and entries; count 0 is the empty list
    draw = lambda: r.choice((0, 1, r.randrange(f.order)))
    for _ in range(20):
        width, count = r.randrange(1, 6), r.randrange(4)
        coeffs = [draw() for _ in range(count)]
        vectors = [[draw() for _ in range(width)] for _ in range(count)]
        want = [0] * width
        for c, vec in zip(coeffs, vectors):
            want = [ref.add(acc, ref.mul(c, v)) for acc, v in zip(want, vec)]
        assert f.combine(coeffs, vectors, width) == tuple(want)
        xs, ys = [draw() for _ in range(width)], [draw() for _ in range(width)]
        want_dot = 0
        for x, y in zip(xs, ys):
            want_dot = ref.add(want_dot, ref.mul(x, y))
        assert f.dot(xs, ys) == want_dot
    assert f.combine([], [], 4) == (0, 0, 0, 0)
    assert f.dot([], []) == 0


@pytest.mark.parametrize("name", list(DIFFERENTIAL_FIELDS))
def test_dot_matches_a_reference_sum(name):
    # the once-reducing dot against a sum of reference products reduced at
    # every step: no terms, all-zero terms, short and long vectors (the
    # digit sums of 300 products pass p many times before their one
    # reduction), and a vector of one element at its largest
    f = DIFFERENTIAL_FIELDS[name]()
    ref = reference_field(f)

    def want(xs, ys):
        acc = 0
        for x, y in zip(xs, ys):
            acc = ref.add(acc, ref.mul(x, y))
        return acc

    r = random.Random(name)
    top = f.order - 1
    cases = [((), ()), ((0,) * 7, (3 % f.order,) * 7), ((top,) * 300, (top,) * 300)]
    for width in (1, 2, 3, 5, 40, 300):
        xs = [draw_operand(r, f) for _ in range(width)]
        ys = [r.choice((0, 1, top, draw_operand(r, f))) for _ in range(width)]
        cases.append((xs, ys))
    for xs, ys in cases:
        assert f.dot(xs, ys) == want(xs, ys), (name, len(xs))
    # iterables are read once, and the shorter one ends the sum
    xs, ys = cases[-1]
    assert f.dot(iter(xs), iter(ys[:10])) == want(xs[:10], ys[:10])


def test_dot_follows_the_field_structure():
    # XOR of the products in characteristic 2, one int sum mod p at prime
    # order, and generated base-p digit sums otherwise: one digit sum per
    # F_p coordinate of the field, int constants only
    for name, maker in DIFFERENTIAL_FIELDS.items():
        f = maker()
        code = f._dot.__code__
        if f.char == 2:
            assert "xor" in code.co_names and "reduce" in code.co_names, name
        elif f.order == f.char:
            assert code.co_filename != "<field ops>", name
            assert "sum" in code.co_names and f.char in _closure_values(f._dot), name
        else:
            assert code.co_filename == "<field ops>", name
            assert all(c is None or type(c) is int for c in code.co_consts), name
            width = round(math.log(f.order, f.char))
            assert f.char**width == f.order
            assert [v for v in code.co_varnames if v.startswith("c")] == [
                f"c{k}" for k in range(width)
            ], name
            assert _closure_values(f._dot) == [f.mul_idx], name


def _closure_values(fn) -> list:
    return [c.cell_contents for c in fn.__closure__ or ()]


# tabulated odd-p fields, which once added by Zech logarithms on their
# discrete-log tables and now add by their structure: mod 5 for GF(5)^1,
# compiled digit sums for the rest
@pytest.mark.parametrize(
    "maker",
    [
        lambda: BaseField(3, 2),
        lambda: ExtField(BaseField(5), 1),
        lambda: ExtField(BaseField(5), 2),
        lambda: ExtField(BaseField(3, 2), 2),
    ],
    ids=["GF(3^2)", "GF(5)^1", "GF(5)^2", "GF(3^2)^2"],
)
def test_zech_addition_exhaustive(maker):
    # every pair, so zero operands, x + (-x) and x - x are all covered
    f = maker()
    ref = reference_field(f)
    for x in range(f.order):
        assert f.neg_idx(x) == ref.neg(x)
        for y in range(f.order):
            assert (f.add_idx(x, y), f.sub_idx(x, y)) == (ref.add(x, y), ref.sub(x, y))


def test_index_ops_run_no_python_loop():
    # every bound index op is straight-line code or a builtin: no code
    # object that runs while one is called holds a loop
    ran = set()

    def tracer(frame, event, arg):
        ran.add((name, frame.f_code))

    for name, maker in DIFFERENTIAL_FIELDS.items():
        f = maker()
        r = random.Random(name)
        operands = [(draw_operand(r, f), draw_operand(r, f)) for _ in range(20)]
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            for x, y in operands:
                f.from_digits(f.coords_of(x))
                f.neg_idx(x)
                f.add_idx(x, y)
                f.sub_idx(x, y)
                f.mul_idx(x, y)
                if f._frobenius is not None:
                    f._frobenius(x)
        finally:
            sys.settrace(previous)
    loops = sorted(
        (name, code.co_name)
        for name, code in ran
        if {"FOR_ITER", "JUMP_BACKWARD"} & {ins.opname for ins in dis.get_instructions(code)}
    )
    assert loops == []


@pytest.mark.parametrize("name", list(DIFFERENTIAL_FIELDS))
def test_frobenius_step_is_the_qth_power(name):
    # the compiled step against square-and-multiply (or the log tables):
    # every element of a field of order at most 2^16, a seeded sample of
    # the larger ones; only an extension has a step
    f = DIFFERENTIAL_FIELDS[name]()
    if not isinstance(f, ExtField):
        assert f._frobenius is None
        return
    q, step = f._radix, f._frobenius
    if f.order <= 1 << 16:
        xs = range(f.order)
    else:
        r = random.Random(name)
        xs = [0, 1, f.order - 1, *(draw_operand(r, f) for _ in range(300))]
    assert [step(x) for x in xs] == [f.pow_idx(x, q) for x in xs]
    assert f.frobenius_chain(xs[-1], f.degree + 1)[-1] == xs[-1]
    # the matrix enters the source as int literals
    consts = step.__code__.co_consts
    assert all(c is None or type(c) is int for c in consts), consts
    if f.degree == 1:
        assert all(step(x) == x for x in xs)


def test_frobenius_chain_calls_no_combine(monkeypatch):
    f = ExtField(BaseField(2, 8), 3)  # untabulated: the norm inverse chains too

    def refuse(*args):
        raise AssertionError("combine called")

    monkeypatch.setattr(Field, "combine", refuse)
    x = 13587199
    chain = f.frobenius_chain(x, 4)
    assert chain == (x, *(f.pow_idx(x, f._radix**k) for k in (1, 2)), x)
    assert f.inv_idx(x) == 7092954
    assert "_frobenius_cols" not in Field.__slots__


TABLE_FIELDS = {
    **DIFFERENTIAL_FIELDS,
    "GF(2^12)": lambda: BaseField(2, 12),
    "GF(3)^7": lambda: ExtField(BaseField(3), 7),
    "GF(2^4)^1": lambda: ExtField(BaseField(2, 4), 1),
    # sampled: 2000 indices each
    "GF(2^8)^2": lambda: ExtField(BaseField(2, 8), 2),
    "GF(2^16)": lambda: BaseField(2, 16),
}


@pytest.mark.parametrize("name", list(TABLE_FIELDS))
def test_log_tables_match_reference(name):
    # the walked tables against the reference product, in the layout of the
    # fields module docstring; only a field of order at most 2^16 has them
    f = TABLE_FIELDS[name]()
    if f.order > 1 << 16:
        assert f._exp is None and f._log is None
        return
    exp, log, n = f._exp, f._log, f.order - 1
    assert (len(exp), len(log)) == (4 * n + 1, f.order)
    assert exp[n : 2 * n] == exp[:n] and exp[2 * n :] == [0] * (2 * n + 1)
    assert log[0] == 2 * n
    ref = reference_field(f)
    if n < 5000:
        xs = range(n)
    else:
        xs = sorted({0, n - 1, *random.Random(name).sample(range(n), 2000)})
    g = exp[1]
    for i in xs:
        assert exp[i + 1] == ref.mul(exp[i], g), i
        assert log[exp[i]] == i
    # g is the smallest generator: every smaller index but 0 and 1 has a
    # log that shares a factor with n
    assert all(math.gcd(log[c], n) > 1 for c in range(2, g))


@pytest.mark.parametrize(
    "maker",
    [lambda: BaseField(2, 12), lambda: ExtField(BaseField(5), 4)],
    ids=["GF(2^12)", "GF(5)^4"],
)
def test_log_tables_walk_without_the_product(monkeypatch, maker):
    # the product finds the generator and the images of the basis vectors
    # under x -> g x; the compiled step walks the n - 1 powers after 1
    f = maker()
    exp, log = f._exp, f._log
    product = fields._compile_ops(f._radix, f.degree, f._fold, f.subfield)[2]
    honest_power = fields._power
    searching, search_calls, other_calls = [False], [0], [0]

    def counting_mul(i, j):
        (search_calls if searching[0] else other_calls)[0] += 1
        return product(i, j)

    def counting_power(mul, i, e):
        searching[0] = True
        try:
            return honest_power(mul, i, e)
        finally:
            searching[0] = False

    monkeypatch.setattr(fields, "_power", counting_power)
    f._build_log_tables(counting_mul)
    assert (f._exp, f._log) == (exp, log)
    assert other_calls[0] <= f.degree
    assert 0 < search_calls[0] + other_calls[0] < (f.order - 2) // 4


@pytest.mark.parametrize(
    "maker",
    [lambda: BaseField(2, 8), lambda: ExtField(BaseField(5), 4), lambda: ExtField(BaseField(2, 8), 3)],
    ids=["GF(2^8)", "GF(5)^4", "GF(2^8)^3"],
)
def test_power_squares_from_the_base(maker):
    # left to right from i: one squaring per bit after the leading one and
    # one product per set bit after it, so no product by the starting 1
    # and no squaring past the last bit
    f = maker()
    ref = reference_field(f)
    calls = [0]

    def counting_mul(i, j):
        calls[0] += 1
        return f.mul_idx(i, j)

    n = f.order - 1
    for e in (0, 1, 2, 3, 5, 8, 255, n // 2, n - 1, n, n + 1, 3 * n + 7):
        for i in (1, 2, f.order - 1):
            calls[0] = 0
            assert fields._power(counting_mul, i, e) == ref.power(i, e), (e, i)
            assert calls[0] == max(e.bit_length() + bin(e).count("1") - 2, 0), (e, i)


def test_addition_follows_the_field_structure():
    # XOR in characteristic 2, mod p at prime order, compiled digit sums
    # otherwise; no rule reads a table but a prime field's length-p
    # negation, and byte lanes go with prime order alone
    for name, maker in DIFFERENTIAL_FIELDS.items():
        f = maker()
        ops = (f.add_idx, f.sub_idx, f.neg_idx)
        for op in ops:
            cells = [c.cell_contents for c in getattr(op, "__closure__", None) or ()]
            assert not any(isinstance(c, list) for c in cells), name
        if f.char == 2:
            assert ops == (operator.xor, operator.xor, operator.pos), name
        elif f.order == f.char:
            assert len(f.neg_idx.__self__) == f.char, name
        else:
            assert {op.__code__.co_filename for op in ops} == {"<field ops>"}, name
        assert (f._lanes is not None) == (f.order == f.char <= 13), name


@pytest.mark.parametrize("p", (2, 5, 13))
def test_prime_order_extension_adds_like_its_prime_field(p):
    base, ext = BaseField(p), ExtField(BaseField(p), 1)
    assert ext._lanes is not None and ext._lanes == base._lanes
    for op in ("add_idx", "sub_idx", "neg_idx"):
        args = list(itertools.product(range(p), repeat=1 if op == "neg_idx" else 2))
        assert [getattr(ext, op)(*a) for a in args] == [getattr(base, op)(*a) for a in args]
    r = random.Random(p)
    for _ in range(100):
        count, width = r.randrange(20), r.randrange(1, 8)
        coeffs = [r.randrange(p) for _ in range(count)]
        vectors = [[r.randrange(p) for _ in range(width)] for _ in range(count)]
        assert ext.combine(coeffs, vectors, width) == base.combine(coeffs, vectors, width)


# the primes with p(p - 1) <= 255, which mix whole vectors in byte lanes,
# and 17, the first prime that loops over symbols
LANE_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_prime_combine_matches_symbolwise_sums(p):
    f = BaseField(p)
    r = random.Random(p)
    draw = lambda: r.choice((0, 1, p - 1, r.randrange(p)))
    for _ in range(300):
        count, width = r.randrange(46), r.randrange(21)
        coeffs = [draw() for _ in range(count)]
        lengths = [r.choice((width, r.randrange(width + 1))) for _ in range(count)]
        vectors = [r.choice((list, tuple))(draw() for _ in range(n)) for n in lengths]
        assert f.combine(coeffs, vectors, width) == combine_mod_p(p, coeffs, vectors, width)
    # the largest lane load: for each run length s, s terms summing to p - 1
    # mod p, then s + 1 terms at their largest, (p - 1) * (p - 1) per symbol
    big = (p - 1, (p - 1,) * 20)
    for s in (*range(1, 46), 254, 255, 256):
        last = (1, ((p - s) % p,) * 20)
        coeffs, vectors = zip(*[big] * (s - 1), last, *[big] * (s + 1))
        assert f.combine(coeffs, vectors, 20) == combine_mod_p(p, coeffs, vectors, 20)


def _lines_run(call) -> int:
    """Python line events while ``call()`` runs."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return lines


@pytest.mark.parametrize("p,grows", [(5, False), (17, True)])
def test_small_prime_combine_has_no_per_symbol_loop(p, grows):
    # GF(5) mixes each whole vector in one step, so its line count does not
    # depend on the width; GF(17) walks the symbols
    f = BaseField(p)
    r = random.Random(p)
    runs = []
    for width in (13, 1300):
        vectors = [tuple(r.randrange(1, p) for _ in range(width)) for _ in range(3)]
        runs.append(_lines_run(lambda: f.combine((1, 2, 3), vectors, width)))
    assert (runs[1] > runs[0]) == grows, runs


# the byte lanes check no symbol, but a malformed input still ends in a
# SubtagError; p = 13 reduces its lanes after every term, p = 2 after 254
@pytest.mark.parametrize("p", (2, 5, 13))
def test_byte_lane_combine_refuses_a_vector_longer_than_width(p):
    f = BaseField(p)
    with pytest.raises(LengthMismatch):
        f.combine([1], [(1, 1, 1)], 2)
    with pytest.raises(LengthMismatch):
        f.combine([1, 1, 1], [(1, 0), (0, 1), (1, 1, 1)], 2)


@pytest.mark.parametrize("p", (2, 5, 13))
@pytest.mark.parametrize("entry", (300, 256, -1))
def test_byte_lane_combine_refuses_entries_outside_a_byte(p, entry):
    with pytest.raises(InvalidParams):
        BaseField(p).combine([1, 1], [(1, 0), (entry, 0)], 2)


@pytest.mark.parametrize("p", (2, 5, 13))
def test_byte_lane_combine_refuses_non_int_entries(p):
    f = BaseField(p)
    with pytest.raises(FieldMismatch):
        f.combine([1], [(1.0, 0)], 2)
    with pytest.raises(FieldMismatch):
        f.combine([1], [(None,)], 2)
    with pytest.raises(FieldMismatch):
        f.combine([1.0], [(1, 0)], 2)


def test_byte_lane_combine_refuses_a_negative_sum():
    with pytest.raises(InvalidParams):
        BaseField(5).combine([1, -2], [(0, 1), (1, 1)], 2)


def _outcome(call):
    """What ``call()`` returns, or the SubtagError class it raises."""
    try:
        return call()
    except SubtagError as exc:
        return type(exc)


@pytest.mark.parametrize("p", LANE_PRIMES)
def test_batched_mix_matches_per_row_combine(p):
    # one _mix call over several coefficient rows gives each row's combine,
    # past the lane room too: 16 nonzero terms over F_5 (room 15), 2 over
    # F_13 (room 1), up to 300 over F_2 (room 254); rows may be shorter
    # than the vector list, and a vector no row weights may be anything
    f = BaseField(p)
    if p in (5, 13):
        assert f._lanes[1] == {5: 15, 13: 1}[p]
    r = random.Random(p)
    for count in (0, 1, 2, 3, 15, 16, 17, 254, 255, 300):
        width = r.randrange(1, 14)
        vectors = [tuple(r.randrange(p) for _ in range(r.randrange(width + 1))) for _ in range(count)]
        rows = [
            [r.choice((0, 1, p - 1, r.randrange(p))) for _ in range(r.randrange(count + 1))]
            for _ in range(r.randrange(1, 5))
        ]
        rows.append([p - 1] * count)  # every term at its largest
        got = f._mix(rows, vectors, width)
        assert got == tuple(f.combine(row, vectors, width) for row in rows)
        assert got == tuple(combine_mod_p(p, row, vectors, width) for row in rows)
    # a vector that no nonzero coefficient weights is never read
    assert f._mix([(1, 0), (0,)], [(1, 1), None], 2) == ((1, 1), (0, 0))


@pytest.mark.parametrize("p", (2, 5, 13, 17))
@pytest.mark.parametrize(
    "rows, vectors",
    [
        ([(1,), (1, 1)], [(1, 1, 1)]),  # longer than width 2
        ([(1, 1), (0, 1)], [(1, 0), (300, 0)]),  # outside a byte
        ([(1,), (1, 1)], [(1, 0), (-1, 0)]),
        ([(2,), (1, 1)], [(1.0, 0), (1, 0)]),  # not an int
        ([(1,), (1,)], [(None,)]),
        ([(1.0,), (1,)], [(1, 0)]),  # a float coefficient
        ([(1, 1), (1, -2)], [(0, 1), (1, 1)]),  # a negative sum
        ([(1, 1)], [(1, 0)]),  # more coefficients than vectors
    ],
    ids=["long", "past-byte", "negative-entry", "float", "none", "float-coeff", "negative-sum", "extra-coeff"],
)
def test_batched_mix_maps_malformed_input_like_combine(p, rows, vectors):
    # the batch raises exactly when some row's combine does, with the same
    # SubtagError; on the byte lanes every malformed case above raises
    f = BaseField(p)
    per_row = [_outcome(lambda: f.combine(row, vectors, 2)) for row in rows]
    errors = [o for o in per_row if isinstance(o, type)]
    batched = _outcome(lambda: f._mix(rows, vectors, 2))
    if errors:
        assert batched == errors[0]
    else:
        assert batched == tuple(per_row)
    if f._lanes is not None:
        assert errors and issubclass(batched, SubtagError)


@pytest.mark.parametrize(
    "name", [*(f"GF({p})" for p in LANE_PRIMES), *DIFFERENTIAL_FIELDS]
)
def test_parity_check_matches_reference_dots(name):
    # the predicate x -> (rows . x == 0) against reference sums, on the
    # byte lanes past their room (F_5 reduces after 15 columns, F_13 after
    # each one, F_2 after 254) and by row dots on every other field; about
    # half the cases make every row vanish on x, by fixing each row's last
    # entry
    p = int(name[3:-1]) if name[3:-1].isdigit() else None
    f = BaseField(p) if p else DIFFERENTIAL_FIELDS[name]()
    ref = reference_field(f)
    r = random.Random(name)
    seen = set()
    for width in (1, 2, 13, 16, 40) + ((300,) if p == 2 else ()):
        for height in (1, 2, 4):
            x = [draw_operand(r, f) for _ in range(width - 1)] + [r.randrange(1, f.order)]
            rows = [[draw_operand(r, f) for _ in range(width)] for _ in range(height)]
            if r.random() < 0.5:
                for row in rows:
                    partial = 0
                    for a, b in zip(row[:-1], x):
                        partial = ref.add(partial, ref.mul(a, b))
                    row[-1] = f.div_idx(f.neg_idx(partial), x[-1])
            want = True
            for row in rows:
                acc = 0
                for a, b in zip(row, x):
                    acc = ref.add(acc, ref.mul(a, b))
                want = want and acc == 0
            assert f._parity_check(rows, width)(tuple(x)) is want, (name, width, height)
            seen.add(want)
    assert seen == {True, False}


def test_batched_mix_loops_over_combine_without_lanes(monkeypatch):
    # a field without byte lanes mixes row by row through combine
    f = ExtField(BaseField(5), 3)
    r = random.Random(125)
    vectors = [tuple(r.randrange(125) for _ in range(4)) for _ in range(3)]
    rows = [tuple(r.randrange(125) for _ in range(3)) for _ in range(4)]
    want = tuple(f.combine(row, vectors, 4) for row in rows)
    calls = []
    original = Field.combine
    monkeypatch.setattr(Field, "combine", lambda self, *a: calls.append(a) or original(self, *a))
    assert f._mix(rows, vectors, 4) == want
    assert len(calls) == len(rows)


# every other field loops over the symbols, and what its arithmetic cannot
# read ends in a SubtagError too
@pytest.mark.parametrize(
    "field, coeffs, vectors, error",
    [
        (BaseField(17), [1], [(1, 2, 3)], LengthMismatch),
        (ExtField(BaseField(5), 3), [1], [(1, 2, 3)], LengthMismatch),
        (BaseField(17), [2], [(1.0, 0)], FieldMismatch),
        (BaseField(17), [2], [(300, 0)], InvalidParams),
    ],
    ids=["gf17-long", "gf125-long", "gf17-float", "gf17-past-table"],
)
def test_symbol_loop_combine_refuses_malformed_vectors(field, coeffs, vectors, error):
    with pytest.raises(error):
        field.combine(coeffs, vectors, 2)


def test_field_built_again_reuses_its_compiled_code():
    # params files rebuild their fields on every load; a second build of the
    # same field binds the very functions of the first
    a, b = ExtField(BaseField(5), 2), ExtField(BaseField(5), 2)
    assert a.coords_of is b.coords_of
    assert a._frobenius is b._frobenius


def test_field_built_again_skips_the_modulus_search(monkeypatch):
    # the canonical modulus is searched for once per (degree, subfield)
    fields._canonical_irreducible.cache_clear()
    calls = []
    real = fields._is_irreducible
    monkeypatch.setattr(fields, "_is_irreducible", lambda *a: calls.append(a) or real(*a))
    first = ExtField(BaseField(2, 8), 3)
    searched = len(calls)
    assert searched
    again = ExtField(BaseField(2, 8), 3)
    assert again == first and again.modulus == first.modulus
    assert len(calls) == searched


# (x, y, x*y, x^-1, -x) on the two untabulated fields, recorded from the
# polynomial-remainder product and the Fermat inverse x^(order-2).
FROZEN_UNTABULATED = {
    "GF(2^8)^3": (
        (13587199, 14087828, 220805, 7092954, 13587199),
        (12035467, 5868146, 2537446, 4621145, 12035467),
        (423876, 5840527, 3537239, 9520572, 423876),
        (13374328, 8691561, 16074498, 16230577, 13374328),
        (3013648, 11067385, 8313335, 16400105, 3013648),
        (3496712, 1738758, 14860025, 12283746, 3496712),
        (2401705, 2525549, 16437815, 3611292, 2401705),
        (9834004, 5361428, 4425754, 8913238, 9834004),
    ),
    "GF(3)^11": (
        (13179, 49077, 118239, 158969, 6594),
        (75157, 90597, 10101, 147434, 130541),
        (125145, 69971, 26424, 97788, 72414),
        (81597, 40798, 42871, 28639, 162222),
        (93637, 18284, 69661, 107054, 165404),
        (124721, 39801, 49434, 119763, 72202),
        (111605, 87631, 65530, 162142, 144394),
        (164341, 122720, 52320, 11757, 92378),
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_UNTABULATED))
def test_untabulated_ops_frozen(name):
    f = DIFFERENTIAL_FIELDS[name]()
    assert f._exp is None
    for x, y, prod, inv, neg in FROZEN_UNTABULATED[name]:
        assert (f.mul_idx(x, y), f.inv_idx(x), f.neg_idx(x)) == (prod, inv, neg)


def test_invalid_field_params():
    with pytest.raises(InvalidParams):
        BaseField(4)  # not prime
    with pytest.raises(InvalidParams):
        BaseField(2, 0)
    with pytest.raises(InvalidParams):
        BaseField(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(InvalidParams):
        ExtField(BaseField(2), 2, modulus=(1, 0, 1))
    with pytest.raises(InvalidParams):
        BaseField(2, 17)  # 2^17 above the table ceiling


@pytest.mark.parametrize(
    "build",
    [
        lambda: BaseField(5.0),
        lambda: BaseField(True),
        lambda: BaseField(5, 2.0),
        lambda: BaseField(5, True),
        lambda: ExtField(BaseField(5), 2.0),
        lambda: ExtField(BaseField(5), True),  # built "GF(5) over GF(5)"
        lambda: BaseField(5, modulus=(False, True)),  # built GF(5)
        lambda: ExtField(BaseField(5), 2, (2, 0, True)),
    ],
    ids=["p-float", "p-bool", "m-float", "m-bool", "l-float", "l-bool", "modulus-bools",
         "ext-modulus-bool"],
)
def test_field_parameters_that_are_not_ints_are_refused(build):
    with pytest.raises(InvalidParams, match="is not an int"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: BaseField(5, 2, (2.5, 0, 1)),  # not truncated to 2
        lambda: ExtField(BaseField(5), 2, (2.5, 0, 1)),
        lambda: BaseField(5, 1, (6, 1)),  # not reduced to (1, 1)
        lambda: BaseField(5, 1, (0, 6)),  # a leading 6 is not monic
        lambda: BaseField(5, 1, (-1, 1)),
        lambda: ExtField(BaseField(5), 2, (2, 0, 1, 0)),
        lambda: ExtField(BaseField(5), 2, (25, 0, 1)),
        lambda: BaseField(5, 2, ()),
    ],
    ids=["base-float", "ext-float", "base-unreduced", "base-leading-6", "base-negative",
         "ext-too-long", "ext-unreduced", "base-empty"],
)
def test_modulus_coefficients_are_checked_not_reduced(build):
    with pytest.raises(InvalidParams, match="modulus must be monic"):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: BaseField(5, 1, (3, 1)), lambda: ExtField(BaseField(5), 1, (3, 1))],
    ids=["base", "ext"],
)
def test_degree_one_modulus_must_be_x(build):
    # x + 3 is irreducible, but a second name for F_5 would compare unequal
    with pytest.raises(InvalidParams, match="degree-1 modulus must be x"):
        build()
    assert BaseField(5, 1, (0, 1)) == BaseField(5)
    assert ExtField(BaseField(5), 1, (0, 1)) == ExtField(BaseField(5), 1)


def test_element_coords_round_trip(e9):
    for x in elements(e9):
        assert e9.from_coords(x.coords) == x
        assert e9.element(list(x.coords)) == x


def test_from_coords_takes_index_coordinates(e9, f3):
    # coordinates are indices of the subfield, not its elements
    assert e9.from_coords([2, 1]).index == 5
    with pytest.raises(FieldMismatch):
        e9.from_coords([f3.one, f3.zero])
    with pytest.raises(InvalidParams):
        e9.from_coords([3, 0])


def test_embed_is_identity_on_indices(e25, f5):
    for c in elements(f5):
        assert embed(e25, c).index == c.index
        assert embed(e25, c).coords == (c.index, 0)
    # embedding respects the field operations
    for a in elements(f5):
        for b in elements(f5):
            assert embed(e25, a) + embed(e25, b) == embed(e25, a + b)
            assert embed(e25, a) * embed(e25, b) == embed(e25, a * b)


def test_mismatched_fields_rejected(f2, f3, e4):
    with pytest.raises(FieldMismatch):
        f2.one + f3.one
    with pytest.raises(FieldMismatch):
        e4.one * f3.one
    with pytest.raises(DivisionByZero):
        e4.one / e4.zero
    with pytest.raises(DivisionByZero):
        f2.one / f2.zero


def test_pow_lagrange(e8):
    for x in elements(e8):
        assert x**0 == e8.one
        if x:
            assert x ** (e8.order - 1) == e8.one


# -- Frobenius ---------------------------------------------------------------


@pytest.mark.parametrize("fixt", ["e4", "e9", "e25"])
def test_frobenius_is_qth_power(fixt, request):
    ext = request.getfixturevalue(fixt)
    q = ext.base.order
    for x in elements(ext):
        assert frobenius(x) == x**q


def test_frobenius_l_fold_identity(e125):
    for idx in range(0, e125.order, 7):
        x = y = e125.element(idx)
        for _ in range(e125.l):
            y = frobenius(y)
        assert y == x
        assert e125.frobenius_chain(idx, e125.l + 1)[-1] == idx


def test_frobenius_fixes_exactly_the_base(e9):
    fixed = sorted(x.index for x in elements(e9) if frobenius(x) == x)
    assert fixed == list(range(e9.base.order))


F125 = ExtField(BaseField(5), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 124), st.integers(0, 124))
def test_frobenius_additive_multiplicative(ia, ib):
    a, b = F125.element(ia), F125.element(ib)
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frobenius_matrix_vs_powering(e125):
    # the matrix path and square-and-multiply must agree step by step
    q = e125.base.order
    for idx in (0, 1, 2, 17, 63, 124):
        x = e125.element(idx)
        assert e125.frobenius_chain(idx, 3)[1:] == ((x**q).index, ((x**q) ** q).index)


# -- linearized evaluation -----------------------------------------------------


def test_linearized_eval_degree_one(e9):
    a0, a1 = e9.element(5), e9.element(7)
    for s in elements(e9):
        assert linearized_eval((a0, a1), 1, s) == a0 + a1 * s
        assert linearized_eval((a0, a1), 0, s) == a1 * s


def test_linearized_eval_matches_direct_powers(e125):
    coeffs = tuple(e125.element(i) for i in (3, 29, 77))
    q = e125.base.order
    for idx in (0, 4, 88, 124):
        s = e125.element(idx)
        expect = embed(e125, 1) * coeffs[0] + coeffs[1] * s + coeffs[2] * s**q
        assert linearized_eval(coeffs, 1, s) == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2), st.integers(0, 2))
def test_linearized_eval_is_fq_linear(is1, is2, c1, c2):
    ext = ExtField(BaseField(3), 2)
    coeffs = tuple(ext.element(i) for i in (4, 2, 7))
    s1, s2 = ext.element(is1), ext.element(is2)
    cc1, cc2 = embed(ext, c1), embed(ext, c2)
    lhs = linearized_eval(coeffs, c1 + c2 if c1 + c2 < 3 else c1 + c2 - 3, cc1 * s1 + cc2 * s2)
    rhs = cc1 * linearized_eval(coeffs, 1, s1) + cc2 * linearized_eval(coeffs, 1, s2)
    assert lhs == rhs


def test_linearized_eval_rejects_bad_inputs(e9, f3):
    with pytest.raises(LengthMismatch):
        linearized_eval((), 1, e9.one)
    with pytest.raises(FieldMismatch):
        linearized_eval((f3.one,), 1, e9.one)


# -- Moore matrices ------------------------------------------------------------


def moore_matrix(elements, m: int) -> Matrix:
    """Rows (1, s_i, s_i^q, ..., s_i^(q^(m-1))) for each s_i, as a Matrix.

    For r = m+1 elements the matrix is invertible exactly when the
    differences s_i - s_1 are linearly independent over F_q (subtracting
    the first row leaves a classical Moore block of the differences).
    F_q-linear independence of the s_i themselves is sufficient.
    """
    field = elements[0].field
    rows = []
    for s in elements:
        chain = field.frobenius_chain(s.index, m)
        rows.append((field.one,) + tuple(FieldElement(field, i) for i in chain))
    return Matrix(field, tuple(rows), ncols=m + 1)


def test_moore_frozen_2x2(e4):
    w = e4.element(2)
    m = moore_matrix([e4.one, w], 1)
    assert m.to_index_rows() == ((1, 1), (1, 2))
    assert m.rank() == 2


def test_moore_affine_independence_nuance(e4, e25):
    # {1, 0} is linearly dependent yet affinely independent: still invertible
    assert moore_matrix([e4.one, e4.zero], 1).rank() == 2
    # {x, 2x} over F_25: dependent multiples, distinct, still invertible
    x = e25.element(7)
    assert moore_matrix([x, x + x], 1).rank() == 2
    # a repeated element collapses the rank
    assert moore_matrix([x, x], 1).rank() == 1


def test_moore_rank_matches_independence(e8, e9):
    # for rows (1, s, s^q) of three elements, independence over F_2 gives rank 3
    one, a, b = e8.one, e8.element(2), e8.element(4)
    assert moore_matrix([one, a, b], 2).rank() == 3
    # {1, a, 1+a} is linearly dependent over F_2 but affinely independent:
    # the affine rows keep full rank
    assert moore_matrix([one, a, one + a], 2).rank() == 3
    # a genuine affine dependence (0, x, 2x over F_3) drops the rank
    x = e9.element(3)
    assert moore_matrix([e9.zero, x, x + x], 2).rank() == 2


def test_repr_shapes(f5, e125):
    assert repr(f5.element(3)) == "GF(5):3"
    assert repr(e125.element(6)) == "GF(5^3):[1 1 0]"
