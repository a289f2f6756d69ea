"""The paper's invariants are explicit checks, so they survive ``python -O``.

Each case corrupts one input of an invariant and expects InvariantViolated:
the key-count law (solver nullity), the global-kernel identity (one global
vector), the Frobenius order (the exponent the matrix is built from) and the
log-table walk (the compiled step x -> g x, which must close after n steps
and reach every nonzero index).  The
corruptions take a ``patch`` callable with the signature of ``setattr``, so
the same code runs under pytest's monkeypatch and in a plain subprocess.
That subprocess first runs one field's differential case of ``verify``'s
parity check against the element check, which reports its disagreements
instead of asserting them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from subtag import adversary, fields, network
from subtag.adversary import CoalitionView, assemble_system, count_consistent_keys
from subtag.codes import rs_code
from subtag.errors import InvariantViolated
from subtag.fields import BaseField, ExtField
from subtag.linalg import LinearSolution, solve_all
from subtag.scheme import PublicParams, distribute, keygen, tag_basis

HERE = Path(__file__).resolve().parent
HONEST_COMPILE_LINEAR = fields._compile_linear


def _tiny_params():
    base = BaseField(2)
    ext = ExtField(base, 2)
    return PublicParams(base=base, ext=ext, n=1, M=1, code=rs_code(ext, [0, 1, 2], 2))


def corrupt_key_count_law(patch):
    pp = _tiny_params()
    mk = keygen(pp, 13)
    packets = tag_basis(pp, mk, ((1, 0),))
    view = CoalitionView.build(pp, {1: distribute(pp, mk)[0]}, packets)
    system = assemble_system(view)  # one free key direction: nullity 1

    def solver_losing_a_direction(a, b):
        sol = solve_all(a, b)
        return LinearSolution(sol.particular, sol.null_basis[1:])

    patch(adversary, "solve_all", solver_losing_a_direction)
    count_consistent_keys(system)


def corrupt_global_kernel_identity(patch):
    honest = network._propagate

    def wrong_first_vector(t, base, kernels, sent, width, *rest):
        y = honest(t, base, kernels, sent, width, *rest)
        # edge 0's first symbol is the first entry of its global vector
        first = (base.add_idx(y[0][0], 1),) + y[0][1:]
        return (first,) + y[1:]

    patch(network, "_propagate", wrong_first_vector)
    network.transmit(network.butterfly(), BaseField(5), [(1, 0, 2), (0, 1, 4)], seed=0)


def corrupt_frobenius_order(patch):
    honest = ExtField.pow_idx

    def one_power_too_many(self, i, e):
        return honest(self, i, e + 1)  # the matrix of x -> x^(q+1), not x^q

    patch(ExtField, "pow_idx", one_power_too_many)
    ExtField(BaseField(5), 3)


def corrupt_log_table_cover(patch):
    def two_steps(*args):
        step = HONEST_COMPILE_LINEAR(*args)
        # x -> g^2 x walks half the 24 nonzero indices twice and still
        # returns to 1, so only the cover check sees it
        return lambda i: step(step(i))

    patch(fields, "_compile_linear", two_steps)
    BaseField(5, 2)


def corrupt_log_table_closure(patch):
    def never_back_to_one(*args):
        step = HONEST_COMPILE_LINEAR(*args)
        # every power of g in its place, but g^n comes out as 2, not 1
        return lambda i: step(i) if step(i) != 1 else 2

    patch(fields, "_compile_linear", never_back_to_one)
    BaseField(5, 2)


CORRUPTIONS = [
    corrupt_key_count_law,
    corrupt_global_kernel_identity,
    corrupt_frobenius_order,
    corrupt_log_table_cover,
    corrupt_log_table_closure,
]


@pytest.mark.parametrize(
    "corrupt",
    CORRUPTIONS,
    ids=[
        "key-count-law",
        "global-kernel-identity",
        "frobenius-order",
        "log-table-cover",
        "log-table-closure",
    ],
)
def test_corrupted_invariant_raises(monkeypatch, corrupt):
    with pytest.raises(InvariantViolated):
        corrupt(monkeypatch.setattr)


def test_invariants_checked_under_optimize():
    code = (
        "import sys\n"
        "from subtag.errors import InvariantViolated\n"
        "import test_invariants as ti\n"
        "# before the corruptions, which stay patched\n"
        "import test_scheme as ts\n"
        "from test_fields import DIFFERENTIAL_FIELDS\n"
        "ext = DIFFERENTIAL_FIELDS['GF(5)^7']()\n"
        "compared, accepted, wrong = ts.wire_check_disagreements(ext)\n"
        "print('wire-check', compared > 300 and accepted > 100, len(wrong), sys.flags.optimize)\n"
        "for corrupt in ti.CORRUPTIONS:\n"
        "    try:\n"
        "        corrupt(setattr)\n"
        "    except InvariantViolated:\n"
        "        print(corrupt.__name__, sys.flags.optimize)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "wire-check", "True", "0", "1",
        "corrupt_key_count_law", "1",
        "corrupt_global_kernel_identity", "1",
        "corrupt_frobenius_order", "1",
        "corrupt_log_table_cover", "1",
        "corrupt_log_table_closure", "1",
    ]
