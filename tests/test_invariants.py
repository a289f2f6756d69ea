"""The paper's invariants are explicit checks, so they survive ``python -O``.

Each case corrupts one input of an invariant and expects InvariantViolated:
the key-count law (solver nullity), the global-kernel identity (one global
vector) and the Frobenius order (the exponent the matrix is built from).  The
corruptions take a ``patch`` callable with the signature of ``setattr``, so
the same code runs under pytest's monkeypatch and in a plain subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from subtag import adversary, network
from subtag.adversary import CoalitionView, assemble_system, count_consistent_keys
from subtag.codes import rs_code
from subtag.errors import InvariantViolated
from subtag.fields import BaseField, ExtField
from subtag.linalg import LinearSolution, solve_all
from subtag.scheme import PublicParams, distribute, keygen, tag_basis

HERE = Path(__file__).resolve().parent


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
    honest = network.compute_global_kernels

    def wrong_first_vector(t, base, n, seed):
        kernels, f = honest(t, base, n, seed)
        first = (base.add_idx(f[0][0], 1),) + f[0][1:]
        return kernels, (first,) + f[1:]

    patch(network, "compute_global_kernels", wrong_first_vector)
    network.transmit(network.butterfly(), BaseField(5), [(1, 0, 2), (0, 1, 4)], seed=0)


def corrupt_frobenius_order(patch):
    honest = ExtField.pow_idx

    def one_power_too_many(self, i, e):
        return honest(self, i, e + 1)  # the matrix of x -> x^(q+1), not x^q

    patch(ExtField, "pow_idx", one_power_too_many)
    ExtField(BaseField(5), 3)


@pytest.mark.parametrize(
    "corrupt",
    [corrupt_key_count_law, corrupt_global_kernel_identity, corrupt_frobenius_order],
    ids=["key-count-law", "global-kernel-identity", "frobenius-order"],
)
def test_corrupted_invariant_raises(monkeypatch, corrupt):
    with pytest.raises(InvariantViolated):
        corrupt(monkeypatch.setattr)


def test_invariants_checked_under_optimize():
    code = (
        "import sys\n"
        "from subtag.errors import InvariantViolated\n"
        "import test_invariants as ti\n"
        "for corrupt in (\n"
        "    ti.corrupt_key_count_law,\n"
        "    ti.corrupt_global_kernel_identity,\n"
        "    ti.corrupt_frobenius_order,\n"
        "):\n"
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
        "corrupt_key_count_law", "1",
        "corrupt_global_kernel_identity", "1",
        "corrupt_frobenius_order", "1",
    ]
