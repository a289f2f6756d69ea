"""Deterministic, labelled randomness.

Every party in an experiment (trusted authority, source, network, adversary)
draws from its own stream so that replacing one party's behaviour never
shifts another party's samples.  Streams are derived from a 64-bit master
seed and a string label by hashing; Python's salted ``hash`` is never used.
The network is one party: each transmission draws every coding node's
kernel from its one stream, ``network/kernels``, in a fixed order.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["stream", "derive_seed"]


def derive_seed(seed: int, label: str) -> int:
    """Collapse (seed, label) into a stable 64-bit stream seed."""
    digest = hashlib.sha256(f"{seed:d}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream(seed: int, label: str) -> random.Random:
    """A fresh PRNG for the party named by ``label`` under a master seed."""
    return random.Random(derive_seed(seed, label))
