"""Oracle constructions: periodic functions and the whitened-cipher family.

Two function families feed the circuits. A Simon oracle is a 2-to-1
function with a hidden XOR period. The cipher family models a block
cipher wrapped in XOR whitening keys, Enc(x) = E(k, x xor k1) xor k2,
where E is a keyed family of independent seeded random permutations; the
key-recovery residual f(k', x) = Enc(x) xor E(k', x) has period k1 when
k' is the true core key, which is what the search exploits.

Desk-scale block widths make a real cipher meaningless here, so E is
explicitly an ideal random-permutation family with a reproducible seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit


class ZeroPeriod(Exception):
    """A periodic oracle with s = 0 is not 2-to-1; refuse to build it."""


class ZeroWhiteningKey(Exception):
    """k1 = 0 would make the recovery period trivial; refuse to build it."""


@dataclass(frozen=True)
class SimonOracle:
    """2-to-1 function f on n bits with f(x) = f(x xor s), s != 0.

    ``table[x]`` is f(x); calling the oracle makes it usable directly as a
    circuit oracle block over n input and n output qubits.
    """

    n: int
    s: int
    table: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.table[x]


def build_simon_oracle(n: int, s: int, rng=None) -> SimonOracle:
    """Random oracle with hidden period s: distinct values per {x, x+s} coset.

    Raises:
        ZeroPeriod: if s = 0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < s < (1 << n):
        raise ZeroPeriod(f"period must be a nonzero {n}-bit value")
    gen = np.random.default_rng(rng)
    values = [int(v) for v in gen.permutation(1 << n)]
    table = [0] * (1 << n)
    assigned: dict[int, int] = {}
    for x in range(1 << n):
        rep = min(x, x ^ s)
        if rep not in assigned:
            assigned[rep] = values[len(assigned)]
        table[x] = assigned[rep]
    return SimonOracle(n, s, tuple(table))


@dataclass(frozen=True)
class FxOracle:
    """Whitened cipher plus the key-recovery residual f(k', x).

    ``m`` core-key bits, ``n`` block bits; (key, k1, k2) is the secret.
    ``perms[k]`` is the underlying ideal permutation E(k, .) drawn from
    ``cipher_seed``. Calling the oracle evaluates the residual with k' in
    the low m bits and x above it, matching a circuit oracle block whose
    inputs are the key register followed by the block register.
    """

    m: int
    n: int
    key: int
    k1: int
    k2: int
    cipher_seed: int
    perms: tuple[tuple[int, ...], ...]

    def encrypt(self, x: int) -> int:
        return self.perms[self.key][x ^ self.k1] ^ self.k2

    def residual(self, k_prime: int, x: int) -> int:
        """f(k', x) = Enc(x) xor E(k', x); period k1 at k' = key."""
        return self.encrypt(x) ^ self.perms[k_prime][x]

    def residual_table(self, k_prime: int) -> list[int]:
        return [self.residual(k_prime, x) for x in range(1 << self.n)]

    def __call__(self, packed: int) -> int:
        k_prime = packed & ((1 << self.m) - 1)
        x = packed >> self.m
        return self.residual(k_prime, x)


def build_fx_oracle(
    m: int, n: int, key: int, k1: int, k2: int, cipher_seed: int = 0
) -> FxOracle:
    """Whitened-cipher oracle over an ideal seeded permutation family.

    Raises:
        ZeroWhiteningKey: if k1 = 0 (the hidden period would be 0).
    """
    if m < 1 or n < 1:
        raise ValueError("widths must be positive")
    if not 0 <= key < (1 << m):
        raise ValueError("key out of range")
    if not 0 < k1 < (1 << n):
        raise ZeroWhiteningKey("k1 must be a nonzero block-width value")
    if not 0 <= k2 < (1 << n):
        raise ValueError("k2 out of range")
    perms = _permutation_family(m, n, cipher_seed)
    return FxOracle(m, n, key, k1, k2, cipher_seed, perms)


@lru_cache(maxsize=32)
def _permutation_family(m: int, n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    # one allocation for the whole family, so one that cannot fit fails at once
    table = np.empty((1 << m, 1 << n), np.int64)
    gen = np.random.default_rng(seed)
    for row in table:
        row[:] = gen.permutation(1 << n)
    return tuple(map(tuple, table.tolist()))


def y_marginal(table: list[int] | tuple[int, ...], n: int) -> list[float]:
    """Exact y-register distribution of one H / query / H round over f.

    P(y) = sum_v |sum_{x: f(x)=v} (-1)^(x.y)|^2 / 4^n. A permutation table
    gives the uniform distribution; a 2-to-1 table with period s gives the
    uniform distribution on the subspace orthogonal to s; a constant table
    concentrates everything on y = 0. Each f(x) is an n-bit value.

    Expanding the square gives 4^n P(y) = sum_d C(d) (-1)^(d.y) with
    C(d) = #{x : f(x) = f(x xor d)}, so the counts go through an n-pass
    Walsh-Hadamard butterfly on Python ints.
    """
    f = np.asarray(table)
    x = np.arange(1 << n)
    acc = [int(np.count_nonzero(f == f[x ^ d])) for d in x]
    for k in range(n):  # one butterfly pass per bit of d
        h = 1 << k
        for i in range(len(acc)):
            if i & h:
                acc[i - h], acc[i] = acc[i - h] + acc[i], acc[i - h] - acc[i]
    # exact integers up to here, so each P(y) is one correctly rounded division
    return [c / 4**n for c in acc]


# ---------------------------------------------------------------------------
# Period-finding rounds


def period_finding_rounds(
    circ: Circuit, oracle, key: list[int], ys: list[list[int]], fs: list[list[int]]
) -> None:
    """Append one H / query / H round per block pair (ys[j], fs[j]).

    Round j applies H on ys[j], XORs oracle(key + ys[j]) into fs[j] with
    an oracle block, and applies H on ys[j] again; registers "y{j}" and
    "f{j}" name its blocks.
    """
    for j, (y, f) in enumerate(zip(ys, fs)):
        circ.registers[f"y{j}"] = tuple(y)
        circ.registers[f"f{j}"] = tuple(f)
        for q in y:
            circ.h(q)
        circ.oracle_block(oracle, ins=key + y, outs=f)
        for q in y:
            circ.h(q)


def round_blocks(base: int, n: int, l: int) -> tuple[list[list[int]], list[list[int]]]:
    """y and f blocks of l rounds side by side: round j's y block from base + 2nj."""
    ys = [list(range(base + 2 * n * j, base + 2 * n * j + n)) for j in range(l)]
    return ys, [[q + n for q in y] for y in ys]


def parallel_simon_circuit(oracle: SimonOracle, l: int) -> Circuit:
    """l independent H / query / H rounds side by side (2nl qubits).

    Blocks as ``round_blocks(0, n, l)``: each y block starts as its round's
    query register and holds y afterwards, each f block holds the function
    value. Registers "y0", "f0", "y1", ... name the parts.
    """
    circ = Circuit(2 * oracle.n * l)
    period_finding_rounds(circ, oracle, [], *round_blocks(0, oracle.n, l))
    return circ
