"""Key search over a whitened cipher with period-finding marking.

The experiment under study: a key register in uniform superposition
drives l parallel period-finding rounds against the cipher residual
f(k', x), every measurement is deferred, and amplitude amplification is
run on top with a marking predicate that checks the measured-later
y rows for a rank-(n-1) system whose kernel vector passes plaintext
checks. The module builds that state, runs the amplified search exactly,
and computes the closed-form quantities that explain why its success
probability stays far below the immediate-measurement baseline.

Conventions:
  - data register layout: key qubits first, then per round a y block and
    an f block; basis indices are bit-packed in qubit order.
  - amplitude statistics use the full data space (every basis index,
    populated or not) unless a report says otherwise; the idealized
    two-to-one accounting from the closed-form model is reported
    separately for comparison.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from . import sim
from .amplify import grover_probability
from .circuit import Circuit, Gate
from .gf2 import orthogonal_table, parity
from .counting import count_rank_n_minus_1, rank_deficit_one_formula
from .oracles import (
    FxOracle,
    build_simon_oracle,
    parallel_simon_circuit,
    period_finding_rounds,
    round_blocks,
    y_marginal,
)
from .synth import _Builder, kernel_core


class DegenerateUnmarkedMean(Exception):
    """The truncated iteration series needs a nonzero unmarked mean."""


POPULATION_WARN_RATIO = 0.1
HYBRID_REPS = 4


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class GmsConfig:
    """Shape and oracle of one combined-search experiment."""

    m: int
    n: int
    l: int
    oracle: FxOracle
    t: int = 20
    """Read by nothing in the package (``t_max`` sets the count); perfbench passes it."""
    c_check: int = 2

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be at least 1")
        if self.oracle.m != self.m or self.oracle.n != self.n:
            raise ValueError("oracle widths disagree with config")
        if not 1 <= self.c_check <= (1 << self.n):
            raise ValueError("plaintext count out of range")

    @property
    def data_qubits(self) -> int:
        return self.m + 2 * self.n * self.l

    @property
    def plaintexts(self) -> list[int]:
        return list(range(self.c_check))

    def layout(self) -> tuple[list[int], list[list[int]], list[list[int]]]:
        """Key qubits 0..m-1, then the rounds' y and f blocks from qubit m."""
        return (list(range(self.m)), *round_blocks(self.m, self.n, self.l))


def required_qubits(m: int, n: int, l: int) -> int:
    """Qubit need m + 2nl + n + 1 of a config, checked against the cap."""
    return m + 2 * n * l + n + 1


def _check_cap(m: int, n: int, l: int) -> None:
    """Raise QubitCapExceeded if the m + 2nl + n + 1 qubits pass the cap."""
    cap = sim.qubit_cap()
    need = required_qubits(m, n, l)
    if need > cap:
        raise sim.QubitCapExceeded(
            f"configuration needs {need} qubits (m + 2nl + n + 1); cap is {cap}"
        )


def _sum_in_order(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ... (``np.sum`` pairs; ``sum`` compensates from 3.12)."""
    return reduce(operator.add, values.tolist(), 0.0)


# ---------------------------------------------------------------------------
# State preparation


def prep_circuit(cfg: GmsConfig) -> Circuit:
    """Uniform key register plus l period-finding rounds, data qubits only."""
    key, ys, fs = cfg.layout()
    circ = Circuit(cfg.data_qubits)
    circ.registers = {"key": tuple(key)}
    for q in key:
        circ.h(q)
    period_finding_rounds(circ, cfg.oracle, key, ys, fs)
    return circ


def prepare_initial_state(cfg: GmsConfig) -> sim.StateVector:
    """Exact state before any amplification iteration."""
    _check_cap(cfg.m, cfg.n, cfg.l)
    return sim.run(prep_circuit(cfg))


# ---------------------------------------------------------------------------
# The classical marking predicate


@lru_cache(maxsize=8)
def _kernel_vector(n: int, l: int) -> np.ndarray:
    """kernel[packed Y]: the nonzero s with Y s = 0 if Y has rank n-1, else 0.

    Read-only, because the cache hands the same array to every caller.
    """
    orth = orthogonal_table(n, l)[:, 1:]
    kernel = np.where(orth.sum(axis=1) == 1, orth.argmax(axis=1) + 1, 0)
    kernel.flags.writeable = False
    return kernel


def _passes(cfg: GmsConfig) -> np.ndarray:
    """passes[k', s]: s != 0 and f(k', p) = f(k', p xor s) for every plaintext p."""
    res = np.array([cfg.oracle.residual_table(kp) for kp in range(1 << cfg.m)])
    s = np.arange(1 << cfg.n)
    passes = np.logical_and.reduce([res[:, [p]] == res[:, p ^ s] for p in cfg.plaintexts])
    passes[:, 0] = False
    return passes


@lru_cache(maxsize=8)
def _accept_table(cfg: GmsConfig) -> np.ndarray:
    """accept[k', packed Y]: Y has rank n-1 and its kernel vector s has passes[k', s].

    Read-only, because the cache hands the same array to every caller.
    """
    accept = _passes(cfg)[:, _kernel_vector(cfg.n, cfg.l)]
    accept.flags.writeable = False
    return accept


def _masks(cfg: GmsConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip, success and rank-only masks of the data space, from one field split.

    Rank-only: correct key and rank-(n-1) rows, without the plaintext filter.
    """
    key, ys, _ = cfg.layout()
    idx = np.arange(1 << cfg.data_qubits)
    kp = sim.extract_bits(idx, key)
    ybits = sim.extract_bits(idx, [q for y in ys for q in y])
    correct = kp == cfg.oracle.key
    flip = _accept_table(cfg)[kp, ybits]
    return flip, flip & correct, (_kernel_vector(cfg.n, cfg.l) != 0)[ybits] & correct


def classifier_mask(cfg: GmsConfig) -> np.ndarray:
    """Data-space states the phase oracle flips (any key value)."""
    return _masks(cfg)[0]


def success_mask(cfg: GmsConfig) -> np.ndarray:
    """Data-space states counted as success: correct key and accepted rows."""
    return _masks(cfg)[1]


# ---------------------------------------------------------------------------
# The reversible search circuit


def build_gms_circuit(cfg: GmsConfig) -> tuple[Circuit, dict[str, tuple[int, int]]]:
    """Full circuit with gate slices: prep, then one amplification round.

    The round slice decomposes as compute / phase / uncompute / diffusion.
    Compute extracts the kernel vector and rank flag from the y rows,
    makes c_check plaintext comparisons through the oracle, and lands the
    verdict on an accept qubit; phase applies Z there; uncompute runs the
    exact inverse; diffusion inverts the data register about its mean.
    Scratch is pooled, so one round returns every helper to zero and the
    state stays supported on the data register between rounds.
    """
    key, ys, _ = cfg.layout()
    n = cfg.n
    # the prep slice is prep_circuit itself, so prepare_initial_state is
    # exactly the state the circuit's rounds start from
    circ = prep_circuit(cfg)
    bld = _Builder(circ)
    s_out = [bld.fresh() for _ in range(n)]
    flag = bld.fresh()

    def query(p: int) -> list[int]:
        """Pooled ``out`` = f(k',p) xor f(k',p xor s): all zero on a match."""
        xin = [bld.pool_alloc() for _ in range(n)]
        out = [bld.pool_alloc() for _ in range(n)]
        for b in range(n):
            if (p >> b) & 1:
                circ.x(xin[b])
        circ.oracle_block(cfg.oracle, ins=key + xin, outs=out)
        for b in range(n):
            circ.cnot(s_out[b], xin[b])
        circ.oracle_block(cfg.oracle, ins=key + xin, outs=out)
        return out

    def compute() -> int:
        """Kernel extraction plus plaintext checks, verdict on an accept qubit."""
        kernel_core(bld, ys, s_out, flag)
        eqs = []
        for p in cfg.plaintexts:
            with bld.mirrored(lambda: query(p)) as out:
                eqs.append(bld.fresh())
                bld.flip_if(eqs[-1], zeros=out)
        accept = bld.fresh()
        circ.mcx([flag] + eqs, accept)
        return accept

    prep_end = len(circ.gates)
    with bld.mirrored(compute) as accept:
        circ.registers.update(s=tuple(s_out), flag=(flag,), accept=(accept,))
        phase_start = len(circ.gates)
        circ.extend(_phase_gates(accept))
        phase_end = len(circ.gates)
    diffusion_start = len(circ.gates)
    circ.extend(_diffusion_gates(list(range(cfg.data_qubits))))
    return circ, {
        "prep": (0, prep_end),
        "compute": (prep_end, phase_start),
        "phase": (phase_start, phase_end),
        "uncompute": (phase_end, diffusion_start),
        "diffusion": (diffusion_start, len(circ.gates)),
    }


def _phase_gates(accept: int) -> list[Gate]:
    """Z on the accept qubit, as H X H."""
    return [Gate("H", (accept,)), Gate("X", (accept,)), Gate("H", (accept,))]


def _diffusion_gates(qubits: list[int]) -> list[Gate]:
    """I - (2/2^d) J on the d ``qubits``: H and X on each, Z on all ones (H MCX H), X, H."""
    circ = Circuit(max(qubits) + 1)
    for q in qubits:
        circ.h(q)
    for q in qubits:
        circ.x(q)
    circ.h(qubits[-1])
    circ.mcx(qubits[:-1], qubits[-1])
    circ.h(qubits[-1])
    for q in qubits:
        circ.x(q)
    for q in qubits:
        circ.h(q)
    return circ.gates


def _check_round(
    cfg: GmsConfig, circ: Circuit, slices: dict[str, tuple[int, int]], flip: np.ndarray
) -> None:
    """Prove that one round of ``circ`` is the operator ``analysis_report`` applies.

    That operator negates the data states on ``flip`` and then reflects
    the data register about its mean. Phase and diffusion must be their
    fixed gate lists, and uncompute must be compute reversed, its exact
    inverse since every gate is its own inverse. Compute permutes basis
    states, so pushing every data input through it and reading the
    accept bit settles the phase flip exactly.

    Raises:
        RuntimeError: naming the first slice that does something else.
    """
    compute, phase, uncompute, diffusion = (
        circ.gates[slice(*slices[k])] for k in ("compute", "phase", "uncompute", "diffusion")
    )
    accept = circ.registers["accept"][0]
    if phase != _phase_gates(accept):
        raise RuntimeError("phase slice is not Z on the accept qubit")
    if uncompute != compute[::-1]:
        raise RuntimeError("uncompute slice is not the compute slice reversed")
    if diffusion != _diffusion_gates(list(range(cfg.data_qubits))):
        raise RuntimeError("diffusion slice is not the reflection about the mean")
    out = sim.run_basis_batch(compute, np.arange(1 << cfg.data_qubits, dtype=np.int64))
    if not np.array_equal((out >> accept) & 1 == 1, flip):
        raise RuntimeError("accept qubit disagrees with the classifier mask")


def run_gms_per_gate(cfg: GmsConfig, t_max: int) -> list[float]:
    """The ``analysis_report`` curve from ``build_gms_circuit`` run gate by gate.

    The sparse engine runs it: the pooled scratch qubits take the circuit
    past the cap while the state stays sparse. Raises RuntimeError if
    more than 1e-9 of probability is left on the scratch register.
    """
    _check_cap(cfg.m, cfg.n, cfg.l)
    circ, slices = build_gms_circuit(cfg)
    success = success_mask(cfg)
    data_size = 1 << cfg.data_qubits

    def marked_mass(state):
        keys = np.array(list(state), dtype=object)
        w = np.array([(amp * amp.conjugate()).real for amp in state.values()])
        data = keys < data_size
        if not _sum_in_order(w[~data]) <= 1e-9:
            raise RuntimeError("scratch register failed to uncompute")
        return _sum_in_order(w[data][success[keys[data].astype(np.int64)]])

    # the gates after the prep slice are one round
    prep_end = slices["prep"][1]
    state = sim.sparse_apply({0: 1.0 + 0.0j}, circ.gates[:prep_end])
    curve = [marked_mass(state)]
    for _ in range(t_max):
        state = sim.sparse_apply(state, circ.gates[prep_end:])
        curve.append(marked_mass(state))
    return curve


# ---------------------------------------------------------------------------
# Amplitude statistics


@dataclass(frozen=True)
class AmplitudeStats:
    """Initial-amplitude summary of a marked/unmarked split.

    p_max is the ceiling on the marked-subspace probability achievable by
    amplitude amplification from this initial state: 1 - (N - r) sigma2_l,
    with sigma2_l the variance of the unmarked amplitudes.
    """

    n_states: int
    marked: int
    k0_mean: complex
    l0_mean: complex
    sigma2_l: float
    p_max: float

    def as_dict(self) -> dict:
        return {
            "N": self.n_states,
            "r": self.marked,
            "k0_mean": [self.k0_mean.real, self.k0_mean.imag],
            "l0_mean": [self.l0_mean.real, self.l0_mean.imag],
            "sigma2": self.sigma2_l,
            "p_max": self.p_max,
        }


def amplitude_stats(amps: np.ndarray, marked: np.ndarray) -> AmplitudeStats:
    """Exact amplitude statistics over the full basis.

    amps is the amplitude array; marked is a boolean mask of the same
    size. Basis states with zero amplitude count toward the means and the
    variance: the statistics describe the whole space the diffusion acts
    on, not only the populated part.
    """
    if amps.shape != marked.shape:
        raise ValueError("state and mask sizes disagree")
    n_states = amps.size
    r = int(np.count_nonzero(marked))
    k_amps = amps[marked]
    l_amps = amps[~marked]
    k0 = complex(k_amps.mean()) if r else 0.0 + 0.0j
    l0 = complex(l_amps.mean()) if r < n_states else 0.0 + 0.0j
    sigma2 = float((np.abs(l_amps - l0) ** 2).mean()) if r < n_states else 0.0
    p_max = 1.0 - (n_states - r) * sigma2
    return AmplitudeStats(n_states, r, k0, l0, sigma2, p_max)


def _populated_states(m: int, n: int, l: int) -> int:
    """Populated basis states when the correct-key residual is exactly 2-to-1."""
    return (2**m - 1) * 2 ** (2 * n * l) + 2 ** (2 * (n - 1) * l)


def two_to_one_model(m: int, n: int, l: int) -> dict:
    """Closed-form accounting that idealizes the correct-key residual.

    This is the model behind the headline estimate: the correct-key
    residual is treated as exactly 2-to-1, so its branch populates
    2^(2(n-1)l) basis states, each wrong key populates 2^(2nl), and only
    populated states are counted. The marked count folds the f-register
    multiplicity 2^((n-1)l) over the rank-(n-1) row matrices whose
    kernel vector is the period s = 1: the l-tuples of rows that span
    s^perp, of which there are prod_{i<n-1} (2^l - 2^i). Real
    permutation ciphers at block width 2 violate the 2-to-1 idealization
    (their correct-key residual is constant), which is why these numbers
    are reported alongside, not instead of, the exact statistics.
    """
    matrices = math.prod((1 << l) - (1 << i) for i in range(n - 1))
    n_states = _populated_states(m, n, l)
    r = 2 ** ((n - 1) * l) * matrices
    sum_l_sq = (2**m - 1) / 2**m + (2 ** (2 * (n - 1) * l) - r) / (
        2**m * 2 ** (2 * (n - 1) * l)
    )
    sum_l = math.sqrt(2**m)
    sigma2 = sum_l_sq / (n_states - r) - (sum_l / (n_states - r)) ** 2
    p_max = 1.0 - (n_states - r) * sigma2
    return {
        "N": n_states,
        "r": r,
        "rank_matrices": matrices,
        "sum_l_sq": sum_l_sq,
        "sum_l": sum_l,
        "sigma2": sigma2,
        "p_max": p_max,
    }


def optimal_iterations(k0_mean, l0_mean, n_states: int, r: int) -> float:
    """Truncated-series estimate of the best iteration count.

    T = -(1/2) k0/l0 + (pi/4) sqrt(N/r) - (pi/24) sqrt(r/N), valid when
    the marked fraction is small; a warning is issued past r/N = 0.1.
    """
    if r < 1:
        raise ValueError("need at least one marked state")
    if abs(complex(l0_mean)) == 0.0:
        raise DegenerateUnmarkedMean("unmarked mean amplitude is zero")
    if r / n_states > POPULATION_WARN_RATIO:
        warnings.warn(
            f"marked fraction {r / n_states:.3f} exceeds {POPULATION_WARN_RATIO}; "
            "the truncated series is unreliable",
            stacklevel=2,
        )
    ratio = complex(k0_mean) / complex(l0_mean)
    return (
        -0.5 * ratio.real
        + (math.pi / 4) * math.sqrt(n_states / r)
        - (math.pi / 24) * math.sqrt(r / n_states)
    )


# ---------------------------------------------------------------------------
# Character sums


def character_sum(ys, n: int) -> int:
    """Product of the full-space sign sums sum_x (-1)^(x.y_i).

    Each factor is computed by direct enumeration; the product equals the
    joint sum over independent x_i. Zero unless every y_i is zero, in
    which case it is 2^(n l).
    """
    total = 1
    for y in ys:
        inner = 0
        for x in range(1 << n):
            inner += -1 if parity(x & y) else 1
        total *= inner
    return total


def coset_character_sum(y, n: int, s: int) -> int:
    """Sign sum restricted to the coset half X1 fixed by the period s.

    X1 keeps the inputs whose bit at the lowest set bit of s is zero, one
    representative per {x, x xor s} pair. At y = 0 the sum is 2^(n-1).
    """
    if not 0 < s < (1 << n):
        raise ValueError("s must be a nonzero n-bit value")
    pivot = (s & -s).bit_length() - 1
    total = 0
    for x in range(1 << n):
        if (x >> pivot) & 1:
            continue
        total += -1 if parity(x & y) else 1
    return total


# ---------------------------------------------------------------------------
# Query-ratio bound


@dataclass(frozen=True)
class QueryRatio:
    """Exact search-space-to-marked ratio and the iteration bounds it implies."""

    m: int
    n: int
    ratio: Fraction
    bound: int
    t_lower: float
    t_exhaustive: float

    @property
    def exceeds_bound(self) -> bool:
        return self.ratio > self.bound

    @property
    def slower_than_exhaustive(self) -> bool:
        return self.t_lower > self.t_exhaustive

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "ratio": [self.ratio.numerator, self.ratio.denominator],
            "bound": self.bound,
            "t_lower": self.t_lower,
            "t_exhaustive": self.t_exhaustive,
            "exceeds_bound": self.exceeds_bound,
            "slower_than_exhaustive": self.slower_than_exhaustive,
        }


def query_ratio(m: int, n: int) -> QueryRatio:
    """Iteration-count lower bound at the canonical register count l = n.

    The exact ratio N/r uses the idealized populated-state count and the
    closed-form rank-(n-1) matrix count; it always exceeds
    2^(m+2n) - 2^(2n), so the implied iteration count (pi/4) sqrt(bound)
    beats exhaustive key search (pi/4) sqrt(2^(m+n)) for every m, n here.
    """
    n_states = _populated_states(m, n, n)
    r = 2 ** ((n - 1) * n) * rank_deficit_one_formula(n)
    ratio = Fraction(n_states, r)
    bound = 2 ** (m + 2 * n) - 2 ** (2 * n)
    return QueryRatio(
        m,
        n,
        ratio,
        bound,
        (math.pi / 4) * math.sqrt(bound),
        (math.pi / 4) * math.sqrt(2 ** (m + n)),
    )


# ---------------------------------------------------------------------------
# Deferred vs immediate measurement


def _row_distribution(per_copy, n: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed Y and P(Y) of all 2^(nl) matrices of l rows drawn from ``per_copy``.

    Row 0 varies slowest (``itertools.product`` order), and each P(Y) is the
    left-to-right product P(y_0) P(y_1) ..., as a loop over the matrices forms it.
    """
    y = np.arange(1 << n)
    ybits, prob = np.zeros(1, dtype=np.int64), np.ones(1)
    for j in range(l):
        ybits = np.add.outer(ybits, y << (n * j)).ravel()
        prob = np.multiply.outer(prob, per_copy).ravel()
    return ybits, prob


@dataclass(frozen=True)
class DeferredComparison:
    """Distance of the two joint distributions, P(correct period) and r."""

    max_abs_diff: float
    p_correct: float
    r: int


def deferred_vs_immediate(n: int, l: int, s: int, seed: int = 0) -> DeferredComparison:
    """Joint (rows, solution) distribution both ways, and their distance.

    Immediate: measure the y rows after the rounds, then solve classically
    (solution 0 unless the rank is n-1). Deferred: wire the reversible
    solver after the rounds and measure rows and solution together at the
    end. The two joint distributions are identical; the correct-period
    probability is r / 2^((n-1)l) with r counted by enumeration. Each is a
    float array over the codes Y | solution << nl, as wide as the orthogonality
    table; ``np.bincount`` adds the deferred |a|^2 in state order.
    """
    # the kernel table first: it checks the qubit cap before the oracle
    # and the 4^n-step marginal are built
    kernel = _kernel_vector(n, l)
    oracle = build_simon_oracle(n, s, rng=seed)
    ybits, prob = _row_distribution(y_marginal(oracle.table, n), n, l)
    immediate = np.zeros(kernel.size << n)
    immediate[ybits | kernel[ybits] << (n * l)] = prob

    # deferred: rounds, then the reversible kernel solver, measured at the end
    circ = parallel_simon_circuit(oracle, l)
    ys = [list(circ.registers[f"y{j}"]) for j in range(l)]
    bld = _Builder(circ)
    s_out = [bld.fresh() for _ in range(n)]
    flag = bld.fresh()
    kernel_core(bld, ys, s_out, flag)

    state = sim.sparse_apply({0: 1.0 + 0.0j}, circ.gates)
    # row j lands on bits n*j..n*j+n-1 of the code, the solution above the rows
    code = sim.extract_bits(np.array(list(state), dtype=object), [q for y in ys for q in y] + s_out)
    weights = [(amp * amp.conjugate()).real for amp in state.values()]
    deferred = np.bincount(code.astype(np.int64), weights, minlength=immediate.size)
    diff = np.abs(np.subtract(immediate, deferred, out=deferred), out=deferred)

    r = int(np.count_nonzero(kernel == s))
    p_correct = _sum_in_order(prob[kernel[ybits] == s])
    return DeferredComparison(float(np.max(diff)), p_correct, r)


# ---------------------------------------------------------------------------
# Immediate-measurement baseline


@dataclass(frozen=True)
class HybridReport:
    """Exact accounting of the measure-then-search contrast experiment."""

    accept_probs: tuple[float, ...]
    p_true: float
    false_positive_keys: tuple[int, ...]
    reps: int
    t_star: int
    grover_p: float
    success: float


def _hybrid_table(cfg: GmsConfig) -> np.ndarray:
    """accept[k', packed Y]: some s with Y s = 0 has passes[k', s]."""
    return _passes(cfg) @ orthogonal_table(cfg.n, cfg.l).T


def hybrid_baseline(cfg: GmsConfig) -> HybridReport:
    """Immediate measurement plus classical search over keys, solved exactly.

    Per key, the accept probability is summed over the exact y-row
    distribution of l measured rounds. A key counts as marked when any of
    ``HYBRID_REPS`` independent rounds accepts; the reported success is the
    chance that exactly the true key is marked and the key search finds it
    at its best iteration count t_star.
    """
    accept = _hybrid_table(cfg)
    accept_probs = []
    for kp in range(1 << cfg.m):
        per_copy = y_marginal(cfg.oracle.residual_table(kp), cfg.n)
        ybits, prob = _row_distribution(per_copy, cfg.n, cfg.l)
        accept_probs.append(_sum_in_order(prob[accept[kp, ybits]]))

    key = cfg.oracle.key
    p_true = accept_probs[key]
    wrong = [p for kp, p in enumerate(accept_probs) if kp != key]
    false_positive_keys = tuple(
        kp for kp, p in enumerate(accept_probs) if kp != key and p > 0.0
    )
    n_keys = 1 << cfg.m
    sweep = int(math.ceil((math.pi / 4) * math.sqrt(n_keys))) + 2
    t_star = max(range(sweep + 1), key=lambda t: grover_probability(n_keys, 1, t))
    grover_p = grover_probability(n_keys, 1, t_star)
    success = (1.0 - (1.0 - p_true) ** HYBRID_REPS) * grover_p
    for p in wrong:
        success *= (1.0 - p) ** HYBRID_REPS
    return HybridReport(
        tuple(accept_probs),
        p_true,
        false_positive_keys,
        HYBRID_REPS,
        t_star,
        grover_p,
        success,
    )


# ---------------------------------------------------------------------------
# Report assembly


def analysis_report(cfg: GmsConfig, t_max: int) -> dict:
    """Everything the command-line report needs, as one JSON-ready dict.

    ``t_curve`` is the exact success probability (correct key, accepted y rows)
    after t = 0..t_max rounds with nothing measured; ``_check_round`` first
    proves one round of ``build_gms_circuit`` is the operator they apply. The
    statistics come first, as the rounds negate the prepared amplitudes in place.
    """
    amps = prepare_initial_state(cfg).amps
    flip, success, rank_only = _masks(cfg)
    stats = amplitude_stats(amps, success)
    accept_stats = amplitude_stats(amps, flip)
    rank_stats = amplitude_stats(amps, rank_only)
    circ, slices = build_gms_circuit(cfg)
    _check_round(cfg, circ, slices, flip)
    curve = [float(np.sum(np.abs(amps[success]) ** 2))]
    for _ in range(t_max):
        amps[flip] *= -1.0
        amps = 2.0 * amps.mean() - amps
        curve.append(float(np.sum(np.abs(amps[success]) ** 2)))
    ideal = two_to_one_model(cfg.m, cfg.n, cfg.l)
    report_warnings: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t_est = optimal_iterations(
                stats.k0_mean, stats.l0_mean, stats.n_states, stats.marked
            )
            report_warnings.extend(str(w.message) for w in caught)
    except (DegenerateUnmarkedMean, ValueError) as exc:
        t_est = None
        report_warnings.append(str(exc))
    hybrid = hybrid_baseline(cfg)
    counts = count_rank_n_minus_1(cfg.n)
    return {
        "schema": 1,
        "config": {
            "m": cfg.m,
            "n": cfg.n,
            "l": cfg.l,
            "key": cfg.oracle.key,
            "k1": cfg.oracle.k1,
            "k2": cfg.oracle.k2,
            "cipher_seed": cfg.oracle.cipher_seed,
            "c_check": cfg.c_check,
            "plaintexts": cfg.plaintexts,
        },
        **stats.as_dict(),
        "t_curve": [[t, p] for t, p in enumerate(curve)],
        "theorem3_T": t_est,
        "query_ratio": query_ratio(cfg.m, cfg.n).as_dict(),
        "counts": asdict(counts),
        "r_phase_marked": accept_stats.marked,
        "p_max_phase_marked": accept_stats.p_max,
        "r_rank_only": rank_stats.marked,
        "p_max_rank_only": rank_stats.p_max,
        "two_to_one_model": ideal,
        "hybrid": asdict(hybrid),
        "warnings": report_warnings,
    }
