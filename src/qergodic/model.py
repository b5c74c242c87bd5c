"""Validated absorbing-chain model, exact finite-horizon conditioned occupation
formulas and their extrapolated limit, and trajectory simulation.

The chain lives on transient states {1, ..., d} with substochastic transition
matrix Q; the absorption probability of state i is the row leakage
R[i] = 1 - sum(Q[i, :]).  All conditioned quantities are ratios of terms with
identical exponential decay, so the implementation keeps running vectors
renormalized and forms ratios with matched scale factors.

State indices in the public API are 1-based, matching the usual notation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    NegativeEntry,
    NonFiniteEntry,
    NoSurvivors,
    NotADistribution,
    NotTransient,
    RowSumExceedsOne,
    ShapeMismatch,
    SurvivalUnderflow,
)

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class SubstochasticModel:
    """Validated substochastic chain: matrix Q, initial row distribution pi,
    derived absorption column R."""

    Q: np.ndarray
    pi: np.ndarray
    R: np.ndarray
    d: int

    def __post_init__(self):
        self.Q.setflags(write=False)
        self.pi.setflags(write=False)
        self.R.setflags(write=False)


@dataclass(frozen=True)
class OccupationEstimate:
    """Expected occupation fraction in [0, 1] at horizon n."""

    value: float
    n: int
    stderr: Optional[float] = None
    trials_surviving: Optional[int] = None


def validate(Q, pi=None, tol: float = DEFAULT_TOL) -> SubstochasticModel:
    """Validate raw inputs and build a model with the absorption column derived
    from the row sums of Q.

    Raises NonFiniteEntry, NegativeEntry, RowSumExceedsOne, NotADistribution,
    ShapeMismatch or NotTransient on bad input.
    """
    Q = np.array(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ShapeMismatch(f"Q must be square, got shape {Q.shape}")
    d = Q.shape[0]
    if d < 1:
        raise ShapeMismatch("Q must have at least one state")
    if pi is None:
        pi = np.full(d, 1.0 / d)
    pi = np.array(pi, dtype=float).reshape(-1)
    if pi.shape[0] != d:
        raise ShapeMismatch(f"pi has length {pi.shape[0]}, expected {d}")
    # NaN fails every comparison below, so it must be caught first
    for name, x in (("Q", Q), ("pi", pi)):
        if not np.all(np.isfinite(x)):
            raise NonFiniteEntry(f"{name} has a non-finite entry")

    if np.any(Q < 0):
        i, j = np.argwhere(Q < 0)[0]
        raise NegativeEntry(f"Q[{i + 1},{j + 1}] = {Q[i, j]} is negative")
    row_sums = Q.sum(axis=1)
    if np.any(row_sums > 1.0 + tol):
        i = int(np.argmax(row_sums))
        raise RowSumExceedsOne(f"row {i + 1} of Q sums to {row_sums[i]} > 1")
    if np.any(pi < -tol) or abs(pi.sum() - 1.0) > tol:
        raise NotADistribution(f"pi must be a probability vector, got sum {pi.sum()}")
    pi = np.clip(pi, 0.0, None)

    R = np.clip(1.0 - row_sums, 0.0, None)
    _check_transient(Q, R)
    return SubstochasticModel(Q=Q, pi=pi, R=R, d=d)


def _check_transient(Q: np.ndarray, R: np.ndarray) -> None:
    """Every state must reach a state with positive absorption probability.

    Pure graph reachability on the support of Q; no numerics involved.  The
    backward closure sweeps frontiers: the states found good in one sweep
    are those that point into the previous sweep's finds.  Each column of
    the support is gathered at most once, so the cost does not depend on the
    order in which the states are numbered.
    """
    reach = R > 0
    if reach.all():
        return
    support = Q > 0
    frontier = reach
    while frontier.any():
        frontier = support[:, frontier].any(axis=1) & ~reach
        reach = reach | frontier
    if not reach.all():
        bad = (np.flatnonzero(~reach) + 1).tolist()
        raise NotTransient(f"states {bad} cannot reach absorption")


# --- exact finite-horizon formulas -------------------------------------


def _forward_backward(model: SubstochasticModel, n: int):
    """Row iterates pi Q^r and column iterates Q^r 1, each L1-renormalized.

    Returns (A, B) where A[r] is pi Q^r rescaled to sum 1 and B[r] is Q^r 1
    rescaled to max 1.  Scale factors are not needed by callers: every
    conditioned quantity is a ratio in which they cancel exactly.
    """
    Q = model.Q
    A = np.empty((n + 1, model.d))
    B = np.empty((n + 1, model.d))
    A[0] = model.pi
    B[0] = 1.0
    _sweep(A, lambda x, out: np.matmul(x, Q, out=out), np.add.reduce, "pi Q^{} is exactly zero")
    _sweep(B, lambda x, out: np.matmul(Q, x, out=out), np.maximum.reduce, "Q^{} 1 is exactly zero")
    return A, B


# A sweep rescales once per block of this many steps, unless some step of
# the block fell below _SWEEP_FLOOR, far above the subnormal range.
_SWEEP_BLOCK = 32
_SWEEP_FLOOR = 2.0**-600


def _sweep(X: np.ndarray, step, scale, underflow: str) -> None:
    """Fill X[1:] with X[r] = step(X[r-1]) / scale(step(X[r-1])) from X[0].

    Each block of steps runs unscaled and is then rescaled at once.  A block
    in which some scale fell below _SWEEP_FLOOR is redone one rescaled step
    at a time, which keeps full precision and raises SurvivalUnderflow at the
    first step whose iterate is exactly zero.
    """
    n = X.shape[0] - 1
    for r0 in range(1, n + 1, _SWEEP_BLOCK):
        r1 = min(r0 + _SWEEP_BLOCK, n + 1)
        for r in range(r0, r1):
            step(X[r - 1], X[r])
        s = scale(X[r0:r1], axis=1)
        if s.min() >= _SWEEP_FLOOR:
            X[r0:r1] /= s[:, None]
            continue
        for r in range(r0, r1):
            step(X[r - 1], X[r])
            s = scale(X[r])
            if s == 0.0:
                raise SurvivalUnderflow(underflow.format(r))
            X[r] /= s


def occupation_profile(model: SubstochasticModel, n: int) -> np.ndarray:
    """Per-state conditioned occupation fractions at horizon n.

    Entry j-1 is E_pi[#{m <= n : X_m = j} / (n+1) | T > n], computed exactly
    from the ratio pi Q^r e_j e_j' Q^{n-r} 1 / pi Q^n 1: for each split point r
    the rescaled forward and backward vectors give the conditional law of X_r
    given survival, so no explicit scale bookkeeping is required.
    """
    if n < 0:
        raise ValueError("horizon n must be >= 0")
    A, B = _forward_backward(model, n)
    # row r becomes the conditional law of X_r; in place, so the only
    # (n+1) x d arrays are A and B
    A *= B[::-1]
    denom = A.sum(axis=1)
    if not denom.all():
        raise SurvivalUnderflow(f"survival probability vanished at horizon {n}")
    A /= denom[:, None]
    return A.sum(axis=0) / (n + 1)


def survival_probability(model: SubstochasticModel, n: int) -> float:
    """P(T > n) = pi Q^n 1, accumulated in log scale.

    May underflow to 0.0 for very large n; use log_survival_probability when
    the logarithm is needed.
    """
    return math.exp(log_survival_probability(model, n))


def log_survival_probability(model: SubstochasticModel, n: int) -> float:
    if n < 0:
        raise ValueError("horizon n must be >= 0")
    a = model.pi.copy()
    log_s = 0.0
    for _ in range(n):
        a = a @ model.Q
        s = a.sum()
        if s == 0.0:
            raise SurvivalUnderflow("survival probability is exactly zero")
        log_s += math.log(s)
        a = a / s
    return log_s


def finite_horizon_state_occupation(model: SubstochasticModel, j: int, n: int) -> OccupationEstimate:
    """Exact conditioned occupation fraction of state j (1-based) at horizon n."""
    if not 1 <= j <= model.d:
        raise ShapeMismatch(f"state index {j} outside 1..{model.d}")
    profile = occupation_profile(model, n)
    return OccupationEstimate(value=float(profile[j - 1]), n=n)


def finite_horizon_block_occupation(model: SubstochasticModel, states, n: int) -> OccupationEstimate:
    """Conditioned occupation fraction of a set of states (1-based indices).

    Accumulated as the sum of per-state values in increasing state order, so it
    matches the sum of finite_horizon_state_occupation results exactly.
    """
    states = sorted(set(int(s) for s in states))
    for s in states:
        if not 1 <= s <= model.d:
            raise ShapeMismatch(f"state index {s} outside 1..{model.d}")
    profile = occupation_profile(model, n) if states else None
    total = 0.0
    for s in states:
        total += float(profile[s - 1])
    return OccupationEstimate(value=total, n=n)


def finite_horizon_observable(model: SubstochasticModel, f: Sequence[float], n: int) -> float:
    """Conditioned time average of observable f at horizon n."""
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.shape[0] != model.d:
        raise ShapeMismatch(f"observable has length {f.shape[0]}, expected {model.d}")
    profile = occupation_profile(model, n)
    return float(f @ profile)


# Horizons 2^16 ... 2^20 of the extrapolated profile: its error terms shrink
# like 1/m^4 while rounding grows like m * 1e-16.  It holds d^3 floats.
_EXTRAPOLATION_LEVELS = range(16, 21)
EXTRAPOLATION_MAX_STATES = 100


def extrapolated_occupation(model: SubstochasticModel, period: int):
    """Limit of the conditioned occupation profile, and an estimate of its
    own error.

    With P_m = Q^m and C_m[j] = sum_{r<m} Q^r e_j e_j' Q^(m-1-r), pi C_m[j] 1
    is the unnormalized occupation of state j over horizon m - 1.  Doubling,
    C_2m = C_m P_m + P_m C_m, reaches m = 2^16 ... 2^20, with each tensor
    rescaled to max 1 beside its log scale.  Each profile is averaged over
    `period` horizons by C_(m+1)[j] = C_m[j] Q + P_m e_j e_j', and three
    Richardson rounds cancel its 1/m, 1/m^2 and 1/m^3 terms.  Only the
    states pi reaches take part, so that no root pi misses scales the
    profile away.  Returns the extrapolation from the four largest horizons
    (input state order) and its largest difference to the one from the four
    smaller.
    """
    live = model.pi > 0
    for _ in range(model.d):
        live = live | (live @ (model.Q > 0))
    Q, pi, d = model.Q[np.ix_(live, live)], model.pi[live], int(live.sum())
    diag = np.arange(d)
    C = np.zeros((d, d, d))
    C[diag, diag, diag] = 1.0
    P, lc, lp = Q, 0.0, 0.0  # each tensor is its true value times exp(its log scale)

    def rescaled(M, log_scale):
        s = M.max()
        return M / s, log_scale - math.log(s)

    def profile(C):
        num = C.sum(axis=2) @ pi
        return num / num.sum()

    means = []
    for level in range(_EXTRAPOLATION_LEVELS.stop):
        if level:
            C, lc = rescaled(C @ P + P @ C, lc + lp)
            P, lp = rescaled(P @ P, 2 * lp)
        if level not in _EXTRAPOLATION_LEVELS:
            continue
        acc, Cr, lcr, Pr, lpr = profile(C), C, lc, P, lp
        for _ in range(period - 1):
            Cr = Cr @ Q
            Cr[diag, :, diag] += math.exp(lcr - lpr) * Pr.T
            Cr, lcr = rescaled(Cr, lcr)
            Pr, lpr = rescaled(Pr @ Q, lpr)
            acc += profile(Cr)
        means.append(acc / period)
    r1 = [2 * b - a for a, b in zip(means, means[1:])]
    r2 = [(4 * b - a) / 3 for a, b in zip(r1, r1[1:])]
    r3 = [(8 * b - a) / 7 for a, b in zip(r2, r2[1:])]
    out = np.zeros(model.d)
    out[live] = r3[1]
    return out, float(np.max(np.abs(r3[1] - r3[0])))


# --- simulation ---------------------------------------------------------

# Monte Carlo trajectories are stepped together in batches of at most this
# many, holding at most _MC_BATCH_UNIFORMS uniforms (8 bytes each) at once.
_MC_BATCH = 512
_MC_BATCH_UNIFORMS = 1 << 21

# numpy's SeedSequence (pool of 4 words) and the seed step of its PCG64
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's running hash of uint32 arrays: x -> (x ^ h) * h',
    then x ^ (x >> 16), where h' = h * mult is the next call's h."""

    def step(x):
        nonlocal h
        x = x ^ h
        h = h * mult & _MASK32
        x = x * h
        return x ^ (x >> 16)

    return step


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _stream_uniforms(seed: int, first: int, size: int, k: int) -> np.ndarray:
    """The first k uniforms of trajectories first, ..., first + size - 1.

    Row r is Generator(PCG64(SeedSequence((seed, first + r)))).random(k)
    bit for bit.  The SeedSequence hash runs once, in uint32 array
    arithmetic, over the entropy words of every row: the seed's
    little-endian 32-bit words and then the index, one word.  Its
    generate_state(4, uint64) gives (s0, s1, s2, s3), and PCG64 starts
    from inc = (s2 s3) << 1 | 1 and state = (inc + (s0 s1)) M + inc mod
    2^128 (pcg_setseq_128_srandom_r).  One PCG64 is set to each row's
    state in turn.
    """
    seed = int(seed)
    if seed < 0 or not 0 <= first <= first + size <= 1 << 32:
        raise ValueError("the seed must be >= 0 and trajectory indices in [0, 2**32)")
    words = []
    while True:  # a non-negative seed ends at 0, and 0 is one word
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy = np.empty((len(words) + 1, size), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(first, first + size)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(size, dtype=np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    generated = [out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    s0, s1, s2, s3 = ((generated[2 * i] | generated[2 * i + 1] << 32).tolist() for i in range(4))

    U = np.empty((size, k))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for r in range(size):
        inc = ((s2[r] << 64 | s3[r]) << 1 | 1) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + (s0[r] << 64 | s1[r])) * _PCG_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.random(out=U[r])
    return U


def _transition_tables(model: SubstochasticModel):
    """Cumulative rows of (R | Q) and cumulative pi.

    Column 0 of a row absorbs, columns 1..d lead to the transient states.  A
    uniform u picks the count of cumulative entries <= u (bisect_right), and
    both samplers clamp that count to the last state, so rounding in the
    cumulative sums never sends u past the end of a row.
    """
    return np.cumsum(np.hstack([model.R[:, None], model.Q]), axis=1), np.cumsum(model.pi)


def simulate_trajectory(model: SubstochasticModel, seed: int, _index: int = 0):
    """Sample one trajectory; returns (path, T) with 1-based states.

    path holds the visited transient states X_0, ..., X_{T-1}; T is the
    absorption step.  Deterministic given (seed, _index): the uniforms are
    drawn in order from PCG64(SeedSequence((seed, _index))), one for X_0 and
    one per step, the stream monte_carlo_occupation uses for trajectory
    _index.  The stream is read through _stream_uniforms as a batch of one.
    """
    cum, pi_cum = _transition_tables(model)
    cum, pi_cum = cum.tolist(), pi_cum.tolist()
    u = _stream_uniforms(seed, _index, 1, 256)[0].tolist()
    state = min(bisect_right(pi_cum, u[0]), model.d - 1)
    path = [state + 1]
    while True:
        if len(path) == len(u):
            # a longer draw of the stream starts with the same uniforms
            u = _stream_uniforms(seed, _index, 1, 2 * len(u))[0].tolist()
        nxt = bisect_right(cum[state], u[len(path)])
        if nxt == 0:
            return path, len(path)
        state = min(nxt - 1, model.d - 1)
        path.append(state + 1)


def monte_carlo_occupation(model: SubstochasticModel, n: int, trials: int, seed: int):
    """Monte Carlo estimate of the per-state conditioned occupation at horizon n.

    Only trajectories with T > n contribute.  Returns a list of d
    OccupationEstimate values with standard errors and the surviving count;
    the standard error is None when fewer than two trajectories survive.
    Raises NoSurvivors when no trajectory survives.

    Trajectory i is the first n + 1 states of simulate_trajectory(model,
    seed, i), so the result depends only on (Q, pi, n, trials, seed).
    Trajectories are stepped together in batches, each batch's streams
    seeded at once by _stream_uniforms, and survivors are added up in
    trajectory order, so the batch size does not change a bit.  Raises
    ValueError at once for n < 0, trials < 1 or a negative seed.
    """
    if n < 0:
        raise ValueError("horizon n must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = model.d
    cum, pi_cum = _transition_tables(model)
    batch = max(1, min(_MC_BATCH, _MC_BATCH_UNIFORMS // (n + 1)))
    sums = np.zeros(d)
    sq_sums = np.zeros(d)
    surviving = 0
    for first in range(0, trials, batch):
        size = min(batch, trials - first)
        U = _stream_uniforms(seed, first, size, n + 1)
        visits = np.zeros((size, d), dtype=np.int64)
        live = np.arange(size)  # batch rows not yet absorbed
        state = np.minimum(np.searchsorted(pi_cum, U[:, 0], side="right"), d - 1)
        visits[live, state] = 1
        for t in range(1, n + 1):
            # bisect_right of each live trajectory's uniform in its row
            nxt = (cum.take(state, axis=0) <= U[live, t][:, None]).sum(axis=1)
            if not nxt.all():
                alive = nxt > 0
                live, nxt = live[alive], nxt[alive]
                if live.size == 0:
                    break
            state = np.minimum(nxt - 1, d - 1)
            visits[live, state] += 1
        counts = visits[live] / (n + 1)
        surviving += live.size
        # sequential accumulation: the same sums as adding survivors one by one
        sums = np.add.accumulate(np.vstack([sums, counts]))[-1]
        sq_sums = np.add.accumulate(np.vstack([sq_sums, counts * counts]))[-1]
    if surviving == 0:
        raise NoSurvivors(f"none of {trials} trajectories survived past n={n}")
    means = sums / surviving
    if surviving > 1:
        var = (sq_sums - surviving * means**2) / (surviving - 1)
        stderr = np.sqrt(np.clip(var, 0.0, None) / surviving).tolist()
    else:  # one survivor shows no spread
        stderr = [None] * d
    return [
        OccupationEstimate(value=float(means[j]), n=n, stderr=stderr[j], trials_surviving=surviving)
        for j in range(d)
    ]
