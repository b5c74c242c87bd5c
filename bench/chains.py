"""Seeded chain generators for the benchmark workloads.

Every generator is a pure function of (seed, index): chain `index` of a run
with seed `seed` is drawn from its own PCG64 stream, so chains are distinct
across operations and a run can stop at any index.  The parameters that set
an operation's cost cycle over five fixed cells with the index (stratified
sampling), which keeps the workload mix identical from seed to seed and
leaves the seed to draw the rest.

Each generator builds its chain in block lower-triangular construction order,
checks the workload's construction invariants on that form with numpy alone
(no qergodic code), and then shuffles the states so that the library has to
find the normal form itself.  A failed check raises `InvariantError` rather
than an `assert`, so the checks survive `-O`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

ROW_CAP = 0.985  # rows of generated blocks and connectors leak at least 1.5 %


class InvariantError(Exception):
    """A generated chain does not have the structure its workload promises."""


@dataclass(frozen=True)
class Chain:
    Q: np.ndarray
    pi: np.ndarray
    period: int = 1  # lcm of the block periods

    def to_bytes(self) -> bytes:
        return self.Q.tobytes() + self.pi.tobytes()


def _rng(seed: int, index: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(index), salt))))


# --- shared helpers -------------------------------------------------------------


def _perron_root(B: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(B))))


def _strongly_connected(B: np.ndarray) -> bool:
    """Reachability from state 0 along B and along B.T, by frontier sweeps."""
    A = B != 0.0
    n = A.shape[0]
    for M in (A, A.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            nxt = M[frontier].any(axis=0) & ~seen
            seen |= nxt
            frontier = nxt
        if not seen.all():
            return False
    return True


def _period(B: np.ndarray) -> int:
    """Period of an irreducible block: gcd over the cycle lengths up to n,
    read off the diagonals of the boolean powers."""
    A = (B != 0.0).astype(np.int64)
    n = A.shape[0]
    g = 0
    P = np.eye(n, dtype=np.int64)
    for length in range(1, 2 * n + 1):
        P = np.minimum(P @ A, 1)
        if np.any(np.diag(P)):
            g = int(np.gcd(g, length))
    return g


def _positive_block(rng, size: int, rho: float) -> np.ndarray:
    """Entrywise positive (hence primitive) block with Perron root rho whose
    rows sum to less than ROW_CAP - 0.05, leaving room for connectors."""
    while True:
        B = rng.uniform(0.2, 1.0, (size, size))
        B *= rho / _perron_root(B)
        if B.sum(axis=1).max() < ROW_CAP - 0.05:
            return B


def _cyclic_block(rng, period: int, rho: float) -> np.ndarray:
    """Irreducible block of exact period `period`: classes of 1-2 states,
    every state of class t points to every state of class t+1 (mod period)."""
    sizes = rng.integers(1, 3, period)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    while True:
        B = np.zeros((n, n))
        for t in range(period):
            a, b = starts[t], starts[t + 1]
            c, e = starts[(t + 1) % period], starts[(t + 1) % period + 1]
            B[a:b, c:e] = rng.uniform(0.2, 1.0, (b - a, e - c))
        B *= rho / _perron_root(B)
        if B.sum(axis=1).max() < ROW_CAP - 0.05:
            return B


def _random_edges(rng, k: int, density: float) -> np.ndarray:
    """E[i, j] for j < i: block i is joined to block j, with probability density."""
    return np.tril(rng.random((k, k)) < density, -1)


def _path_count(E: np.ndarray) -> int:
    """Number of admissible block paths (strictly decreasing, joined by edges)."""
    count = np.zeros(len(E))
    for i in range(len(E)):
        count[i] = 1 + count[:i][E[i, :i]].sum()
    return int(count.sum())


def _edges_with_paths(rng, k: int, target: int, density: float, band: float = 0.03) -> np.ndarray:
    """Random edges of the given density, then single edges added or removed
    at random until the path count is within `band` of `target`."""
    E = _random_edges(rng, k, density)
    for _ in range(1000):
        n = _path_count(E)
        if abs(n / target - 1) <= band:
            return E
        flip = np.argwhere(np.tril(~E if n < target else E, -1))
        i, j = flip[rng.integers(len(flip))]
        E[i, j] = not E[i, j]
    raise InvariantError(f"no edge set of {k} blocks with {target} paths found")


def _assemble(rng, blocks: List[np.ndarray], E: np.ndarray) -> Tuple[np.ndarray, List[range]]:
    """Place blocks on the diagonal and join block i to block j < i where
    E[i, j] by a random nonzero connector; rows are scaled so that no row
    sum exceeds ROW_CAP."""
    sizes = [b.shape[0] for b in blocks]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    ranges = [range(int(starts[i]), int(starts[i + 1])) for i in range(len(blocks))]
    d = int(starts[-1])
    Q = np.zeros((d, d))
    for i, B in enumerate(blocks):
        Q[np.ix_(ranges[i], ranges[i])] = B
    conn = np.zeros((d, d))
    for i, j in np.argwhere(E):
        C = rng.uniform(0.1, 1.0, (sizes[i], sizes[j])) * (rng.random((sizes[i], sizes[j])) < 0.7)
        if not C.any():
            C[rng.integers(sizes[i]), rng.integers(sizes[j])] = rng.uniform(0.1, 1.0)
        conn[np.ix_(ranges[i], ranges[j])] = C
    room = ROW_CAP - Q.sum(axis=1)
    mass = conn.sum(axis=1)
    has = mass > 0
    conn[has] *= (room[has] * rng.uniform(0.3, 0.95, int(has.sum())) / mass[has])[:, None]
    return Q + conn, ranges


def _shuffle(rng, Q: np.ndarray, pi: np.ndarray):
    perm = rng.permutation(Q.shape[0])
    return Q[np.ix_(perm, perm)].copy(), pi[perm].copy()


def _check_common(Q: np.ndarray, pi: np.ndarray, ranges: List[range]) -> None:
    if np.any(Q < 0) or not Q.sum(axis=1).max() < 1.0:
        raise InvariantError("Q is not substochastic with leakage in every row")
    if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
        raise InvariantError("pi is not a probability vector")
    for a, r in enumerate(ranges):
        B = Q[np.ix_(r, r)]
        if not _strongly_connected(B):
            raise InvariantError(f"block {a} is not irreducible")
        for r2 in ranges[a + 1:]:
            if np.any(Q[np.ix_(r, r2)] != 0.0):
                raise InvariantError("a connector points up the construction order")


def _check_certifiable(Q: np.ndarray, ranges: List[range], rho: float) -> None:
    """Every non-scalar block sits exactly at the top root rho and every
    block below rho is scalar."""
    for a, r in enumerate(ranges):
        B = Q[np.ix_(r, r)]
        if len(r) == 1:
            if B[0, 0] > rho:
                raise InvariantError(f"scalar block {a} lies above the top root")
        elif abs(_perron_root(B) - rho) > 1e-12 * rho:
            raise InvariantError(f"non-scalar block {a} is not at the top root")


# --- dag ------------------------------------------------------------------------

DAG_K = (10, 11, 12, 13, 14)
DAG_PATHS = (680, 1260, 2400, 4550, 8300)  # median path counts at density 0.9


def dag_chain(seed: int, index: int) -> Chain:
    """Reducible chain of k = 10..14 blocks joined by lower-triangular
    connectors of density about 0.9, adjusted edge by edge until the number
    of admissible paths is within 3 % of DAG_PATHS for that k, since the
    path count sets the cost.  One or two positive 2-3-state blocks and
    about a third of the scalar blocks sit exactly at the top root; the
    other scalar blocks lie at 20-85 % of it."""
    rng = _rng(seed, index, 1)
    level = index % len(DAG_K)
    k = DAG_K[level]
    rho = float(rng.uniform(0.5, 0.8))
    n_matrix = int(rng.integers(1, 3))
    kinds = ["matrix"] * n_matrix + ["scalar"] * (k - n_matrix)
    rng.shuffle(kinds)
    blocks = []
    for kind in kinds:
        if kind == "matrix":
            blocks.append(_positive_block(rng, int(rng.integers(2, 4)), rho))
        elif rng.random() < 1 / 3:
            blocks.append(np.array([[rho]]))
        else:
            blocks.append(np.array([[rho * rng.uniform(0.2, 0.85)]]))
    E = _edges_with_paths(rng, k, DAG_PATHS[level], 0.9)
    Q, ranges = _assemble(rng, blocks, E)
    pi = rng.dirichlet(np.ones(Q.shape[0]))
    _check_common(Q, pi, ranges)
    _check_certifiable(Q, ranges, rho)
    for r in ranges:
        if len(r) > 1 and not np.all(Q[np.ix_(r, r)] > 0):
            raise InvariantError("a dag block is not primitive")
    Q, pi = _shuffle(rng, Q, pi)
    return Chain(Q, pi)


# --- periodic -------------------------------------------------------------------


PERIODIC_CYCLE = 2  # two then three cyclic blocks


def periodic_chain(seed: int, index: int) -> Chain:
    """Two or three cyclic blocks of periods 2..5, all exactly at the top
    root, and one or two scalar blocks at 20-85 % of it, joined with
    connector density 0.9."""
    rng = _rng(seed, index, 2)
    rho = float(rng.uniform(0.5, 0.8))
    n_cyclic = 2 + index % PERIODIC_CYCLE
    periods = [int(p) for p in rng.integers(2, 6, n_cyclic)]
    blocks = [_cyclic_block(rng, p, rho) for p in periods]
    blocks += [np.array([[rho * rng.uniform(0.2, 0.85)]]) for _ in range(int(rng.integers(1, 3)))]
    order = rng.permutation(len(blocks))
    blocks = [blocks[o] for o in order]
    Q, ranges = _assemble(rng, blocks, _random_edges(rng, len(blocks), 0.9))
    pi = rng.dirichlet(np.ones(Q.shape[0]))
    _check_common(Q, pi, ranges)
    _check_certifiable(Q, ranges, rho)
    got = sorted(_period(Q[np.ix_(r, r)]) for r in ranges if len(r) > 1)
    if got != sorted(periods):
        raise InvariantError(f"cyclic block periods {got} differ from the requested {sorted(periods)}")
    Q, pi = _shuffle(rng, Q, pi)
    return Chain(Q, pi, int(np.lcm.reduce(periods)))


# --- dense ----------------------------------------------------------------------

# (d, coupling) by index mod 5, in order of cost; coupling 0 is one cluster
DENSE_CELLS = ((150, 0.0), (188, 0.1), (225, 0.035), (300, 0.0122), (150, 0.0015))
DENSE_RHO = 0.7


def _sparse_cluster(rng, n: int) -> np.ndarray:
    """Random stochastic cluster with a Hamiltonian cycle (irreducible), a
    positive diagonal (primitive) and about 10 % other nonzeros."""
    C = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.1)
    cycle = rng.permutation(n)
    C[cycle, np.roll(cycle, -1)] += rng.uniform(0.1, 1.0, n)
    C[np.arange(n), np.arange(n)] += rng.uniform(0.1, 1.0, n)
    return C / C.sum(axis=1, keepdims=True)


def dense_chain(seed: int, index: int) -> Chain:
    """One irreducible block of d = 150..300 states.

    A stochastic matrix P is one cluster (coupling 0) or two clusters of d/2
    states that send a share c of each row's mass across; then
    |lambda_2(P)| is about 1 - 2c, from 0.8 to 0.997.  d and c come from
    DENSE_CELLS, so that the seed draws only the entries.  Q = 0.7 D^-1 P D
    with D diagonal in [1, 1.25] keeps that spectrum (rho = 0.7) while making
    both Perron vectors non-uniform and every row sum below 0.975.  rho is
    fixed because it sets the convergence rate of the QSD iteration."""
    rng = _rng(seed, index, 3)
    d, coupling = DENSE_CELLS[index % len(DENSE_CELLS)]
    if coupling:
        h = d // 2
        P = np.zeros((d, d))
        P[:h, :h] = _sparse_cluster(rng, h) * (1 - coupling)
        P[h:, h:] = _sparse_cluster(rng, d - h) * (1 - coupling)
        cross = rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.05)
        cross[:h, :h] = 0.0
        cross[h:, h:] = 0.0
        cross[np.arange(h), h + rng.integers(0, d - h, h)] += 1.0
        cross[h + np.arange(d - h), rng.integers(0, h, d - h)] += 1.0
        P += cross / cross.sum(axis=1, keepdims=True) * coupling
    else:
        P = _sparse_cluster(rng, d)
    scale = rng.uniform(1.0, 1.25, d)
    Q = DENSE_RHO * P * scale[None, :] / scale[:, None]
    pi = rng.dirichlet(np.ones(d))
    _check_common(Q, pi, [range(d)])
    Q, pi = _shuffle(rng, Q, pi)
    return Chain(Q, pi)


# --- fallback -------------------------------------------------------------------

FALLBACK_M = (10, 23, 35, 48, 60)
FALLBACK_SCALAR = 0.995
FALLBACK_SURVIVAL = 0.02  # P(T > 200), so that about 40 of 2000 trajectories survive
FALLBACK_STEPS = 45.0  # expected steps per Monte Carlo trajectory, capped at 201
FALLBACK_MC_N = 200


def fallback_chain(seed: int, index: int) -> Chain:
    """A primitive m-state block (m = 10..60) at root about 0.97 that holds
    all the initial mass, above one scalar block at 0.995.  The non-scalar
    block lies below the dominant root on a path with initial mass, so the
    closed form is not certified by construction.  Half of the block's
    states exit to the scalar block; their rates are scaled so that a Monte
    Carlo trajectory takes FALLBACK_STEPS steps on average."""
    rng = _rng(seed, index, 4)
    m = FALLBACK_M[index % len(FALLBACK_M)]
    rho = float(rng.uniform(0.965, 0.975))
    B = _sparse_cluster(rng, m) * rng.uniform(0.965, 0.975, m)[:, None]
    B *= rho / _perron_root(B)
    Q = np.zeros((m + 1, m + 1))
    Q[0, 0] = FALLBACK_SCALAR
    Q[1:, 1:] = B
    pi = np.zeros(m + 1)
    for _ in range(20):  # redraw until the target below is reachable
        pi[1:] = rng.dirichlet(np.ones(m))
        exits = rng.random(m) < 0.5
        exits[rng.integers(m)] = True
        rates = np.where(exits, rng.uniform(0.5, 1.0, m), 0.0)
        # bisect on the exit level until the expected number of steps of a
        # Monte Carlo trajectory, sum_(t<=200) P(T > t), is on target: it sets
        # the cost of the operation.  Rows of B sum to at most 0.985.
        lo, hi = 0.0005, 0.0145
        for _ in range(30):
            level = (lo + hi) / 2
            Q[1:, 0] = rates * level
            steps, a = 0.0, pi
            for _ in range(FALLBACK_MC_N + 1):
                steps += a.sum()
                a = a @ Q
            lo, hi = (level, hi) if steps < FALLBACK_STEPS else (lo, level)
        if abs(steps / FALLBACK_STEPS - 1) < 0.01:
            break
    else:
        raise InvariantError(f"expected trajectory length stays off {FALLBACK_STEPS}")
    ranges = [range(0, 1), range(1, m + 1)]
    survival = pi @ np.linalg.matrix_power(Q, FALLBACK_MC_N)
    if not survival.sum() > FALLBACK_SURVIVAL:
        raise InvariantError(f"survival at n={FALLBACK_MC_N} is only {survival.sum():.3g}")
    _check_common(Q, pi, ranges)
    if not (m > 1 and _perron_root(B) < FALLBACK_SCALAR and pi[0] == 0.0):
        raise InvariantError("the fallback chain is certifiable")
    Q, pi = _shuffle(rng, Q, pi)
    return Chain(Q, pi)
