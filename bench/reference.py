"""References the benchmark checks results against.

None of these call qergodic: they are independent numpy evaluations of the
quantities the library computes by other means, and they are never timed.

* `perron_pair`: Perron vectors from dense `numpy.linalg.eig`, for `dense`.
* `extrapolated_profile`: the conditioned occupation profile at horizons of
  order 1e6 to 1e7, evaluated by doubling, averaged over a full period of
  horizons and Richardson-extrapolated twice; the limit the closed form must
  match on `dag` and `periodic`.
* `occupation_profile_exact`: the finite-horizon profile at a given n, by a
  plain forward/backward sweep, for the `fallback` report.
* `occupation_moments`: mean and variance of each state's occupation
  fraction given survival, for judging the `fallback` Monte Carlo values by
  their exact standard errors.
* `monte_carlo_replay`: the Monte Carlo estimate that the trajectories of a
  given `--seed` make, for deciding whether a `fallback` value far from the
  exact profile is the sample's or the program's.
"""

from __future__ import annotations

import numpy as np


def perron_pair(Q: np.ndarray):
    """Right and left Perron vectors of an irreducible Q, each normalized to
    sum 1, from one dense eigendecomposition Q = V diag(w) V^-1: the left
    vector is the matching row of V^-1, found by one solve with V^T."""
    w, V = np.linalg.eig(Q)
    k = int(np.argmax(np.real(w)))
    e = np.zeros(Q.shape[0])
    e[k] = 1.0
    v = np.abs(np.real(V[:, k]))
    u = np.abs(np.real(np.linalg.solve(V.T, e)))
    return v / v.sum(), u / u.sum()


def _profile(C: np.ndarray, pi: np.ndarray) -> np.ndarray:
    num = C.sum(axis=2) @ pi
    return num / num.sum()


def _normalized(M: np.ndarray, log_scale: float):
    s = np.abs(M).max()
    return M / s, log_scale - np.log(s)


def extrapolated_profile(Q: np.ndarray, pi: np.ndarray, period: int = 1, log2_m: int = 22):
    """Limit of the conditioned occupation profile.

    With P_m = Q^m and

        C_m[j] = sum_{r<m} Q^r e_j e_j' Q^(m-1-r),

    pi C_m[j] 1 is the unnormalized occupation of state j over horizon m-1.
    Doubling, C_2m = C_m P_m + P_m C_m, reaches m = 2^log2_m, ...,
    2^(log2_m+3) in O(d^4 log m).  C and P are stored each rescaled to
    max 1, with their log scale factors (the two terms of a doubling carry
    the same factor, so only the single steps need them).  At each m the
    profile is averaged over `period` consecutive horizons, a full cycle of
    phases, and the 1/m and 1/m^2 terms are cancelled by two rounds of
    Richardson extrapolation, r(m) = 2 p(2m) - p(m) and (4 r(2m) - r(m)) / 3.
    A higher horizon would not help: rounding error grows like m * 1e-16.
    Returns the extrapolation from the three largest horizons and its
    difference to the one from the three smaller, an estimate of the
    reference's own error.
    """
    d = Q.shape[0]
    diag = np.arange(d)
    C = np.zeros((d, d, d))
    C[diag, diag, diag] = 1.0
    P = Q.copy()
    lc = lp = 0.0
    means = []
    for level in range(log2_m + 4):
        if level:
            C, lc = _normalized(C @ P + P @ C, lc + lp)
            P, lp = _normalized(P @ P, 2 * lp)
        if level < log2_m:
            continue
        acc = _profile(C, pi)
        Cw, lcw, Pw, lpw = C, lc, P, lp
        for _ in range(period - 1):  # C_{m+1} = C_m Q + P_m e_j e_j'
            Cw = Cw @ Q
            Cw[diag, :, diag] += np.exp(lcw - lpw) * Pw.T
            Cw, lcw = _normalized(Cw, lcw)
            Pw, lpw = _normalized(Pw @ Q, lpw)
            acc += _profile(Cw, pi)
        means.append(acc / period)
    r1 = [2 * b - a for a, b in zip(means, means[1:])]
    r2 = [(4 * b - a) / 3 for a, b in zip(r1, r1[1:])]
    return r2[1], float(np.max(np.abs(r2[1] - r2[0])))


def occupation_profile_exact(Q: np.ndarray, pi: np.ndarray, n: int) -> np.ndarray:
    """Conditioned occupation profile at horizon n:
    sum_r (pi Q^r)_j (Q^(n-r) 1)_j / ((n+1) pi Q^n 1), with Q rescaled by its
    spectral radius so that no iterate underflows."""
    Qs = Q / np.max(np.abs(np.linalg.eigvals(Q)))
    d = Q.shape[0]
    A = np.empty((n + 1, d))
    B = np.empty((n + 1, d))
    A[0] = pi
    B[0] = 1.0
    for r in range(n):
        A[r + 1] = A[r] @ Qs
        B[r + 1] = Qs @ B[r]
    num = (A * B[::-1]).sum(axis=0)
    return num / num.sum()


def occupation_moments(Q: np.ndarray, pi: np.ndarray, n: int):
    """Mean and variance, given T > n, of each state's occupation fraction
    F_j = #{r <= n : X_r = j} / (n+1).  With a_r = pi Q^r and b_t = Q^t 1,

        E[#_j^2; T > n] = sum_r a_r(j) b_(n-r)(j)
                          + 2 sum_(r<s) a_r(j) (Q^(s-r))_jj b_(n-s)(j).

    O(n d^3 + n^2 d); meant for n in the hundreds."""
    d = Q.shape[0]
    A = np.empty((n + 1, d))
    B = np.empty((n + 1, d))
    D = np.empty((n + 1, d))  # D[t] = diag(Q^t)
    A[0], B[0], D[0] = pi, 1.0, 1.0
    P = np.eye(d)
    for t in range(n):
        A[t + 1] = A[t] @ Q
        B[t + 1] = Q @ B[t]
        P = P @ Q
        D[t + 1] = np.diag(P)
    survival = A[n].sum()
    Brev = B[::-1]  # Brev[r] = b_(n-r)
    first = (A * Brev).sum(axis=0)
    cross = sum(D[t] * (A[: n + 1 - t] * Brev[t:]).sum(axis=0) for t in range(1, n + 1))
    mean = first / survival / (n + 1)
    second = (first + 2 * cross) / survival / (n + 1) ** 2
    return mean, second - mean**2


def monte_carlo_replay(Q: np.ndarray, pi: np.ndarray, n: int, trials: int, seed: int, chunk: int = 200):
    """The Monte Carlo estimate of the conditioned occupation at horizon n
    that `qergodic analyze --seed seed` must report: the same trajectories,
    simulated here with numpy, `chunk` at a time (small, so that the replay
    does not raise the process's peak memory).

    Trajectory i draws its uniforms from PCG64(SeedSequence(entropy=(seed,
    i))), in order: one picks X_0 from pi, and one per step picks the next
    state from the cumulative row of (R | Q), where R = 1 - row sums of Q
    and the first slot absorbs.  A trajectory that is not absorbed within n
    steps survives; each state's value is its visit count over X_0..X_n,
    divided by n + 1 and averaged over the survivors.  Returns the values
    and the number of survivors.
    """
    d = Q.shape[0]
    cum = np.cumsum(np.hstack([np.clip(1.0 - Q.sum(axis=1), 0.0, None)[:, None], Q]), axis=1)
    pi_cum = np.cumsum(pi)
    sums = np.zeros(d)
    surviving = 0
    for first in range(0, trials, chunk):
        U = np.array([
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), i)))).random(n + 1)
            for i in range(first, min(first + chunk, trials))
        ])
        rows = np.arange(U.shape[0])
        state = np.minimum(np.searchsorted(pi_cum, U[:, 0], side="right"), d - 1)
        alive = np.ones(U.shape[0], dtype=bool)
        visits = np.zeros((U.shape[0], d))
        visits[rows, state] += 1
        for t in range(1, n + 1):
            nxt = (cum[state] <= U[:, t, None]).sum(axis=1)  # bisect_right on each row
            alive &= nxt > 0
            state = np.minimum(np.maximum(nxt - 1, 0), d - 1)
            visits[rows[alive], state[alive]] += 1
        sums += visits[alive].sum(axis=0)
        surviving += int(alive.sum())
    return sums / (n + 1) / max(surviving, 1), surviving
