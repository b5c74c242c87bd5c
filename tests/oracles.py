"""Proof oracles for the closed form: brute-force combinatorial sums for
the block powers of Q and the dwell-time sums over admissible paths, the
growth-rate diagnostics that compare those sums against their closed-form
equivalents, and two independent evaluations of the limit (scalar chains,
single dominant paths).  They re-prove the identities of the asymptotic
analysis; none of them is on the path that computes a limit.  One more
checks the graph layer: strongly connected components read off the
reachability closure.

Scaled scalars: several sequences decay like rho^n and underflow long before
the horizons of interest, so they are passed around as (mantissa, log_scale)
pairs with value = mantissa * exp(log_scale).  Ratios of two such pairs are
well defined even when both values underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from qergodic.errors import NumericalError, StructureError
from qergodic.model import SubstochasticModel, log_survival_probability
from qergodic.paths import AdmissiblePath, PathFamily
from qergodic.spectral import SpectrumSet
from qergodic.structure import FrobeniusForm


class GammaOverflow(NumericalError):
    """A composition count exceeds the machine integer range."""


class BlockNotOnPath(StructureError):
    pass


class NotScalarChain(StructureError):
    pass


class NotSinglePath(StructureError):
    pass


_MAX_COUNT = 2**62


# --- compositions -------------------------------------------------------


def split_at(theta: Sequence[int], ell: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split a path at block ell into the part down to ell and the part from
    ell on; the two halves share the split block, so their lengths sum to
    kappa + 1."""
    theta = tuple(int(t) for t in theta)
    if ell not in theta:
        raise BlockNotOnPath(f"block {ell} does not appear on path {theta}")
    pos = theta.index(ell)
    return theta[: pos + 1], theta[pos:]


def gamma_count(kappa: int, m: int) -> int:
    """Number of nonnegative kappa-tuples summing to m: C(kappa + m - 1, m)."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if m < 0:
        return 0
    c = math.comb(kappa + m - 1, m)
    if c > _MAX_COUNT:
        raise GammaOverflow(f"composition count {c} exceeds the supported range")
    return c


def gamma_enumerate(kappa: int, m: int) -> List[Tuple[int, ...]]:
    """All nonnegative kappa-tuples summing to m, in lexicographic order."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if m < 0:
        return []
    gamma_count(kappa, m)  # overflow guard before materializing
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining + 1):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), m, kappa)
    return out


N_BRUTE = 25

Scaled = Tuple[float, float]
SeqValue = Union[float, Scaled]


def _as_scaled(x: SeqValue) -> Scaled:
    if isinstance(x, tuple):
        return x
    return (float(x), 0.0)


# --- block powers and path sums ----------------------------------------


def q_block_power(form: FrobeniusForm, i: int, j: int, n: int) -> np.ndarray:
    """The (i, j) block of Q^n (blocks 1-based, i >= j), by blockwise
    recursion: each multiplication by Q touches only the structurally nonzero
    blocks of the final column."""
    if i < j:
        raise ValueError("only the lower triangle is populated")
    k = form.k
    sizes = form.block_sizes
    # cur[l] holds block (i, l) of Q^step for l <= i
    cur: List[np.ndarray] = [np.zeros((sizes[i - 1], sizes[l - 1])) for l in range(1, i + 1)]
    cur[i - 1] = np.eye(sizes[i - 1])
    for _ in range(n):
        nxt = [np.zeros_like(b) for b in cur]
        for l in range(1, i + 1):
            acc = cur[l - 1] @ form.diag_blocks[l - 1]
            for m in range(l + 1, i + 1):
                if (m, l) in form.sub_blocks:
                    acc = acc + cur[m - 1] @ form.sub_blocks[(m, l)]
            nxt[l - 1] = acc
        cur = nxt
    return cur[j - 1]


def _connectors(form: FrobeniusForm, theta: Sequence[int]) -> List[np.ndarray]:
    out = []
    for a, b in zip(theta, theta[1:]):
        if (a, b) not in form.sub_blocks:
            raise BlockNotOnPath(f"blocks {a} -> {b} are not connected")
        out.append(form.sub_blocks[(a, b)])
    return out


def _diag_powers(form: FrobeniusForm, blocks: Sequence[int], max_pow: int) -> Dict[int, List[np.ndarray]]:
    table: Dict[int, List[np.ndarray]] = {}
    for b in set(blocks):
        B = form.diag_blocks[b - 1]
        powers = [np.eye(B.shape[0])]
        for _ in range(max_pow):
            powers.append(powers[-1] @ B)
        table[b] = powers
    return table


def q_theta_n(form: FrobeniusForm, theta: Sequence[int], n: int, n_brute: int = N_BRUTE) -> np.ndarray:
    """Dwell-time sum along one path: over all ways to distribute n steps as
    block dwell times, the product of diagonal powers joined by the
    connecting blocks.

    Small n is evaluated by literal enumeration; larger n by the step
    recursion over path suffixes (first step either dwells in the start block
    or jumps to the next).  The two agree wherever both run.
    """
    theta = tuple(int(t) for t in theta)
    kappa = len(theta)
    shape = (form.block_sizes[theta[0] - 1], form.block_sizes[theta[-1] - 1])
    if n < kappa - 1:
        return np.zeros(shape)
    if n <= n_brute:
        return _q_theta_brute(form, theta, n)
    return _q_theta_recursion(form, theta, n)


def _q_theta_brute(form: FrobeniusForm, theta: Tuple[int, ...], n: int) -> np.ndarray:
    kappa = len(theta)
    conn = _connectors(form, theta)
    m = n + 1 - kappa
    powers = _diag_powers(form, theta, m)
    shape = (form.block_sizes[theta[0] - 1], form.block_sizes[theta[-1] - 1])
    total = np.zeros(shape)
    for eta in gamma_enumerate(kappa, m):
        M = powers[theta[0]][eta[0]]
        for pos in range(1, kappa):
            M = M @ conn[pos - 1] @ powers[theta[pos]][eta[pos]]
        total += M
    return total


def _q_theta_recursion(form: FrobeniusForm, theta: Tuple[int, ...], n: int) -> np.ndarray:
    kappa = len(theta)
    conn = _connectors(form, theta)

    def zero(s):
        return np.zeros((form.block_sizes[theta[s] - 1], form.block_sizes[theta[-1] - 1]))

    # prev[s] = value for the suffix starting at position s, at step - 1
    prev = [zero(s) for s in range(kappa)]
    prev[kappa - 1] = np.eye(form.block_sizes[theta[-1] - 1])
    for step in range(1, n + 1):
        cur = [None] * kappa
        for s in range(kappa):
            acc = form.diag_blocks[theta[s] - 1] @ prev[s]
            if s < kappa - 1:
                acc = acc + conn[s] @ prev[s + 1]
            cur[s] = acc
        prev = cur
    return prev[0]


def hat_q_ell(form: FrobeniusForm, theta: Sequence[int], ell: int, n: int, method: str = "enum") -> np.ndarray:
    """Dwell-time sum with the dwell in block ell split in two (the block is
    visited twice in a row), which is the derivative-like object behind the
    occupation numerators.

    method "enum" sums literally over the length-(kappa+1) dwell tuples;
    method "conv" evaluates the equivalent convolution of the two halves of
    the path split at ell.  Both are exposed so tests can confirm they are
    the same finite sum reassociated."""
    return _hat_q(form, theta, ell, n, insert=None, method=method)


def hat_q_ell_t(
    form: FrobeniusForm, theta: Sequence[int], ell: int, t: int, n: int, method: str = "enum"
) -> np.ndarray:
    """As hat_q_ell, but the two dwells in block ell are joined through the
    rank-one projector onto local state t (1-based within the block)."""
    size = form.block_sizes[ell - 1]
    if not 1 <= t <= size:
        raise ValueError(f"local state {t} outside 1..{size}")
    insert = np.zeros((size, size))
    insert[t - 1, t - 1] = 1.0
    return _hat_q(form, theta, ell, n, insert=insert, method=method)


def _hat_q(form, theta, ell, n, insert, method) -> np.ndarray:
    theta = tuple(int(t) for t in theta)
    if ell not in theta:
        raise BlockNotOnPath(f"block {ell} does not appear on path {theta}")
    kappa = len(theta)
    shape = (form.block_sizes[theta[0] - 1], form.block_sizes[theta[-1] - 1])
    if n < kappa - 1:
        return np.zeros(shape)
    if method == "conv":
        under, over = split_at(theta, ell)
        total = np.zeros(shape)
        for r in range(n + 1):
            left = q_theta_n(form, under, r)
            right = q_theta_n(form, over, n - r)
            if insert is None:
                total += left @ right
            else:
                total += left @ insert @ right
        return total
    if method != "enum":
        raise ValueError("method must be 'enum' or 'conv'")
    pos = theta.index(ell)
    conn = _connectors(form, theta)
    m = n + 1 - kappa
    powers = _diag_powers(form, theta, m)
    eye = np.eye(form.block_sizes[ell - 1]) if insert is None else insert
    total = np.zeros(shape)
    for eta in gamma_enumerate(kappa + 1, m):
        M = powers[theta[0]][eta[0]]
        for p in range(1, kappa + 1):
            if p <= pos:
                M = M @ conn[p - 1] @ powers[theta[p]][eta[p]]
            elif p == pos + 1:
                M = M @ eye @ powers[ell][eta[p]]
            else:
                M = M @ conn[p - 2] @ powers[theta[p - 1]][eta[p]]
        total += M
    return total


# --- scalar dwell-time sums and closed forms ---------------------------


def _xi_scaled(rhos: Sequence[float], n: int) -> Scaled:
    rhos = [float(r) for r in rhos]
    kappa = len(rhos)
    m = n + 1 - kappa
    if m < 0:
        return (0.0, 0.0)
    rho_m = max(rhos)
    zetas = [r / rho_m for r in rhos]
    # T[t] = sum over dwell tuples of the first j roots with exact sum t;
    # appending a root obeys T_j(t) = z_j T_j(t-1) + T_{j-1}(t)
    T = [zetas[0] ** t for t in range(m + 1)]
    for j in range(1, kappa):
        z = zetas[j]
        nxt = [0.0] * (m + 1)
        for t in range(m + 1):
            nxt[t] = (z * nxt[t - 1] if t else 0.0) + T[t]
        T = nxt
    return (T[m], m * math.log(rho_m) if rho_m > 0 else 0.0)


def xi_n(rhos: Sequence[float], n: int) -> float:
    """Scalar dwell-time sum: over all ways to split n+1-kappa steps among
    the kappa roots, the product of root powers.  May underflow for large n;
    use xi_ratio for asymptotic comparisons."""
    mant, _ = _xi_scaled(rhos, n)
    kappa = len(rhos)
    m = n + 1 - kappa
    if m < 0:
        return 0.0
    return mant * (max(float(r) for r in rhos) ** m)


def _closed_xi_scaled(rhos: Sequence[float], n: int) -> Scaled:
    rhos = [float(r) for r in rhos]
    kappa = len(rhos)
    m = n + 1 - kappa
    if m < 0:
        return (0.0, 0.0)
    rho_m = max(rhos)
    h = sum(1 for r in rhos if r == rho_m)
    mant = float(n) ** (h - 1) / math.factorial(h - 1)
    for r in rhos:
        if r != rho_m:
            mant /= 1.0 - r / rho_m
    return (mant, m * math.log(rho_m) if rho_m > 0 else 0.0)


def closed_form_xi(rhos: Sequence[float], n: int) -> float:
    """Growth-rate equivalent of xi_n: rho^(n+1-kappa) n^(h-1)/(h-1)! times
    the geometric corrections of the below-maximum roots."""
    mant, _ = _closed_xi_scaled(rhos, n)
    kappa = len(rhos)
    m = n + 1 - kappa
    if m < 0:
        return 0.0
    return mant * (max(float(r) for r in rhos) ** m)


def xi_ratio(rhos: Sequence[float], n: int) -> float:
    """xi_n / closed_form_xi evaluated in scaled space (no underflow)."""
    a, la = _xi_scaled(rhos, n)
    b, lb = _closed_xi_scaled(rhos, n)
    return (a / b) * math.exp(la - lb)


def xi_aux(zetas: Sequence[float], m: int) -> float:
    """Sum of zeta^eta over all nonnegative tuples with total at most m.

    Satisfies the peel-off recursion in the last argument and is symmetric
    under permutation; with all arguments 1 it counts the tuples of length
    len(zetas) + 1 with exact sum m."""
    zetas = [float(z) for z in zetas]
    if m < 0:
        return 0.0
    A = [1.0] * (m + 1)
    for z in zetas:
        nxt = [0.0] * (m + 1)
        for t in range(m + 1):
            nxt[t] = (z * nxt[t - 1] if t else 0.0) + A[t]
        A = nxt
    return A[m]


# --- proof sequences and diagnostics -----------------------------------


def proof_sequences(path: AdmissiblePath, spectra: SpectrumSet, n: int) -> Tuple[Scaled, Scaled]:
    """The two closed-form growth sequences attached to one path: the
    denominator-side Psi_n (n^h/(h-1)!) and the numerator-side Xi_n
    (n^h/h!), both carrying the weight alpha * pi_mass and the geometric
    corrections.  Returned as scaled pairs; diagnostics only."""
    c = path.alpha * path.pi_mass
    for pos in path.H_minus:
        c /= 1.0 - spectra.rho(path.theta[pos - 1]) / path.rho_theta
    h = path.h_plus
    # keep the scale independent of kappa so sequences from different paths
    # sharing the same root can be summed at a common scale
    if path.rho_theta > 0:
        log_scale = (n + 1) * math.log(path.rho_theta)
        c *= path.rho_theta ** (-path.kappa)
    else:
        log_scale = 0.0
    base = c * float(n) ** h
    psi = (base / math.factorial(h - 1), log_scale)
    xi = (base / math.factorial(h), log_scale)
    return psi, xi


def path_numerator_sequence(form: FrobeniusForm, pi_nf: np.ndarray, theta: Sequence[int], n: int) -> float:
    """The contribution of one path to the survival numerator:
    pi restricted to the start block, times the dwell-time sum, times ones."""
    theta = tuple(int(t) for t in theta)
    pi_nf = np.asarray(pi_nf, dtype=float)
    pi_block = pi_nf[list(form.index_sets[theta[0] - 1])]
    ones = np.ones(form.block_sizes[theta[-1] - 1])
    return float(pi_block @ q_theta_n(form, theta, n) @ ones)


def path_numerator_closed(path: AdmissiblePath, spectra: SpectrumSet, n: int) -> float:
    """Growth-rate equivalent of path_numerator_sequence (valid when the
    below-maximum blocks on the path are scalar)."""
    c = path.alpha * path.pi_mass
    for pos in path.H_minus:
        c /= 1.0 - spectra.rho(path.theta[pos - 1]) / path.rho_theta
    h = path.h_plus
    return (
        c
        * path.rho_theta ** (n + 1 - path.kappa)
        * float(n) ** (h - 1)
        / math.factorial(h - 1)
    )


def generating_function_occupation(model: SubstochasticModel, j: int, n: int, step: float = 1e-6) -> float:
    """Occupation of state j at horizon n through the generating-function
    route: mark visits to j with z, differentiate at z = 1 by central finite
    difference, and normalize by (n+1) times the survival probability."""
    d = model.d
    mark = np.zeros(d)
    mark[j - 1] = 1.0

    def g(z: float) -> float:
        Dz = np.ones(d) + (z - 1.0) * mark
        vec = model.pi * Dz
        QD = model.Q * Dz[None, :]
        for _ in range(n):
            vec = vec @ QD
        return float(vec.sum())

    deriv = (g(1.0 + step) - g(1.0 - step)) / (2.0 * step)
    denom = (n + 1) * math.exp(log_survival_probability(model, n))
    return deriv / denom


@dataclass(frozen=True)
class DiagnosticReport:
    n_grid: Tuple[int, ...]
    ratios: Tuple[float, ...]
    final_mean: float
    drift: float
    verdict: str


def asymptotic_ratio_diagnostic(
    seq_a: Callable[[int], SeqValue],
    seq_b: Callable[[int], SeqValue],
    n_grid: Sequence[int],
    tol: float = 0.05,
    window: float = 0.2,
) -> DiagnosticReport:
    """Compare two sequences for asymptotic equivalence on a grid.

    The ratio at each grid point is formed from matched scale factors so that
    underflowing magnitudes still divide cleanly.  Verdict CONVERGING when
    the mean of |ratio - 1| over the last window is at most tol and no larger
    than over the first window; DIVERGING otherwise.
    """
    n_grid = tuple(int(n) for n in n_grid)
    ratios = []
    for n in n_grid:
        a, la = _as_scaled(seq_a(n))
        b, lb = _as_scaled(seq_b(n))
        ratios.append((a / b) * math.exp(la - lb))
    errs = [abs(r - 1.0) for r in ratios]
    w = max(1, int(len(errs) * window))
    final_mean = sum(errs[-w:]) / w
    early_mean = sum(errs[:w]) / w
    drift = final_mean - early_mean
    verdict = "CONVERGING" if (final_mean <= tol and final_mean <= early_mean + 1e-12) else "DIVERGING"
    return DiagnosticReport(
        n_grid=n_grid,
        ratios=tuple(ratios),
        final_mean=final_mean,
        drift=drift,
        verdict=verdict,
    )


# --- independent evaluations of the limit -------------------------------


def scalar_case_qed(
    form: FrobeniusForm,
    spectra: SpectrumSet,
    family: PathFamily,
    pi_nf: np.ndarray,
) -> np.ndarray:
    """Independent evaluation for chains whose blocks are all 1x1.

    Weights are rebuilt from raw matrix entries: the path weight is the
    initial mass of the start state times the product of connecting entries,
    with below-maximum diagonal entries contributing 1/(rho_max - q_uu).
    No eigenvector machinery is involved; must agree with block_qed.
    """
    if any(size != 1 for size in form.block_sizes):
        raise NotScalarChain("scalar evaluation requires all blocks of size 1")
    Q = form.permuted_Q
    pi_nf = np.asarray(pi_nf, dtype=float)
    rho_max = family.rho_max_eff

    def raw_weight(theta: Tuple[int, ...]) -> float:
        w = pi_nf[theta[0] - 1]
        for a, b in zip(theta, theta[1:]):
            w *= Q[a - 1, b - 1]
        for t in theta:
            q = Q[t - 1, t - 1]
            if q != rho_max:  # scalar blocks compare exactly
                w /= rho_max - q
        return w

    weights = {p.theta: raw_weight(p.theta) for p in family.maximal}
    denom = family.h_max * sum(weights.values())
    out = np.zeros(form.k)
    for ell in range(1, form.k + 1):
        if Q[ell - 1, ell - 1] != rho_max:
            continue
        group = family.per_block[ell]
        if group:
            out[ell - 1] = sum(weights[p.theta] for p in group) / denom
    return out


def single_path_qed(family: PathFamily, spectra: SpectrumSet) -> np.ndarray:
    """Shortcut when exactly one dominant path exists: mass 1/h_max on each
    of its root-attaining blocks."""
    if len(family.maximal) != 1:
        raise NotSinglePath(f"expected one dominant path, found {len(family.maximal)}")
    p = family.maximal[0]
    out = np.zeros(family.k)
    for pos, t in enumerate(p.theta, start=1):
        if pos not in p.H_minus:
            out[t - 1] = 1.0 / family.h_max
    return out


# --- strongly connected components --------------------------------------


def components_by_closure(adj: Sequence[Sequence[int]]) -> List[List[int]]:
    """Strongly connected components of a digraph given by successor lists,
    as sorted vertex lists in increasing order of their smallest vertex.

    i and j share a component iff each reaches the other in the reflexive
    transitive closure, which is squared (float32 products, exact for
    0/1 counts up to 2^24) until it stops growing."""
    n = len(adj)
    closure = np.eye(n, dtype=np.float32)
    for i, succ in enumerate(adj):
        closure[i, list(succ)] = 1.0
    while True:
        grown = (closure @ closure > 0).astype(np.float32)
        if np.array_equal(grown, closure):
            break
        closure = grown
    mutual = (closure > 0) & (closure.T > 0)
    comps, placed = [], np.zeros(n, dtype=bool)
    for i in range(n):
        if not placed[i]:
            placed |= mutual[i]
            comps.append(np.flatnonzero(mutual[i]).tolist())
    return comps
