"""Per-block Perron data (root, left/right eigenvectors) and the path
weights built from projection coefficients.

Normalization convention throughout: the right eigenvector v sums to 1 and
the left eigenvector u satisfies u . v = 1.  With this convention the left
eigenvector annihilates the complementary invariant subspace, so the
coefficient of v in any vector x is just u . x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import AmbiguousRhoClasses, NoConvergence, NotIrreducible
from .structure import FrobeniusForm, _is_strongly_connected, block_period, is_primitive

POWER_TOL = 1e-13
POWER_MAX_ITER = 10**6


@dataclass(frozen=True)
class BlockSpectrum:
    rho: float
    v: np.ndarray
    u: np.ndarray
    sub_modulus: float
    period: int
    primitive: bool
    scalar: bool


@dataclass(frozen=True)
class SpectrumSet:
    blocks: Tuple[BlockSpectrum, ...]
    rho_max: float
    rho_eq_tol: float

    def rho(self, i: int) -> float:
        """Perron root of block i (1-based)."""
        return self.blocks[i - 1].rho

    def rho_equal(self, i: int, j: int) -> bool:
        """Whether blocks i and j (1-based) share their Perron root.

        Scalar blocks compare their literal entries exactly; otherwise a
        relative tolerance rho_eq_tol is used, since the attained-maximum
        classification is discontinuous in rho.
        """
        a, b = self.blocks[i - 1], self.blocks[j - 1]
        if a.scalar and b.scalar:
            return a.rho == b.rho
        m = max(a.rho, b.rho)
        return abs(a.rho - b.rho) <= self.rho_eq_tol * m

    def attains(self, i: int, value: float) -> bool:
        """Whether block i's root equals `value` under the equality policy."""
        s = self.blocks[i - 1]
        return abs(s.rho - value) <= self.rho_eq_tol * max(s.rho, value)


def _power_iteration(M: np.ndarray, tol: float, max_iter: int):
    """Leading eigenpair of a nonnegative matrix by power iteration.

    Returns (lam, x) with x >= 0 normalized to sum 1 and residual
    ||Mx - lam x||_inf <= tol * max(lam, 1).
    """
    n = M.shape[0]
    x = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(max_iter):
        y = M @ x
        s = y.sum()
        if s == 0.0:
            return 0.0, x
        y = y / s
        lam = s
        if np.max(np.abs(M @ y - lam * y)) <= tol * max(lam, 1.0):
            return lam, y
        x = y
    raise NoConvergence(f"power iteration did not reach tol {tol} in {max_iter} steps")


def perron_block(block: np.ndarray, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER) -> BlockSpectrum:
    """Perron data of an irreducible diagonal block.

    For primitive blocks, power iteration runs on the block and its transpose
    directly.  For a block of period h > 1 the root is found by iterating on
    block^h (whose Perron root is rho^h and strictly dominant on the relevant
    eigenspace) and taking the h-th root; the eigenvectors are recovered by
    iterating on block + I, which shifts every eigenvalue by 1 and makes the
    Perron root strictly dominant without changing eigenvectors.
    """
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    if n == 1:
        rho = float(block[0, 0])
        return BlockSpectrum(
            rho=rho,
            v=np.array([1.0]),
            u=np.array([1.0]),
            sub_modulus=0.0,
            period=1,
            primitive=True,
            scalar=True,
        )
    if not _is_strongly_connected(block):
        raise NotIrreducible("diagonal block is not irreducible")
    h = block_period(block)
    primitive = is_primitive(block)
    if primitive:
        rho, v = _power_iteration(block, tol, max_iter)
        _, u = _power_iteration(block.T, tol, max_iter)
    else:
        rho_h, _ = _power_iteration(np.linalg.matrix_power(block, h), tol, max_iter)
        rho = rho_h ** (1.0 / h)
        # block + I: same eigenvectors, spectrum shifted so the Perron root
        # is strictly dominant even for cyclic blocks
        shifted = block + np.eye(n)
        _, v = _power_iteration(shifted, tol, max_iter)
        _, u = _power_iteration(shifted.T, tol, max_iter)
    v = v / v.sum()
    u = u / (u @ v)
    sub = _sub_modulus(block, rho, v, u)
    return BlockSpectrum(
        rho=float(rho),
        v=v,
        u=u,
        sub_modulus=sub,
        period=h,
        primitive=primitive,
        scalar=False,
    )


def _sub_modulus(block: np.ndarray, rho: float, v: np.ndarray, u: np.ndarray, steps: int = 200) -> float:
    """Largest modulus among the non-Perron eigenvalues, estimated by power
    iteration on the deflated matrix block - rho v u^T.  Diagnostic only."""
    n = block.shape[0]
    D = block - rho * np.outer(v, u)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    x = x - (u @ x) * v
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return 0.0
    x = x / norm
    log_growth = 0.0
    for _ in range(steps):
        x = D @ x
        norm = np.linalg.norm(x)
        if norm == 0.0:
            return 0.0
        log_growth += np.log(norm)
        x = x / norm
    return float(np.exp(log_growth / steps))


def spectrum_set(form: FrobeniusForm, rho_eq_tol: float = 1e-9) -> SpectrumSet:
    """Perron data for every diagonal block, with the rho-equality classes
    checked for transitivity (non-transitive near-ties are an error, not a
    silent choice)."""
    blocks = tuple(perron_block(B) for B in form.diag_blocks)
    rho_max = max(s.rho for s in blocks)
    ss = SpectrumSet(blocks=blocks, rho_max=rho_max, rho_eq_tol=rho_eq_tol)
    _check_transitive(ss)
    return ss


def _check_transitive(ss: SpectrumSet) -> None:
    k = len(ss.blocks)
    # connected components of the pairwise-equality graph must be cliques
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for j in range(i + 1, k):
            if ss.rho_equal(i + 1, j + 1):
                parent[find(i)] = find(j)
    for i in range(k):
        for j in range(i + 1, k):
            if find(i) == find(j) and not ss.rho_equal(i + 1, j + 1):
                raise AmbiguousRhoClasses(
                    f"blocks {i + 1} and {j + 1} are chained together by near-ties "
                    f"but differ by more than rho_eq_tol={ss.rho_eq_tol}"
                )


def projection_coefficient(spectrum: BlockSpectrum, x: np.ndarray) -> float:
    """Coefficient of v in the splitting x = alpha v + w with u . w = 0."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != spectrum.v.shape[0]:
        raise ValueError("vector does not match block dimension")
    return float(spectrum.u @ x)


def path_alpha(form: FrobeniusForm, spectra: SpectrumSet, theta: Sequence[int]) -> float:
    """Weight alpha of a block path: the product of projection coefficients
    picked up while pushing the all-ones vector back along the path.

    For the last block the coefficient is u . 1; for earlier blocks it is
    u . (Q_sub v_next), where Q_sub is the connecting off-diagonal block.
    Scalar chains reduce to the product of the connecting entries.
    """
    theta = list(theta)
    kappa = len(theta)
    alpha = projection_coefficient(spectra.blocks[theta[-1] - 1], np.ones(form.block_sizes[theta[-1] - 1]))
    for pos in range(kappa - 2, -1, -1):
        i, j = theta[pos], theta[pos + 1]
        Q_sub = form.sub_blocks[(i, j)]
        v_next = spectra.blocks[j - 1].v
        alpha *= projection_coefficient(spectra.blocks[i - 1], Q_sub @ v_next)
    return alpha
