"""Per-block Perron data (root, left/right eigenvectors) and the path
weights built from projection coefficients.

`spectrum_set` computes each projection coefficient once per chain: the exit
coefficient u . 1 of every block and the connector coefficient
u_i . (C_ij v_j) of every off-diagonal block.  A path's weight is a product of
these stored scalars.

Normalization convention throughout: the right eigenvector v sums to 1 and
the left eigenvector u satisfies u . v = 1.  With this convention the left
eigenvector annihilates the complementary invariant subspace, so the
coefficient of v in any vector x is just u . x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import AmbiguousRhoClasses, NoConvergence
from .structure import FrobeniusForm, block_period

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
    exit_coefficients: Tuple[float, ...]  # u_i . 1, by block index - 1
    connector_coefficients: Dict[Tuple[int, int], float]  # u_i . (C_ij v_j), keyed like sub_blocks

    def rho(self, i: int) -> float:
        """Perron root of block i (1-based)."""
        return self.blocks[i - 1].rho

    def attains(self, i: int, value: float) -> bool:
        """Whether block i's root equals `value` under the equality policy."""
        return self.ties(self.blocks[i - 1].rho, value)

    def path_roots(self, theta: Sequence[int]) -> Tuple[float, Tuple[int, ...]]:
        """The largest root along a block path, and the 1-based positions
        whose root falls below it under the equality policy."""
        roots = [self.blocks[t - 1].rho for t in theta]
        top = max(roots)
        ties = self.ties
        return top, tuple([pos for pos, r in enumerate(roots, start=1) if r != top and not ties(r, top)])

    def ties(self, rho: float, value: float) -> bool:
        """Whether two roots are equal under the equality policy: within
        the relative tolerance rho_eq_tol."""
        return abs(rho - value) <= self.rho_eq_tol * max(rho, value)


def _power_iteration(M: np.ndarray, tol: float, max_iter: int):
    """Leading eigenpair of a nonnegative matrix by power iteration.

    Returns (lam, x) with x >= 0 normalized to sum 1 and residual
    ||Mx - lam x||_inf <= tol * max(lam, 1).  The product of the residual
    test is the next step's product, so s steps take s + 1 products.
    """
    n = M.shape[0]
    x = np.full(n, 1.0 / n)
    Mx = M @ x
    for _ in range(max_iter):
        s = Mx.sum()
        if s == 0.0:
            return 0.0, x
        y = Mx / s
        lam = s
        Mx = M @ y
        if np.max(np.abs(Mx - lam * y)) <= tol * max(lam, 1.0):
            return lam, y
        x = y
    raise NoConvergence(f"power iteration did not reach tol {tol} in {max_iter} steps")


def perron_block(block: np.ndarray, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER) -> BlockSpectrum:
    """Perron data of an irreducible diagonal block.  Irreducibility is the
    caller's to guarantee; `condense` yields only irreducible blocks.

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
    h = block_period(block)
    primitive = h == 1
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
    silent choice), and the projection coefficients that `path_alpha`
    multiplies: u_i . 1 per block and u_i . (C_ij v_j) per connector."""
    blocks = tuple(perron_block(B) for B in form.diag_blocks)
    rho_max = max(s.rho for s in blocks)
    ss = SpectrumSet(
        blocks=blocks,
        rho_max=rho_max,
        rho_eq_tol=rho_eq_tol,
        exit_coefficients=tuple(projection_coefficient(s, np.ones(len(s.v))) for s in blocks),
        connector_coefficients={
            (i, j): projection_coefficient(blocks[i - 1], C @ blocks[j - 1].v) for (i, j), C in form.sub_blocks.items()
        },
    )
    _check_transitive(ss)
    return ss


def _check_transitive(ss: SpectrumSet) -> None:
    """Every class of roots chained together by ties must be a clique.

    On roots sorted increasingly, a <= b <= c with a tied to c implies that
    a ties b and b ties c.  So the classes are the maximal runs of adjacent
    ties, and a run is a clique exactly when its two ends tie."""
    order = sorted(range(len(ss.blocks)), key=lambda i: ss.blocks[i].rho)
    roots = [ss.blocks[i].rho for i in order]
    start = 0
    for end in range(1, len(order) + 1):
        if end < len(order) and ss.ties(roots[end - 1], roots[end]):
            continue
        if not ss.ties(roots[start], roots[end - 1]):
            i, j = sorted((order[start] + 1, order[end - 1] + 1))
            raise AmbiguousRhoClasses(
                f"blocks {i} and {j} are chained together by near-ties "
                f"but differ by more than rho_eq_tol={ss.rho_eq_tol}"
            )
        start = end


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
    Scalar chains reduce to the product of the connecting entries.  The
    coefficients are read from `spectra`, where `spectrum_set` computed each
    once, and multiplied from the last block backwards.
    """
    connectors = spectra.connector_coefficients
    alpha = spectra.exit_coefficients[theta[-1] - 1]
    for pos in range(len(theta) - 2, -1, -1):
        alpha *= connectors[(theta[pos], theta[pos + 1])]
    return alpha
