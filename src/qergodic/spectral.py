"""Per-block Perron data (root, left/right eigenvectors) and the path
weights built from projection coefficients.

`perron_data` is the one Perron solver, for the blocks of `spectrum_set`,
for `irreducible_qed` and for the quasi-stationary distribution.  The right
vector comes from Noda's shifted inverse iteration, a few dense solves
whatever the spectral gap or the period; the left vector from one bordered
solve.  Both must meet the residual bound RESIDUAL_TOL.

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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import AmbiguousRhoClasses, NoConvergence
from .structure import FrobeniusForm, block_period

RESIDUAL_TOL = 1e-13
MAX_SOLVES = 50


@dataclass(frozen=True)
class BlockSpectrum:
    rho: float
    v: np.ndarray
    u: np.ndarray
    period: int
    primitive: bool
    scalar: bool
    block: np.ndarray = field(repr=False)  # the block itself, read only by sub_modulus

    @cached_property
    def sub_modulus(self) -> float:
        """Largest modulus among the non-Perron eigenvalues, 0 for a scalar
        block.  A diagnostic that no limit reads: computed on first read."""
        return 0.0 if self.scalar else _sub_modulus(self.block, self.rho, self.v, self.u)


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


def _shifted_solve(B: np.ndarray, sigma: float, x: np.ndarray) -> np.ndarray:
    """(sigma I - B)^-1 x.  If sigma I - B is singular to working precision,
    sigma is the Perron root to working precision; the shift then moves up by
    RESIDUAL_TOL, which keeps (sigma I - B)^-1 x dominated by the Perron
    vector."""
    eye = np.eye(len(x))
    try:
        return np.linalg.solve(sigma * eye - B, x)
    except np.linalg.LinAlgError:
        return np.linalg.solve((sigma + RESIDUAL_TOL * max(sigma, 1.0)) * eye - B, x)


def _left_vector(B: np.ndarray, rho: float, v: np.ndarray) -> np.ndarray:
    """Left Perron vector u with u . v = 1.

    Like Noda's iteration for v, it starts from the uniform vector, and takes
    it when its residual is exactly 0 (equal column sums).  Otherwise u comes
    from one bordered solve: the system (rho I - B^T) u = 0 with its
    equation i replaced by v . u = 1.  The replaced equation is implied by
    the others, since v is the left null vector of rho I - B^T and v_i > 0;
    the bordered matrix is nonsingular because u . v != 0.  The error of rho
    lands in equation i, scaled by 1 / v_i, so i is the largest entry of v."""
    n = len(v)
    w = np.full(n, 1.0 / n)
    wB = w @ B
    if not (wB - wB.sum() * w).any():
        return w / (w @ v)
    i = int(np.argmax(v))
    M = rho * np.eye(n) - B.T
    M[i] = v
    rhs = np.zeros(n)
    rhs[i] = 1.0
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"the bordered system for the left Perron vector is singular: {exc}") from exc


def _within_tol(residual: np.ndarray, lam: float) -> bool:
    return bool(np.max(np.abs(residual)) <= RESIDUAL_TOL * max(lam, 1.0))


def perron_data(block: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """(rho, v, u) of an irreducible block: the Perron root, the right
    vector summing to 1 and the left vector with u . v = 1.

    v comes from Noda's iteration (T. Noda, Numer. Math. 17, 1971).  Each
    step takes the Collatz-Wielandt bound sigma = max_i (Bx)_i / x_i, which
    never falls below rho, and solves (sigma I - B) y = x.  For sigma > rho
    the inverse is entrywise positive and its dominant eigenvalue
    1 / (sigma - rho) is strict, cyclic blocks included; sigma converges to
    rho superlinearly, so the number of solves does not depend on the
    spectral gap.  The residual test is ||Bx - lam x||_inf <=
    RESIDUAL_TOL * max(lam, 1), with x summing to 1 and lam = sum(Bx).  It
    bounds the error of x only by the residual over the spectral gap, so the
    iteration returns the iterate one solve past the first that passes (the
    superlinear step leaves x at working precision), or an iterate whose
    residual is exactly 0.  u comes from `_left_vector` and must pass the
    same test, normalized to sum 1; if it does not, the iteration goes on.
    After MAX_SOLVES solves NoConvergence is raised."""
    B = np.asarray(block, dtype=float)
    n = B.shape[0]
    if n == 1:
        return float(B[0, 0]), np.array([1.0]), np.array([1.0])
    x = np.full(n, 1.0 / n)
    passed = False
    for solves in range(MAX_SOLVES + 1):
        Bx = B @ x
        lam = float(Bx.sum())
        residual = Bx - lam * x
        if _within_tol(residual, lam):
            if passed or not residual.any():
                u = _left_vector(B, lam, x)
                un = u / u.sum()
                if _within_tol(un @ B - lam * un, lam):
                    return lam, x, u
            passed = True
        if solves < MAX_SOLVES:
            x = _shifted_solve(B, np.max(Bx / x), x)
            x = x / x.sum()
    raise NoConvergence(f"Noda iteration did not reach residual {RESIDUAL_TOL} in {MAX_SOLVES} solves")


def perron_block(block: np.ndarray) -> BlockSpectrum:
    """Perron data of an irreducible diagonal block (see `perron_data`),
    with its period.  The block is kept, not copied, for the diagnostic
    `sub_modulus`.  Irreducibility is the caller's to guarantee; `condense`
    yields only irreducible blocks.  Cyclic blocks take the same solve as
    primitive ones."""
    block = np.asarray(block, dtype=float)
    rho, v, u = perron_data(block)
    if block.shape[0] == 1:
        return BlockSpectrum(rho=rho, v=v, u=u, period=1, primitive=True, scalar=True, block=block)
    h = block_period(block)
    return BlockSpectrum(rho=rho, v=v, u=u, period=h, primitive=h == 1, scalar=False, block=block)


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
