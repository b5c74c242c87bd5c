"""Admissible block paths, their classification, and the maximal family.

An admissible path is a strictly decreasing sequence of block indices in
which each consecutive pair is connected by a structurally nonzero
off-diagonal block.  Its weight data (largest root along the path, the
positions attaining it, the projection weight alpha, and the initial mass)
determine the closed-form limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import EmptyFamily, PathExplosion
from .spectral import SpectrumSet, path_alpha
from .structure import FrobeniusForm

PATH_CAP = 10**6


@dataclass(frozen=True)
class AdmissiblePath:
    theta: Tuple[int, ...]
    kappa: int
    rho_theta: float
    h_plus: int
    h_minus: int
    H_minus: Tuple[int, ...]  # 1-based positions along theta with root below rho_theta
    alpha: float
    pi_mass: float


@dataclass(frozen=True)
class PathFamily:
    all: Tuple[AdmissiblePath, ...]
    rho_max_eff: float
    h_max: int
    maximal: Tuple[AdmissiblePath, ...]
    per_block: Dict[int, Tuple[AdmissiblePath, ...]]
    pi_restricted: bool
    k: int


def enumerate_paths(form: FrobeniusForm, cap: int = PATH_CAP) -> List[Tuple[int, ...]]:
    """All admissible paths in the block DAG, sorted lexicographically.

    Singletons are always included (a length-1 path is vacuously admissible).
    """
    k = form.k
    succ = [[] for _ in range(k + 1)]
    for (i, j) in form.sub_blocks:
        succ[i].append(j)
    for lst in succ:
        lst.sort()
    out: List[Tuple[int, ...]] = []
    stack: List[Tuple[int, ...]] = [(i,) for i in range(1, k + 1)]
    while stack:
        theta = stack.pop()
        out.append(theta)
        if len(out) > cap:
            raise PathExplosion(f"more than {cap} admissible paths")
        for j in succ[theta[-1]]:
            stack.append(theta + (j,))
    out.sort()
    return out


def classify_path(
    form: FrobeniusForm,
    spectra: SpectrumSet,
    theta: Sequence[int],
    pi: np.ndarray,
) -> AdmissiblePath:
    """Fill in the weight data of one admissible path.

    pi must be given in normal-form state order.  pi_mass is the inner
    product of pi restricted to the start block with that block's right
    eigenvector; since the eigenvector is strictly positive, pi_mass is zero
    exactly when the start block carries no initial mass.
    """
    theta = tuple(map(int, theta))
    kappa = len(theta)
    rho_theta, H_minus = spectra.path_roots(theta)
    h_minus = len(H_minus)
    h_plus = kappa - h_minus
    alpha = path_alpha(form, spectra, theta)
    start = theta[0]
    r = form.index_sets[start - 1]
    pi_mass = float(np.asarray(pi, dtype=float)[r.start : r.stop] @ spectra.blocks[start - 1].v)
    return AdmissiblePath(
        theta=theta,
        kappa=kappa,
        rho_theta=rho_theta,
        h_plus=h_plus,
        h_minus=h_minus,
        H_minus=H_minus,
        alpha=alpha,
        pi_mass=pi_mass,
    )


def maximal_paths(
    paths: Sequence[AdmissiblePath],
    spectra: SpectrumSet,
    restrict_to_pi_support: bool = True,
) -> PathFamily:
    """Select the dominant family: paths attaining the largest root with the
    largest count of attaining positions.

    With restrict_to_pi_support (the default), paths whose start block
    carries no initial mass are dropped before taking the maxima, so the
    family always reflects where the chain can actually start.
    """
    paths = tuple(paths)
    admitted = tuple(p for p in paths if p.pi_mass != 0.0) if restrict_to_pi_support else paths
    if not admitted:
        raise EmptyFamily("no admissible path carries initial mass")
    rho_max_eff = max(p.rho_theta for p in admitted)
    top = [p for p in admitted if spectra.ties(p.rho_theta, rho_max_eff)]
    h_max = max(p.h_plus for p in top)
    maximal = tuple(p for p in top if p.h_plus == h_max)
    per_block: Dict[int, Tuple[AdmissiblePath, ...]] = {}
    for ell in range(1, len(spectra.blocks) + 1):
        per_block[ell] = tuple(p for p in maximal if ell in p.theta)
    return PathFamily(
        all=paths,
        rho_max_eff=rho_max_eff,
        h_max=h_max,
        maximal=maximal,
        per_block=per_block,
        pi_restricted=restrict_to_pi_support,
        k=len(spectra.blocks),
    )
