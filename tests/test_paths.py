"""Path enumeration, classification, dominant families, and the composition
combinatorics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qergodic as qg
from qergodic import limits
from qergodic.paths import classify_path, enumerate_paths, maximal_paths
from qergodic.spectral import spectrum_set
from qergodic.structure import condense

from conftest import model_of, random_model
from oracles import BlockNotOnPath, gamma_count, gamma_enumerate, split_at


def _family(name, restrict=True):
    a = limits.analyze(model_of(name), restrict_to_pi_support=restrict)
    return a.form, a.spectra, a.family


def test_enumerate_triangle_full():
    form = condense(model_of("triangle_full"))
    got = enumerate_paths(form)
    assert got == [(1,), (2,), (2, 1), (3,), (3, 1), (3, 2), (3, 2, 1)]


def test_enumerate_single_block():
    form = condense(qg.validate([[0.2, 0.1], [0.1, 0.0]], [0.5, 0.5]))
    assert enumerate_paths(form) == [(1,)]


def test_enumerate_four_block_structure():
    form = condense(model_of("four_block"))
    got = enumerate_paths(form)
    assert (4, 3, 2) in got and (4, 1) in got
    assert (3, 1) not in got and (4, 2) not in got


def test_paths_structurally_valid():
    rng = np.random.default_rng(31)
    for _ in range(15):
        m = random_model(rng)
        form = condense(m)
        for th in enumerate_paths(form):
            assert all(a > b for a, b in zip(th, th[1:]))
            for a, b in zip(th, th[1:]):
                assert np.any(form.sub_blocks[(a, b)] != 0)


def test_classify_equal_roots():
    form, spectra, fam = _family("triangle_full")
    by_theta = {p.theta: p for p in fam.all}
    p = by_theta[(3, 2, 1)]
    assert p.h_plus == 3 and p.h_minus == 0 and p.H_minus == ()


def test_classify_mixed_roots():
    form, spectra, fam = _family("two_state")
    p = {q.theta: q for q in fam.all}[(2, 1)]
    assert p.h_plus == 1 and p.h_minus == 1
    assert p.H_minus == (2,)  # the second position holds the smaller root
    single = {q.theta: q for q in fam.all}[(2,)]
    assert single.h_plus == 1 and single.h_minus == 0


def test_maximal_two_state():
    _, _, fam = _family("two_state")
    assert sorted(p.theta for p in fam.maximal) == [(2,), (2, 1)]
    assert fam.h_max == 1


def test_maximal_triangle_full():
    _, _, fam = _family("triangle_full")
    assert [p.theta for p in fam.maximal] == [(3, 2, 1)]
    assert fam.h_max == 3


def test_pi_restriction_changes_family():
    m = qg.validate([[0.3, 0], [0.5, 0.5]], [1.0, 0.0])  # mass only on block 1
    form = condense(m)
    spectra = spectrum_set(form)
    pi_nf = m.pi[list(form.perm)]
    classified = [classify_path(form, spectra, th, pi_nf) for th in enumerate_paths(form)]
    restricted = maximal_paths(classified, spectra, True)
    assert [p.theta for p in restricted.maximal] == [(1,)]
    assert restricted.rho_max_eff == 0.3
    unrestricted = maximal_paths(classified, spectra, False)
    assert sorted(p.theta for p in unrestricted.maximal) == [(2,), (2, 1)]


def test_maximal_count_per_path():
    # each dominant path holds exactly h_max root-attaining blocks
    rng = np.random.default_rng(37)
    for _ in range(20):
        m = random_model(rng)
        form = condense(m)
        spectra = spectrum_set(form)
        pi_nf = m.pi[list(form.perm)]
        classified = [classify_path(form, spectra, th, pi_nf) for th in enumerate_paths(form)]
        fam = maximal_paths(classified, spectra)
        for p in fam.maximal:
            assert p.h_plus == fam.h_max


def test_per_block_membership():
    _, _, fam = _family("triangle_split")
    assert sorted(p.theta for p in fam.per_block[1]) == [(2, 1), (3, 1)]
    assert [p.theta for p in fam.per_block[2]] == [(2, 1)]
    assert [p.theta for p in fam.per_block[3]] == [(3, 1)]


def test_pi_mass_zero_iff_unsupported_block():
    _, _, fam = _family("triangle_split")  # pi = (0, 0.5, 0.5)
    for p in fam.all:
        if p.theta[0] == 1:
            assert p.pi_mass == 0.0
        else:
            assert p.pi_mass > 0.0


def test_split_at():
    assert split_at((3, 2, 1), 2) == ((3, 2), (2, 1))
    assert split_at((3, 2, 1), 3) == ((3,), (3, 2, 1))
    assert split_at((3, 2, 1), 1) == ((3, 2, 1), (1,))
    with pytest.raises(BlockNotOnPath):
        split_at((2, 1), 3)


def test_split_rejoin():
    theta = (5, 4, 2, 1)
    for ell in theta:
        under, over = split_at(theta, ell)
        assert under[-1] == ell and over[0] == ell
        assert len(under) + len(over) == len(theta) + 1
        assert under + over[1:] == theta


def test_gamma_count_values():
    assert gamma_count(3, 2) == 6
    assert gamma_count(1, 9) == 1
    assert gamma_count(2, 3) == 4
    assert gamma_count(4, -1) == 0


def test_gamma_enumerate_values():
    assert gamma_enumerate(2, 1) == [(0, 1), (1, 0)]
    assert gamma_enumerate(3, -1) == []
    assert gamma_enumerate(1, 5) == [(5,)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10))
def test_gamma_enumerate_matches_count(kappa, m):
    tuples = gamma_enumerate(kappa, m)
    assert len(tuples) == len(set(tuples)) == gamma_count(kappa, m)
    assert all(len(t) == kappa and sum(t) == m and min(t) >= 0 for t in tuples)
    assert tuples == sorted(tuples)
