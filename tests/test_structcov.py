import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapkit.core import IncompleteMatrix, SeedSpec
from gapkit.em import EmConfig, EVariant, em_gaussian_fit
from gapkit.mechanisms import MechanismKind, MechanismSpec, gen_mask
from gapkit.structcov import (
    CovStructure,
    StructureKind,
    em_structured_fit,
    project_factor_model,
    project_fml,
)


def _random_spd(rng, p):
    A = rng.standard_normal((p, p))
    return A @ A.T + 0.1 * np.eye(p)


def test_factor_identity_input():
    for r in (1, 2, 3):
        assert_allclose(project_factor_model(np.eye(4), r), np.eye(4), atol=1e-12)


def test_factor_diagonal_example():
    out = project_factor_model(np.diag([3.0, 1.0, 1.0]), r=1)
    assert_allclose(out, np.diag([3.0, 1.0, 1.0]), atol=1e-12)


def test_factor_fixed_point_of_members():
    rng = np.random.default_rng(0)
    p, r = 5, 2
    for _ in range(10):
        U = np.linalg.qr(rng.standard_normal((p, r)))[0]
        load = rng.uniform(0.5, 2.0, r)
        sigma2 = rng.uniform(0.2, 1.0)
        member = sigma2 * np.eye(p) + (U * load) @ U.T
        assert_allclose(project_factor_model(member, r), member, atol=1e-10)


def test_factor_eigenvalue_count():
    rng = np.random.default_rng(1)
    for _ in range(20):
        S = _random_spd(rng, 6)
        r = 2
        out = project_factor_model(S, r)
        w = np.sort(np.linalg.eigvalsh(out))[::-1]
        sigma2 = np.sort(np.linalg.eigvalsh(S))[::-1][r:].mean()
        assert np.sum(w > sigma2 + 1e-8) <= r


def test_factor_rejects_bad_rank():
    with pytest.raises(ValueError):
        project_factor_model(np.eye(3), r=3)


def test_fml_inactive_constraint():
    rng = np.random.default_rng(2)
    S = _random_spd(rng, 4) + 5.0 * np.eye(4)
    assert_allclose(project_fml(S, sigma_known=0.5), S, atol=1e-10)


def test_fml_diagonal_floor():
    out = project_fml(np.diag([0.5, 2.0]), sigma_known=1.0)
    assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-12)


def test_fml_floor_psd_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(100):
        S = _random_spd(rng, 5)
        floor = rng.uniform(0.3, 1.5)
        out = project_fml(S, floor)
        gap = out - floor**2 * np.eye(5)
        assert np.linalg.eigvalsh(gap).min() >= -1e-10


def test_projections_idempotent_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(100):
        S = _random_spd(rng, 5)
        f1 = project_factor_model(S, 2)
        assert_allclose(project_factor_model(f1, 2), f1, atol=1e-10)
        f2 = project_fml(S, 0.8)
        assert_allclose(project_fml(f2, 0.8), f2, atol=1e-10)
        for out in (f1, f2):
            assert_allclose(out, out.T, atol=1e-12)
            assert np.linalg.eigvalsh(out).min() >= -1e-10


def _mcar_gaussian(seed, p=4, n=400, rate=0.2, sigma=None, mu=None):
    rng = np.random.default_rng(seed)
    sigma = np.eye(p) if sigma is None else sigma
    mu = np.zeros(p) if mu is None else mu
    vals = mu[:, None] + np.linalg.cholesky(sigma) @ rng.standard_normal((p, n))
    mask = gen_mask((p, n), MechanismSpec(MechanismKind.MCAR, rate=rate), seed=SeedSpec(seed + 1))
    return IncompleteMatrix(vals, mask), mu, sigma


def test_structured_floor_inactive_matches_plain_em():
    X, _, _ = _mcar_gaussian(5)
    cfg = EmConfig(tol=1e-10, max_iter=100)
    plain = em_gaussian_fit(X, cfg=cfg)
    low_floor = CovStructure(StructureKind.NOISE_FLOOR, sigma_known=1e-4)
    fit = em_structured_fit(X, low_floor, cfg=cfg)
    assert_allclose(fit.params.mu, plain.params.mu, atol=1e-8)
    assert_allclose(fit.params.sigma, plain.params.sigma, atol=1e-8)


def test_structured_floor_loglik_monotone():
    X, _, _ = _mcar_gaussian(6)
    floor = CovStructure(StructureKind.NOISE_FLOOR, sigma_known=0.9)
    fit = em_structured_fit(X, floor, cfg=EmConfig(tol=1e-11, max_iter=150))
    assert np.all(np.diff(fit.loglik_trace) >= -1e-9)
    assert np.linalg.eigvalsh(fit.params.sigma).min() >= 0.9**2 - 1e-10


def test_structured_complete_data_one_step_equals_projection():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((4, 300))
    X = IncompleteMatrix.from_complete(vals)
    fit = em_structured_fit(
        X, CovStructure(StructureKind.FACTOR_MODEL, r=1), cfg=EmConfig(max_iter=1, tol=1e-30)
    )
    mu = vals.mean(axis=1)
    dev = vals - mu[:, None]
    expected = project_factor_model(dev @ dev.T / 300, 1)
    assert_allclose(fit.params.sigma, expected, atol=1e-10)
    assert_allclose(fit.params.mu, mu, atol=1e-12)


def test_structured_factor_beats_unconstrained_on_model_data():
    # ground truth inside the factor set: sigma^2 I + rank-1
    rng = np.random.default_rng(8)
    p, n = 6, 150
    u = np.linalg.qr(rng.standard_normal((p, 1)))[0][:, 0]
    sigma_true = 0.5 * np.eye(p) + 2.0 * np.outer(u, u)
    wins = 0
    reps = 30
    for rep in range(reps):
        X, _, _ = _mcar_gaussian(100 + rep, p=p, n=n, rate=0.2, sigma=sigma_true)
        cfg = EmConfig(tol=1e-9, max_iter=150)
        plain = em_gaussian_fit(X, cfg=cfg)
        fact = em_structured_fit(X, CovStructure(StructureKind.FACTOR_MODEL, r=1), cfg=cfg)
        e_plain = np.linalg.norm(plain.params.sigma - sigma_true)
        e_fact = np.linalg.norm(fact.params.sigma - sigma_true)
        wins += e_fact < e_plain
    assert wins >= int(0.7 * reps)


def test_structured_fit_honours_e_variant():
    X, _, _ = _mcar_gaussian(9, p=4, n=200, rate=0.3)
    factor = CovStructure(StructureKind.FACTOR_MODEL, r=1)
    exact = em_structured_fit(X, factor, cfg=EmConfig(max_iter=30, tol=1e-30))
    saem = EmConfig(e_variant=EVariant.SAEM, max_iter=30, tol=1e-30, seed=SeedSpec(5))
    first = em_structured_fit(X, factor, cfg=saem)
    again = em_structured_fit(X, factor, cfg=saem)
    assert not np.array_equal(first.params.sigma, exact.params.sigma)
    assert np.array_equal(first.params.sigma, again.params.sigma)
    assert np.array_equal(first.loglik_trace, again.loglik_trace)
    assert_allclose(project_factor_model(first.params.sigma, 1), first.params.sigma, atol=1e-10)
