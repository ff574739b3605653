import numpy as np
import pytest

from gapkit.core import SeedSpec
from gapkit.mechanisms import (
    MechanismKind,
    MechanismSpec,
    PatternClass,
    classify_pattern,
    gen_mask,
)


def test_mcar_rate_zero_all_observed():
    m = gen_mask((4, 6), MechanismSpec(MechanismKind.MCAR, rate=0.0), seed=SeedSpec(0))
    assert m.all()


def test_mcar_rate_one_all_missing():
    m = gen_mask((4, 6), MechanismSpec(MechanismKind.MCAR, rate=1.0), seed=SeedSpec(0))
    assert not m.any()


def test_mcar_empirical_rate_lln():
    rate = 0.3
    n = 100_000
    m = gen_mask((1, n), MechanismSpec(MechanismKind.MCAR, rate=rate), seed=SeedSpec(1))
    missing = 1.0 - m.mean()
    sd = np.sqrt(rate * (1 - rate) / n)
    assert abs(missing - rate) < 3 * sd


def test_mnar_half_observation_frequency():
    # phi1 = 0, phi0 = 0: observation probability is exactly 1/2
    n = 100_000
    X = SeedSpec(2).rng().standard_normal((1, n))
    spec = MechanismSpec(MechanismKind.MNAR_SELF_MASK, phi0=0.0, phi1=0.0)
    m = gen_mask((1, n), spec, X=X, seed=SeedSpec(3))
    sd = np.sqrt(0.25 / n)
    assert abs(m.mean() - 0.5) < 3 * sd


def test_mnar_selection_bias_direction():
    # positive slope: high values observed, so the observed mean sits above 0
    n = 100_000
    X = SeedSpec(4).rng().standard_normal((1, n))
    spec = MechanismSpec(MechanismKind.MNAR_SELF_MASK, phi0=0.0, phi1=1.5)
    m = gen_mask((1, n), spec, X=X, seed=SeedSpec(5))
    obs = X[m == 1]
    z = obs.mean() / (obs.std(ddof=1) / np.sqrt(len(obs)))
    assert z > 3.0  # one-sided z-test


def test_mar_driver_row_fully_observed():
    rng = SeedSpec(6).rng()
    X = rng.standard_normal((4, 500))
    spec = MechanismSpec(MechanismKind.MAR, driver_row=2, phi0=0.0, phi1=2.0)
    m = gen_mask((4, 500), spec, X=X, seed=SeedSpec(7))
    assert m[2].all()
    assert (m == 0).any()


def test_mar_missingness_tracks_driver():
    rng = SeedSpec(8).rng()
    n = 20_000
    X = np.vstack([np.linspace(-3, 3, n), rng.standard_normal(n)])
    spec = MechanismSpec(MechanismKind.MAR, driver_row=0, phi0=0.0, phi1=2.0)
    m = gen_mask((2, n), spec, X=X, seed=SeedSpec(9))
    low = m[1, : n // 2].mean()   # driver negative: rarely missing
    high = m[1, n // 2 :].mean()  # driver positive: often missing
    assert low > 0.7 > 0.5 > high


def test_mar_requires_data():
    with pytest.raises(ValueError, match="requires"):
        gen_mask((2, 3), MechanismSpec(MechanismKind.MAR), seed=SeedSpec(0))
    with pytest.raises(ValueError, match="requires"):
        gen_mask((2, 3), MechanismSpec(MechanismKind.MNAR_SELF_MASK), seed=SeedSpec(0))


def test_gen_mask_bit_reproducible():
    spec = MechanismSpec(MechanismKind.MCAR, rate=0.4)
    a = gen_mask((10, 10), spec, seed=SeedSpec(11, 3))
    b = gen_mask((10, 10), spec, seed=SeedSpec(11, 3))
    assert np.array_equal(a, b)


# -- pattern classification --------------------------------------------------


def test_classify_univariate():
    mask = np.ones((4, 6), dtype=int)
    mask[1, [0, 2, 5]] = 0
    assert classify_pattern(mask) is PatternClass.UNIVARIATE


def test_classify_univariate_generated_instances():
    rng = np.random.default_rng(12)
    for _ in range(25):
        mask = np.ones((5, 8), dtype=int)
        row = rng.integers(5)
        cols = rng.random(8) < 0.5
        if not cols.any():
            cols[0] = True
        mask[row, cols] = 0
        assert classify_pattern(mask) is PatternClass.UNIVARIATE


def test_classify_monotone_staircase():
    p, n = 5, 5
    mask = np.ones((p, n), dtype=int)
    for j in range(n):  # column j misses rows > p - (j + 1)
        mask[p - (j + 1) :, j] = 0 if j > 0 else mask[p - 1 :, j]
    mask[:, 0] = 1
    mask[p - 1, 0] = 0
    # rebuild cleanly: column j (1-based) misses the last j rows
    mask = np.ones((p, n), dtype=int)
    for j in range(1, n + 1):
        mask[p - j :, j - 1] = 0
    assert classify_pattern(mask) is PatternClass.MONOTONE


def test_classify_monotone_needs_row_permutation():
    mask = np.ones((3, 3), dtype=int)
    mask[0, [1, 2]] = 0  # row 0 missing often
    mask[2, 2] = 0
    # missing sets per column: {}, {0}, {0, 2} -> chain -> monotone
    assert classify_pattern(mask) is PatternClass.MONOTONE


def test_classify_file_matching():
    # rows 0 and 1 observed on complementary column sets, never together
    mask = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    assert classify_pattern(mask) is PatternClass.FILE_MATCHING


def test_file_matching_pairwise_co_observation_oracle():
    rng = np.random.default_rng(13)
    mask = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    obs = mask == 1
    never = [
        (i, k)
        for i in range(3)
        for k in range(i + 1, 3)
        if not (obs[i] & obs[k]).any()
    ]
    assert never == [(0, 1)]


def test_classify_multivariate():
    # rows 0 and 1 go missing together on the same columns; row 3 breaks
    # the chain so the mask is not monotone
    mask = np.ones((4, 5), dtype=int)
    mask[0, [1, 3]] = 0
    mask[1, [1, 3]] = 0
    mask[3, [0]] = 0
    assert classify_pattern(mask) is PatternClass.MULTIVARIATE


def test_classify_general():
    mask = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert classify_pattern(mask) is PatternClass.GENERAL


def test_classifier_never_returns_random():
    rng = np.random.default_rng(14)
    for _ in range(50):
        mask = (rng.random((4, 6)) < 0.6).astype(int)
        assert classify_pattern(mask) is not PatternClass.RANDOM


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (-1, 2)])
def test_gen_mask_rejects_empty_shape(shape):
    name, value = ("p", shape[0]) if shape[0] < 1 else ("n", shape[1])
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value}$"):
        gen_mask(shape, MechanismSpec(MechanismKind.MCAR, rate=0.2))


@pytest.mark.parametrize("row", [3, -1])
def test_mar_driver_row_out_of_range_is_value_error(row):
    spec = MechanismSpec(MechanismKind.MAR, driver_row=row, phi1=1.0)
    with pytest.raises(ValueError, match=f"driver_row {row} .* p=3"):
        gen_mask((3, 5), spec, X=np.zeros((3, 5)))


@pytest.mark.parametrize("phi", [{"phi0": np.nan}, {"phi1": np.inf}])
def test_mechanism_spec_rejects_non_finite_phi(phi):
    with pytest.raises(ValueError, match="finite"):
        MechanismSpec(MechanismKind.MNAR_SELF_MASK, **phi)
