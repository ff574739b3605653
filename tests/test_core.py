import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gapkit.completion import hard_impute, soft_impute
from gapkit.core import (
    IncompleteMatrix,
    SeedSpec,
    read_matrix_csv,
    rmse_missing,
    sep,
    split_column,
    write_mask_csv,
    write_matrix_csv,
)
from gapkit.em import EmConfig, StudentTParams
from gapkit.graph import RecoveryConfig, gmrf_learn, recover_tv, stsrgl_fit, var_learn
from gapkit.harness import ExperimentConfig
from gapkit.imputation import ImputerKind, ImputerSpec, impute_knn, multiple_impute
from gapkit.mechanisms import MechanismKind, MechanismSpec, gen_mask
from gapkit.mnar import sem_selection_fit
from gapkit.structcov import CovStructure, StructureKind
from gapkit.subspace import RobustConfig, petrels_init
from gapkit.timeseries import Ar1StudentParams, ar1t_multiple_impute


def test_incomplete_matrix_validation():
    with pytest.raises(ValueError):
        IncompleteMatrix(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        IncompleteMatrix(np.zeros((2, 2)), np.full((2, 2), 0.5))
    X = IncompleteMatrix([[1.0, 2.0]], [[1, 0]])
    assert np.isnan(X.values[0, 1])  # sentinel poisons the hidden entry
    assert X.n_missing() == 1


def test_incomplete_matrix_rejects_nan_observed():
    with pytest.raises(ValueError):
        IncompleteMatrix([[np.nan, 1.0]], [[1, 1]])


def test_split_column_fully_observed():
    X = IncompleteMatrix([[2.0], [3.0], [5.0]], np.ones((3, 1)))
    s = split_column(X, 0)
    assert len(s.missing_idx) == 0
    assert_allclose(s.x_o, [2.0, 3.0, 5.0])


def test_split_column_fully_missing():
    X = IncompleteMatrix(np.zeros((3, 1)), np.zeros((3, 1)))
    s = split_column(X, 0)
    assert len(s.observed_idx) == 0
    assert s.x_o.size == 0


def test_split_column_mixed():
    X = IncompleteMatrix([[2.0], [0.0], [5.0]], [[1], [0], [1]])
    s = split_column(X, 0)
    assert list(s.observed_idx) == [0, 2]
    assert list(s.missing_idx) == [1]
    assert_allclose(s.x_o, [2.0, 5.0])


def test_split_column_out_of_range():
    X = IncompleteMatrix(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(IndexError):
        split_column(X, 2)


def test_split_reassembly_reproduces_mask():
    rng = np.random.default_rng(0)
    mask = (rng.random((6, 9)) < 0.6).astype(int)
    X = IncompleteMatrix(rng.standard_normal((6, 9)), mask)
    rebuilt = np.zeros_like(mask)
    for j in range(X.n):
        s = split_column(X, j)
        rebuilt[s.observed_idx, j] = 1
    assert np.array_equal(rebuilt, mask)


def test_rmse_zero_when_equal():
    M = np.array([[1, 0], [0, 1]])
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rmse_missing(X, X, M) == 0.0


def test_rmse_single_entry():
    M = np.array([[1, 0]])
    assert rmse_missing(np.array([[0.0, 3.0]]), np.zeros((1, 2)), M) == 3.0


def test_rmse_hand_value():
    # errors (3, 4) on the two masked entries: sqrt((9 + 16) / 2)
    M = np.array([[0, 0, 1]])
    Xhat = np.array([[3.0, 4.0, 99.0]])
    assert_allclose(rmse_missing(Xhat, np.zeros((1, 3)), M), np.sqrt(12.5))


def test_rmse_ignores_observed_positions():
    rng = np.random.default_rng(1)
    M = (rng.random((4, 5)) < 0.5).astype(int)
    M[0, 0] = 0  # ensure nonempty
    Xtrue = rng.standard_normal((4, 5))
    Xhat = Xtrue + np.where(M == 0, 0.3, 0.0)
    base = rmse_missing(Xhat, Xtrue, M)
    Xhat2 = Xhat + np.where(M == 1, rng.standard_normal((4, 5)), 0.0)
    assert rmse_missing(Xhat2, Xtrue, M) == base


def test_rmse_empty_evaluation_set():
    with pytest.raises(ValueError, match="empty evaluation set"):
        rmse_missing(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))


def test_sep_identical():
    U = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 2)))[0]
    assert sep(U, U) < 1e-12


def test_sep_orthogonal_complement():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert_allclose(sep(e1, e2), 1.0)


def test_sep_half_angle():
    e1 = np.array([[1.0], [0.0]])
    mid = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert_allclose(sep(mid, e1), 0.5)


def test_sep_basis_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        U = rng.standard_normal((7, 3))
        V = rng.standard_normal((7, 3))
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert_allclose(sep(U @ Q, V), sep(U, V), atol=1e-12)
        assert_allclose(sep(U, V @ Q), sep(U, V), atol=1e-12)
        assert 0.0 <= sep(U, V) <= 1.0


def test_sep_rank_deficient():
    U = np.zeros((4, 2))
    U[:, 0] = 1.0
    U[:, 1] = 1.0
    with pytest.raises(ValueError, match="rank"):
        sep(U, np.eye(4)[:, :2])
    with pytest.raises(ValueError, match="rank"):
        sep(np.zeros((4, 2)), np.eye(4)[:, :2])


@settings(max_examples=100, deadline=None)
@given(p=st.integers(2, 50), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), e=st.integers(-900, 900))
def test_sep_does_not_depend_on_the_units(p, r, seed, e):
    # the rank floor is relative to max|R|, so a basis in small units is no
    # rank-deficient one; a power-of-two scale leaves the QR factor unchanged
    U = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, min(r, p))))[0]
    assert sep(U, 2.0**e * U) == sep(U, U) < 1e-12


def test_seedspec_reproducible():
    a = SeedSpec(42, 7).rng().standard_normal(5)
    b = SeedSpec(42, 7).rng().standard_normal(5)
    c = SeedSpec(42, 8).rng().standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert SeedSpec(42, 7).substream(1) == SeedSpec(42, 8)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((3, 5))
    mask = (rng.random((3, 5)) < 0.7).astype(int)
    X = IncompleteMatrix(vals, mask)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, X.values, X.mask)
    back = read_matrix_csv(path)
    assert np.array_equal(back.mask, mask)
    assert_allclose(back.values[mask == 1], vals[mask == 1], rtol=0, atol=0)


def test_csv_sidecar_mask(tmp_path):
    vals = np.arange(6.0).reshape(2, 3)
    mask = np.array([[1, 0, 1], [1, 1, 0]])
    write_matrix_csv(tmp_path / "v.csv", vals)
    write_mask_csv(tmp_path / "m.csv", mask)
    X = read_matrix_csv(tmp_path / "v.csv", tmp_path / "m.csv")
    assert np.array_equal(X.mask, mask)
    assert np.isnan(X.values[0, 1])


def test_csv_sidecar_mask_rejects_observed_empty_field(tmp_path):
    vals = np.arange(6.0).reshape(2, 3)
    vals[1, 2] = np.nan  # written as an empty field
    write_matrix_csv(tmp_path / "v.csv", vals)
    write_mask_csv(tmp_path / "m.csv", np.ones((2, 3), dtype=int))
    with pytest.raises(ValueError, match="row 1, column 2"):
        read_matrix_csv(tmp_path / "v.csv", tmp_path / "m.csv")
    write_mask_csv(tmp_path / "short.csv", np.ones((2, 2), dtype=int))
    with pytest.raises(ValueError, match="shape mismatch"):
        read_matrix_csv(tmp_path / "v.csv", tmp_path / "short.csv")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda p: st.lists(st.lists(st.integers(0, 1), min_size=p, max_size=p), min_size=1, max_size=12)
    )
)
def test_pattern_groups_partition_columns(mask_cols):
    mask = np.array(mask_cols, dtype=np.int8).T
    X = IncompleteMatrix(np.ones(mask.shape), mask)
    groups = X.pattern_groups
    cols = np.concatenate([g[2] for g in groups])
    assert sorted(cols.tolist()) == list(range(X.n))
    for obs, mis, members in groups:
        assert (mask[:, members] == mask[:, members[:1]]).all()
        assert np.array_equal(np.flatnonzero(mask[:, members[0]]), obs)
        assert np.array_equal(np.sort(np.concatenate([obs, mis])), np.arange(X.p))
        assert len(np.intersect1d(obs, mis)) == 0
        assert np.array_equal(members, np.sort(members))
    firsts = [g[2][0] for g in groups]
    assert firsts == sorted(firsts)  # first-appearance order
    assert X.pattern_groups is groups


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda p: st.lists(st.lists(st.integers(0, 1), min_size=p, max_size=p), min_size=1, max_size=12)
    )
)
def test_pattern_batches_stack_the_groups(mask_cols):
    mask = np.array(mask_cols, dtype=np.int8).T
    X = IncompleteMatrix(np.ones(mask.shape), mask)
    # the hole order of a per-group loop: group, then missing row, then column
    loop_order = [(i, j) for _, mis, cols in X.pattern_groups for i in mis for j in cols]
    holes = {}
    ks = []
    for obs, mis, cols, group, draw in X.pattern_batches:
        ks.append(obs.shape[1])
        assert obs.shape[1] + mis.shape[1] == X.p
        assert np.array_equal(np.unique(group), np.arange(len(obs)))
        for c, (j, g) in enumerate(zip(cols, group)):
            assert np.array_equal(np.flatnonzero(mask[:, j]), obs[g])
            assert np.array_equal(np.flatnonzero(mask[:, j] == 0), mis[g])
            holes.update({int(r): (i, j) for r, i in zip(draw[c], mis[g])})
    assert ks == sorted(set(ks))
    assert sorted(np.concatenate([b[2] for b in X.pattern_batches]).tolist()) == list(range(X.n))
    assert [holes[r] for r in range(len(holes))] == loop_order
    assert X.pattern_batches is X.pattern_batches


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda p: st.lists(
            st.lists(
                st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 1)),
                min_size=p,
                max_size=p,
            ),
            min_size=1,
            max_size=6,
        )
    )
)
def test_csv_and_mask_round_trip_bit_for_bit(cols):
    values = np.array([[v for v, _ in col] for col in cols]).T
    mask = np.array([[m for _, m in col] for col in cols], dtype=np.int8).T
    with tempfile.TemporaryDirectory() as tmp:
        vpath, mpath = Path(tmp) / "x.csv", Path(tmp) / "m.csv"
        write_matrix_csv(vpath, values, mask)
        write_mask_csv(mpath, mask)
        with_mask, without_mask = read_matrix_csv(vpath, mpath), read_matrix_csv(vpath)
    obs = mask == 1
    for Y in (with_mask, without_mask):
        assert np.array_equal(Y.mask, mask)
        assert Y.values[obs].tobytes() == values[obs].tobytes()
        assert np.isnan(Y.values[~obs]).all()


@pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
def test_read_matrix_csv_rejects_infinite_value(tmp_path, token):
    path = tmp_path / "x.csv"
    path.write_text(f"1.0,{token}\n2.0,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="finite value at row 0, column 1"):
        read_matrix_csv(path)
    # a mask that drops the field does not excuse it
    (tmp_path / "m.csv").write_text("1,0\n1,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="finite value at row 0, column 1"):
        read_matrix_csv(path, tmp_path / "m.csv")


def test_read_matrix_csv_names_an_unparsable_field(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0, ,2.0\n3.0,4.0,abc\n", encoding="utf-8")  # a blank field is a hole, not an error
    with pytest.raises(ValueError, match=r"x.csv: 'abc' at row 1, column 2 \(0-based\) is not a number$"):
        read_matrix_csv(path)


_Y = IncompleteMatrix([[1.0, 2.0, 3.0], [4.0, 0.0, 6.0], [7.0, 8.0, 0.0]], [[1, 1, 1], [1, 0, 1], [1, 1, 0]])
_PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_AR1 = Ar1StudentParams(0.0, 0.5, 1.0, 5.0)
# every parameter check of the library: (site, parameter, kind, call with the value);
# a count is an integer, not a bool, and a real parameter is finite
_SITES = [
    ("RecoveryConfig", "alpha", "real", lambda v: RecoveryConfig(alpha=v)),
    ("RecoveryConfig", "beta", "real", lambda v: RecoveryConfig(beta=v)),
    ("RecoveryConfig", "delta", "real", lambda v: RecoveryConfig(delta=v)),
    ("RecoveryConfig", "max_iter", "count", lambda v: RecoveryConfig(max_iter=v)),
    ("RecoveryConfig", "tol", "real", lambda v: RecoveryConfig(tol=v)),
    *[("stsrgl_fit", name, kind, lambda v, name=name: stsrgl_fit(_Y, **{name: v}))
      for name, kind in (("iters", "count"), ("sigma_n2", "real"), ("alpha_a", "real"), ("alpha_l", "real"),
                         ("x_sweeps", "count"), ("a_steps", "count"), ("gmrf_iters", "count"))],
    ("gmrf_learn", "alpha", "real", lambda v: gmrf_learn(np.eye(3), v)),
    ("gmrf_learn", "max_iter", "count", lambda v: gmrf_learn(np.eye(3), 0.1, max_iter=v)),
    ("gmrf_learn", "tol", "real", lambda v: gmrf_learn(np.eye(3), 0.1, tol=v)),
    ("var_learn", "alpha", "real", lambda v: var_learn(np.ones((3, 4)), v)),
    ("recover_tv", "max_iter", "count", lambda v: recover_tv(_Y, _PATH3, max_iter=v)),
    ("RobustConfig", "rho", "real", lambda v: RobustConfig(rho=v)),
    ("RobustConfig", "alpha_reg", "real", lambda v: RobustConfig(alpha_reg=v)),
    ("RobustConfig", "admm_iters", "count", lambda v: RobustConfig(admm_iters=v)),
    ("RobustConfig", "admm_tol", "real", lambda v: RobustConfig(admm_tol=v)),
    ("petrels_init", "r", "count", lambda v: petrels_init(4, v)),
    ("petrels_init", "p", "count", lambda v: petrels_init(v, 1)),
    ("gen_mask", "p", "count", lambda v: gen_mask((v, 3), MechanismSpec(MechanismKind.MCAR))),
    ("gen_mask", "n", "count", lambda v: gen_mask((3, v), MechanismSpec(MechanismKind.MCAR))),
    ("ImputerSpec", "k", "count", lambda v: ImputerSpec(ImputerKind.KNN, k=v)),
    ("ImputerSpec", "ridge_penalty", "real", lambda v: ImputerSpec(ImputerKind.ITERATIVE, ridge_penalty=v)),
    ("ImputerSpec", "max_sweeps", "count", lambda v: ImputerSpec(ImputerKind.ITERATIVE, max_sweeps=v)),
    ("ImputerSpec", "tol", "real", lambda v: ImputerSpec(ImputerKind.ITERATIVE, tol=v)),
    ("impute_knn", "k", "count", lambda v: impute_knn(_Y, v)),
    ("multiple_impute", "K", "count",
     lambda v: multiple_impute(_Y, ImputerSpec(ImputerKind.CONDITIONAL_GAUSSIAN, add_noise=True), v)),
    ("hard_impute", "r", "count", lambda v: hard_impute(_Y, v)),
    ("hard_impute", "tol", "real", lambda v: hard_impute(_Y, 1, tol=v)),
    ("hard_impute", "max_iter", "count", lambda v: hard_impute(_Y, 1, max_iter=v)),
    ("soft_impute", "lam", "real", lambda v: soft_impute(_Y, v)),
    ("soft_impute", "tol", "real", lambda v: soft_impute(_Y, 1.0, tol=v)),
    ("soft_impute", "max_iter", "count", lambda v: soft_impute(_Y, 1.0, max_iter=v)),
    ("EmConfig", "tol", "real", lambda v: EmConfig(tol=v)),
    ("EmConfig", "max_iter", "count", lambda v: EmConfig(max_iter=v)),
    ("EmConfig", "mcem_draws", "count", lambda v: EmConfig(mcem_draws=v)),
    ("EmConfig", "saem_burn_in", "count", lambda v: EmConfig(saem_burn_in=v)),
    ("StudentTParams", "nu", "real", lambda v: StudentTParams(np.zeros(2), np.eye(2), v)),
    ("sem_selection_fit", "iters", "count", lambda v: sem_selection_fit(_Y, iters=v, burn_in=0)),
    ("sem_selection_fit", "burn_in", "count", lambda v: sem_selection_fit(_Y, burn_in=v)),
    ("ar1t_multiple_impute", "K", "count", lambda v: ar1t_multiple_impute(np.array([0.1, np.nan, 0.3]), _AR1, v)),
    ("ar1t_multiple_impute", "sweeps", "count",
     lambda v: ar1t_multiple_impute(np.array([0.1, np.nan, 0.3]), _AR1, 2, sweeps=v)),
    ("Ar1StudentParams", "sigma", "real", lambda v: Ar1StudentParams(0.0, 0.5, v, 5.0)),
    ("Ar1StudentParams", "nu", "real", lambda v: Ar1StudentParams(0.0, 0.5, 1.0, v)),
    ("CovStructure", "r", "count", lambda v: CovStructure(StructureKind.FACTOR_MODEL, r=v)),
    ("CovStructure", "sigma_known", "real", lambda v: CovStructure(StructureKind.NOISE_FLOOR, sigma_known=v)),
    ("ExperimentConfig", "replicates", "count",
     lambda v: ExperimentConfig({"kind": "gaussian"}, {"kind": "none"}, {}, replicates=v)),
]
_BAD = {"count": [2.5, True, np.nan, np.inf, -1], "real": [np.nan, np.inf, -1.0]}


@pytest.mark.parametrize(
    "name, call, value",
    [pytest.param(name, call, value, id=f"{site}.{name}={value!r}")
     for site, name, kind, call in _SITES for value in _BAD[kind]],
)
def test_parameter_checks_reject_bad_values(name, call, value):
    with pytest.raises(ValueError) as err:
        call(value)
    message = str(err.value)
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {value!r}")
