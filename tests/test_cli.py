import itertools
import json
import os
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapkit.cli import main
from gapkit.core import IncompleteMatrix, read_matrix_csv, rmse_missing, write_matrix_csv


@pytest.fixture()
def runner():
    return CliRunner()


def _write_gappy_matrix(path, seed=0, p=3, n=40, rate=0.25):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(0.6 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p))))
    vals = L @ rng.standard_normal((p, n))
    mask = (rng.random((p, n)) > rate).astype(int)
    write_matrix_csv(path, vals, mask)
    return vals, mask


def test_mask_mcar_and_classify(runner, tmp_path):
    out = tmp_path / "mask.csv"
    res = runner.invoke(
        main,
        ["mask", "--mechanism", "mcar", "--shape", "4", "6", "--rate", "0.3", "--seed", "1", "--out", str(out), "--classify"],
    )
    assert res.exit_code == 0, res.output
    mask = np.loadtxt(out, delimiter=",")
    assert mask.shape == (4, 6)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert res.output.strip() in {"univariate", "multivariate", "monotone", "file_matching", "general"}


def test_mask_requires_shape_or_data(runner, tmp_path):
    res = runner.invoke(main, ["mask", "--mechanism", "mcar", "--out", str(tmp_path / "m.csv")])
    assert res.exit_code == 2


def test_mask_mnar_needs_data(runner, tmp_path):
    res = runner.invoke(
        main,
        ["mask", "--mechanism", "mnar", "--shape", "3", "3", "--out", str(tmp_path / "m.csv")],
    )
    assert res.exit_code == 2
    assert "config error" in res.output


def test_impute_mean_round_trip(runner, tmp_path):
    data = tmp_path / "x.csv"
    _write_gappy_matrix(data, seed=2)
    out = tmp_path / "filled.csv"
    res = runner.invoke(main, ["impute", "--in", str(data), "--method", "mean", "--out", str(out)])
    assert res.exit_code == 0, res.output
    filled = read_matrix_csv(out)
    assert filled.n_missing() == 0


def test_impute_multiple_draws(runner, tmp_path):
    data = tmp_path / "x.csv"
    _write_gappy_matrix(data, seed=3)
    out = tmp_path / "mi.csv"
    res = runner.invoke(
        main,
        ["impute", "--in", str(data), "--method", "condgauss", "--add-noise", "--draws", "2", "--seed", "4", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    d1 = read_matrix_csv(tmp_path / "mi.1.csv").values
    d2 = read_matrix_csv(tmp_path / "mi.2.csv").values
    assert d1.shape == d2.shape
    assert not np.array_equal(d1, d2)


def test_estimate_gaussian_json(runner, tmp_path):
    data = tmp_path / "x.csv"
    _write_gappy_matrix(data, seed=5)
    res = runner.invoke(main, ["estimate", "--in", str(data), "--model", "gaussian"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert len(payload["mu"]) == 3
    assert payload["converged"] is True
    trace = payload["loglik_trace"]
    assert all(b - a >= -1e-9 for a, b in zip(trace, trace[1:]))


def test_estimate_structure_parses(runner, tmp_path):
    data = tmp_path / "x.csv"
    _write_gappy_matrix(data, seed=6)
    res = runner.invoke(main, ["estimate", "--in", str(data), "--structure", "factor:1"])
    assert res.exit_code == 0, res.output
    res_bad = runner.invoke(main, ["estimate", "--in", str(data), "--structure", "nope"])
    assert res_bad.exit_code == 2


def test_complete_hard(runner, tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10))
    mask = (rng.random((10, 10)) > 0.1).astype(int)
    data = tmp_path / "y.csv"
    write_matrix_csv(data, vals, mask)
    out = tmp_path / "xhat.csv"
    res = runner.invoke(main, ["complete", "--in", str(data), "--mode", "hard", "--rank", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    xhat = read_matrix_csv(out).values
    assert rmse_missing(xhat, vals, mask) < 1e-3


def test_track_emits_per_step_csv(runner, tmp_path):
    rng = np.random.default_rng(8)
    p, r, T = 12, 2, 60
    U = np.linalg.qr(rng.standard_normal((p, r)))[0]
    Y = U @ rng.standard_normal((r, T))
    mask = (rng.random((p, T)) > 0.1).astype(int)
    stream = tmp_path / "stream.csv"
    write_matrix_csv(stream, Y, mask)
    truth = tmp_path / "truth.csv"
    write_matrix_csv(truth, U)
    out = tmp_path / "track.csv"
    res = runner.invoke(
        main,
        ["track", "--stream", str(stream), "--rank", "2", "--truth", str(truth), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,residual,sep"
    assert len(lines) == T + 1
    last_sep = float(lines[-1].split(",")[2])
    assert last_sep < 0.5  # tracker made progress on 60 clean steps


def test_graph_recover_and_learn(runner, tmp_path):
    edges = tmp_path / "g.csv"
    edges.write_text("0,1,1.0\n1,2,1.0\n", encoding="utf-8")
    data = tmp_path / "sig.csv"
    write_matrix_csv(data, np.array([[0.0, 0.0], [np.nan, np.nan], [2.0, 4.0]]))
    out = tmp_path / "rec.csv"
    res = runner.invoke(
        main,
        ["graph", "recover", "--in", str(data), "--graph", str(edges), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    rec = read_matrix_csv(out).values
    assert abs(rec[1, 0] - 1.0) < 1e-9 and abs(rec[1, 1] - 2.0) < 1e-9

    rng = np.random.default_rng(9)
    learn_in = tmp_path / "complete.csv"
    write_matrix_csv(learn_in, rng.standard_normal((4, 300)))
    learn_out = tmp_path / "edges_out.csv"
    res2 = runner.invoke(
        main, ["graph", "learn", "--in", str(learn_in), "--model", "gmrf", "--alpha", "0.3", "--out", str(learn_out)]
    )
    assert res2.exit_code == 0, res2.output


def test_impute_sidecar_mask_marking_empty_field_observed(runner, tmp_path):
    data = tmp_path / "x.csv"
    write_matrix_csv(data, np.array([[1.0, np.nan], [2.0, 3.0]]))
    mask = tmp_path / "m.csv"
    mask.write_text("1,1\n1,1\n", encoding="utf-8")
    res = runner.invoke(
        main, ["impute", "--in", str(data), "--mask", str(mask), "--out", str(tmp_path / "o.csv")]
    )
    assert res.exit_code == 2
    assert "row 0, column 1" in res.output


def test_graph_recover_rejects_spatiotemporal(runner, tmp_path):
    edges = tmp_path / "g.csv"
    edges.write_text("0,1,1.0\n", encoding="utf-8")
    data = tmp_path / "sig.csv"
    write_matrix_csv(data, np.array([[0.0], [np.nan]]))
    res = runner.invoke(
        main,
        ["graph", "recover", "--in", str(data), "--graph", str(edges),
         "--smoothness", "spatiotemporal", "--out", str(tmp_path / "rec.csv")],
    )
    assert res.exit_code == 2
    assert "--smoothness" in res.output


def test_graph_joint_numerical_failure_exit_code(runner, tmp_path, monkeypatch):
    import gapkit.cli as cli

    def diverge(*args, **kwargs):
        raise RuntimeError("joint objective increased (1 -> 2); solver bug")

    monkeypatch.setattr(cli, "stsrgl_fit", diverge)
    data = tmp_path / "sig.csv"
    _write_gappy_matrix(data, seed=4)
    res = runner.invoke(
        main, ["graph", "joint", "--in", str(data), "--out-prefix", str(tmp_path / "fit")]
    )
    assert res.exit_code == 4
    assert "numerical failure: joint objective increased" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("model", ["var", "gmrf"])
def test_graph_learn_overflow_exit_4(runner, tmp_path, model):
    data = tmp_path / "big.csv"
    write_matrix_csv(data, np.random.default_rng(0).standard_normal((3, 20)) * 1e200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(
            main, ["graph", "learn", "--in", str(data), "--model", model, "--alpha", "1", "--out", str(tmp_path / "e.csv")]
        )
    assert res.exit_code == 4, res.output
    assert res.output.startswith(f"numerical failure: {model}_learn at alpha=1.0: ")
    assert len(res.output.strip().splitlines()) == 1
    assert not caught


def test_ts_fit_and_impute(runner, tmp_path):
    rng = np.random.default_rng(10)
    n = 400
    x = np.zeros(n)
    cur = 0.0
    for t in range(n):
        cur = 0.02 + 0.8 * cur + 0.1 * rng.standard_t(5.0)
        x[t] = cur
    x[100:110] = np.nan
    series = tmp_path / "ts.csv"
    series.write_text("\n".join("" if np.isnan(v) else repr(float(v)) for v in x) + "\n", encoding="utf-8")
    res = runner.invoke(main, ["ts-fit", "--in", str(series), "--iters", "80", "--seed", "3"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert 0.5 < payload["a"] < 0.95

    out = tmp_path / "paths.csv"
    res2 = runner.invoke(
        main,
        [
            "ts-impute", "--in", str(series), "--draws", "3",
            "--mu", "0.02", "--a", "0.8", "--sigma", "0.1", "--nu", "5.0",
            "--out", str(out),
        ],
    )
    assert res2.exit_code == 0, res2.output
    paths = read_matrix_csv(out).values
    assert paths.shape == (n, 3)


@pytest.mark.parametrize("params", [["--mu", "1e308", "--a", "1", "--sigma", "1"],
                                    ["--mu", "0", "--a", "1e150", "--sigma", "1e-300"]])
def test_ts_impute_non_finite_draws_exit_4(runner, tmp_path, params):
    series = tmp_path / "ts.csv"
    series.write_text("1.0\n\n2.0\n\n\n3.0\n1.5\n", encoding="utf-8")
    out = tmp_path / "paths.csv"
    res = runner.invoke(main, ["ts-impute", "--in", str(series), *params, "--nu", "5", "--out", str(out)])
    assert res.exit_code == 4, res.output
    assert res.output.startswith("numerical failure: AR(1)-t draw 0 is not finite at mu=")
    assert len(res.output.strip().splitlines()) == 1
    assert not out.exists()


def test_bench_and_exit_codes(runner, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        """
[dataset]
kind = gaussian
p = 3
n = 60

[mechanism]
kind = mcar
rate = 0.3

[method]
module = impute
method = mean

[run]
replicates = 2
seed = 1
""",
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    res = runner.invoke(main, ["bench", "--config", str(cfg), "--out-dir", str(outdir)])
    assert res.exit_code == 0, res.output
    results = (outdir / "results.csv").read_text()
    assert results.startswith("replicate,metric,value\n")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["replicates"] == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("[dataset]\nkind = nosuch\n\n[method]\nmodule = impute\n", encoding="utf-8")
    res_bad = runner.invoke(main, ["bench", "--config", str(bad), "--out-dir", str(outdir)])
    assert res_bad.exit_code == 2


def test_bench_all_failed_exit_code(runner, tmp_path):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(
        """
[dataset]
kind = gaussian
p = 3
n = 4

[mechanism]
kind = mcar
rate = 0.97

[method]
module = impute
method = mean

[run]
replicates = 3
seed = 12
""",
        encoding="utf-8",
    )
    res = runner.invoke(main, ["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert res.exit_code == 3
    assert "all replicates failed" in res.output


def test_compare_cli(runner, tmp_path):
    base = """
[dataset]
kind = gaussian
p = 3
n = 80
rho = 0.8

[mechanism]
kind = mcar
rate = 0.3

[method]
module = impute
method = {m}

[run]
replicates = 8
seed = 4
"""
    c1 = tmp_path / "a.cfg"
    c1.write_text(base.format(m="mean"), encoding="utf-8")
    c2 = tmp_path / "b.cfg"
    c2.write_text(base.format(m="condgauss"), encoding="utf-8")
    out = tmp_path / "cmp.csv"
    res = runner.invoke(main, ["compare", "--config", str(c1), "--config", str(c2), "--out", str(out)])
    assert res.exit_code == 0, res.output
    text = out.read_text()
    assert text.startswith("label,metric,median,p_value,wins,n_pairs\n")
    assert "condgauss" in text


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--model", "student", "--structure", "factor:1"], "--structure"),
        (["--estimate-nu"], "--estimate-nu"),
        (["--seed", "7"], "--seed applies to --evariant sem, mcem or saem only"),
    ],
)
def test_estimate_rejects_ignored_combinations(runner, tmp_path, extra, message):
    data = tmp_path / "x.csv"
    _write_gappy_matrix(data, seed=6)
    res = runner.invoke(main, ["estimate", "--in", str(data), *extra])
    assert res.exit_code == 2
    assert message in res.output


def test_estimate_seed_acts_under_stochastic_evariants(runner, tmp_path):
    data = tmp_path / "x.csv"
    _write_gappy_matrix(data, seed=6)
    for evariant in ("sem", "mcem", "saem"):
        outs = []
        for seed in ("0", "7"):
            res = runner.invoke(main, ["estimate", "--in", str(data), "--evariant", evariant, "--maxiter", "5",
                                       "--seed", seed])
            assert res.exit_code == 0, res.output
            outs.append(res.output)
        assert outs[0] != outs[1]


def test_graph_recover_alpha_acts_under_squared_and_huber_fidelity(runner, tmp_path):
    edges = tmp_path / "g.csv"
    edges.write_text("0,1,1.0\n1,2,1.0\n", encoding="utf-8")
    data = tmp_path / "sig.csv"
    write_matrix_csv(data, np.array([[1.0, 3.0], [np.nan, 2.0], [2.0, np.nan]]))
    base = ["graph", "recover", "--in", str(data), "--graph", str(edges)]
    for fidelity in ("squared", "huber"):
        outs = []
        for alpha in ("1", "5"):
            out = tmp_path / f"rec{fidelity}{alpha}.csv"
            res = runner.invoke(main, [*base, "--fidelity", fidelity, "--alpha", alpha, "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]


def test_graph_recover_beta_acts_under_squared_fidelity(runner, tmp_path):
    edges = tmp_path / "g.csv"
    edges.write_text("0,1,1.0\n1,2,1.0\n", encoding="utf-8")
    data = tmp_path / "sig.csv"
    write_matrix_csv(data, np.array([[1.0, 3.0], [np.nan, np.nan], [2.0, 4.0]]))
    base = ["graph", "recover", "--in", str(data), "--graph", str(edges)]
    outs = []
    for beta in ("0", "5"):
        out = tmp_path / f"rec{beta}.csv"
        res = runner.invoke(main, [*base, "--fidelity", "squared", "--beta", beta, "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]
    for flags in (["--fidelity", "exact"], ["--smoothness", "tv"]):
        res = runner.invoke(main, [*base, *flags, "--beta", "5", "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert "--beta" in res.output


def _write_stream(tmp_path, n, seed=8, p=12, r=2):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((p, r)))[0]
    Y = U @ rng.standard_normal((r, n)) + (rng.random((p, n)) < 0.1) * 5.0
    mask = (rng.random((p, n)) > 0.1).astype(int)
    stream = tmp_path / f"stream{n}.csv"
    write_matrix_csv(stream, Y, mask)
    return stream, U


@pytest.mark.parametrize("alpha", ["1e200", "1e300"])
def test_track_overflow_exit_4(runner, tmp_path, alpha):
    # a huge row-norm penalty clips the basis to subnormal rows; the next
    # step's least-squares weights then overflow the precision update
    stream, _ = _write_stream(tmp_path, 8)
    out = tmp_path / "track.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["track", "--stream", str(stream), "--mode", "robust", "--alpha", alpha,
                                   "--out", str(out)])
    assert res.exit_code == 4, res.output
    assert res.output == "numerical failure: overflow encountered in matmul\n"
    assert not caught
    assert not out.exists()


def test_track_rank_deficient_tracked_basis_exit_4(runner, tmp_path):
    # the row-norm penalty shrinks the tracked basis to rank deficiency;
    # the truth basis is fine, so this is no config error
    stream, U = _write_stream(tmp_path, 8)
    truth = tmp_path / "truth.csv"
    write_matrix_csv(truth, U)
    out = tmp_path / "track.csv"
    res = runner.invoke(main, ["track", "--stream", str(stream), "--mode", "robust", "--alpha", "1e10",
                               "--truth", str(truth), "--out", str(out)])
    assert res.exit_code == 4, res.output
    assert res.output == "numerical failure: tracked basis at step 1: rank-deficient basis\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["petrels", "robust"])
def test_track_fills_once_per_call(runner, tmp_path, monkeypatch, mode):
    calls = []
    original = IncompleteMatrix.filled

    def counting(self, fill_value=0.0):
        calls.append(1)
        return original(self, fill_value)

    monkeypatch.setattr(IncompleteMatrix, "filled", counting)
    counts = []
    for n in (40, 80):
        stream, _ = _write_stream(tmp_path, n)
        calls.clear()
        out = tmp_path / "track.csv"
        res = runner.invoke(main, ["track", "--stream", str(stream), "--mode", mode, "--out", str(out)])
        assert res.exit_code == 0, res.output
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1


def test_track_petrels_matches_library_loop(runner, tmp_path):
    from gapkit.core import SeedSpec, format_float
    from gapkit.subspace import petrels_init, petrels_update, petrels_weights

    stream, _ = _write_stream(tmp_path, 50)
    out = tmp_path / "track.csv"
    res = runner.invoke(main, ["track", "--stream", str(stream), "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    Y = read_matrix_csv(stream)
    state = petrels_init(Y.p, 2, SeedSpec(3), lambda_forget=0.98)
    lines = ["t,residual"]
    for t in range(Y.n):
        y_t, m_t = Y.filled(0.0)[:, t], Y.mask[:, t]
        petrels_update(state, y_t, m_t)
        w, _ = petrels_weights(state.U, y_t, m_t)
        lines.append(f"{t},{format_float(np.linalg.norm(m_t * (y_t - state.U @ w)))}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_track_robust_matches_library_loop(runner, tmp_path):
    from gapkit.core import SeedSpec, format_float
    from gapkit.subspace import RobustConfig, petrels_init, petrels_weights, robust_update

    stream, _ = _write_stream(tmp_path, 50)
    out = tmp_path / "track.csv"
    res = runner.invoke(main, ["track", "--stream", str(stream), "--mode", "robust", "--seed", "3",
                               "--rho", "0.8", "--alpha", "0.5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    Y = read_matrix_csv(stream)
    state = petrels_init(Y.p, 2, SeedSpec(3), lambda_forget=0.98)
    cfg = RobustConfig(rho=0.8, alpha_reg=0.5)
    lines = ["t,residual"]
    for t in range(Y.n):
        y_t, m_t = Y.filled(0.0)[:, t], Y.mask[:, t]
        robust_update(state, y_t, m_t, cfg)
        w, _ = petrels_weights(state.U, y_t, m_t)
        lines.append(f"{t},{format_float(np.linalg.norm(m_t * (y_t - state.U @ w)))}")
    assert state.stage1_iters > 0  # the diagnostics stay off the CSV
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "extra, truth, message",
    [
        (["--rank", "0"], None, "r must be an integer >= 1, got 0"),
        (["--rank", "13"], None, "r <= p"),
        (["--forget", "0"], None, "lambda_forget"),
        (["--forget", "1.5"], None, "lambda_forget"),
        (["--mode", "robust", "--rho", "0"], None, "rho"),
        ([], "gappy", "missing entries"),
        ([], "wide", "p x rank"),
        ([], "flat", "rank-deficient"),
    ],
    ids=["rank0", "rank_over_p", "forget0", "forget_over_1", "rho0_robust",
         "truth_gappy", "truth_wide", "truth_rank_deficient"],
)
def test_track_rejects_bad_input(runner, tmp_path, extra, truth, message):
    stream, U = _write_stream(tmp_path, 20)
    if truth is not None:
        path = tmp_path / "truth.csv"
        if truth == "gappy":
            write_matrix_csv(path, U, np.array([[0, 1]] + [[1, 1]] * (U.shape[0] - 1)))
        elif truth == "wide":
            write_matrix_csv(path, np.hstack([U, U[:, :1]]))
        else:
            write_matrix_csv(path, np.column_stack([U[:, 0], 2.0 * U[:, 0]]))
        extra = [*extra, "--truth", str(path)]
    out = tmp_path / "track.csv"
    res = runner.invoke(main, ["track", "--stream", str(stream), *extra, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_mask_rejects_bad_data_file(runner, tmp_path):
    data = tmp_path / "x.csv"
    data.write_text("1.0,2.0\n3.0,abc\n", encoding="utf-8")
    res = runner.invoke(
        main, ["mask", "--mechanism", "mcar", "--data", str(data), "--out", str(tmp_path / "m.csv")]
    )
    assert res.exit_code == 2
    assert "config error" in res.output


@pytest.mark.parametrize(
    "extra, message", [(["--iters", "0"], "max_iter"), (["--nu", "0"], "nu must be positive")]
)
def test_ts_fit_rejects_bad_options(runner, tmp_path, extra, message):
    series = tmp_path / "ts.csv"
    series.write_text("".join(f"{v}\n" for v in np.sin(np.arange(30.0))), encoding="utf-8")
    res = runner.invoke(main, ["ts-fit", "--in", str(series), *extra])
    assert res.exit_code == 2
    assert message in res.output


def test_ts_fit_fixed_nu_on_blank_series_exit_2(runner, tmp_path):
    series = tmp_path / "ts.csv"
    series.write_text("\n\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner.invoke(main, ["ts-fit", "--in", str(series), "--nu", "5"])
    assert res.exit_code == 2, res.output
    assert res.output.strip() == "config error: need at least two observed points"


def test_import_and_version_load_no_scipy():
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, gapkit, gapkit.cli\n"
        "try:\n"
        "    gapkit.cli.main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["ts-fit", "ts-impute"])
@pytest.mark.parametrize("bad", ["abc", "inf"])
def test_ts_commands_reject_malformed_series(runner, tmp_path, command, bad):
    series = tmp_path / "ts.csv"
    series.write_text(f"0.1\n\n{bad}\n0.3\n", encoding="utf-8")
    extra = []
    if command == "ts-impute":
        extra = ["--mu", "0", "--a", "0.5", "--sigma", "1", "--nu", "5", "--out", str(tmp_path / "p.csv")]
    res = runner.invoke(main, [command, "--in", str(series), *extra])
    assert res.exit_code == 2
    assert f"config error: {series}:3:" in res.output


@pytest.mark.parametrize(
    "line, message",
    [("0,1", "expected i,j,weight"), ("0,x,1.0", "invalid literal"), ("0,3,1.0", "outside [0, 3)"),
     ("-1,2,1.0", "outside [0, 3)"), ("0,2,nan", "not a finite number")],
    ids=["two_fields", "bad_node", "node_over_p", "negative_node", "nan_weight"],
)
def test_graph_recover_rejects_malformed_edge_list(runner, tmp_path, line, message):
    edges = tmp_path / "g.csv"
    edges.write_text(f"# i,j,w\n0,1,1.0\n{line}\n", encoding="utf-8")
    data = tmp_path / "sig.csv"
    write_matrix_csv(data, np.array([[0.0, 0.0], [np.nan, np.nan], [2.0, 4.0]]))
    res = runner.invoke(
        main, ["graph", "recover", "--in", str(data), "--graph", str(edges), "--out", str(tmp_path / "r.csv")]
    )
    assert res.exit_code == 2
    assert f"config error: {edges}:3:" in res.output
    assert message in res.output


def test_graph_recover_rejects_invalid_graph(runner, tmp_path):
    edges = tmp_path / "g.csv"
    edges.write_text("0,1,1.0\n1,2,-1.0\n", encoding="utf-8")
    data = tmp_path / "sig.csv"
    write_matrix_csv(data, np.array([[0.0], [np.nan], [2.0]]))
    res = runner.invoke(
        main, ["graph", "recover", "--in", str(data), "--graph", str(edges), "--out", str(tmp_path / "r.csv")]
    )
    assert res.exit_code == 2
    assert "nonnegative" in res.output


@pytest.mark.parametrize("extra", [["--rho", "1.0"], ["--alpha", "0.5"], ["--rho", "2", "--alpha", "1"]])
def test_track_petrels_rejects_robust_options(runner, tmp_path, extra):
    stream, _ = _write_stream(tmp_path, 20)
    out = tmp_path / "track.csv"
    res = runner.invoke(main, ["track", "--stream", str(stream), *extra, "--out", str(out)])
    assert res.exit_code == 2
    assert "--mode robust" in res.output
    assert not out.exists()
    res = runner.invoke(main, ["track", "--stream", str(stream), "--mode", "robust", *extra, "--out", str(out)])
    assert res.exit_code == 0, res.output


# -- one error boundary: every bad option, value or file exits 2 (4 numerical) --


def _probe_files(tmp_path):
    rng = np.random.default_rng(21)
    gappy = tmp_path / "gappy.csv"
    write_matrix_csv(gappy, rng.standard_normal((3, 12)), (rng.random((3, 12)) > 0.25).astype(int))
    full = tmp_path / "full.csv"
    write_matrix_csv(full, rng.standard_normal((3, 12)))
    zero = tmp_path / "zero.csv"
    write_matrix_csv(zero, np.zeros((3, 6)))
    tiny = tmp_path / "tiny.csv"  # a second-moment matrix of about 1e-320
    write_matrix_csv(tiny, 1e-160 * rng.standard_normal((4, 30)))
    edges = tmp_path / "g.csv"
    edges.write_text("0,1,1.0\n1,2,1.0\n", encoding="utf-8")
    series = tmp_path / "ts.csv"
    series.write_text("0.1\n\n0.3\n0.2\n", encoding="utf-8")
    empty_cfg = tmp_path / "empty.cfg"
    empty_cfg.write_text("", encoding="utf-8")
    no_method_cfg = tmp_path / "no_method.cfg"
    no_method_cfg.write_text("[dataset]\nkind = gaussian\n\n[run]\nreplicates = 2\n", encoding="utf-8")
    unread_key_cfg = tmp_path / "unread_key.cfg"
    unread_key_cfg.write_text("[dataset]\nkind = gaussian\nsede = 3\n\n[method]\nmodule = impute\n", encoding="utf-8")
    knn_k0_cfg = tmp_path / "knn_k0.cfg"
    knn_k0_cfg.write_text("[dataset]\nkind = gaussian\n\n[method]\nmethod = knn\nk = 0\n", encoding="utf-8")
    near_flat = tmp_path / "near_flat.csv"  # columns 1e-13 apart: numpy's matrix_rank reads 2
    column = rng.standard_normal(3)
    write_matrix_csv(near_flat, np.column_stack([column, column + 1e-13]))
    sweeps_cfg = tmp_path / "sweeps.cfg"
    sweeps_cfg.write_text("[dataset]\nkind = gaussian\n\n[method]\nmethod = iterative\nmax_sweeps = -3\n", encoding="utf-8")
    return {"gappy": str(gappy), "full": str(full), "zero": str(zero), "tiny": str(tiny), "edges": str(edges),
            "series": str(series), "empty_cfg": str(empty_cfg), "no_method_cfg": str(no_method_cfg),
            "unread_key_cfg": str(unread_key_cfg),
            "knn_k0_cfg": str(knn_k0_cfg), "sweeps_cfg": str(sweeps_cfg), "near_flat": str(near_flat),
            "dir": str(tmp_path), "out": str(tmp_path / "o.csv"), "nodir": str(tmp_path / "no" / "o.csv")}


_PROBES = [
    ("knn_k0", ["impute", "--in", "{gappy}", "--method", "knn", "--k", "0", "--out", "{out}"],
     "k must be an integer >= 1, got 0"),
    ("estimate_tol_neg", ["estimate", "--in", "{gappy}", "--tol", "-1"], "tol must be positive"),
    ("estimate_tol_inf", ["estimate", "--in", "{gappy}", "--tol", "inf"],
     "tol must be positive and finite, got inf"),
    ("mask_rate_over_1", ["mask", "--mechanism", "mcar", "--rate", "1.5", "--shape", "3", "4", "--out", "{out}"],
     "rate"),
    ("mask_driver_row", ["mask", "--mechanism", "mar", "--driver-row", "9", "--data", "{full}", "--out", "{out}"],
     "driver_row 9"),
    ("learn_all_zero", ["graph", "learn", "--in", "{zero}", "--out", "{out}"], "all-zero"),
    ("learn_subnormal", ["graph", "learn", "--in", "{tiny}", "--out", "{out}"], "subnormal second-moment matrix S"),
    ("out_in_missing_dir", ["impute", "--in", "{gappy}", "--out", "{nodir}"], "No such file"),
    ("ts_fit_dir", ["ts-fit", "--in", "{dir}"], "directory"),
    ("draws0", ["impute", "--in", "{gappy}", "--draws", "0", "--out", "{out}"], "K must be an integer >= 1, got 0"),
    ("draws_neg", ["impute", "--in", "{gappy}", "--draws", "-1", "--out", "{out}"],
     "K must be an integer >= 1, got -1"),
    ("estimate_maxiter0", ["estimate", "--in", "{gappy}", "--maxiter", "0"],
     "max_iter must be an integer >= 1, got 0"),
    ("mask_shape0", ["mask", "--mechanism", "mcar", "--shape", "0", "4", "--out", "{out}"], "p must be an integer >= 1, got 0"),
    ("joint_iters0", ["graph", "joint", "--in", "{gappy}", "--iters", "0", "--out-prefix", "{out}"],
     "iters must be an integer >= 1, got 0"),
    ("learn_gmrf_alpha_neg", ["graph", "learn", "--in", "{full}", "--alpha", "-1", "--out", "{out}"],
     "alpha must be nonnegative"),
    ("learn_var_alpha_neg",
     ["graph", "learn", "--in", "{full}", "--model", "var", "--alpha", "-1", "--out", "{out}"],
     "alpha must be nonnegative"),
    ("recover_tv_alpha_neg", ["graph", "recover", "--in", "{gappy}", "--graph", "{edges}", "--smoothness", "tv",
                              "--alpha", "-1", "--out", "{out}"],
     "--alpha applies to --smoothness tikhonov with --fidelity squared or huber only"),
    ("recover_exact_alpha", ["graph", "recover", "--in", "{gappy}", "--graph", "{edges}", "--fidelity", "exact",
                             "--alpha", "2", "--out", "{out}"],
     "--alpha applies to --smoothness tikhonov with --fidelity squared or huber only"),
    ("mnar_fit_burnin_neg", ["mnar-fit", "--in", "{gappy}", "--iters", "3", "--burnin", "-1"],
     "burn_in must be an integer >= 0, got -1"),
    ("complete_maxiter0", ["complete", "--in", "{gappy}", "--maxiter", "0", "--out", "{out}"],
     "max_iter must be an integer >= 1, got 0"),
    ("complete_tol_neg", ["complete", "--in", "{gappy}", "--tol", "-1", "--out", "{out}"],
     "tol must be positive and finite, got -1.0"),
    ("complete_tol_inf", ["complete", "--in", "{gappy}", "--tol", "inf", "--out", "{out}"],
     "tol must be positive and finite, got inf"),
    ("joint_sigma_n2_neg", ["graph", "joint", "--in", "{gappy}", "--sigma-n2", "-1", "--out-prefix", "{out}"],
     "sigma_n2 must be positive and finite, got -1.0"),
    # options the chosen mode ignores
    ("complete_hard_lam", ["complete", "--in", "{gappy}", "--lam", "2", "--out", "{out}"],
     "--lam applies to --mode soft only"),
    ("complete_soft_rank", ["complete", "--in", "{gappy}", "--mode", "soft", "--rank", "1", "--out", "{out}"],
     "--rank applies to --mode hard only"),
    ("mask_mcar_phi0", ["mask", "--mechanism", "mcar", "--phi0", "1", "--shape", "3", "4", "--out", "{out}"],
     "--phi0 applies to --mechanism mar or mnar only"),
    ("mask_mcar_phi1", ["mask", "--mechanism", "mcar", "--phi1", "0", "--shape", "3", "4", "--out", "{out}"],
     "--phi1 applies to --mechanism mar or mnar only"),
    ("mask_mcar_phi0_phi1", ["mask", "--mechanism", "mcar", "--phi0", "1", "--phi1", "3", "--shape", "3", "4",
                             "--out", "{out}"], "--phi0 and --phi1 apply to --mechanism mar or mnar only"),
    ("mask_mcar_driver_row", ["mask", "--mechanism", "mcar", "--driver-row", "1", "--shape", "3", "4",
                              "--out", "{out}"], "--driver-row applies to --mechanism mar only"),
    ("mask_mar_rate", ["mask", "--mechanism", "mar", "--rate", "0.3", "--data", "{full}", "--out", "{out}"],
     "--rate applies to --mechanism mcar only"),
    ("mask_mnar_rate", ["mask", "--mechanism", "mnar", "--rate", "0.3", "--data", "{full}", "--out", "{out}"],
     "--rate applies to --mechanism mcar only"),
    ("mask_mnar_driver_row", ["mask", "--mechanism", "mnar", "--driver-row", "1", "--data", "{full}",
                              "--out", "{out}"], "--driver-row applies to --mechanism mar only"),
    ("impute_mean_k", ["impute", "--in", "{gappy}", "--k", "3", "--out", "{out}"], "--k applies to --method knn only"),
    ("impute_condgauss_k", ["impute", "--in", "{gappy}", "--method", "condgauss", "--k", "3", "--out", "{out}"],
     "--k applies to --method knn only"),
    ("impute_iterative_k", ["impute", "--in", "{gappy}", "--method", "iterative", "--k", "3", "--out", "{out}"],
     "--k applies to --method knn only"),
    ("impute_mean_add_noise", ["impute", "--in", "{gappy}", "--add-noise", "--out", "{out}"],
     "--add-noise applies to --method condgauss or iterative only"),
    ("impute_knn_add_noise", ["impute", "--in", "{full}", "--method", "knn", "--add-noise", "--out", "{out}"],
     "--add-noise applies to --method condgauss or iterative only"),
    ("recover_tv_fidelity", ["graph", "recover", "--in", "{gappy}", "--graph", "{edges}", "--smoothness", "tv",
                             "--fidelity", "huber", "--out", "{out}"],
     "--fidelity applies to --smoothness tikhonov only"),
    ("impute_mean_seed", ["impute", "--in", "{gappy}", "--method", "mean", "--seed", "1", "--out", "{out}"],
     "--seed applies to --add-noise only"),
    ("impute_condgauss_seed", ["impute", "--in", "{gappy}", "--method", "condgauss", "--seed", "1",
                               "--out", "{out}"], "--seed applies to --add-noise only"),
    ("recover_tv_beta0", ["graph", "recover", "--in", "{gappy}", "--graph", "{edges}", "--smoothness", "tv",
                          "--beta", "0", "--out", "{out}"],
     "--beta applies to --smoothness tikhonov with --fidelity squared or huber only"),
    ("recover_exact_beta0", ["graph", "recover", "--in", "{gappy}", "--graph", "{edges}", "--fidelity", "exact",
                             "--beta", "0", "--out", "{out}"],
     "--beta applies to --smoothness tikhonov with --fidelity squared or huber only"),
    ("bench_empty_config", ["bench", "--config", "{empty_cfg}", "--out-dir", "{dir}"],
     "missing config section: 'dataset'"),
    ("bench_no_method_section", ["bench", "--config", "{no_method_cfg}", "--out-dir", "{dir}"],
     "missing config section: 'method'"),
    ("bench_unread_key", ["bench", "--config", "{unread_key_cfg}", "--out-dir", "{dir}"],
     "[dataset] sede is not read under kind = gaussian"),
    ("bench_knn_k0", ["bench", "--config", "{knn_k0_cfg}", "--out-dir", "{dir}"],
     "[method] k must be an integer >= 1, got 0"),
    ("bench_max_sweeps_neg", ["bench", "--config", "{sweeps_cfg}", "--out-dir", "{dir}"],
     "[method] max_sweeps must be an integer >= 1"),
    ("track_truth_near_flat", ["track", "--stream", "{full}", "--rank", "2", "--truth", "{near_flat}",
                               "--out", "{out}"], "rank-deficient basis in --truth"),
    ("ts_impute_explosive_a", ["ts-impute", "--in", "{series}", "--mu", "0", "--a", "1e300", "--sigma", "1",
                               "--nu", "5", "--out", "{out}"], "a = 1e+300"),
]


@pytest.mark.parametrize("args, message", [p[1:] for p in _PROBES], ids=[p[0] for p in _PROBES])
def test_bad_option_value_or_file_exits_2(runner, tmp_path, args, message):
    files = _probe_files(tmp_path)
    res = runner.invoke(main, [a.format(**files) for a in args])
    assert res.exit_code == 2, res.output
    assert "config error: " in res.output and message in res.output
    assert len(res.output.strip().splitlines()) == 1
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize(
    "args",
    [
        ["complete", "--in", "{gappy}", "--mode", "soft", "--lam", "2", "--out", "{out}"],
        ["complete", "--in", "{gappy}", "--rank", "1", "--out", "{out}"],
        ["mask", "--mechanism", "mcar", "--rate", "0.3", "--shape", "3", "4", "--out", "{out}"],
        ["mask", "--mechanism", "mar", "--phi0", "1", "--phi1", "2", "--driver-row", "1", "--data", "{full}",
         "--out", "{out}"],
        ["mask", "--mechanism", "mnar", "--phi0", "1", "--phi1", "2", "--data", "{full}", "--out", "{out}"],
        ["impute", "--in", "{full}", "--method", "knn", "--k", "2", "--out", "{out}"],
        ["graph", "recover", "--in", "{gappy}", "--graph", "{edges}", "--fidelity", "huber", "--out", "{out}"],
    ],
    ids=["complete_soft_lam", "complete_hard_rank", "mask_mcar_rate", "mask_mar_all", "mask_mnar_phi",
         "impute_knn_k", "recover_tikhonov_fidelity"],
)
def test_option_accepted_where_it_applies(runner, tmp_path, args):
    files = _probe_files(tmp_path)
    res = runner.invoke(main, [a.format(**files) for a in args])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize(
    "text", ["1,1,1\n1,1\n", "1,abc\n1,1\n", "1,1\n"], ids=["ragged", "non_numeric", "wrong_shape"]
)
def test_impute_names_a_malformed_mask_file(runner, tmp_path, text):
    files = _probe_files(tmp_path)
    mask = tmp_path / "ragged.csv"
    mask.write_text(text, encoding="utf-8")
    res = runner.invoke(main, ["impute", "--in", files["gappy"], "--mask", str(mask), "--out", files["out"]])
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"config error: mask file {mask}: ")


def _command_paths(group, prefix=()):
    for name, cmd in sorted(group.commands.items()):
        yield (*prefix, name)
        if isinstance(cmd, click.Group):
            yield from _command_paths(cmd, (*prefix, name))


@pytest.mark.parametrize("path", list(_command_paths(main)), ids=" ".join)
def test_help_exits_0_on_every_subcommand(runner, path):
    res = runner.invoke(main, [*path, "--help"])
    assert res.exit_code == 0, res.output
    assert "Usage:" in res.output


@pytest.mark.parametrize(
    "target, exc, args",
    [
        ("sem_selection_fit", RuntimeError("tilted sampler stalled"), ["mnar-fit", "--in", "{gappy}"]),
        ("hard_impute", np.linalg.LinAlgError("SVD did not converge"),
         ["complete", "--in", "{gappy}", "--out", "{out}"]),
    ],
    ids=["runtime_error", "linalg_error"],
)
def test_numerical_failure_exits_4(runner, tmp_path, monkeypatch, target, exc, args):
    import gapkit.cli as cli

    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    files = _probe_files(tmp_path)
    res = runner.invoke(main, [a.format(**files) for a in args])
    assert res.exit_code == 4
    assert res.output == f"numerical failure: {exc}\n"
    assert res.exception is None or isinstance(res.exception, SystemExit)


# -- fuzz: boundary option values and malformed files on every subcommand -------

# The first candidate of every option is valid on its own.
_FLOATS = ["0.5", "0", "-1", "1e300", "nan", "inf", "-inf"]
_COUNTS = ["3", "1", "0", "-1"]  # no huge count: it would only make the run long
_SIZES = ["2", "0", "-1", "1000000"]
_SEEDS = ["0", "-1", str(2**64 + 5)]
_MATRICES = ["@gappy", "@complete", "@holes", "@one", "@empty", "@ragged", "@text", "@dir", "@inf"]
_MASKS = ["@mask", "@gappy", "@ragged", "@text", "@dir"]
_SERIES = ["@series", "@unobserved", "@one", "@empty", "@text", "@dir", "@gappy"]
_EDGES = ["@edges", "@empty", "@text", "@dir", "@gappy"]
_CONFIGS = ["@cfg", "@cfg2", "@empty", "@text", "@dir", "@json"]
_FLAG = [""]

# command -> (options -> candidate values, options always given, output option).
# The always-given ones are the required options and the iteration counts,
# whose defaults would make one example slow.
_FUZZ = {
    "mask": ({"--mechanism": ["mcar", "mar", "mnar"], "--shape": ["3 4", "1 1", "0 4", "-1 2"],
              "--data": _MATRICES, "--rate": _FLOATS, "--phi0": _FLOATS, "--phi1": _FLOATS,
              "--driver-row": _SIZES, "--seed": _SEEDS, "--classify": _FLAG},
             {"--mechanism", "--shape"}, "--out"),
    "impute": ({"--in": _MATRICES, "--mask": _MASKS, "--method": ["mean", "knn", "condgauss", "iterative"],
                "--k": _SIZES, "--add-noise": _FLAG, "--draws": _COUNTS, "--seed": _SEEDS},
               {"--in"}, "--out"),
    "estimate": ({"--in": _MATRICES, "--mask": _MASKS, "--model": ["gaussian", "student"],
                  "--evariant": ["exact", "sem", "mcem", "saem"],
                  "--structure": ["factor:1", "floor:0.5", "factor:0", "floor:-1", "floor:nan", "nope"],
                  "--estimate-nu": _FLAG, "--tol": _FLOATS, "--maxiter": _COUNTS, "--seed": _SEEDS},
                 {"--in", "--maxiter"}, "--out"),
    "mnar-fit": ({"--in": _MATRICES, "--mask": _MASKS, "--phi0": _FLOATS, "--phi1-init": _FLOATS,
                  "--iters": _COUNTS, "--burnin": ["1", "0", "-1", "3"], "--seed": _SEEDS},
                 {"--in", "--iters", "--burnin"}, "--out"),
    "complete": ({"--in": _MATRICES, "--mask": _MASKS, "--mode": ["hard", "soft"], "--rank": _SIZES,
                  "--lam": _FLOATS, "--tol": _FLOATS, "--maxiter": _COUNTS}, {"--in", "--maxiter"}, "--out"),
    "track": ({"--stream": _MATRICES, "--mode": ["petrels", "robust"], "--rank": _SIZES, "--forget": _FLOATS,
               "--rho": _FLOATS, "--alpha": _FLOATS, "--truth": ["@basis", *_MATRICES], "--seed": _SEEDS},
              {"--stream"}, "--out"),
    "graph recover": ({"--in": _MATRICES, "--mask": _MASKS, "--graph": _EDGES,
                       "--smoothness": ["tikhonov", "tv"], "--fidelity": ["exact", "squared", "huber"],
                       "--alpha": _FLOATS, "--beta": _FLOATS}, {"--in", "--graph"}, "--out"),
    "graph learn": ({"--in": ["@complete", *_MATRICES], "--model": ["gmrf", "var"], "--alpha": _FLOATS},
                    {"--in"}, "--out"),
    "graph joint": ({"--in": _MATRICES, "--mask": _MASKS, "--alpha-a": _FLOATS, "--alpha-l": _FLOATS,
                     "--sigma-n2": _FLOATS, "--iters": _COUNTS}, {"--in", "--iters"}, "--out-prefix"),
    "ts-fit": ({"--in": _SERIES, "--iters": _COUNTS, "--nu": ["5", *_FLOATS], "--seed": _SEEDS},
               {"--in", "--iters"}, "--out"),
    "ts-impute": ({"--in": _SERIES, "--draws": _COUNTS, "--mu": _FLOATS, "--a": _FLOATS, "--sigma": _FLOATS,
                   "--nu": ["5", *_FLOATS], "--seed": _SEEDS},
                  {"--in", "--draws", "--mu", "--a", "--sigma", "--nu"}, "--out"),
    "bench": ({"--config": _CONFIGS}, {"--config"}, "--out-dir"),
    # a key's first word is the option: "--config #2" gives compare its second config
    "compare": ({"--config": _CONFIGS, "--config #2": ["@cfg2", *_CONFIGS]}, {"--config", "--config #2"},
                "--out"),
}

_BENCH_CFG = """[dataset]
kind = gaussian
p = 2
n = 12

[mechanism]
kind = mcar
rate = 0.2

[method]
module = impute
method = {}

[run]
replicates = 2
seed = 1
"""


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(31)
    vals = rng.standard_normal((3, 8))
    mask = (rng.random((3, 8)) > 0.3).astype(int)
    mask[:, 0] = 1
    holes = mask.copy()
    holes[1], holes[:, 3] = 0, 0
    series = np.sin(np.arange(30.0))
    texts = {
        "empty": "",
        "ragged": "1.0,2.0\n3.0\n",
        "text": "1.0,abc\n2.0,3.0\n",
        "inf": "1.0,inf\n2.0,3.0\n",
        "one": "1.5\n",
        "unobserved": "\n\n\n",
        "edges": "0,1,1.0\n1,2,0.5\n",
        "cfg": _BENCH_CFG.format("mean"),
        "cfg2": _BENCH_CFG.format("condgauss"),
        "json": '{"dataset": 1, "method": []}\n',
        "series": "".join("\n" if 10 <= t < 13 else f"{v!r}\n" for t, v in enumerate(series.tolist())),
    }
    paths = {"dir": str(base)}
    for name, text in texts.items():
        (base / name).write_text(text, encoding="utf-8")
        paths[name] = str(base / name)
    matrices = {"gappy": (vals, mask), "complete": (vals, None), "holes": (vals, holes),
                "basis": (np.linalg.qr(vals[:, :2])[0], None), "mask": (mask, None)}
    for name, (X, M) in matrices.items():
        write_matrix_csv(base / name, X, M)
        paths[name] = str(base / name)
    return paths


def _fuzz_call(fuzz_files, command, chosen, out_dir, missing=False):
    """Run a command with the chosen option values on top of the always-given
    ones and check the exit-code rules. The output goes to a fresh out_dir, or
    to a directory under it that does not exist when missing is set."""
    options, always, out_option = _FUZZ[command]
    args = command.split()
    for name in sorted(options):
        if name in chosen:
            value = chosen[name]
        elif name in always:
            value = options[name][0]
        else:
            continue
        value = fuzz_files[value[1:]] if value.startswith("@") else value
        args += [name.split()[0], *value.split()]
    out_dir.mkdir()
    args += [out_option, str(out_dir / "missing" / "o" if missing else out_dir / "o")]
    res = CliRunner().invoke(main, args)
    allowed = {0, 2, 3, 4} if command == "bench" else {0, 2, 4}
    assert res.exit_code in allowed, (args, res.output, res.exception)
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    if res.exit_code == 0:
        assert os.listdir(out_dir), args


@pytest.mark.parametrize("command", sorted(_FUZZ))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_exit_codes(fuzz_files, tmp_path, command, data):
    options = _FUZZ[command][0]
    # At most three options leave their first, valid value, so that many
    # examples get past validation into the numerics.
    odd = data.draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True), label="odd")
    chosen = {name: data.draw(st.sampled_from(options[name]), label=name) for name in sorted(options)
              if name in odd}
    missing = data.draw(st.booleans(), label="output in a missing directory")
    # tmp_path is shared by all examples of a command: each gets a fresh subdirectory
    _fuzz_call(fuzz_files, command, chosen, tmp_path / f"out{len(os.listdir(tmp_path))}", missing)


@pytest.mark.parametrize("command", sorted(_FUZZ))
def test_fuzz_singles_and_pairs_exit_codes(fuzz_files, tmp_path, command):
    # Every non-default value alone and every pair of values of two options,
    # so a failing combination of at most two fails on every run, not by chance.
    options = _FUZZ[command][0]
    cases = [{}] + [{name: value} for name in options for value in options[name][1:]]
    cases += [{a: va, b: vb} for a, b in itertools.combinations(sorted(options), 2)
              for va in options[a] for vb in options[b]]
    _fuzz_call(fuzz_files, command, {}, tmp_path / "missing", missing=True)
    for i, chosen in enumerate(cases):
        _fuzz_call(fuzz_files, command, chosen, tmp_path / f"out{i}")
