import json

import numpy as np
import pytest
from click.testing import CliRunner

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


def test_gapkit_threads_env(runner, tmp_path, monkeypatch):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "[dataset]\nkind = gaussian\np = 2\nn = 40\n\n[mechanism]\nkind = mcar\nrate = 0.2\n\n"
        "[method]\nmodule = impute\nmethod = mean\n\n[run]\nreplicates = 4\nseed = 2\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "o1"
    res = runner.invoke(main, ["bench", "--config", str(cfg), "--out-dir", str(out1)])
    assert res.exit_code == 0
    monkeypatch.setenv("GAPKIT_THREADS", "3")
    out2 = tmp_path / "o2"
    res2 = runner.invoke(main, ["bench", "--config", str(cfg), "--out-dir", str(out2)])
    assert res2.exit_code == 0
    # aggregation is sorted, so outputs agree regardless of thread count
    assert (out1 / "results.csv").read_text() == (out2 / "results.csv").read_text()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--model", "student", "--structure", "factor:1"], "--structure"),
        (["--estimate-nu"], "--estimate-nu"),
        (["--model", "student", "--mvariant", "gem"], "GEM"),
    ],
)
def test_estimate_rejects_ignored_combinations(runner, tmp_path, extra, message):
    data = tmp_path / "x.csv"
    _write_gappy_matrix(data, seed=6)
    res = runner.invoke(main, ["estimate", "--in", str(data), *extra])
    assert res.exit_code == 2
    assert message in res.output


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


@pytest.mark.parametrize(
    "extra, truth, message",
    [
        (["--rank", "0"], None, "r <= p"),
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
