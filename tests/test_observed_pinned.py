"""Property test across modules: observed entries come back unchanged.

Exact-fidelity Tikhonov, TV, hard-impute and every imputer return observed
entries bit for bit. Squared/Huber-fidelity recovery and soft-impute are left
out: their fidelity is a penalty, not a constraint, so they estimate the
observed entries too.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gapkit.completion import hard_impute
from gapkit.core import IncompleteMatrix, SeedSpec
from gapkit.graph import recover_tikhonov, recover_tv
from gapkit.imputation import ImputerKind, ImputerSpec, run_imputer


@st.composite
def gappy(draw):
    """A p x n matrix with random holes; column 0 is complete and every
    column observes a row, so every method below is defined."""
    p, n = draw(st.integers(3, 5)), draw(st.integers(12, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = (rng.random((p, n)) > draw(st.floats(0.1, 0.6))).astype(np.int8)
    mask[:, 0] = 1
    mask[rng.integers(p, size=n), np.arange(n)] = 1
    vals = rng.standard_normal((p, n)) + rng.standard_normal((p, 1))
    return IncompleteMatrix(np.where(mask == 1, vals, np.nan), mask)


def _path_and_chords(p):
    """A connected graph: the path 0-1-...-(p-1) plus weaker chords."""
    W = np.full((p, p), 0.25) - 0.25 * np.eye(p)
    i = np.arange(p - 1)
    W[i, i + 1] = W[i + 1, i] = 1.0
    return W


def _imputers():
    for kind in ImputerKind:
        yield f"impute {kind.value}", lambda X, kind=kind: run_imputer(X, ImputerSpec(kind, k=2), SeedSpec(3))
        if ImputerSpec(kind, add_noise=True).is_stochastic:
            yield f"impute {kind.value} noise", lambda X, kind=kind: run_imputer(
                X, ImputerSpec(kind, add_noise=True), SeedSpec(3)
            )


def _pinning_methods():
    yield "tikhonov exact", lambda X: recover_tikhonov(X, _path_and_chords(X.p))
    yield "tv", lambda X: recover_tv(X, _path_and_chords(X.p), max_iter=30)
    yield "hard_impute", lambda X: hard_impute(X, 1, max_iter=30).X
    yield from _imputers()


@settings(max_examples=25, deadline=None)
@given(X=gappy())
def test_observed_entries_stay_pinned(X):
    obs = X.mask == 1
    for name, method in _pinning_methods():
        out = method(X)
        assert out.shape == X.shape, name
        assert np.array_equal(out[obs], X.values[obs]), name
        assert np.isfinite(out).all(), name

