import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegdiff.evaluate import (
    EvalError,
    GaussianStats,
    _cos_matrix,
    class_agreement,
    export_embeddings,
    fit_gaussian,
    frechet_distance,
    topk_retrieval,
)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# -- retrieval -------------------------------------------------------------------


def test_perfect_retrieval(rng):
    emb = unit_rows(rng.normal(size=(6, 8)))
    assert topk_retrieval(emb, emb, np.arange(6), (1,)) == {"label_top1": 1.0, "image_top1": 1.0}


def test_label_mode_accepts_same_class(rng):
    gallery = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0], [0.0, 0.9]])
    labels = np.array([0, 0, 1, 1])
    queries = gallery[[1, 0, 3, 2]]
    top = topk_retrieval(queries, gallery, labels, (1,))
    assert top["label_top1"] == 1.0
    assert top["image_top1"] < 1.0


def test_tie_break_prefers_smaller_id():
    gallery = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1, 2])
    # query 1 ties between ids 0 and 1; the tie goes to id 0, a miss in image mode
    assert topk_retrieval(queries, gallery, labels, (1,))["image_top1"] == pytest.approx(2 / 3)


def test_retrieval_validation(rng):
    emb = rng.normal(size=(4, 3))
    labels = np.zeros(4)
    with pytest.raises(EvalError):
        topk_retrieval(emb, emb, labels, (1, 0))  # each k is checked
    with pytest.raises(EvalError):
        topk_retrieval(emb, emb, labels, (5,))
    with pytest.raises(EvalError):
        topk_retrieval(rng.normal(size=(3, 3)), emb, labels, (1,))
    with pytest.raises(EvalError):
        topk_retrieval(emb, emb, np.zeros(3), (1,))
    with pytest.raises(EvalError):
        topk_retrieval(emb, emb[0], labels, (1,))


def reference_topk(queries, gallery, labels, k, mode):
    """One (k, mode) scored from its own sort: the per-call form that
    ``topk_retrieval`` folds into one sort."""
    top = np.argsort(-_cos_matrix(queries, gallery), axis=1, kind="stable")[:, :k]
    own = np.arange(len(queries))[:, None]
    hits = top == own if mode == "image" else labels[top] == labels[own]
    return hits.any(axis=1).mean()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_topk_monotone_in_k(seed):
    g = np.random.default_rng(seed)
    queries, gallery = g.normal(size=(12, 5)), g.normal(size=(12, 5))
    labels = g.integers(0, 3, size=12)
    ks = (1, 3, 6, 12)
    top = topk_retrieval(queries, gallery, labels, ks)
    assert list(top) == [f"{mode}_top{k}" for mode in ("label", "image") for k in ks]
    for mode in ("label", "image"):
        accs = [top[f"{mode}_top{k}"] for k in ks]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0
        assert accs == [reference_topk(queries, gallery, labels, k, mode) for k in ks]


# -- frechet ---------------------------------------------------------------------


def test_frechet_identities(rng):
    d = 6
    mu = rng.normal(size=d)
    stats = GaussianStats(mean=mu, cov=np.eye(d))
    zero = GaussianStats(mean=np.zeros(d), cov=np.eye(d))
    assert frechet_distance(stats, stats) == pytest.approx(0.0, abs=1e-10)
    assert frechet_distance(zero, stats) == pytest.approx(mu @ mu, abs=1e-8)


def test_frechet_scaled_identity_closed_form():
    d = 4
    a = GaussianStats(mean=np.zeros(d), cov=np.eye(d))
    b = GaussianStats(mean=np.zeros(d), cov=4.0 * np.eye(d))
    # per-dim (1 + 4 - 2*2) = 1
    assert frechet_distance(a, b) == pytest.approx(d * 1.0, abs=1e-8)


def test_frechet_matches_scipy_sqrtm(rng):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    x = rng.normal(size=(60, 4))
    y = rng.normal(size=(50, 4)) @ np.diag([1.0, 2.0, 0.5, 1.5]) + 0.3
    a, b = fit_gaussian(x), fit_gaussian(y)
    got = frechet_distance(a, b)
    cross = scipy_linalg.sqrtm(a.cov @ b.cov).real
    want = float(np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov + b.cov - 2 * cross))
    assert got == pytest.approx(want, abs=1e-8)


def test_frechet_rejects_non_psd():
    bad = GaussianStats(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))
    good = GaussianStats(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(EvalError):
        frechet_distance(bad, good)
    asym = GaussianStats(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(EvalError):
        frechet_distance(asym, good)


def test_frechet_rejects_non_finite_covariance(rng):
    good = GaussianStats(mean=np.zeros(2), cov=np.eye(2))
    for value in (np.inf, np.nan):
        bad = GaussianStats(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, value]]))
        with pytest.raises(EvalError, match="non-finite"):
            frechet_distance(good, bad)
    # finite rows whose covariance overflows
    with np.errstate(over="ignore", invalid="ignore"):
        huge = fit_gaussian(1e300 * rng.normal(size=(8, 2)))
    with pytest.raises(EvalError, match="non-finite"):
        frechet_distance(huge, good)


def test_fit_gaussian_requires_rows(rng):
    with pytest.raises(EvalError):
        fit_gaussian(rng.normal(size=(1, 3)))
    stats = fit_gaussian(rng.normal(size=(10, 3)))
    np.testing.assert_array_equal(stats.cov, stats.cov.T)


# -- class agreement and export -----------------------------------------------------


def test_class_agreement_perfect_and_mixed(rng):
    anchors = np.eye(3).reshape(3, 3, 1)
    gen = anchors[[0, 1, 2, 2]] + 0.01 * rng.normal(size=(4, 3, 1))
    labels = np.array([0, 1, 2, 2])
    assert class_agreement(gen, labels, anchors) == 1.0
    wrong = np.array([1, 1, 2, 0])
    assert class_agreement(gen, wrong, anchors) == 0.5
    with pytest.raises(EvalError):
        class_agreement(gen, labels[:2], anchors)
    with pytest.raises(EvalError):
        class_agreement(gen, labels, anchors[:0])


@pytest.mark.parametrize("where", ["samples", "anchors"])
@pytest.mark.parametrize("bad", ["nan", "inf", "huge"])
def test_class_agreement_rejects_non_finite_and_overflowing_norms(where, bad, rng):
    gen = rng.normal(size=(4, 32))
    anchors = rng.normal(size=(3, 32))
    labels = np.zeros(4)
    target = gen if where == "samples" else anchors
    if bad == "huge":
        target *= 1e300
    else:
        target[1, 5] = float(bad)
    with pytest.raises(EvalError):
        class_agreement(gen, labels, anchors)


def test_export_embeddings_round_trips(tmp_path, rng):
    emb = rng.normal(size=(5, 3))
    labels = np.arange(5) % 2
    path = export_embeddings(emb, labels, tmp_path / "emb.csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "id,label,e0,e1,e2"
    assert len(lines) == 6
    parsed = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, emb)
    again = export_embeddings(emb, labels, tmp_path / "emb2.csv")
    assert path.read_text() == again.read_text()
