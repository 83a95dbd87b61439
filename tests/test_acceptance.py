"""Acceptance gate: one test per shipping criterion, each ending in a
single "criterion N: PASS" line.

The ordering criteria (5 and 6) train real models and dominate the runtime;
they share session-scoped sweeps, and so does the check that ewc finishes at
its defaults. Everything else is seconds.
"""

import os
import time

import numpy as np
import pytest

import gradcheck
import oracles
from conftest import MICRO_FLAT, micro_config
from kwslab import autodiff as ad
from kwslab import cli, metrics, models, procs, trainer
from kwslab.autodiff import Tensor
from kwslab.config import config_from_mapping
from kwslab.models import (
    ScalingConfig,
    TcResNet8,
    count_parameters,
    instantiate_subnet,
    width_multiplier,
)
from kwslab.strategies import gem_project, nr_counts, nr_mix, quadratic_penalty, si_consolidate
from kwslab.taskstream import ClipRef

SEEDS = (0, 1, 2)

# calibration knobs for the desk-scale comparisons; everything not listed
# here runs at package defaults
ORDERING_BASE = {"pcl.encoder_lr_scale": "0.1", "si.lambda": "0.5"}
DRIFT_BASE = {"synth.freq_jitter": "0.03", "pcl.encoder_lr_scale": "0.1"}


def _sweep(strategies, base, seeds=SEEDS):
    """Every strategy at every seed, seed by seed, through the program's
    sweep loop with a run on each usable CPU: the runs of a seed share one
    stream's features. Every run must finish."""
    cfgs = [config_from_mapping({"strategy": strategy, "seed": str(seed), **base})
            for seed in seeds for strategy in strategies]
    reports, failed = cli._run_sweep(cfgs, jobs=procs.usable_cpus())
    assert failed == [], [entry["error"] for entry in failed]
    return {(report.strategy, report.seed): report for report in reports}


def _majority(votes):
    return sum(bool(v) for v in votes) >= 2


@pytest.fixture(scope="session")
def ordering_sweep():
    """Seven strategies x three seeds on the default synthetic stream."""
    t0 = time.perf_counter()
    reports = _sweep(("standalone", "pcl", "nr", "gem", "si", "finetune", "ewc"), ORDERING_BASE)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def drift_curves():
    """Fine-tune vs frozen-route accuracy curves on a higher-overlap stream."""
    return _sweep(("finetune", "pcl"), DRIFT_BASE)


# -- criterion 1: gradient suite -----------------------------------------------

def _sq(t):
    return ad.tensor_sum(ad.square(t))


def _away_from_kink(x):
    return np.where(np.abs(x) < 0.05, x + 0.1, x)


def _fx_conv1d(rng, i):
    stride = 1 + i % 3
    x = Tensor(rng.normal(size=(2, 3, 7)))
    w = Tensor(rng.normal(size=(2, 3, 3)) * 0.5)
    if i % 2:
        b = Tensor(rng.normal(size=2))
        return [x, w, b], lambda: _sq(ad.conv1d(x, w, b, stride=stride))
    return [x, w], lambda: _sq(ad.conv1d(x, w, stride=stride))


def _fx_batch_norm(rng, i):
    training = bool(i % 2)
    x = Tensor(rng.normal(size=(3, 2, 5)))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=2))
    beta = Tensor(rng.normal(size=2))
    rm = Tensor(rng.normal(size=2) * 0.1)
    rv = Tensor(rng.uniform(0.5, 1.5, size=2))
    return [x, gamma, beta], lambda: _sq(
        ad.batch_norm(x, gamma, beta, rm, rv, training=training, update_running=False)
    )


def _fx_relu(rng, i):
    x = Tensor(_away_from_kink(rng.normal(size=(4, 6))))
    return [x], lambda: _sq(ad.relu(x))


def _fx_add(rng, i):
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    return [a, b], lambda: _sq(ad.add(a, b))


def _fx_global_avg_pool(rng, i):
    x = Tensor(rng.normal(size=(2, 3, 6)))
    return [x], lambda: _sq(ad.global_avg_pool(x))


def _fx_dense(rng, i):
    x = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(4, 5)) * 0.5)
    b = Tensor(rng.normal(size=4))
    return [x, w, b], lambda: _sq(ad.dense(x, w, b))


def _fx_softmax_ce(rng, i):
    logits = Tensor(rng.normal(size=(5, 4)))
    labels = rng.integers(0, 4, size=5)
    return [logits], lambda: ad.softmax_cross_entropy(logits, labels)


def _fx_tensor_sum(rng, i):
    x = Tensor(rng.normal(size=(2, 3, 4)))
    return [x], lambda: ad.tensor_sum(ad.square(x))


def _fx_square(rng, i):
    x = Tensor(rng.normal(size=7))
    return [x], lambda: ad.tensor_sum(ad.square(x))


def _fx_scale(rng, i):
    x = Tensor(rng.normal(size=(3, 3)))
    c = float(rng.uniform(0.2, 2.0)) * (1 if i % 2 else -1)
    return [x], lambda: ad.scale(_sq(x), c)


OP_FIXTURES = [
    ("conv1d", _fx_conv1d),
    ("batch_norm", _fx_batch_norm),
    ("relu", _fx_relu),
    ("add", _fx_add),
    ("global_avg_pool", _fx_global_avg_pool),
    ("dense", _fx_dense),
    ("softmax_cross_entropy", _fx_softmax_ce),
    ("tensor_sum", _fx_tensor_sum),
    ("square", _fx_square),
    ("scale", _fx_scale),
]


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    for name, make in OP_FIXTURES:
        for i in range(20):
            tensors, build = make(rng, i)
            gradcheck.check_grads(tensors, build)

    # anchored quadratic penalty (the EWC form)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        theta = rng.normal(size=n)
        anchor = rng.normal(size=n)
        omega = rng.uniform(0.0, 3.0, size=n)
        lam = float(rng.uniform(0.1, 5.0))
        _, grad = quadratic_penalty(theta, anchor, omega, lam)
        fd = oracles.central_diff(
            lambda v, a=anchor, o=omega, l=lam: quadratic_penalty(v, a, o, l)[0], theta
        )
        np.testing.assert_allclose(grad, fd, rtol=1e-3, atol=1e-6)

    # same form with path-consolidated importances (the SI route)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        omega = np.zeros(n)
        si_consolidate(omega, rng.uniform(0.0, 2.0, size=n), rng.normal(size=n) * 0.3, eps=0.1)
        theta = rng.normal(size=n)
        anchor = rng.normal(size=n)
        lam = float(rng.uniform(0.1, 2.0))
        _, grad = quadratic_penalty(theta, anchor, omega, lam)
        fd = oracles.central_diff(
            lambda v, a=anchor, o=omega, l=lam: quadratic_penalty(v, a, o, l)[0], theta
        )
        np.testing.assert_allclose(grad, fd, rtol=1e-3, atol=1e-6)

    # spot-check the full model end to end on a handful of coordinates
    model = TcResNet8(n_mfcc=8, n_classes=4, seed=3)
    x = Tensor(np.random.default_rng(4).normal(size=(2, 8, 12)))
    labels = np.array([1, 3])

    def build():
        return ad.softmax_cross_entropy(
            model.forward(x, training=True, update_running=False), labels
        )

    coords = np.linspace(0, model.params.trainable_count - 1, 12, dtype=int)
    tensors = [s.tensor for s in model.params.segments if s.trainable]
    gradcheck.check_grads_sampled(tensors, build, coords)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print("criterion 1: PASS")


# -- criterion 2: projection vs enumeration oracle ------------------------------

def test_criterion_02_gem_projection_oracle():
    rng = np.random.default_rng(202)
    projected = passthrough = 0
    for _ in range(200):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        g = rng.normal(size=d)
        G = rng.normal(size=(m, d))
        out, info = gem_project(g, G)

        assert np.all(G @ out >= -1e-9)
        np.testing.assert_allclose(out, oracles.qp_project_enum(g, G), atol=1e-6)
        assert info["converged"]
        if info["projected"]:
            projected += 1
        else:
            assert out is g
            assert out.tobytes() == g.tobytes()
            passthrough += 1
    # both paths must actually be exercised
    assert projected >= 50
    assert passthrough >= 20
    print("criterion 2: PASS")


# -- criterion 3: formula exactness ---------------------------------------------

def test_criterion_03_formula_exactness():
    # width multiplier
    assert width_multiplier(3, ScalingConfig(mu=1.0, c0=15)) == 0.2
    assert width_multiplier(15, ScalingConfig(mu=1.0, c0=15)) == 1.0
    assert width_multiplier(3, ScalingConfig(mu=2.5, c0=15)) == 0.5

    # replay mix counts
    assert nr_counts([100], 0.5) == [50]
    assert nr_counts([100, 60], 0.75) == [75, 45]
    hist = [[ClipRef("a", f"a/{i}") for i in range(100)]]
    new = [ClipRef("b", f"b/{i}") for i in range(80)]
    assert len(nr_mix(hist, new, 0.5, seed=0, task_id=2)) == 130
    full = nr_mix(hist, new, 1.0, seed=0, task_id=2)
    assert sorted(r.uri for r in full) == sorted(r.uri for r in hist[0] + new)

    # summary metrics on the two-task example
    m = np.array([[0.9, np.nan], [0.8, 0.95]])
    assert metrics.acc(m) == (0.8 + 0.95) / 2
    assert metrics.la(m) == (0.9 + 0.95) / 2
    assert abs(metrics.bwt(m) - (0.8 - 0.9)) < 1e-15

    def recorded(rows):
        return [row + [None] * (len(rows) - len(row)) for row in rows]

    flat = recorded([[0.7], [0.7, 0.7], [0.7, 0.7, 0.7]])
    assert metrics.bwt(flat) == 0.0
    rng = np.random.default_rng(33)
    rows = [[float(rng.uniform(0.2, 1.0)) for _ in range(t + 1)] for t in range(4)]
    rand = recorded(rows)
    assert metrics.acc(rand) == pytest.approx(oracles.acc_loop(rows), rel=1e-12)
    assert metrics.la(rand) == pytest.approx(oracles.la_loop(rows), rel=1e-12)
    assert metrics.bwt(rand) == pytest.approx(oracles.bwt_loop(rows), rel=1e-12)

    # parameter counts: closed forms and the frozen architecture totals
    lrng = np.random.default_rng(0)
    dense = models.Dense(lrng, "d", 10, 5)
    assert sum(s.tensor.data.size for s in dense.segments) == 55
    conv = models.Conv1d(lrng, "c", 4, 8, 3, bias=True)
    assert sum(s.tensor.data.size for s in conv.segments) == 104
    assert count_parameters(TcResNet8(n_mfcc=40, n_classes=15, seed=0).params) == 29615
    cfg = ScalingConfig(mu=1.0, c0=15)
    assert count_parameters(instantiate_subnet(3, cfg, c_in=24, seed=0).params) == 625
    assert count_parameters(instantiate_subnet(3, cfg, c_in=24, fixed=True, seed=0).params) == 4979
    print("criterion 3: PASS")


# -- criterion 4: freezing invariants -------------------------------------------

def _ckpt_payload(out_dir, task_id, name):
    path = os.path.join(out_dir, "checkpoints", f"task{task_id}", f"{name}.ckpt")
    _, segs = ad.load_checkpoint(path)
    return [(s.name, s.tensor.data.tobytes()) for s in segs]


def test_criterion_04_freezing_invariants(micro_run):
    t0 = time.perf_counter()

    _, out = micro_run("pcl")
    assert _ckpt_payload(out, 1, "subnet1") == _ckpt_payload(out, 2, "subnet1")

    frozen, _ = micro_run("pcl", **{"pcl.freeze_shared": "true"})
    assert frozen.bwt == 0.0

    alone, _ = micro_run("standalone")
    assert alone.bwt == 0.0

    assert time.perf_counter() - t0 < 600.0
    print("criterion 4: PASS")


# -- criteria 5 and 6: desk-scale orderings --------------------------------------

def test_criterion_05_strategy_ordering(ordering_sweep):
    reports, elapsed = ordering_sweep
    assert elapsed < 3600.0

    chain = ("standalone", "pcl", "nr", "gem", "si", "finetune")
    for hi, lo in zip(chain, chain[1:]):
        votes = [reports[hi, s].acc >= reports[lo, s].acc for s in SEEDS]
        assert _majority(votes), f"{hi} >= {lo} lost the seed vote: {votes}"

    assert _majority([reports["finetune", s].bwt < -0.1 for s in SEEDS])
    assert _majority([reports["pcl", s].bwt > -0.05 for s in SEEDS])
    print("criterion 5: PASS")


def test_ewc_at_its_defaults_forgets_less_than_finetune(ordering_sweep):
    """ewc at its package defaults (the ordering knobs set no ewc key)
    finishes at every seed, and its BWT beats finetune's on most of them."""
    reports, _ = ordering_sweep
    assert not [key for key in ORDERING_BASE if key.startswith("ewc.")]
    assert _majority([reports["ewc", s].bwt > reports["finetune", s].bwt for s in SEEDS])


def test_criterion_06_accuracy_vs_tasks_trend(drift_curves):
    ft = np.mean([drift_curves["finetune", s].acc_by_task for s in SEEDS], axis=0)
    steps = np.diff(ft[1:])
    assert np.all(steps < 0.0), f"fine-tune curve not degrading: {ft.tolist()}"

    pcl = np.mean([drift_curves["pcl", s].acc_by_task for s in SEEDS], axis=0)
    dev = np.max(np.abs(pcl[1:] - pcl[1]))
    assert dev <= 0.05, f"frozen-route curve drifted {dev:.4f} from its task-1 level"
    print("criterion 6: PASS")


# -- criterion 7: parameter growth ------------------------------------------------

def test_criterion_07_linear_parameter_growth(micro_run):
    rep, _ = micro_run("pcl")
    growth = rep.extra_params_by_task
    assert growth[0] == 0
    incs = np.diff(growth)
    assert len(set(incs.tolist())) == 1  # equal task sizes, equal increments

    c0 = MICRO_FLAT["stream.pretrain_keywords"]
    c_t = MICRO_FLAT["stream.keywords_per_task"]
    per_task = count_parameters(
        instantiate_subnet(c_t, ScalingConfig(mu=1.0, c0=c0), c_in=24, seed=0).params
    )
    assert incs[0] == per_task

    cfg = ScalingConfig(mu=1.0, c0=15)
    scaled = count_parameters(instantiate_subnet(3, cfg, c_in=24, seed=0).params)
    fixed = count_parameters(instantiate_subnet(3, cfg, c_in=24, fixed=True, seed=0).params)
    assert scaled < fixed / 5
    print("criterion 7: PASS")


# -- criterion 8: determinism ------------------------------------------------------

def test_criterion_08_run_determinism(tmp_path):
    a = trainer.run(micro_config(strategy="nr", out_dir=str(tmp_path / "a")))
    b = trainer.run(micro_config(strategy="nr", out_dir=str(tmp_path / "b")))
    assert metrics.reports_equivalent(a, b)
    print("criterion 8: PASS")


# -- criterion 9: real-corpus smoke run (optional) ---------------------------------

GSC_DIR = os.environ.get("KWSLAB_GSC_DIR", "/root/data/speech_commands")


@pytest.mark.skipif(not os.path.isdir(GSC_DIR), reason="no real keyword corpus on this machine")
def test_criterion_09_real_corpus_smoke():
    base = {
        "stream.source": "dir",
        "stream.corpus_dir": GSC_DIR,
        "sgd.epochs": "5",
        "sgd.pretrain_epochs": "5",
        "pcl.encoder_lr_scale": "0.1",
    }
    reports = _sweep(("finetune", "pcl"), base, seeds=(0,))
    ft, pcl = reports["finetune", 0], reports["pcl", 0]
    table = metrics.render_table(metrics.build_comparison([ft, pcl]))
    assert "pcl" in table and "finetune" in table
    assert pcl.acc - ft.acc >= 0.15
    print("criterion 9: PASS")
