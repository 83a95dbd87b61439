import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from kwslab import autodiff as ad
from kwslab import strategies, trainer
from kwslab.autodiff import ParameterVector, Segment, Sgd, SgdConfig, Tensor
from kwslab.config import STRATEGIES
from kwslab.dsp import FEATURE_SHAPE
from kwslab.errors import EmptyDataError, UnknownTaskError
from kwslab.models import ScalingConfig, count_parameters, instantiate_subnet
from kwslab.strategies import (
    SAMPLE_BYTES,
    Ewc,
    FineTune,
    Gem,
    Pcl,
    Si,
    TrainContext,
    gem_project,
    make_strategy,
    nr_counts,
    nr_mix,
    quadratic_penalty,
    si_accumulate,
    si_consolidate,
)
from kwslab.taskstream import ClipRef

from conftest import micro_config


def micro_ctx(**overrides):
    cfg = micro_config(**overrides)
    return TrainContext(cfg=cfg, features=trainer.FeatureCache(cfg.seed, cfg.stream))


# -- quadratic anchor penalty ------------------------------------------------------

def test_penalty_zero_at_anchor():
    theta = np.array([1.0, -2.0, 3.0])
    value, grad = quadratic_penalty(theta, theta.copy(), np.array([1.0, 2.0, 3.0]), 10.0)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_penalty_worked_example():
    anchor = np.zeros(2)
    theta = np.array([0.5, -0.25])
    omega = np.array([1.0, 4.0])
    value, grad = quadratic_penalty(theta, anchor, omega, 2.0)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert grad == pytest.approx([1.0, -2.0], abs=1e-15)


def test_penalty_grad_matches_fd():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(6)
    anchor = rng.standard_normal(6)
    omega = rng.uniform(0.0, 3.0, size=6)
    lam = 1.7
    _, grad = quadratic_penalty(theta, anchor, omega, lam)
    fd = oracles.central_diff(lambda v: quadratic_penalty(v, anchor, omega, lam)[0], theta)
    np.testing.assert_allclose(grad, fd, rtol=1e-3, atol=1e-6)


zero_or_sane = st.one_of(st.just(0.0), st.floats(1e-3, 5), st.floats(-5, -1e-3))
zero_or_pos = st.one_of(st.just(0.0), st.floats(1e-3, 5))


@given(
    st.lists(zero_or_sane, min_size=1, max_size=6),
    st.lists(zero_or_pos, min_size=6, max_size=6),
    st.floats(0.01, 50),
)
def test_penalty_nonnegative(deltas, omega_vals, lam):
    n = len(deltas)
    anchor = np.zeros(n)
    theta = np.array(deltas)
    omega = np.array(omega_vals[:n])
    value, _ = quadratic_penalty(theta, anchor, omega, lam)
    assert value >= 0.0
    if np.all(omega * theta * theta == 0.0):
        assert value == 0.0
    else:
        assert value > 0.0


# -- squared-gradient importance -----------------------------------------------------

def fake_ewc(grads):
    """Each `_grad_on([ref])` call returns the next of `grads`."""
    n = len(grads[0])
    queue = iter(grads)

    def grad_on(refs):
        assert len(refs) == 1
        return np.asarray(next(queue), dtype=float)

    return SimpleNamespace(
        model=SimpleNamespace(params=SimpleNamespace(trainable_count=n)), _grad_on=grad_on
    )


def test_fisher_mean_of_squares():
    fake = fake_ewc([[0.5], [0.3]])
    out = Ewc.fisher(fake, refs=["a", "b"])
    assert out == pytest.approx([0.17], abs=1e-15)


def test_fisher_zero_grads():
    fake = fake_ewc([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.all(Ewc.fisher(fake, refs=[1, 2, 3]) == 0.0)


def test_fisher_empty_data():
    with pytest.raises(EmptyDataError):
        Ewc.fisher(fake_ewc([[0.0]]), refs=[])


def test_fisher_toy_logistic_vs_fd():
    # per-sample CE gradients of a 3-feature 2-class linear model
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, size=8)
    w = Tensor(0.5 * rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    params = ParameterVector([Segment("w", w), Segment("b", b)])

    grads = []
    for j in range(8):
        params.zero_grad()
        loss = ad.softmax_cross_entropy(ad.dense(Tensor(X[j : j + 1]), w, b), y[j : j + 1])
        ad.backward(loss)
        grads.append(params.grad_vector())
    fisher = Ewc.fisher(fake_ewc(grads), refs=list(range(8)))

    theta0 = params.flatten()

    def sample_loss(vec, j):
        params.unflatten(vec)
        out = ad.softmax_cross_entropy(ad.dense(Tensor(X[j : j + 1]), w, b), y[j : j + 1])
        return float(out.data)

    fd_fisher = np.zeros_like(theta0)
    for j in range(8):
        fd_grad = oracles.central_diff(lambda v: sample_loss(v, j), theta0)
        fd_fisher += fd_grad**2
    fd_fisher /= 8
    params.unflatten(theta0)
    np.testing.assert_allclose(fisher, fd_fisher, rtol=1e-3, atol=1e-8)


# -- path-integral importance ---------------------------------------------------------

def test_si_accumulate_sign():
    path = np.zeros(2)
    si_accumulate(path, g=np.array([0.4, -1.0]), delta=np.array([-0.1, 0.2]))
    assert path == pytest.approx([0.04, 0.2], abs=1e-15)


def test_si_consolidate_worked_example():
    omega = np.zeros(1)
    si_consolidate(omega, np.array([0.4]), displacement=np.array([0.1]), eps=0.1)
    assert omega[0] == pytest.approx(0.4 / 0.11, rel=1e-12)
    assert omega[0] == pytest.approx(3.6364, abs=1e-4)


def test_si_consolidate_no_motion():
    omega = np.zeros(2)
    path = np.array([0.3, 0.5])
    si_consolidate(omega, path, displacement=np.zeros(2), eps=0.1)
    assert omega == pytest.approx(path / 0.1)


def test_si_five_step_replay():
    # loss 0.5*theta^2, so the task gradient is theta itself
    theta = Tensor(np.array([1.0]), requires_grad=True)
    params = ParameterVector([Segment("theta", theta)])
    sgd = Sgd(params, SgdConfig(learning_rate=0.1, momentum=0.9))
    path = np.zeros(1)
    for _ in range(5):
        g = params.flatten().copy()
        delta = sgd.step(g)
        si_accumulate(path, g, delta)

    # literal replay of the optimizer's update order
    th, v, ref_path = 1.0, 0.0, 0.0
    for _ in range(5):
        g = th
        v = v * 0.9
        v = v + g
        delta = -0.1 * v
        th = th + delta
        ref_path = ref_path - g * delta
    assert params.flatten()[0] == th
    assert path[0] == ref_path

    omega = np.zeros(1)
    si_consolidate(omega, path, displacement=np.array([th - 1.0]), eps=0.1)
    assert omega[0] == ref_path / ((th - 1.0) ** 2 + 0.1)


# -- rehearsal mixing -----------------------------------------------------------------

def test_nr_counts_examples():
    assert nr_counts([100], 0.5) == [50]
    assert nr_counts([100, 60], 0.75) == [75, 45]
    assert sum(nr_counts([100, 60], 0.75)) + 80 == 200
    assert nr_counts([7, 3, 11], 1.0) == [7, 3, 11]


def test_nr_counts_ceil_and_float_guard():
    assert nr_counts([10], 0.55) == [6]  # ceil(5.5)
    assert nr_counts([10], 0.1) == [1]  # 0.1*10 is 1 + float noise, not 2
    assert nr_counts([1], 0.01) == [1]  # ceil never returns 0 for nonempty tasks


def kw_refs(kw, n):
    return [ClipRef(kw, f"{kw}/clip{i:04d}.wav") for i in range(n)]


def test_nr_mix_composition():
    d1, d2 = kw_refs("a", 10), kw_refs("b", 6)
    d_t = kw_refs("c", 4)
    mixed = nr_mix([d1, d2], d_t, xi=0.5, seed=0, task_id=3)
    assert len(mixed) == 5 + 3 + 4
    assert len(set(mixed)) == len(mixed)
    assert sum(1 for r in mixed if r in set(d1)) == 5
    assert sum(1 for r in mixed if r in set(d2)) == 3
    assert all(r in set(mixed) for r in d_t)


def test_nr_mix_xi_one_everything_once():
    d1, d2 = kw_refs("a", 3), kw_refs("b", 2)
    d_t = kw_refs("c", 2)
    mixed = nr_mix([d1, d2], d_t, xi=1.0, seed=5, task_id=2)
    assert sorted(r.uri for r in mixed) == sorted(r.uri for r in d1 + d2 + d_t)


def test_nr_mix_subsets_stable_across_later_tasks():
    d1, d2 = kw_refs("a", 12), kw_refs("b", 8)
    at_task2 = nr_mix([d1], kw_refs("x", 3), xi=0.5, seed=9, task_id=2)
    at_task3 = nr_mix([d1, d2], kw_refs("y", 3), xi=0.5, seed=9, task_id=3)
    picked_then = {r for r in at_task2 if r.keyword == "a"}
    picked_now = {r for r in at_task3 if r.keyword == "a"}
    assert picked_then == picked_now


@pytest.mark.parametrize("seed", [0, 3])
def test_nr_mix_keeps_task0_in_order(seed):
    """With no history there is nothing to replay, so task 0 trains on D_t
    in the order finetune's does."""
    d_t = kw_refs("a", 7)
    assert nr_mix([], d_t, xi=0.75, seed=seed, task_id=0) == kw_refs("a", 7)


def test_nr_mix_deterministic_and_seed_sensitive():
    d1 = kw_refs("a", 10)
    d_t = kw_refs("b", 5)
    a = nr_mix([d1], d_t, 0.5, seed=1, task_id=1)
    b = nr_mix([d1], d_t, 0.5, seed=1, task_id=1)
    assert a == b
    c = nr_mix([d1], d_t, 0.5, seed=2, task_id=1)
    assert a != c


# -- gradient projection ---------------------------------------------------------------

def test_gem_feasible_passthrough():
    g = np.array([1.0, 0.0])
    out, info = gem_project(g, np.array([[0.0, 1.0]]))
    assert out is g
    assert info == {"projected": False, "converged": True, "iters": 0}


def test_gem_empty_constraints():
    g = np.array([1.0, -1.0])
    out, info = gem_project(g, np.empty((0, 2)))
    assert out is g and not info["projected"]


def test_gem_halfspace_example():
    out, info = gem_project(np.array([1.0, -1.0]), np.array([[0.0, 1.0]]))
    assert info["projected"] and info["converged"]
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_gem_zero_rows_ignored():
    G = np.array([[0.0, 0.0], [-1.0, 0.0]])
    out, info = gem_project(np.array([1.0, 0.0]), G)
    assert info["converged"]
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


def test_gem_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        g = rng.standard_normal(d)
        G = rng.standard_normal((m, d))
        out, info = gem_project(g, G)
        assert info["converged"]
        ref = oracles.qp_project_enum(g, G)
        np.testing.assert_allclose(out, ref, atol=1e-6)
        assert np.min(G @ out) >= -1e-9
        if info["projected"]:
            checked += 1
    assert checked >= 10  # the sampler actually hits infeasible cases


def test_gem_nonfinite_rejected():
    with pytest.raises(ValueError):
        gem_project(np.array([np.nan]), np.array([[1.0]]))


def test_gem_degenerate_constraints_match_enumeration_oracle():
    """Singular Gram matrices: duplicated rows, opposite rows, and more
    constraints than gradient dimensions."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(30):
        d = int(rng.integers(2, 5))
        g = rng.standard_normal(d)
        a, c = rng.standard_normal((2, d))
        cases.append((g, np.stack([a, a, c])))
        cases.append((g, np.stack([a, -a, c])))
        cases.append((g, np.stack([a, 2.0 * a])))
        cases.append((g, rng.standard_normal((d + int(rng.integers(1, 3)), d))))
    projected = 0
    for g, G in cases:
        out, info = gem_project(g, G)
        assert info["converged"]
        assert info["iters"] < 3 * len(G) + 3  # no cycling up to the step bound
        np.testing.assert_allclose(out, oracles.qp_project_enum(g, G), atol=1e-6)
        assert np.min(G @ out) >= -1e-9
        projected += info["projected"]
    assert projected >= 40


def _dual_stuck_at_zero(h, b):
    return np.zeros(len(b)), 0


def test_gem_fallback_when_not_converged(monkeypatch):
    monkeypatch.setattr(strategies, "_solve_dual", _dual_stuck_at_zero)
    g = np.array([1.0, -1.0])
    out, info = gem_project(g, np.array([[0.0, 1.0]]))
    assert info == {"projected": True, "converged": False, "iters": 0}
    assert out is g


# -- strategy lifecycle on a real context ------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return micro_ctx()


def test_context_batch_and_bytes(ctx):
    task = ctx.stream.task(0)
    x, y = ctx.batch(task.train[:4], lambda r: ctx.stream.global_label(r.keyword))
    assert x.shape == (4, *FEATURE_SHAPE)
    assert y.shape == (4,)
    assert SAMPLE_BYTES == x[0].nbytes
    with pytest.raises(EmptyDataError):
        ctx.batch([], lambda r: 0)


def test_registry_builds_every_strategy(ctx):
    for name in ("finetune", "ewc", "si", "nr", "gem", "pcl", "standalone"):
        strat = make_strategy(micro_ctx(strategy=name)) if name == "pcl" else None
        # cheap path: reuse one context for the rest
        if strat is None:
            ctx2 = TrainContext(
                cfg=micro_config(strategy=name),
                features=ctx.features,
            )
            strat = make_strategy(ctx2)
        assert strat.name == name


def test_global_head_eval_slices_logits(ctx):
    ft = FineTune(ctx)
    task = ctx.stream.task(1)
    x, y = ctx.batch(task.test, lambda ref: task.local_label(ref.keyword))
    logits = ft.eval_logits(1)(x)
    assert logits.shape == (len(task.test), task.n_keywords)
    assert set(int(v) for v in y) <= set(range(task.n_keywords))

    full = ft.model(Tensor(x), training=False).data
    allowed = [ctx.stream.global_label(kw) for kw in task.keywords]
    np.testing.assert_array_equal(logits, full[:, allowed])


def test_grad_probe_leaves_no_side_effects(ctx):
    ft = FineTune(ctx)
    refs = ctx.stream.task(0).train[:4]
    before_params = ft.model.params.flatten()
    before_stats = {
        s.name: s.tensor.data.copy() for s in ft.model.params.segments if not s.trainable
    }
    g1 = ft._grad_on(refs)
    g2 = ft._grad_on(refs)
    np.testing.assert_array_equal(g1, g2)
    assert np.all(ft.model.params.grad_vector() == 0.0)
    np.testing.assert_array_equal(ft.model.params.flatten(), before_params)
    for s in ft.model.params.segments:
        if not s.trainable:
            np.testing.assert_array_equal(s.tensor.data, before_stats[s.name])


def test_ewc_lifecycle(ctx):
    ewc = Ewc(ctx)
    g_kws = np.ones(ewc.model.params.trainable_count)
    g, value = ewc.post_batch(g_kws)
    assert g is g_kws and value == 0.0  # no anchor yet
    assert [n for n, _ in ewc.checkpoint_items()] == ["model"]

    task0 = ctx.stream.task(0)
    ewc.after_task(task0)
    assert ewc.anchor is not None
    assert np.all(ewc.omega >= 0.0)
    assert np.any(ewc.omega > 0.0)
    assert ewc.post_batch(g_kws)[1] == 0.0  # still at the anchor
    assert [n for n, _ in ewc.checkpoint_items()] == ["model", "ewc_state"]

    theta = ewc.model.params.flatten()
    ewc.model.params.unflatten(theta + 1e-3)
    g, value = ewc.post_batch(g_kws)
    assert g is g_kws  # the pull is a proximal step in post_step, not a gradient
    assert value > 0.0
    assert value == quadratic_penalty(theta + 1e-3, ewc.anchor, ewc.omega, ewc.lam)[0]
    ewc.post_step(g_kws, np.zeros_like(g_kws))
    sgd = ctx.cfg.sgd
    k = sgd.learning_rate / (1.0 - sgd.momentum) * ewc.lam * ewc.omega
    pulled = ewc.model.params.flatten()
    np.testing.assert_array_equal(pulled, (theta + 1e-3 + k * ewc.anchor) / (1.0 + k))
    # it minimizes the penalty plus the distance to the step's weights, at step lr/(1 - momentum)
    np.testing.assert_allclose(pulled - (theta + 1e-3),
                               -sgd.learning_rate / (1.0 - sgd.momentum)
                               * quadratic_penalty(pulled, ewc.anchor, ewc.omega, ewc.lam)[1],
                               rtol=1e-9, atol=1e-15)
    ewc.model.params.unflatten(theta)

    omega_before = ewc.omega.copy()
    ewc.after_task(ctx.stream.task(1))
    assert np.all(ewc.omega >= omega_before)  # accumulation never shrinks


def test_ewc_fisher_sample_cap(ctx):
    ctx2 = TrainContext(
        cfg=micro_config(strategy="ewc", **{"ewc.fisher_samples": 3}),
        features=ctx.features,
    )
    ewc = Ewc(ctx2)
    seen = []
    ewc.fisher = lambda refs: (seen.append(len(refs)), np.zeros(ewc.model.params.trainable_count))[1]
    ewc.after_task(ctx.stream.task(0))
    assert seen == [3]


def test_si_consolidate_without_steps_warns(ctx):
    si = Si(ctx)
    with pytest.warns(RuntimeWarning):
        si.after_task(ctx.stream.task(0))
    assert np.all(si.omega == 0.0)
    assert si.anchor is not None


def test_si_post_step_feeds_path(ctx):
    si = Si(ctx)
    n = si.model.params.trainable_count
    g = np.full(n, 0.5)
    si.post_step(g, np.full(n, -0.2))
    assert si.omega.sum() == 0.0
    np.testing.assert_allclose(si.path.tensor.data, 0.1)


def test_si_consolidate_with_a_zero_path_warns(ctx):
    """Steps that add nothing to the path integral leave importance as it is."""
    si = Si(ctx)
    n = si.model.params.trainable_count
    si.post_step(np.zeros(n), np.full(n, -0.2))
    si.post_step(np.full(n, 0.5), np.zeros(n))
    omega = si.omega.copy()
    with pytest.warns(RuntimeWarning, match="zero path integral"):
        si.after_task(ctx.stream.task(0))
    assert si.omega.tobytes() == omega.tobytes()


def test_si_path_is_a_non_trainable_segment_of_every_handle(ctx):
    si = Si(ctx)
    assert not si.path.trainable
    for task in ctx.stream.tasks:
        assert si.before_task(task).params.segments == [*si.model.params.segments, si.path]


def test_gem_buffer_quota_and_budget(ctx):
    def with_buffer(buf):
        ctx2 = TrainContext(
            cfg=micro_config(strategy="gem", **{"gem.buffer": buf}),
            features=ctx.features,
        )
        return Gem(ctx2)

    gem = with_buffer(3)  # 3 tasks -> quota 1 each
    for t in range(3):
        gem.after_task(ctx.stream.task(t))
    assert [len(b) for b in gem.buffers] == [1, 1, 1]
    assert gem.accounting().buffer_bytes == 3 * SAMPLE_BYTES

    gem = with_buffer(1)  # budget exhausted after the first task
    for t in range(3):
        gem.after_task(ctx.stream.task(t))
    assert [len(b) for b in gem.buffers] == [1, 0, 0]


def test_gem_post_batch_projects_against_buffer(ctx, monkeypatch):
    gem = Gem(
        TrainContext(
            cfg=micro_config(strategy="gem"),
            features=ctx.features,
        )
    )
    g = np.ones(gem.model.params.trainable_count)
    out, penalty = gem.post_batch(g)
    assert out is g and penalty == 0.0  # no buffers yet

    gem.after_task(ctx.stream.task(0))
    gb = gem._grad_on(gem.buffers[0])
    out, penalty = gem.post_batch(-gb)
    assert gem.projections == 1 and gem.fallbacks == 0
    assert float(gb @ out) >= -1e-9 and penalty == 0.0

    monkeypatch.setattr(strategies, "_solve_dual", _dual_stuck_at_zero)
    with pytest.warns(RuntimeWarning):
        out, _ = gem.post_batch(-gb)
    assert gem.fallbacks == 1
    np.testing.assert_array_equal(out, -gb)


def test_pcl_eval_before_learning(ctx):
    pcl = Pcl(
        TrainContext(
            cfg=micro_config(strategy="pcl"),
            features=ctx.features,
        )
    )
    pcl.eval_logits(0)  # task 0 routes through the base model
    with pytest.raises(UnknownTaskError):
        pcl.eval_logits(1)


@pytest.mark.parametrize("name", STRATEGIES)
def test_eval_logits_span_the_task_keywords(name, monkeypatch):
    """Every evaluated batch, mid-task and end-of-task, has one column per
    keyword of the task it is scored against."""
    real_evaluate = trainer.evaluate
    seen = []

    def checked(logits, task, ctx):
        def columns_checked(x):
            out = logits(x)
            assert out.shape == (x.shape[0], task.n_keywords)
            seen.append(task.task_id)
            return out

        return real_evaluate(columns_checked, task, ctx)

    monkeypatch.setattr(trainer, "evaluate", checked)
    report = trainer.run(micro_config(strategy=name, eval_every=1))
    assert set(seen) == set(range(len(report.matrix)))


# -- full micro runs ---------------------------------------------------------------------

def ckpt_payload(out_dir, task_id, name):
    path = os.path.join(out_dir, "checkpoints", f"task{task_id}", f"{name}.ckpt")
    _, segments = ad.load_checkpoint(path)
    return [(s.name, s.tensor.data.tobytes()) for s in segments]


def test_pcl_run_freezes_subnets(micro_run):
    report, out = micro_run("pcl")
    assert ckpt_payload(out, 1, "subnet1") == ckpt_payload(out, 2, "subnet1")
    assert ckpt_payload(out, 1, "model") != ckpt_payload(out, 2, "model")  # encoder moved


def test_pcl_run_linear_param_growth(micro_run):
    report, _ = micro_run("pcl")
    sizes = report.extras["pcl_subnet_params"]
    assert set(sizes) == {"1", "2"}
    inc = report.extra_params_by_task
    assert inc[0] == 0
    assert inc[1] == sizes["1"]
    assert inc[2] == sizes["1"] + sizes["2"]
    assert sizes["1"] == sizes["2"]  # both tasks have the same keyword count
    assert report.extra_params == inc[-1]


def test_pcl_run_scaled_channels(micro_run):
    report, _ = micro_run("pcl")
    # alpha = 2/3: round-half-up maps (16, 48) to (11, 32)
    assert report.extras["pcl_subnet_channels"] == {"1": [11, 32], "2": [11, 32]}
    expected = count_parameters(
        instantiate_subnet(
            c_t=2, cfg=ScalingConfig(mu=1.0, c0=3), c_in=24, fixed=False, seed=0
        ).params
    )
    assert report.extras["pcl_subnet_params"]["1"] == expected


def test_pcl_fixed_increment_is_full_subnet(micro_run):
    report, _ = micro_run("pcl", **{"pcl.fixed": True})
    expected = count_parameters(
        instantiate_subnet(
            c_t=2, cfg=ScalingConfig(mu=1.0, c0=3), c_in=24, fixed=True, seed=0
        ).params
    )
    assert report.extras["pcl_subnet_params"] == {"1": expected, "2": expected}


def test_pcl_freeze_shared_zero_bwt(micro_run):
    report, _ = micro_run("pcl", **{"pcl.freeze_shared": True})
    assert report.bwt == 0.0


def trained(monkeypatch, strategy, features=None, **overrides):
    """A micro run's report and strategy object, after its last task."""
    built = []

    def keep(ctx):
        built.append(make_strategy(ctx))
        return built[-1]

    monkeypatch.setattr(trainer, "make_strategy", keep)
    report = trainer.run(micro_config(strategy=strategy, **overrides), features=features)
    return report, built[0]


def test_pcl_task0_column_is_the_pretrained_model(monkeypatch):
    _, pcl = trained(monkeypatch, "pcl")
    x, _ = pcl.ctx.batch(pcl.ctx.stream.task(0).test, lambda ref: 0)
    expected = pcl.model(Tensor(x), training=False).data
    assert pcl.eval_logits(0)(x).tobytes() == expected.tobytes()


def test_pcl_freeze_shared_skips_encoder_backward(monkeypatch):
    """With the encoder frozen, incremental tasks leave its grads untouched."""
    real_before, real_after = Pcl.before_task, Pcl.after_task
    snapshots, checked = {}, []

    def encoder_grads(pcl):
        return [None if s.tensor.grad is None else s.tensor.grad.copy()
                for s in pcl.model.encoder_segments]

    def before(self, task):
        snapshots[task.task_id] = encoder_grads(self)
        return real_before(self, task)

    def after(self, task):
        if not task.is_pretrain:
            for old, new in zip(snapshots[task.task_id], encoder_grads(self)):
                assert (old is None and new is None) or np.array_equal(old, new)
            checked.append(task.task_id)
        return real_after(self, task)

    monkeypatch.setattr(Pcl, "before_task", before)
    monkeypatch.setattr(Pcl, "after_task", after)
    _, pcl = trained(monkeypatch, "pcl", **{"pcl.freeze_shared": True})
    assert checked == [1, 2]
    assert not any(s.tensor.requires_grad for s in pcl.model.encoder_segments)


def test_standalone_zero_bwt(micro_run):
    report, _ = micro_run("standalone")
    assert report.bwt == 0.0
    assert report.extra_params > 0  # per-task models beyond the first


def task0_segments(out_dir, name):
    _, segments = ad.load_checkpoint(
        os.path.join(out_dir, "checkpoints", "task0", f"{name}.ckpt"))
    return [(s.name, s.trainable, s.tensor.data.tobytes()) for s in segments]


@pytest.mark.parametrize("strategy, same_as, names", [
    ("standalone", "pcl", ("model0", "model")),
    ("nr", "finetune", ("model", "model")),
])
def test_task0_trains_as_its_pretraining_class(micro_run, strategy, same_as, names):
    """What a sweep's shared task 0 assumes: alone, each strategy ends task 0
    with the network its pretraining class trains, bit for bit."""
    _, out = micro_run(strategy)
    _, reference = micro_run(same_as)
    assert task0_segments(out, names[0]) == task0_segments(reference, names[1])


@pytest.mark.parametrize("strategy", ["ewc", "si"])
def test_an_anchor_penalty_at_lambda_zero_is_finetune(micro_run, strategy):
    """At weight 0 the anchor penalty adds exact zeros to every step's
    gradient and logged loss, so the run is finetune's, bit for bit."""
    plain, _ = micro_run("finetune")
    zero, _ = micro_run(strategy, **{f"{strategy}.lambda": 0.0})
    assert zero.matrix == plain.matrix
    assert zero.training_log == plain.training_log


def test_nr_run_accounts_buffer(micro_run):
    report, _ = micro_run("nr")
    stored = report.extras["nr_stored_samples"]
    task_sizes = [15, 10, 10]  # history holds all three tasks at 5 clips per keyword
    assert stored == sum(nr_counts(task_sizes, 0.75))
    assert report.buffer_bytes == stored * 40 * 98 * 8


@pytest.mark.parametrize("name", STRATEGIES)
def test_accounting_is_what_the_report_records(monkeypatch, ctx, name):
    report, strategy = trained(monkeypatch, name, features=ctx.features)
    accounting = strategy.accounting()
    assert accounting.extra_params == report.extra_params == report.extra_params_by_task[-1]
    assert accounting.buffer_bytes == report.buffer_bytes
    assert accounting.extras == report.extras
