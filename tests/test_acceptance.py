"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test exercises a protocol-level guarantee on a full configuration and
prints `criterion N [...]: PASS` (or FAIL) so the suite doubles as a release
checklist.  Tolerances are fixed here, not computed from the run.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from afafed.bounds import (
    BoundInputs,
    beta_max_admissible,
    bound_clipped_beta,
    bound_constant_beta,
    bound_scaled,
)
from afafed.coworker import AdaptiveConfig, UplinkPayload
from afafed.harness import metrics_csv_text, resolve_config, run_experiment
from afafed.model_core import (
    LossKind,
    LossModel,
    minibatch_gradient,
    quadratic_global_minimum,
    risk_arrays,
    smoothness_constant,
    uniform_weights,
)
from afafed.network_sim import (
    ArrivalProcess,
    CoworkerSetup,
    LinkModel,
    SimulationEngine,
)
from afafed.profiler import ProfilingLog, finalize, record_aggregation
from afafed.server import MixingConfig, ServerState, process_uplink
from afafed.stream_manager import StreamBuffer, admit, sample_minibatch
from reference_evaluation import reference_global_risk


def _verdict(n: int, name: str, ok: bool) -> bool:
    print(f"criterion {n:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    return ok


def _quad_shard(rng, n=16, d=2, noise=0.05):
    w_true = rng.standard_normal(d)
    X = rng.standard_normal((n, d))
    y = np.array([x @ w_true + noise * rng.standard_normal() for x in X])
    return X, y


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_plain_sgd_reduction():
    # single loss-free coworker, one-iteration clusters, pinned step size,
    # full-buffer minibatches, beta pinned to 1: the simulated trajectory
    # must equal a standalone SGD loop bitwise for 1000 steps
    eta, steps, seed = 0.05, 1000, 2
    rng = np.random.default_rng(13)
    shard = _quad_shard(rng, n=16, d=3)
    model = LossModel(LossKind.QUADRATIC, 3)
    setup = CoworkerSetup(
        shard=shard,
        link=LinkModel(p_loss=0.0, rate=1e6, payload_bits=64.0),
        iteration_duration=1.0 / 100.0,
        arrivals=ArrivalProcess(kind="trace", times=(0.0,) * 16),
        capacity=16, minibatch=16,
    )
    wbars = []
    eng = SimulationEngine(
        model=model, setups=[setup],
        adaptive=AdaptiveConfig(iter_max=1, eta_min=eta, eta_max=eta),
        mixing=MixingConfig(beta_min=1.0, beta_max=1.0),
        w0=np.zeros(3), seed=seed,
    )
    eng.observers.append(SimpleNamespace(
        on_aggregation=lambda engine, record: wbars.append(engine.server.w_global.copy())))
    eng.run(aggregations=steps)

    ref_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
    buf = StreamBuffer(*shard, capacity=16, minibatch_size=16)
    for _ in range(16):
        admit(buf)
    w = np.zeros(3)
    exact = 0
    for t in range(steps):
        w = w - eta * minibatch_gradient(model, w, *sample_minibatch(buf, ref_rng))
        exact += int(np.array_equal(w, wbars[t]))
    ok = exact == steps and np.array_equal(w, eng.server.w_global)
    assert _verdict(1, "plain-SGD reduction, bitwise", ok)


# ----------------------------------------------------------- criteria 2 and 3


BOUND_BETA = 0.05
BOUND_EPS = 0.5
BOUND_SEEDS = range(1, 21)


def _bound_workload(seed: int, minibatch: int, profiling: bool):
    cfg = resolve_config({
        "mixing": {"beta_min": BOUND_BETA, "beta_max": BOUND_BETA},
        "buffer": {"capacity": 64, "minibatch": minibatch},
        "sim": {"seed": seed, "T": 1000},
    })
    exp, result, estimates = run_experiment(cfg, enable_profiling=profiling)
    grads = np.array([r.grad_sqnorm for r in result.rows])
    return exp, grads, estimates


@pytest.mark.slow
def test_criterion_02_convergence_bound_dominates():
    # eight coworkers, constant admissible beta; the seed-averaged running
    # mean of the global gradient sqnorm must sit below the rate bound built
    # from analytic (zeta, F0, F*) and profiled (C, Gamma, A) constants
    horizons = (50, 200, 1000)
    measured = {T: [] for T in horizons}
    c_hats, g_hats, a_hats, zetas, f0s, fstars = [], [], [], [], [], []
    for seed in BOUND_SEEDS:
        exp, grads, est = _bound_workload(seed, minibatch=16, profiling=True)
        for T in horizons:
            measured[T].append(grads[:T].mean())
        assert est.c_hat is not None  # coherent descent on this workload
        c_hats.append(est.c_hat)
        g_hats.append(est.gamma_hat)
        a_hats.append(0.0 if est.a_hat is None else est.a_hat)
        uw = uniform_weights(len(exp.engine.runtimes))
        zetas.append(smoothness_constant(exp.engine.model, exp.engine.data))
        f0s.append(reference_global_risk(exp.engine.model, np.zeros(5), exp.engine.data, uw))
        fstars.append(quadratic_global_minimum(exp.engine.data, uw)[1])

    base = dict(zeta=float(np.mean(zetas)), f0=float(np.mean(f0s)),
                f_star=float(np.mean(fstars)), c=float(np.mean(c_hats)),
                gamma=float(np.mean(g_hats)), a=float(np.mean(a_hats)),
                epsilon=BOUND_EPS, beta_min=BOUND_BETA, beta_max=BOUND_BETA)
    admissible = beta_max_admissible(BoundInputs(horizon=50, **base))
    ok = BOUND_BETA <= admissible
    for T in horizons:
        bound = bound_constant_beta(BoundInputs(horizon=T, **base), BOUND_BETA)
        ok = ok and float(np.mean(measured[T])) <= bound
    assert _verdict(2, "rate bound dominates measured gradient decay", ok)


@pytest.mark.slow
def test_criterion_03_one_over_t_decay():
    # full-shard minibatches remove the sampling-noise floor; the running
    # mean must then contract like 1/T: value(1000) <= value(250)/4 * 1.2
    m250, m1000 = [], []
    for seed in BOUND_SEEDS:
        _, grads, _ = _bound_workload(seed, minibatch=64, profiling=False)
        m250.append(grads[:250].mean())
        m1000.append(grads.mean())
    ratio = float(np.mean(m1000)) / float(np.mean(m250))
    assert _verdict(3, "gradient average contracts at 1/T", ratio <= 0.25 * 1.2)


# ---------------------------------------------------------------- criterion 4


@pytest.mark.slow
def test_criterion_04_packet_loss_scaling_law():
    # homogeneous loss probability p: acceptance ratio tracks (1 - p) and the
    # aggregation count under a fixed horizon tracks the effective horizon
    def run_with_loss(p):
        rng = np.random.default_rng(77)
        model = LossModel(LossKind.QUADRATIC, 2)
        setups = [CoworkerSetup(
            shard=_quad_shard(rng),
            link=LinkModel(p_loss=p, rate=1e6, payload_bits=100.0),
            iteration_duration=1.0 / 100.0,
            arrivals=ArrivalProcess(kind="trace", times=(0.0,) * 16),
            capacity=16, minibatch=16,
        ) for _ in range(4)]
        eng = SimulationEngine(model=model, setups=setups,
                               adaptive=AdaptiveConfig(iter_max=2),
                               mixing=MixingConfig(), w0=np.zeros(2), seed=5)
        return eng.run(horizon=80.0)

    ok = True
    baseline = None
    for p in (0.0, 0.25, 0.5):
        res = run_with_loss(p)
        ok = ok and res.uplink_attempts >= 10_000
        ratio = (res.uplink_attempts - res.uplink_drops) / res.uplink_attempts
        ok = ok and abs(ratio - (1.0 - p)) <= 0.05 * (1.0 - p)
        if p == 0.0:
            baseline = res.aggregations
        else:
            expected = (1.0 - p) * baseline
            ok = ok and abs(res.aggregations - expected) <= 0.05 * expected
    assert _verdict(4, "acceptance scales with (1-p)", ok)


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_fairness_mechanics():
    # simplex invariant and Jain index bounds on every aggregation of a lossy
    # fuzz run; plus a rigged server where one coworker keeps overshooting
    # the upper threshold and must gain weight monotonically
    checks = {"events": 0, "ok": True}

    def watch(engine, record):
        checks["events"] += 1
        lam = engine.server.lambdas
        checks["ok"] &= abs(lam.sum() - 1.0) <= 1e-12
        k = lam.size
        checks["ok"] &= 1.0 / k - 1e-12 <= record.fairness_index <= 1.0 + 1e-12

    cfg = resolve_config({"link": {"p_loss": 0.2}, "sim": {"seed": 6, "T": None,
                                                           "event_budget": 10_000}})
    from afafed.harness import build_experiment
    exp = build_experiment(cfg)
    exp.engine.observers.append(SimpleNamespace(on_aggregation=watch))
    exp.engine.run(event_budget=10_000)
    fuzz_ok = checks["ok"] and checks["events"] > 100

    server = ServerState(w_global=np.zeros(2), lambdas=uniform_weights(4))
    mixing = MixingConfig()
    lam0_path = [server.lambdas[0]]
    for round_idx in range(12):
        payload = UplinkPayload(sender=0, w=np.zeros(2),
                                mu_bar=10.0 ** (round_idx + 1),
                                timestamp=server.t, iters_in_cluster=1)
        process_uplink(server, payload, mixing, float(round_idx))
        lam0_path.append(server.lambdas[0])
    rigged_ok = all(b > a for a, b in zip(lam0_path, lam0_path[1:]))
    rigged_ok = rigged_ok and lam0_path[-1] < 1.0
    assert _verdict(5, "simplex invariant and threshold boost", fuzz_ok and rigged_ok)


# ---------------------------------------------------------------- criterion 6


@pytest.mark.slow
def test_criterion_06_throughput_maximization():
    # arrivals at a tenth of the iteration rate with capacity 2|MB|: after
    # the initial warmup there are no not-ready stalls, and per-coworker
    # throughput reaches the compute-bound maximum within 1%
    rng = np.random.default_rng(78)
    model = LossModel(LossKind.QUADRATIC, 2)
    dur, mb, horizon = 1e-3, 16, 60.0
    setups = [CoworkerSetup(
        shard=_quad_shard(rng),
        link=LinkModel(p_loss=0.0, rate=1e8, payload_bits=100.0),
        iteration_duration=1.0 / 1000.0,
        arrivals=ArrivalProcess(kind="poisson", rate=0.1 / dur),
        capacity=2 * mb, minibatch=mb,
    ) for _ in range(2)]
    eng = SimulationEngine(model=model, setups=setups,
                           adaptive=AdaptiveConfig(iter_max=5),
                           mixing=MixingConfig(), w0=np.zeros(2), seed=11)
    # the first cluster starts at the arrival that warms the buffer up
    first_ready = {}

    def first_cluster_start(cid, state):
        if state.t_local == 1:
            first_ready[cid] = eng.runtimes[cid].cluster_anchor

    eng.observers.append(SimpleNamespace(on_iteration=first_cluster_start))
    res = eng.run(horizon=horizon)
    ok = res.iterations_total >= 100_000
    for cid, rt in enumerate(eng.runtimes):
        ok = ok and rt.cluster_token > 0  # the one stall is the warm-up
        ideal = (horizon - first_ready[cid]) / dur
        ok = ok and rt.state.t_local >= 0.99 * ideal
    assert _verdict(6, "stall-free streaming at compute-bound rate", ok)


# ---------------------------------------------------------------- criterion 7


def _spiky_trace(bias: float, samples: int, seed: int) -> ProfilingLog:
    # sparse orthogonal spikes: mean-zero noise with variance 0.2 that leaves
    # the alignment estimate untouched (spikes are orthogonal to the signal)
    d, p_spike = 6, 0.005
    r = np.sqrt(0.2 / p_spike)
    g = np.zeros(d)
    g[0] = 0.02
    rng = np.random.default_rng(seed)
    log = ProfilingLog(np.zeros(d))
    for _ in range(samples):
        noise = np.zeros(d)
        if rng.random() < p_spike:
            noise[1] = r if rng.random() < 0.5 else -r
        record_aggregation(log, bias * g + noise, g)
    return log


def test_criterion_07_profiler_fidelity():
    biased = finalize(_spiky_trace(bias=1.5, samples=10_000, seed=20260814))
    ok = biased.feasible == (True, True, True)
    ok = ok and biased.c_hat is not None and abs(biased.c_hat - 1.5) <= 0.075
    ok = ok and biased.a_hat is not None and biased.a_hat >= 0.19

    unbiased = finalize(_spiky_trace(bias=1.0, samples=10_000, seed=915))
    ok = ok and unbiased.c_hat is not None and abs(unbiased.c_hat - 1.0) <= 0.05

    anti = ProfilingLog(np.zeros(2))
    g = np.array([1.0, 0.0])
    for _ in range(50):
        record_aggregation(anti, -g, g)
    gated = finalize(anti)
    ok = ok and gated.feasible[0] is False
    ok = ok and gated.c_hat is None and gated.gamma_hat is None and gated.a_hat is None
    assert _verdict(7, "noise constants recovered, infeasible gated", ok)


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_determinism():
    cfg = resolve_config({"link": {"p_loss": 0.3}, "sim": {"seed": 123, "T": 40}})
    texts = []
    for _ in range(2):
        _, result, _ = run_experiment(cfg)
        texts.append(metrics_csv_text(result.rows).encode("utf-8"))
    assert _verdict(8, "byte-identical metrics on repeat", texts[0] == texts[1])


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_gradient_oracle():
    rng = np.random.default_rng(1818)
    worst = 0.0
    for trial in range(100):
        kind = LossKind.QUADRATIC if trial % 2 == 0 else LossKind.LOGISTIC
        d = 1 + trial % 7
        model = LossModel(kind, d)
        n = 1 + trial % 5
        X = rng.standard_normal((n, d))
        y = (rng.standard_normal(n) if kind is LossKind.QUADRATIC
             else rng.integers(0, 2, size=n).astype(np.float64))
        w = rng.standard_normal(d)
        analytic = minibatch_gradient(model, w, X, y)
        fd = np.zeros(d)
        for j in range(d):
            h = 1e-6 * (1.0 + abs(w[j]))
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (risk_arrays(model, wp, X, y) - risk_arrays(model, wm, X, y)) / (2 * h)
        scale = max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, np.linalg.norm(analytic - fd) / scale)
    assert _verdict(9, "finite-difference gradient agreement", worst <= 1e-5)


# --------------------------------------------------------------- criterion 10


def test_criterion_10_bound_calculator_self_consistency():
    base = dict(zeta=2.0, f0=1.5, f_star=0.5, c=0.5, gamma=1.0, a=1.0,
                epsilon=0.5, horizon=100)
    pinned = BoundInputs(beta_min=0.05, beta_max=0.05, **base)
    clipped = bound_clipped_beta(pinned)
    constant = bound_constant_beta(pinned, 0.05)
    ok = abs(clipped - constant) <= 1e-12 * abs(constant)

    ranged = BoundInputs(beta_min=0.01, beta_max=0.1, **base)
    scaled = bound_scaled(ranged, c0=0.5, gamma0=1.0, a0=1.0,
                          sigma_sq_bar=1.0, i_bar=1.0, i2_bar=1.0)
    ok = ok and abs(scaled.bound - bound_clipped_beta(ranged)) <= 1e-12 * scaled.bound

    with pytest.raises(ValueError, match="i_bar"):
        bound_scaled(ranged, c0=0.5, gamma0=1.0, a0=1.0,
                     sigma_sq_bar=1.0, i_bar=1.0, i2_bar=0.8)
    assert _verdict(10, "bound variants agree at pinned points", ok)
