"""The benchmark tracer still finds every iteration-layer function it wraps.

``perfbench/tracer.py`` wraps library functions by name; a function that is
renamed or inlined away is only listed in ``Tracer.absent`` and its per-layer
metrics silently read 0.  This runs a tiny engine under the tracer and checks
that the iteration layer is still seen, call for call, and that the only
functions the tracer misses are the two it is known to miss.
"""

from pathlib import Path

import numpy as np

from afafed.coworker import AdaptiveConfig
from afafed.model_core import LossKind, LossModel
from afafed.network_sim import (
    ArrivalProcess,
    CoworkerSetup,
    Evaluation,
    LinkModel,
    SimulationEngine,
)
from afafed.server import MixingConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ITERATION_HOOKS = (
    "coworker.run_single_iteration",
    "stream_manager.sample_minibatch",
    "stream_manager.evict_oldest_if_surplus",
    "model_core.minibatch_gradient",
    "coworker.handle_fairness_broadcast",
)

# wrapped by the tracer but deleted from the library (see ROADMAP, benchmark upkeep);
# the engine evaluates through GlobalEvaluator, so the two global_* metrics
# read 0 with or without these functions
KNOWN_ABSENT = {
    "coworker.handle_timer_expiry",
    "model_core.stack_examples",
    "model_core.global_risk_arrays",
    "model_core.global_gradient_arrays",
}


def tiny_engine(every=0):
    """A three-coworker engine, with an Evaluation of every ``every``-th row if every > 0."""
    rng = np.random.default_rng(5)
    setups = [
        CoworkerSetup(
            shard=(rng.standard_normal((10, 2)), rng.standard_normal(10)),
            link=LinkModel(p_loss=0.2, rate=100.0, payload_bits=10.0, downlink_delay=0.01),
            iteration_duration=10.0 / (10.0 * (cid + 1)),
            arrivals=ArrivalProcess(kind="poisson", rate=20.0),
            capacity=8,
            minibatch=4,
        )
        for cid in range(3)
    ]
    engine = SimulationEngine(model=LossModel(LossKind.QUADRATIC, 2), setups=setups,
                              adaptive=AdaptiveConfig(iter_max=4), mixing=MixingConfig(),
                              w0=np.zeros(2), seed=7)
    if every:
        engine.observers.append(Evaluation(engine, every))
    return engine


def test_tracer_sees_every_iteration_layer_call(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    with Tracer() as tracer:
        result = tiny_engine().run(aggregations=30)
    missing = [name for name in ITERATION_HOOKS if name in tracer.absent]
    assert not missing, f"the tracer no longer finds {missing}"
    metrics = tracer.metrics()
    assert result.iterations_total > 0
    assert metrics["coworker.iterations"][0] == result.iterations_total
    assert metrics["stream_manager.samples"][0] == result.iterations_total
    assert metrics["model_core.minibatch_grads"][0] == result.iterations_total
    assert metrics["coworker.broadcasts_applied"][0] > 0


def test_tracer_misses_only_the_known_absent_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    with Tracer() as tracer:
        result = tiny_engine(every=1).run(aggregations=10)
    assert all(row.global_risk is not None for row in result.rows)
    assert set(tracer.absent) == KNOWN_ABSENT
