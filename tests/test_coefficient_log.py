"""Coefficient adoption against a reference computed from the changes alone.

The engine keeps coefficient changes in a log that every coworker reads
lazily through a cursor, and trims the prefix that every cursor has passed.
The reference needs neither: an iteration of coworker k at boundary b uses
k's entry of the newest change sent at a time s with s + k's downlink delay
< b, or 1/K before any such change.  The configs are the tie-heavy ones of
``test_lazy_arrivals`` (a 1/8 time grid, downlink delays of 0 and 1/8), and
the log is trimmed once it holds two entries, so trims happen mid-run.
Rounds of any size run, each member adopting through its own cursor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afafed import network_sim
from afafed.model_core import LossKind, LossModel
from afafed.network_sim import SimulationEngine
from afafed.server import MixingConfig
from test_lazy_arrivals import tie_configs


class AdoptionLog:
    """Records every coefficient change and the coefficient each iteration used."""

    def __init__(self, engine):
        self.engine, self.changes, self.iterations = engine, [], []

    def on_aggregation(self, engine, record):
        if record.lambda_changed:
            self.changes.append((record.time, engine.server.lambdas.copy()))

    def on_iteration(self, cid, state):
        rt = self.engine.runtimes[cid]
        boundary = rt.cluster_anchor + (state.iter_k - rt.iters_left) * rt.iteration_duration
        self.iterations.append((cid, boundary, state.lambda_last))

    def reference(self, cid, boundary):
        delay = self.engine.runtimes[cid].link.downlink_delay
        used = 1.0 / len(self.engine.runtimes)
        for sent, lambdas in self.changes:
            if sent + delay < boundary:
                used = float(lambdas[cid])
        return used


def assert_cursors_index_the_log(engine):
    """A stopped run has dropped the prefix every cursor passed, and cursors
    index the log that is left."""
    cursors = [rt.coef_cursor for rt in engine.runtimes]
    assert min(cursors) == 0
    assert max(cursors) <= len(engine._coef_log)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tie_configs(), st.integers(1, 20))
def test_each_iteration_uses_the_newest_coefficient_that_arrived_before_it(config, more):
    kwargs, _, stop = config
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_sim, "_LOG_TRIM_MIN", 2)
        mp.setattr(network_sim, "_ROUND_MIN", 1)
        engine = SimulationEngine(model=LossModel(LossKind.QUADRATIC, 2), mixing=MixingConfig(),
                                  w0=np.zeros(2), **kwargs)
        log = AdoptionLog(engine)
        engine.observers.append(log)
        got = engine.run(**stop)
        assert_cursors_index_the_log(engine)
        # a second run() resumes from where the first stopped
        engine.run(aggregations=got.aggregations + more, horizon=got.final_time + 8.0)
        assert_cursors_index_the_log(engine)
    assert len(log.iterations) == sum(rt.state.t_local for rt in engine.runtimes)
    for cid, boundary, used in log.iterations:
        assert used == log.reference(cid, boundary), (cid, boundary)
