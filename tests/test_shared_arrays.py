"""The engine shares arrays instead of copying them; no shared array is written.

``network_sim`` hands the same array to several holders: w0 to the server
and the profiling log, the server's model to downlinks and pending
evaluations, its coefficients to the coefficient log.  That is sound only
while a handed-on array is never written in place.  An observer makes each
of them read-only as soon as it is handed on, so an in-place write raises
ValueError, and the golden cases must still give their pinned digests.
"""

from __future__ import annotations

import pytest

from afafed import harness
from test_golden_trace import CASES, GOLDEN, fingerprint


class FreezeHandedOnArrays:
    """Observer that makes read-only every array the engine shares.

    It freezes ``engine.w0`` when attached (before the run), the server's
    model and coefficients after every aggregation, and a coworker's model
    after every iteration.
    """

    def __init__(self, engine) -> None:
        engine.w0.setflags(write=False)
        engine.observers.append(self)

    def on_aggregation(self, engine, record) -> None:
        engine.server.w_global.setflags(write=False)
        engine.server.lambdas.setflags(write=False)

    def on_iteration(self, cid, state) -> None:
        state.w.setflags(write=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cases_keep_their_digests_with_every_shared_array_frozen(name, monkeypatch):
    engines = []
    build = harness.build_experiment

    def build_frozen(cfg, enable_profiling=False):
        exp = build(cfg, enable_profiling=enable_profiling)
        FreezeHandedOnArrays(exp.engine)
        engines.append(exp.engine)
        return exp

    monkeypatch.setattr(harness, "build_experiment", build_frozen)
    # the trajectory and coworker-state digests, and every other pinned output
    assert fingerprint(CASES[name]) == GOLDEN[name]
    # the observer ran: the arrays the server holds at the end are frozen
    (engine,) = engines
    assert not engine.w0.flags.writeable
    assert not engine.server.w_global.flags.writeable
    assert not engine.server.lambdas.flags.writeable
