"""The benchmark's tracer wraps program functions by module and name.

Installing and removing its wrappers here makes a rename of a wrapped
function (such as ``trainer_sim.split_batch``) fail the unit suite
instead of the traced benchmark run.
"""

from pathlib import Path

from sessiondedup import reader, storage, trainer_sim

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_wraps_and_restores_every_layer_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    import workloads

    before = {
        (mod, name): getattr(mod, name)
        for mod, name in [
            (trainer_sim, "split_batch"),
            (trainer_sim, "sdd"),
            (trainer_sim, "pool"),
            (reader, "build_ikjt"),
            (storage, "decode_varints"),
        ]
    }
    tracer = tracing.Tracer()
    workloads.install(tracer)
    try:
        assert all(getattr(mod, name) is not f for (mod, name), f in before.items())
    finally:
        tracer.restore()
    assert all(getattr(mod, name) is f for (mod, name), f in before.items())
