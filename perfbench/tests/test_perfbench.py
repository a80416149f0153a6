"""The benchmark's own tests: tracing only observes, and the checks catch
bad outputs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from saldl import trainer

from perfbench.checks import check_history, check_test_mae
from perfbench.tracer import TARGETS, Tracer, resolve
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())
# names the traced run adds beyond Tracer.layer_metrics
RUN_METRICS = {"trainer.accept_ratio", "unit.untraced_s", "unit.traced_s",
               "trace.overhead_ratio"}


def _small(name):
    """The named workload cut down to seconds: fewer epochs, less data."""
    workload = WORKLOADS[name]
    if name == "ablation-cli-large":
        return dataclasses.replace(workload, epochs=2, n_per_label=8)
    return dataclasses.replace(workload, epochs=4)


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Per workload: an untraced and a traced unit on one data seed, and
    the traced unit's layer metrics."""
    pairs = {}
    for name in sorted(WORKLOADS):
        workload = _small(name)
        work_dir = tmp_path_factory.mktemp(name)
        tracer = Tracer()
        with tracer.installed(0):
            inputs = workload.setup([3], work_dir)
        plain = workload.run_unit(inputs[0], work_dir)
        with tracer.installed(1):
            traced = workload.run_unit(inputs[0], work_dir, lambda: tracer.span("unit"))
        pairs[name] = (plain, traced, tracer.layer_metrics(1))
    return pairs


def test_traced_unit_gives_identical_outputs(traced_pairs):
    for name, (plain, traced, metrics) in traced_pairs.items():
        assert not plain.failures and not traced.failures
        assert traced.fingerprint == plain.fingerprint, name
        assert traced.test_mae == plain.test_mae
        assert metrics["trainer.train_sav.calls"] > 0
        assert metrics["core.kl_gradient_sigma.calls"] > 0


def test_every_listed_per_layer_metric_is_produced(traced_pairs):
    produced = set(RUN_METRICS)
    for _, _, metrics in traced_pairs.values():
        produced |= set(metrics)
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
              ["per_layer"]}
    assert listed <= produced, sorted(listed - produced)


def test_originals_restored_even_on_error():
    before = [getattr(*resolve(module, attr)) for module, attr, _, _ in TARGETS]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(1):
            assert getattr(*resolve(*TARGETS[0][:2])) is not before[0]
            raise RuntimeError("boom")
    after = [getattr(*resolve(module, attr)) for module, attr, _, _ in TARGETS]
    assert all(a is b for a, b in zip(after, before))


def test_self_time_excludes_wrapped_children(monkeypatch):
    toy = types.ModuleType("toy_layers")

    def child(x):
        return sum(range(x))

    def parent(x):
        return toy.child(x) + toy.child(x)

    toy.child, toy.parent = child, parent
    monkeypatch.setitem(sys.modules, "toy_layers", toy)
    tracer = Tracer(targets=(("toy_layers", "parent", "toy.parent", None),
                             ("toy_layers", "child", "toy.child", None)))
    with tracer.installed(1):
        assert toy.parent(20000) == 2 * sum(range(20000))
    m = tracer.layer_metrics(1)
    assert m["toy.child.calls"] == 2 and m["toy.parent.calls"] == 1
    assert m["toy.parent.self_s"] == pytest.approx(
        m["toy.parent.time_s"] - m["toy.child.time_s"], abs=1e-12)
    # both child spans name the parent span as their cause
    parent_id = tracer.span_id[list(tracer.layer).index(tracer.layers.index("toy.parent"))]
    child_layer = tracer.layers.index("toy.child")
    assert [p for p, layer in zip(tracer.parent, tracer.layer) if layer == child_layer] \
        == [parent_id, parent_id]


def _record(epoch, best, snapshot, val=1.0):
    return {"epoch": epoch, "objective": 1.0, "total": 1.0, "kl": 1.0, "ce": 1.0,
            "mse": 1.0, "alpha_mean": 0.5, "val_l1": val, "val_mae": val,
            "snapshot": snapshot, "best_val_l1": best, "sigmas": [1.0], "alphas": [0.5]}


def test_history_check_flags_bad_histories():
    good = [_record(0, 3.0, True), _record(1, 3.0, False), _record(2, 2.0, True)]
    assert check_history("x", good) == []
    flat = [_record(0, 3.0, True), _record(1, 3.0, True)]
    assert any("strictly decreasing" in p for p in check_history("x", flat))
    nan = [_record(0, 3.0, True, val=float("nan"))]
    assert any("non-finite" in p for p in check_history("x", nan))
    assert check_history("x", [_record(0, 3.0, False)]) == ["x: no snapshot was taken"]


def test_mae_check_tolerates_reordered_sums_only():
    recorded = {"sav": 3.0}
    assert check_test_mae("x", {"sav": 3.0 * (1 + 1e-14)}, recorded, 1e-9) == []
    assert check_test_mae("x", {"sav": 3.001}, recorded, 1e-9)
    assert check_test_mae("x", {}, recorded, 1e-9)
    assert check_test_mae("x", {"sav": 3.0}, None, 1e-9)


def _nudge_sigma_gradient(monkeypatch):
    """Every sigma gradient one ulp up, as a reordered sum could leave it."""
    original = trainer.kl_gradient_sigma
    monkeypatch.setattr(trainer, "kl_gradient_sigma",
                        lambda *a, **kw: float(np.nextafter(original(*a, **kw), np.inf)))


def _nudge_weights(monkeypatch):
    """Every weight and bias one ulp up after each SGD step."""
    original = trainer.backward_step

    def step(*args, **kwargs):
        model, loss, stats = original(*args, **kwargs)
        for array in (*model.weights, *model.biases):
            array[...] = np.nextafter(array, np.inf)
        return model, loss, stats

    monkeypatch.setattr(trainer, "backward_step", step)


@pytest.mark.parametrize("nudge", [_nudge_sigma_gradient, _nudge_weights])
def test_mae_check_passes_rounding_level_changes(nudge, monkeypatch, tmp_path):
    """A full-length unit whose arithmetic differs by an ulp per step, as a
    vectorized kernel's would, still matches the recorded test MAE."""
    nudge(monkeypatch)
    name = "train-sigma-gradient"
    workload = WORKLOADS[name]
    unit = workload.run_unit(workload.setup([0], tmp_path)[0], tmp_path)
    recorded = EXPECTED["test_mae"][name]["0"]
    assert unit.failures == []
    assert unit.test_mae != recorded, "the nudge did not reach the output"
    assert check_test_mae(name, unit.test_mae, recorded, EXPECTED["rel_tol"]) == []
