"""Out-of-program tracing: wrap saldl's public functions where callers find them.

Each target is replaced, for the duration of ``Tracer.installed``, by a
wrapper that records one span per call (id, parent id, layer, unit, start,
end, self time) into flat arrays kept in memory. Self time is the span's
duration minus the durations of the wrapped calls made inside it. Nothing
in ``src/`` changes: a wrapper sits at the attribute its caller resolves
(``saldl.trainer.backward_step`` for ``train_sav``, ``saldl.cli.load_csv``
for the CLI), so it observes exactly the calls the program makes.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from perfbench.workloads import arm_name

SETUP_UNIT = 0


def _path_arg(index: int, name: str):
    """After-call hook that adds the size of a file argument to ``<layer>.bytes``."""
    def hook(tracer, layer, args, kwargs, result, dur):
        path = args[index] if len(args) > index else kwargs[name]
        tracer.count(f"{layer}.bytes", os.path.getsize(path))
    return hook


def _train_sav_hook(tracer, layer, args, kwargs, result, dur):
    config = args[5] if len(args) > 5 else kwargs["config"]
    history = result[2]
    tracer.count(f"{layer}.time_s.{arm_name(config)}", dur)
    tracer.count("trainer.epochs", len(history))
    if config.adapt_sigma or config.adapt_alpha:
        # every epoch after the first starts from a proposal; a snapshot
        # in such an epoch is the proposal being accepted
        tracer.count("trainer.proposals", max(len(history) - 1, 0))
        tracer.count("trainer.accepted",
                     sum(r.snapshot for r in history.records if r.epoch > 0))


# (module, attribute path, layer name, hook). The same layer may be bound
# at several names when more than one caller resolves it.
TARGETS = (
    ("saldl.trainer", "train_sav", "trainer.train_sav", _train_sav_hook),
    ("saldl.cli", "train_sav", "trainer.train_sav", _train_sav_hook),
    ("saldl.trainer", "kl_gradient_sigma", "core.kl_gradient_sigma", None),
    ("saldl.trainer", "backward_step", "model.backward_step", None),
    ("saldl.model", "forward_batch", "model.forward_batch", None),
    ("saldl.trainer", "predict_ages", "model.predict_ages", None),
    ("saldl.cli", "predict_ages", "model.predict_ages", None),
    ("saldl.model", "Model.copy", "model.Model.copy", None),
    ("saldl.cli", "load_csv", "data.load_csv", _path_arg(0, "path")),
    ("saldl.cli", "save_csv", "data.save_csv", _path_arg(1, "path")),
    ("saldl.data", "generate_synthetic", "data.generate_synthetic", None),
    ("saldl.cli", "generate_synthetic", "data.generate_synthetic", None),
    ("saldl.data", "split", "data.split", None),
    ("saldl.cli", "split", "data.split", None),
    ("saldl.data", "Dataset.features_matrix", "data.Dataset.features_matrix", None),
    ("saldl.cli", "kmeans_1d", "staging.kmeans_1d", None),
    ("saldl.cli", "cmd_gen_data", "cli.cmd_gen_data", None),
    ("saldl.cli", "cmd_stage", "cli.cmd_stage", None),
    ("saldl.cli", "cmd_train", "cli.cmd_train", None),
    ("saldl.cli", "cmd_eval", "cli.cmd_eval", None),
    ("saldl.cli", "save_checkpoint", "trainer.save_checkpoint", _path_arg(0, "path")),
    ("saldl.cli", "load_checkpoint", "trainer.load_checkpoint", _path_arg(0, "path")),
    ("saldl.cli", "compute_metrics", "evaluation.compute_metrics", None),
    ("saldl.evaluation", "mae", "evaluation.mae", None),
)


def resolve(module: str, attr_path: str):
    """(owner object, attribute name) for ``module`` + dotted ``attr_path``."""
    owner = importlib.import_module(module)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counts for the calls into saldl's layers, held in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.unit = SETUP_UNIT
        self._next_id = 0
        self._stack: list[list] = []
        self.span_id = array("q")
        self.parent = array("q")
        self.layer = array("q")
        self.span_unit = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def count(self, name: str, value: float) -> None:
        self.counters[self.unit][name] += value

    def _enter(self) -> tuple[list, int]:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, layer_id, t0, t1) -> float:
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.span_id.append(frame[0])
        self.parent.append(parent)
        self.layer.append(layer_id)
        self.span_unit.append(self.unit)
        self.start.append(t0)
        self.end.append(t1)
        self.self_s.append(dur - frame[1])
        return dur

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself, e.g. around one unit."""
        layer_id = self._layer_id(layer)
        frame, parent = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, parent, layer_id, t0, time.perf_counter())

    def _wrap(self, fn, layer: str, hook):
        layer_id = self._layer_id(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame, parent = self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame, parent, layer_id, t0, clock())
            if hook is not None:
                hook(self, layer, args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, unit: int):
        """Wrap every target while the block runs; spans carry ``unit``.

        The originals are put back on exit, also when the block raises.
        """
        self.unit = unit
        saved = []
        try:
            for module, attr_path, layer, hook in self.targets:
                owner, attr = resolve(module, attr_path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.unit = SETUP_UNIT

    def layer_metrics(self, n_units: int) -> dict[str, float]:
        """``<layer>.calls``, ``.time_s`` and ``.self_s`` plus the counters.

        Set-up spans (unit 0) count once; unit spans are averaged over the
        ``n_units`` traced units, so each value reads "per set-up plus per
        unit".
        """
        layer = np.frombuffer(self.layer, dtype=np.int64)
        unit = np.frombuffer(self.span_unit, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_s = np.frombuffer(self.self_s)
        weight = np.where(unit == SETUP_UNIT, 1.0, 1.0 / max(n_units, 1))
        out: dict[str, float] = {}
        for layer_id, name in enumerate(self.layers):
            mask = layer == layer_id
            out[f"{name}.calls"] = float(weight[mask].sum())
            out[f"{name}.time_s"] = float((weight * dur)[mask].sum())
            out[f"{name}.self_s"] = float((weight * self_s)[mask].sum())
        for unit_id, counters in self.counters.items():
            scale = 1.0 if unit_id == SETUP_UNIT else 1.0 / max(n_units, 1)
            for name, value in counters.items():
                out[name] = out.get(name, 0.0) + value * scale
        return out

    def save(self, path) -> None:
        """Write every span to one ``.npz`` file."""
        np.savez(path, span_id=np.frombuffer(self.span_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 layer=np.frombuffer(self.layer, dtype=np.int64),
                 unit=np.frombuffer(self.span_unit, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 self_s=np.frombuffer(self.self_s),
                 layers=np.array(self.layers))
