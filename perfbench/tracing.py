"""Spans around the package's public callables, installed from outside.

Every traced callable is replaced by a wrapper that records its duration
and its self time (duration minus the traced spans nested inside it).
Functions are patched in every ``toydiffusion`` module that holds them,
because a name imported with ``from .x import y`` is looked up in the
caller's namespace; methods are patched on their class.  Spans are kept in
memory and summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, span name).  The span name is the prefix of the
# per-layer metric names.
SPANS = (
    ("toydiffusion.train", "train", "train.train"),
    ("toydiffusion.train", "make_training_batch", "train.make_training_batch"),
    ("toydiffusion.train", "batch_loss_and_gradient", "train.batch_loss_and_gradient"),
    ("toydiffusion.train", "batch_loss", "train.batch_loss"),
    ("toydiffusion.train", "MLPDenoiser.build_inputs", "train.build_inputs"),
    ("toydiffusion.train", "TrainedDenoiser.predict_x0", "train.TrainedDenoiser.predict_x0"),
    ("toydiffusion.train", "TrainedDenoiser.predict_eps", "train.TrainedDenoiser.predict_eps"),
    ("toydiffusion.world", "sample_videos", "world.sample_videos"),
    ("toydiffusion.world", "ExactDenoiser.predict_x0", "world.ExactDenoiser.predict_x0"),
    ("toydiffusion.world", "LeakyDenoiser.predict_x0", "world.LeakyDenoiser.predict_x0"),
    ("toydiffusion.timenoise", "sample_beta", "timenoise.sample_beta"),
    ("toydiffusion.schedule", "perturb", "schedule.perturb"),
    ("toydiffusion.sampler", "sample_batch", "sampler.sample_batch"),
    ("toydiffusion.sampler", "ddim_step", "sampler.ddim_step"),
    ("toydiffusion.sampler", "draw_initial", "sampler.draw_initial"),
    ("toydiffusion.diagnostics", "leakage_curve", "diagnostics.leakage_curve"),
    ("toydiffusion.diagnostics", "motion_sweep", "diagnostics.motion_sweep"),
    ("toydiffusion.diagnostics", "init_ablation", "diagnostics.init_ablation"),
    ("toydiffusion.analytic_init", "gaussian_kl", "analytic_init.gaussian_kl"),
    ("toydiffusion.analytic_init", "optimal_init", "analytic_init.optimal_init"),
)

# Called too often and too cheaply for a span: only the call count is kept.
COUNTS = (
    ("toydiffusion.schedule", "alpha_sigma", "schedule.alpha_sigma"),
)


class Tracer:
    """Per-span-name lists of durations and self times, in nanoseconds."""

    def __init__(self):
        self.total = {}
        self.self_ns = {}
        self.counts = {}
        self._child_ns = []  # one accumulator per open span
        self._undo = []

    def span(self, name, fn):
        total = self.total.setdefault(name, [])
        own = self.self_ns.setdefault(name, [])
        stack = self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                total.append(dur)
                own.append(dur - children)

        return wrapper

    def counter(self, name, fn):
        self.counts[name] = 0
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every callable in SPANS and COUNTS; undo with uninstall()."""
        for table, make in ((SPANS, self.span), (COUNTS, self.counter)):
            for module_name, path, name in table:
                owner = importlib.import_module(module_name)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = make(name, original)
                if cls_path:
                    self._patch(owner, attr, wrapped)
                else:
                    for module in _package_modules():
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _package_modules():
    return [
        module for key, module in list(sys.modules.items())
        if module is not None
        and (key == "toydiffusion" or key.startswith("toydiffusion."))
    ]
