"""Traced run: spans around the public functions of every crackdsm module.

Each name is patched where its caller looks it up (``crackdsm.cli.<name>``
for what the CLI imports directly, ``crackdsm.io.*`` which the CLI reaches
as ``cio.``, and so on), so the wrappers need no change inside the program.
A name that no longer exists is reported as absent and the run goes on.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _bessel_values(args, kwargs, result):
    return {"values": (int(args[0]) + 1) * int(np.size(args[1]))}


def _series_terms(args, kwargs, result):
    """Terms the truncation rule ceil(k*r_max) + 25 asks for, against the cap."""
    scene, k, _, grid = args[:4]
    terms = args[4] if len(args) > 4 else kwargs.get("terms")
    if terms is None:
        pts = grid.points()
        rmax = max(float(np.linalg.norm(pts - np.asarray(c.center), axis=1).max())
                   for c in scene.cracks)
        terms = math.ceil(float(np.max(k)) * rmax) + 25
    cap = getattr(importlib.import_module("crackdsm.specfun"), "MAX_ORDER", None)
    return {"terms_requested": int(terms),
            "terms_clipped": max(0, int(terms) - cap) if cap is not None else 0}


def _corr_evals(per_tensor):
    """Correlations of one grid point with one far-field row, times N."""
    def hook(args, kwargs, result):
        tensor, grid = args[0], args[-1]
        F, L, N = tensor.values.shape
        return {"corr_evals": grid.nx * grid.ny * N * per_tensor(F, L)}
    return hook


def _lu_work(args, kwargs, result):
    m = int(args[0].shape[0])
    return {"unknowns": m, "lu_flops": 8.0 / 3.0 * m**3}


def _bytes(key):
    def hook(args, kwargs, result):
        return {key: os.path.getsize(args[0])}
    return hook


# (module, attribute path, span name, work-count hook)
TARGETS = [
    ("crackdsm.asymptotic", "bessel_j_orders", "specfun.bessel_j_orders", _bessel_values),
    ("crackdsm.specfun", "bessel_j_orders", "specfun.bessel_j_orders", _bessel_values),
    ("crackdsm.asymptotic", "lambda_envelope", "specfun.lambda_envelope", None),
    ("crackdsm.cli", "predict_structure1", "asymptotic.predict_structure1", None),
    ("crackdsm.cli", "predict_structure2", "asymptotic.predict_structure2", None),
    ("crackdsm.cli", "predict_aif", "asymptotic.predict_aif", _series_terms),
    ("crackdsm.cli", "predict_mif", "asymptotic.predict_mif", _series_terms),
    ("crackdsm.cli", "farfield_order1", "asymptotic.farfield_order1", None),
    ("crackdsm.cli", "far_field_tensor", "forward.far_field_tensor", None),
    ("crackdsm.forward", "CrackSystem.__init__", "forward.system", None),
    ("crackdsm.forward", "CrackSystem.far_field", "forward.far_field", None),
    ("crackdsm.forward", "reciprocity_residual", "forward.reciprocity_residual", None),
    ("crackdsm.forward", "lu_factor", "forward.lu_factor", _lu_work),
    ("crackdsm.forward", "lu_solve", "forward.solve", None),
    ("crackdsm.forward", "hankel1", "forward.hankel1", None),
    ("crackdsm.cli", "indicator_single", "imaging.indicator_single", _corr_evals(lambda F, L: 1)),
    ("crackdsm.imaging", "indicator_single", "imaging.indicator_single", _corr_evals(lambda F, L: 1)),
    ("crackdsm.cli", "indicator_if", "imaging.indicator_if", _corr_evals(lambda F, L: L)),
    ("crackdsm.cli", "indicator_aif", "imaging.indicator_aif", _corr_evals(lambda F, L: L)),
    ("crackdsm.cli", "indicator_mif", "imaging.indicator_mif", _corr_evals(lambda F, L: F)),
    ("crackdsm.cli", "find_local_maxima", "imaging.find_local_maxima", None),
    ("crackdsm.cli", "map_distance", "imaging.map_distance", None),
    ("crackdsm.io", "read_scene", "io.read_scene", _bytes("bytes_read")),
    ("crackdsm.io", "write_tensor", "io.write_tensor", _bytes("bytes_written")),
    ("crackdsm.io", "read_tensor", "io.read_tensor", _bytes("bytes_read")),
    ("crackdsm.io", "write_map_csv", "io.write_map_csv", _bytes("bytes_written")),
    ("crackdsm.io", "write_map_pgm", "io.write_map_pgm", _bytes("bytes_written")),
    ("crackdsm.io", "read_map_csv", "io.read_map_csv", _bytes("bytes_read")),
    ("crackdsm.io", "write_manifest", "io.write_manifest", _bytes("bytes_written")),
]

# Work counts derived from input sizes; they repeat exactly.
COMPUTED = {"specfun.bessel_j_orders.values", "asymptotic.terms_requested",
            "asymptotic.terms_clipped", "forward.unknowns", "forward.lu_gflops",
            "imaging.corr_evals", "io.bytes_written", "io.bytes_read"}
MODULES = ("specfun", "asymptotic", "forward", "imaging", "io", "cli")
CLI_COMMANDS = ("simulate", "image", "predict", "compare", "peaks")


class Tracer:
    """In-memory spans: name, parent span, start, end, iteration, work counts."""

    def __init__(self):
        self.spans = []
        self.iteration = 0
        self.absent = []
        self.hook_errors = set()
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "iteration": self.iteration, "start": time.perf_counter(),
               "end": None, "counts": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    rec["counts"] = hook(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors.add(name)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        undo = []
        try:
            for module, path, name, hook in TARGETS:
                *owner_path, attr = path.split(".")
                try:
                    owner = importlib.import_module(module)
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    if f"{module}.{path}" not in self.absent:
                        self.absent.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self.wrap(original, name, hook))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def layer_metrics(spans, scale=1.0):
    """Per-layer metrics of one iteration from its spans, indexed by span id.
    Every span duration is multiplied by ``scale``."""
    calls, busy, self_s, counts = Counter(), defaultdict(float), defaultdict(float), Counter()
    child = defaultdict(float)
    for rec in spans.values():
        if rec["parent"] in spans:
            child[rec["parent"]] += (rec["end"] - rec["start"]) * scale

    def nested(rec):  # indicator_if runs indicator_single once per direction
        parent = spans.get(rec["parent"])
        return parent is not None and parent["name"].startswith("imaging.indicator_")

    indicators = 0.0  # busy time of the outermost indicator calls
    for sid, rec in spans.items():
        name, dur = rec["name"], (rec["end"] - rec["start"]) * scale
        calls[name] += 1
        busy[name] += dur
        self_s[name] += dur - child[sid]
        if name.startswith("imaging.indicator_"):
            if nested(rec):
                continue
            indicators += dur
        counts.update(rec["counts"] or {})
    module_self = defaultdict(float)
    for name, value in self_s.items():
        module_self[name.split(".", 1)[0]] += value

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    io_writes = sum(busy[n] for n in busy if n.startswith("io.write_"))
    io_reads = sum(busy[n] for n in busy if n.startswith("io.read_"))
    m = {
        "specfun.bessel_j_orders.calls": calls["specfun.bessel_j_orders"],
        "specfun.bessel_j_orders.s": busy["specfun.bessel_j_orders"],
        "specfun.bessel_j_orders.values": counts["values"],
        "specfun.lambda_envelope.s": busy["specfun.lambda_envelope"],
    }
    for fn in ("predict_structure1", "predict_structure2", "predict_aif", "predict_mif"):
        m[f"asymptotic.{fn}.self_s"] = self_s[f"asymptotic.{fn}"]
    m.update({
        "asymptotic.farfield_order1.calls": calls["asymptotic.farfield_order1"],
        "asymptotic.farfield_order1.s": busy["asymptotic.farfield_order1"],
        "asymptotic.terms_requested": counts["terms_requested"],
        "asymptotic.terms_clipped": counts["terms_clipped"],
        "forward.systems": calls["forward.system"],
        "forward.system.s": busy["forward.system"],
        "forward.lu_factor.s": busy["forward.lu_factor"],
        "forward.assembly.s": busy["forward.system"] - busy["forward.lu_factor"],
        "forward.hankel1.s": busy["forward.hankel1"],
        "forward.solve.calls": calls["forward.solve"],
        "forward.solve.s": busy["forward.solve"],
        "forward.far_field.self_s": self_s["forward.far_field"],
        "forward.reciprocity_residual.self_s": self_s["forward.reciprocity_residual"],
        "forward.unknowns": counts["unknowns"],
        "forward.lu_gflops": rate(counts["lu_flops"], busy["forward.lu_factor"]) / 1e9,
    })
    for fn in ("indicator_single", "indicator_if", "indicator_aif", "indicator_mif"):
        m[f"imaging.{fn}.calls"] = calls[f"imaging.{fn}"]
        m[f"imaging.{fn}.self_s"] = self_s[f"imaging.{fn}"]
    m.update({
        "imaging.corr_evals": counts["corr_evals"],
        "imaging.corr_evals_per_us": rate(counts["corr_evals"], indicators) / 1e6,
        "imaging.find_local_maxima.s": busy["imaging.find_local_maxima"],
        "imaging.map_distance.s": busy["imaging.map_distance"],
    })
    for fn in ("write_map_csv", "write_map_pgm", "read_map_csv", "write_tensor",
               "read_tensor", "write_manifest"):
        m[f"io.{fn}.s"] = busy[f"io.{fn}"]
    m.update({
        "io.bytes_written": counts["bytes_written"],
        "io.bytes_read": counts["bytes_read"],
        "io.write_MBps": rate(counts["bytes_written"], io_writes) / 1e6,
        "io.read_MBps": rate(counts["bytes_read"], io_reads) / 1e6,
    })
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = busy[f"cli.{cmd}"]
    for module in MODULES:
        m[f"{module}.self_s"] = module_self[module]
    return m
