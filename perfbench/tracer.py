"""Spans around the calls the benchmark makes into each layer of appvirtsim.

While a ``Tracer`` is installed, the program's public entry points are
replaced, at the name each caller looks them up by, with wrappers that
record one span per call: its layer, sub-key (environment, probe id or call
kind), start, end, parent span and item. Spans stay in memory and are
written out when the run ends. Nothing under ``src/`` changes.

A layer's self time is its span's duration minus the durations of its
direct children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

from appvirtsim import container, manifest, probes, simos, worlds

ITEM = "item"

# Self time per item, in microseconds, of the layers every workload runs.
US_LAYERS = (
    "worlds.build_us.cloaked_container",
    "worlds.first_run_us",
    "customization.customize_us",
    "customization.step_us.permissions",
    "customization.step_us.trim_payload",
    "customization.step_us.components",
    "customization.step_us.resources",
    "manifest.parse_us",
    "container.plugin_syscall_us",
    "container.plugin_syscall_us.access_resource",
    "container.plugin_syscall_us.start_activity",
    "container.plugin_syscall_us.start_service",
    "simos.syscall_us",
    "simos.syscall_us.access_resource",
    "simos.syscall_us.start_activity",
    "simos.syscall_us.start_service",
    "simos.syscall_us.kill_background_processes",
    "simos.syscall_us.create_shortcut",
    "simos.syscall_us.register_receiver",
)

# Layers that some workload does not run (addon_deploy runs no probe,
# the matrix workloads no tick) report their share of item time in percent,
# named with _pct for _us: there a measured share is 0, while a time of
# exactly zero on every run would read as a constant.
_PROBE_KINDS = (
    "check_permission", "exec_shell", "get_application_info", "get_installed_packages",
    "get_package_info", "get_recent_tasks", "get_running_app_processes",
    "get_running_services", "get_running_tasks", "native_blob_read", "native_blob_write",
    "read_proc_maps", "send_broadcast", "set_component_enabled", "unregister_receiver",
)
PCT_LAYERS = (
    "worlds.build_us.native",
    "worlds.build_us.naive_container",
    "probes.isolate_us",
    *(f"probes.body_us.{p}" for p in (*map(str, range(1, 19)), "hotness")),
    "probes.body_us.native",
    "probes.body_us.naive_container",
    "probes.body_us.cloaked_container",
    "container.tick_us",
    *(f"container.plugin_syscall_us.{kind}" for kind in _PROBE_KINDS),
    *(f"simos.syscall_us.{kind}" for kind in _PROBE_KINDS),
)

# Calls or records per item; they repeat exactly on the same items.
COUNTS = ("probes.cells", "container.plugin_syscalls", "simos.syscalls",
          "container.exfil_records")
_COUNTED_LAYERS = {"probes.body_us": "probes.cells",
                   "container.plugin_syscall_us": "container.plugin_syscalls",
                   "simos.syscall_us": "simos.syscalls"}


class Tracer:
    def __init__(self) -> None:
        # (layer, sub, start_ns, end_ns, parent index, item)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.item = -1
        # Step durations from CustomizationResult.report, in microseconds.
        self.steps: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, sub_of=None, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                sub = sub_of(args) if sub_of is not None else ""
                spans[index] = (layer, sub, start, end, parent, self.item)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _patch(self, owner, name: str, layer: str, sub_of=None, on_return=None) -> None:
        original = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        wrapped = self._wrap(original, layer, sub_of, on_return)
        self._saved.append((owner, name, original))
        if isinstance(owner, dict):
            owner[name] = wrapped
        else:
            setattr(owner, name, wrapped)

    def _record_steps(self, result) -> None:
        for entry in result.report:
            self.steps[entry["step"]] += entry["duration_ms"] * 1000.0

    def install(self) -> None:
        """Wrap every layer entry point; ``uninstall`` restores them."""
        for env, builder in worlds.WORLD_BUILDERS.items():
            self._patch(worlds.WORLD_BUILDERS, env, "worlds.build_us", lambda args, e=env: e)
            self._patch(worlds, builder.__name__, "worlds.build_us", lambda args, e=env: e)
        self._patch(container, "first_run", "worlds.first_run_us")
        # worlds imported customize by name, so that is the name to wrap.
        self._patch(worlds, "customize", "customization.customize_us",
                    on_return=self._record_steps)
        self._patch(manifest, "parse_manifest", "manifest.parse_us")
        self._patch(probes, "run_probes_on_world", "probes.isolate_us",
                    lambda args: args[0].environment)
        self._patch(probes, "run_probe", "probes.body_us", lambda args: args[1])
        self._patch(container, "plugin_syscall", "container.plugin_syscall_us",
                    lambda args: args[3].kind)
        self._patch(container, "tick_services", "container.tick_us")
        self._patch(simos.SimOs, "syscall", "simos.syscall_us", lambda args: args[2].kind)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._saved.clear()

    def run_item(self, item: int, fn, *args):
        """Run one item under a root span."""
        self.item = item
        return self._wrap(fn, ITEM)(*args)

    def self_times(self) -> list[int]:
        """Self time in ns of every span, indexed like ``spans``."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """Write every span as gzip CSV, one row per span."""
        own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,layer,sub,start_ns,end_ns,self_ns,parent,item\n")
            for i, (layer, sub, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i},{layer},{sub},{start},{end},{own[i]},{parent},{item}\n")


def layer_key(layer: str, sub: str) -> str:
    return f"{layer}.{sub}" if sub else layer


def pct_name(key: str) -> str:
    return key.replace("_us", "_pct", 1)


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run prints, in order."""
    return [*US_LAYERS, *map(pct_name, PCT_LAYERS), *COUNTS, "trace.overhead_pct"]


def summarize(tracer: Tracer, items: int) -> tuple[dict[str, float], dict[str, float], float]:
    """Per item: self time in microseconds per layer key, calls per counted
    layer, and the mean item time in microseconds.

    ``probes.body_us.<environment>`` sums the probe bodies of one
    environment; ``probes.isolate_us``, ``container.plugin_syscall_us`` and
    ``simos.syscall_us`` also sum over their sub-keys.
    """
    own = tracer.self_times()
    us: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = dict.fromkeys(COUNTS, 0.0)
    item_ns = 0
    for (layer, sub, start, end, parent, _), self_ns in zip(tracer.spans, own):
        t = self_ns / 1000.0
        us[layer_key(layer, sub)] += t
        if layer == ITEM:
            item_ns += end - start
        if layer in _COUNTED_LAYERS:
            calls[_COUNTED_LAYERS[layer]] += 1
        if layer in ("probes.isolate_us", "container.plugin_syscall_us", "simos.syscall_us"):
            us[layer] += t
        elif layer == "probes.body_us":
            us[layer_key(layer, tracer.spans[parent][1])] += t
    for step, t in tracer.steps.items():
        us[f"customization.step_us.{step}"] += t
    return ({k: v / items for k, v in us.items()},
            {k: v / items for k, v in calls.items()},
            item_ns / 1000.0 / items)


def layer_metrics(tracer: Tracer, items: int, exfil_records: float,
                  untraced_items_per_s: float, traced_items_per_s: float):
    """The per-layer metrics of the result line, and the full report."""
    us, counts, item_us = summarize(tracer, items)
    counts["container.exfil_records"] = exfil_records
    overhead = (untraced_items_per_s / traced_items_per_s - 1.0) * 100.0
    metrics = {key: {"value": us.get(key, 0.0), "unit": "us"} for key in US_LAYERS}
    for key in PCT_LAYERS:
        metrics[pct_name(key)] = {"value": 100.0 * us.get(key, 0.0) / item_us, "unit": "%"}
    for key in COUNTS:
        metrics[key] = {"value": counts[key], "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    report = {
        "traced_items": items,
        "item_us": item_us,
        "untraced_items_per_s": untraced_items_per_s,
        "traced_items_per_s": traced_items_per_s,
        "overhead_pct": overhead,
        "self_us_per_item": dict(sorted(us.items(), key=lambda kv: -kv[1])),
        "counts_per_item": counts,
    }
    return metrics, report

