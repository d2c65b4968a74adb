"""Traced `gharnack` run: span recording from outside the program, and the
analysis that turns spans into per-layer metrics.

Run as a script, this file imports `gharnack` from the interpreter path,
replaces the public layer functions by timing wrappers in every module
namespace that looks them up (`harnack` and `cli` bind names with
`from ... import`), runs `gharnack.cli.main` on the remaining arguments and
writes the spans and work counts to a JSON file when the run ends:

    python3 perfbench/tracer.py SPANS.json suite --config c.cfg --out DIR

Imported, it provides `layer_metrics`, which computes self times and the
per-layer metrics from such a file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

# (layer, module, attribute). A name missing from the module is skipped, so
# the trace keeps working when a later version of the program drops a helper.
TARGETS = (
    ("config", "gharnack.config", "parse_run_config"),
    ("model", "gharnack.model", "validate_coefficients"),
    ("streams", "gharnack.streams", "normal_matrix"),
    ("gheat", "gharnack.gheat", "solve_g_hjb"),
    ("scenario", "gharnack.scenario", "upper_expectation_mc"),
    ("scenario", "gharnack.scenario", "simulate_state_batch"),
    ("coupling", "gharnack.coupling", "simulate_coupled"),
    ("coupling.checks", "gharnack.coupling", "entropy_bound_check"),
    ("coupling.checks", "gharnack.coupling", "moment_bound_check"),
    ("coupling.checks", "gharnack.coupling", "coupling_success_check"),
    ("coupling.checks", "gharnack.coupling", "girsanov_shifted_qv_check"),
    ("coupling.checks", "gharnack.coupling", "shifted_qv_discrepancy"),
    ("harnack", "gharnack.harnack", "check_log_harnack"),
    ("harnack", "gharnack.harnack", "check_log_harnack_grid"),
    ("harnack", "gharnack.harnack", "check_power_harnack"),
    ("harnack", "gharnack.harnack", "lipschitz_transport_check"),
    ("harnack", "gharnack.harnack", "check_gradient_estimate"),
    ("cli.runner", "gharnack.cli", "run_gheat"),
    ("cli.runner", "gharnack.cli", "run_semigroup"),
    ("cli.runner", "gharnack.cli", "run_scenario"),
    ("cli.runner", "gharnack.cli", "run_coupling"),
    ("cli.runner", "gharnack.cli", "run_harnack"),
    ("cli.runner", "gharnack.cli", "run_gradient"),
    ("cli.runner", "gharnack.cli", "run_suite"),
    ("cli.write", "gharnack.cli", "_atomic_write"),
    ("cli.write", "gharnack.cli", "_estimate_rows"),
    ("cli.write", "gharnack.coupling", "export_bundle_csv"),
    ("cli.write", "gharnack.gheat", "GridFunction.to_csv"),
    ("cli.pool", "gharnack.cli", "_parallel_map"),
)


class Tracer:
    """In-memory span store. A span is (id, parent, name, layer, thread,
    start, end); parents follow a per-thread stack, and pool jobs take the
    pool span as parent so that work on worker threads nests under it."""

    def __init__(self):
        self.spans = []
        self.work = []          # (span id, function name, work counts)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, layer, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, layer,
                                   threading.get_ident(), start, end))

    def wrap(self, fn, name, layer, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as sid:
                result = fn(*args, **kwargs)
            if count is not None:
                self.work.append((sid, fn.__name__,
                                   count(fn, args, kwargs, result)))
            return result

        return wrapper

    def wrap_pool(self, fn):
        """`_parallel_map(job, items, threads)`: one span for the pool and
        one per job, parented to the pool span on whichever thread runs it."""
        def pool(job, items, *args, **kwargs):
            with self.span("cli._parallel_map", "cli.pool") as pool_id:
                def traced_job(item):
                    with self.span("cli.pool_job", "cli.pool", parent=pool_id):
                        return job(item)

                return fn(traced_job, items, *args, **kwargs)

        return pool


# ---------------------------------------------------------------------------
# work counts, taken at the same boundaries as the spans

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_streams(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"key": [int(a["seed"]), int(a["n_paths"]), int(a["n_steps"])]}


def _count_gheat(fn, args, kwargs, result):
    # The step count is computed after the run from these arguments.
    a = _bound(fn, args, kwargs)
    return {"args": (a["coeffs"], a["band"], a["payoff"], a["T"], a["cfg"])}


def _count_upper_mc(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    controls = list(a["controls"])
    return {"path_steps": int(a["n_paths"]) * controls[0].grid.n_steps
            * len(controls)}


def _count_state_batch(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rows, steps = a["w"].shape
    return {"path_steps": int(rows) * int(steps)}


def _control_key(control):
    levels = getattr(control, "levels", None)
    if levels is not None:
        return levels.tobytes().hex()
    return f"object:{id(control)}"


def _count_coupled(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n_paths = int(a["n_paths"])
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    key = [int(a["seed"]), n_paths, float(a["x0"]), float(a["y0"]),
           float(a["clip_epsilon"]), float(a["schedule"].alpha),
           _control_key(a["control"])]
    return {"path_steps": n_paths * a["control"].grid.n_steps,
            "bundle_bytes": int(sum(v.nbytes for v in arrays)),
            "stiff": int(getattr(result, "n_stiff", 0)),
            "key": key}


COUNTS = {
    "normal_matrix": _count_streams,
    "solve_g_hjb": _count_gheat,
    "upper_expectation_mc": _count_upper_mc,
    "simulate_state_batch": _count_state_batch,
    "simulate_coupled": _count_coupled,
}


def _safe(count):
    """A count that no longer fits the program's signature is dropped with a
    note on stderr instead of aborting the traced run."""

    def counted(fn, args, kwargs, result):
        try:
            return count(fn, args, kwargs, result)
        except (TypeError, KeyError, AttributeError, ValueError) as exc:
            print(f"tracer: count skipped for {fn.__name__}: {exc}",
                  file=sys.stderr)
            return {}

    return counted


def install(tracer):
    """Patch every target into each `gharnack` namespace, and each dict in
    one, that binds it (`cli._RUNNERS` holds the runners)."""
    swap = {}                       # id(original) -> (original, wrapper)
    for layer, mod_name, attr in TARGETS:
        owner = importlib.import_module(mod_name)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, fn_name, None)
        if fn is None:
            continue
        if layer == "cli.pool":
            wrapped = tracer.wrap_pool(fn)
        else:
            count = COUNTS.get(fn_name)
            wrapped = tracer.wrap(fn, f"{mod_name.rpartition('.')[2]}.{attr}",
                                  layer, _safe(count) if count else None)
        if cls_name:
            setattr(owner, fn_name, wrapped)
        swap[id(fn)] = (fn, wrapped)

    def patch(mapping):
        for key, value in list(mapping.items()):
            hit = swap.get(id(value))
            if hit is not None and hit[0] is value:
                mapping[key] = hit[1]

    for name, module in list(sys.modules.items()):
        if name == "gharnack" or name.startswith("gharnack."):
            namespace = vars(module)
            for value in list(namespace.values()):
                if isinstance(value, dict) and value is not namespace:
                    patch(value)
            patch(namespace)


def _gheat_steps(payload):
    """n_t of one solve, from the program's own CFL rule when it has one."""
    import gharnack.gheat as gheat

    cfl = getattr(gheat, "_cfl_time_step", None)
    if cfl is None:
        return 0
    coeffs, band, _, T, cfg = payload["args"]
    return int(cfl(coeffs, band, T, cfg)[1])


def _finish_work(work):
    out = []
    for sid, name, payload in work:
        if name == "solve_g_hjb" and "args" in payload:
            coeffs, band, payoff, T, cfg = payload["args"]
            payload = {"steps": _gheat_steps(payload),
                       "key": [id(coeffs), repr(band), payoff.name, float(T),
                               repr(cfg)]}
        out.append([sid, name, payload])
    return out


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import gharnack.cli as cli

    tracer = Tracer()
    install(tracer)
    with tracer.span("cli.main", "cli.main"):
        code = cli.main(cli_args)
    record = {"spans": tracer.spans, "work": _finish_work(tracer.work),
              "exit_code": code}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


# ---------------------------------------------------------------------------
# analysis (run in the benchmark process)

def self_times(spans):
    """Wall time owned by each span.

    At every instant the time goes to the innermost active spans, those with
    no active child on any thread, shared equally between them when pool
    threads overlap. Without concurrency this is a span's duration minus the
    part of it that its children cover; with it, the self times still add up
    to the traced time instead of counting overlapped time twice.
    """
    events = []
    for sid, parent, *_rest, start, end in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, sid, parent))
    events.sort(key=lambda e: (e[0], e[1]))
    active = {}            # sid -> parent
    children = {}          # sid -> number of active children
    owned = {s[0]: 0.0 for s in spans}
    last = None
    for t, is_start, sid, parent in events:
        if last is not None and t > last and active:
            leaves = [s for s in active if not children.get(s)]
            share = (t - last) / len(leaves)
            for s in leaves:
                owned[s] += share
        last = t
        if is_start:
            active[sid] = parent
            if parent in active:
                children[parent] = children.get(parent, 0) + 1
        else:
            active.pop(sid, None)
            if parent in active:
                children[parent] -= 1
    return owned


PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "model.validate_s": "s",
    "streams.calls": "count",
    "streams.s": "s",
    "streams.ns_per_draw": "ns",
    "streams.distinct_ratio": "ratio",
    "gheat.calls": "count",
    "gheat.s": "s",
    "gheat.steps": "count",
    "gheat.us_per_step": "us",
    "gheat.distinct_ratio": "ratio",
    "scenario.s": "s",
    "scenario.path_steps": "count",
    "scenario.ns_per_path_step": "ns",
    "coupling.calls": "count",
    "coupling.s": "s",
    "coupling.path_steps": "count",
    "coupling.ns_per_path_step": "ns",
    "coupling.bundle_bytes": "B",
    "coupling.distinct_ratio": "ratio",
    "coupling.checks_self_s": "s",
    "coupling.stiff_excluded": "count",
    "harnack.self_s": "s",
    "cli.runner_s": "s",
    "cli.write_s": "s",
    "cli.pool_overlap": "ratio",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(record, wall_s, cpu_s):
    """Per-layer metrics of one traced run (all but `trace.overhead_s`,
    which needs the untraced runs)."""
    spans = record["spans"]
    owned = self_times(spans)
    layer_s = {}
    for sid, _parent, _name, layer, *_ in spans:
        layer_s[layer] = layer_s.get(layer, 0.0) + owned[sid]

    work = {}
    for _sid, name, payload in record["work"]:
        work.setdefault(name, []).append(payload)

    def distinct(name):
        keys = [json.dumps(p["key"]) for p in work.get(name, []) if "key" in p]
        return _ratio(len(set(keys)), len(keys))

    streams = work.get("normal_matrix", [])
    seen = {}
    for p in streams:
        if "key" in p:
            seen[json.dumps(p["key"])] = p["key"][1] * p["key"][2]
    distinct_draws = sum(seen.values())
    gheat = work.get("solve_g_hjb", [])
    steps = sum(p.get("steps", 0) for p in gheat)
    mc_steps = sum(p.get("path_steps", 0)
                   for name in ("upper_expectation_mc", "simulate_state_batch")
                   for p in work.get(name, []))
    coupled = work.get("simulate_coupled", [])
    cpl_steps = sum(p.get("path_steps", 0) for p in coupled)

    pools = [s for s in spans if s[2] == "cli._parallel_map"]
    jobs = [s for s in spans if s[2] == "cli.pool_job"]
    pool_wall = sum(s[6] - s[5] for s in pools)
    job_sum = sum(s[6] - s[5] for s in jobs)

    m = {
        "config.parse_s": layer_s.get("config", 0.0),
        "model.validate_s": layer_s.get("model", 0.0),
        "streams.calls": len(streams),
        "streams.s": layer_s.get("streams", 0.0),
        "streams.ns_per_draw": _ratio(layer_s.get("streams", 0.0),
                                      distinct_draws, 1e9),
        "streams.distinct_ratio": distinct("normal_matrix"),
        "gheat.calls": len(gheat),
        "gheat.s": layer_s.get("gheat", 0.0),
        "gheat.steps": steps,
        "gheat.us_per_step": _ratio(layer_s.get("gheat", 0.0), steps, 1e6),
        "gheat.distinct_ratio": distinct("solve_g_hjb"),
        "scenario.s": layer_s.get("scenario", 0.0),
        "scenario.path_steps": mc_steps,
        "scenario.ns_per_path_step": _ratio(layer_s.get("scenario", 0.0),
                                            mc_steps, 1e9),
        "coupling.calls": len(coupled),
        "coupling.s": layer_s.get("coupling", 0.0),
        "coupling.path_steps": cpl_steps,
        "coupling.ns_per_path_step": _ratio(layer_s.get("coupling", 0.0),
                                            cpl_steps, 1e9),
        "coupling.bundle_bytes": sum(p.get("bundle_bytes", 0) for p in coupled),
        "coupling.distinct_ratio": distinct("simulate_coupled"),
        "coupling.checks_self_s": layer_s.get("coupling.checks", 0.0),
        "coupling.stiff_excluded": sum(p.get("stiff", 0) for p in coupled),
        "harnack.self_s": layer_s.get("harnack", 0.0),
        "cli.runner_s": layer_s.get("cli.runner", 0.0) + layer_s.get("cli.pool", 0.0),
        "cli.write_s": layer_s.get("cli.write", 0.0),
        "cli.pool_overlap": _ratio(job_sum, pool_wall),
        "process.cpu_s": cpu_s,
        "trace.wall_s": wall_s,
    }
    attributed = sum(v for k, v in layer_s.items() if k != "cli.main")
    m["trace.unattributed_s"] = wall_s - attributed
    return m


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
