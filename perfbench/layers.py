"""Which fencetiles functions the traced run wraps, and the per-layer
metrics computed from what the tracer recorded.

BENCHMARK.json lists the metric names; LAYER_MAP below says which
end-to-end metric, on which workload, each one should move.
"""

from __future__ import annotations

import functools
import statistics

from tracing import LAYERS, Tracer, self_times

#: per-layer metric -> the end-to-end "workload:metric" pairs it should move
LAYER_MAP = {
    "core.enumerate.tilings": ["oracle:tilings_per_s"],
    "core.enumerate.self_s": ["oracle:wall_s", "cli:cmd_p90_ms"],
    "core.encoding.self_s": ["oracle:wall_s", "cli:cmd_p90_ms"],
    "core.filter.kept_ratio": ["oracle:wall_s", "cli:cmd_p90_ms"],
    "core.decompose.calls": ["oracle:wall_s", "cli:cmd_p90_ms"],
    "core.decompose.self_s": ["oracle:wall_s", "cli:cmd_p90_ms"],
    "core.from_placements.calls": ["oracle:wall_s"],
    "core.from_placements.self_s": ["oracle:wall_s"],
    "core.validate.self_s": ["cli:cmd_p50_ms"],
    "sequences.value.calls": ["bigint:wall_s"],
    "sequences.value.self_s": ["bigint:wall_s"],
    "sequences.value.maxrss_raise_mb": ["bigint:peak_rss_mb"],
    "sequences.sum_form.self_s": ["bigint:wall_s"],
    "identities.numeric.self_s": ["bigint:wall_s"],
    "identities.combinatorial.self_s": ["oracle:wall_s"],
    "identities.combinatorial.maxrss_raise_mb": ["oracle:peak_rss_mb"],
    "identities.rows": ["oracle:failed", "bigint:failed", "cli:failed"],
    "identities.rows_failed": ["oracle:failed", "bigint:failed", "cli:failed"],
    "bijection.audit.self_s": ["oracle:wall_s"],
    "bijection.audit.maxrss_raise_mb": ["oracle:peak_rss_mb"],
    "bijection.partition.calls": ["oracle:wall_s"],
    "bijection.partition.self_s": ["oracle:wall_s"],
    "bijection.b_inverse.self_s": ["oracle:wall_s"],
    "render.calls": ["cli:cmd_p50_ms"],
    "render.self_s": ["cli:cmd_p50_ms"],
    "render.bytes": ["cli:cmd_p50_ms"],
    "cli.import_ms": ["oracle:setup_s", "bigint:setup_s", "cli:setup_s",
                      "cli:cmd_p50_ms"],
    "cli.main_ms.count": ["cli:cmd_p50_ms"],
    "cli.main_ms.enumerate": ["cli:cmd_p50_ms", "cli:cmd_p90_ms"],
    "cli.main_ms.decompose": ["cli:cmd_p50_ms"],
    "cli.main_ms.verify": ["cli:cmd_p50_ms", "cli:cmd_p90_ms"],
    "cli.main_ms.bijection": ["cli:cmd_p50_ms", "cli:cmd_p90_ms"],
    "cli.main_ms.render": ["cli:cmd_p50_ms"],
    "cli.stdout_bytes": ["cli:cmd_p90_ms"],
    "cli.known_failures": ["cli:failed"],
    **{f"layer.{layer}.self_s": [f"{w}:wall_s" for w in ("oracle", "bigint", "cli")]
       for layer in LAYERS + ("harness",)},
    "trace.self_sum_s": [],
    "trace.wall_s": [],
    "trace.untraced_wall_s": [],
    "trace.overhead_s": [],
}

CLI_SUBCOMMANDS = ("count", "enumerate", "decompose", "verify", "bijection", "render")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every fencetiles module."""
    import importlib

    import fencetiles
    from fencetiles import bijection, cli, core, identities, sequences

    # the package's `render` attribute is the function, not the module
    render = importlib.import_module("fencetiles.render")
    modules = [fencetiles, core, sequences, identities, bijection, render, cli]
    t = tracer
    totals = t.totals

    def with_counted_filter(args, kwargs):
        if len(args) > 1 and args[1] is not None:
            args = (args[0], t.counting_predicate("core.filter", args[1]), *args[2:])
        elif kwargs.get("tile_filter") is not None:
            kwargs = {**kwargs, "tile_filter": t.counting_predicate(
                "core.filter", kwargs["tile_filter"])}
        return args, kwargs

    t.patch(modules, core.enumerate_tilings,
            t.hot_iter("core.enumerate", core.enumerate_tilings, with_counted_filter))
    for name in ("decompose", "last_positions", "has_bifence", "has_free_bifence",
                 "has_even_metatile"):
        fn = getattr(core, name)
        t.patch(modules, fn, t.hot(f"core.{name}", fn))
    for name in ("validate", "metatile_encodings"):
        fn = getattr(core, name)
        t.patch(modules, fn, t.leaf(f"core.{name}", fn))
    t.patch(modules, core.count_tilings, t.span("core.count_tilings", core.count_tilings))
    placements = core.Tiling.__dict__["from_placements"].__func__
    t.patch_attr(core.Tiling, "from_placements",
                 classmethod(t.hot("core.from_placements", placements)))
    encoding = functools.cached_property(
        t.leaf("core.encoding", core.Tiling.__dict__["encoding"].func))
    encoding.__set_name__(core.Tiling, "encoding")
    t.patch_attr(core.Tiling, "encoding", encoding)

    t.patch_attr(sequences.SequenceTable, "value",
                 t.leaf("sequences.value", sequences.SequenceTable.value))
    for name in ("a_via_sum_form", "s_via_sum_form", "t_via_sum_form"):
        fn = getattr(sequences, name)
        t.patch(modules, fn, t.span("sequences.sum_form", fn))
    t.patch(modules, sequences.count_halfsquare_square,
            t.span("sequences.hsq", sequences.count_halfsquare_square))

    def count_rows(label, report):
        totals["rows"] = totals.get("rows", 0) + len(report.rows)
        totals["rows_failed"] = (totals.get("rows_failed", 0)
                                 + sum(not r.passed for r in report.rows))

    def verify_label(identity_id, n_max, combinatorial=False):
        return "identities." + ("combinatorial" if combinatorial else "numeric")

    t.patch(modules, identities.verify,
            t.span(verify_label, identities.verify, count_rows))

    t.patch(modules, bijection.cassini_audit,
            t.span("bijection.audit", bijection.cassini_audit))
    for name, label in (("cassini_partition", "partition"), ("b_map", "b_map"),
                        ("b_inverse", "b_inverse")):
        fn = getattr(bijection, name)
        t.patch(modules, fn, t.hot(f"bijection.{label}", fn))

    def count_bytes(label, text):
        totals["render_bytes"] = totals.get("render_bytes", 0) + len(text.encode("utf-8"))

    t.patch(modules, render.render, t.span("render", render.render, count_bytes))


def _layer(name: str) -> str:
    head = name.split(".")[0]
    return head if head in LAYERS else "harness"


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced run (cli.* process figures and the
    trace.* totals are added by the caller)."""
    hot: dict[str, list] = {}
    for name, table in tracer.counters.items():
        agg = hot[name] = [0, 0.0, 0, 0]
        for c in table.values():
            agg[0] += c[0]
            agg[1] += c[1] - c[2]
            agg[2] += c[3]
            agg[3] += c[4]
    spans: dict[str, list] = {}
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        agg = spans.setdefault(s.name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += selfs[s.id]
        agg[2] += s.maxrss_raise_mb

    def h(name, i):
        return hot.get(name, [0, 0.0, 0, 0])[i]

    def sp(name, i):
        return spans.get(name, [0, 0.0, 0.0])[i]

    filter_calls = h("core.filter", 0)
    out = {
        "core.enumerate.tilings": h("core.enumerate", 2),
        "core.enumerate.self_s": h("core.enumerate", 1),
        "core.encoding.self_s": h("core.encoding", 1),
        "core.filter.kept_ratio": h("core.filter", 2) / filter_calls if filter_calls else 0.0,
        "core.decompose.calls": h("core.decompose", 0),
        "core.decompose.self_s": h("core.decompose", 1),
        "core.from_placements.calls": h("core.from_placements", 0),
        "core.from_placements.self_s": h("core.from_placements", 1),
        "core.validate.self_s": h("core.validate", 1),
        "sequences.value.calls": h("sequences.value", 0),
        "sequences.value.self_s": h("sequences.value", 1),
        "sequences.value.maxrss_raise_mb": h("sequences.value", 3) / 1024,
        "sequences.sum_form.self_s": sp("sequences.sum_form", 1),
        "identities.numeric.self_s": sp("identities.numeric", 1),
        "identities.combinatorial.self_s": sp("identities.combinatorial", 1),
        "identities.combinatorial.maxrss_raise_mb": sp("identities.combinatorial", 2),
        "identities.rows": tracer.totals.get("rows", 0),
        "identities.rows_failed": tracer.totals.get("rows_failed", 0),
        "bijection.audit.self_s": sp("bijection.audit", 1),
        "bijection.audit.maxrss_raise_mb": sp("bijection.audit", 2),
        "bijection.partition.calls": h("bijection.partition", 0),
        "bijection.partition.self_s": h("bijection.partition", 1),
        "bijection.b_inverse.self_s": h("bijection.b_inverse", 1),
        "render.calls": sp("render", 0),
        "render.self_s": sp("render", 1),
        "render.bytes": tracer.totals.get("render_bytes", 0),
    }
    layer_self = dict.fromkeys(LAYERS + ("harness",), 0.0)
    for name, agg in hot.items():
        layer_self[_layer(name)] += agg[1]
    for name, agg in spans.items():
        layer_self[_layer(name)] += agg[1]
    out.update({f"layer.{k}.self_s": v for k, v in layer_self.items()})
    out["trace.self_sum_s"] = sum(layer_self.values())
    return out


def main_ms(records) -> dict[str, float]:
    """Median in-process main(argv) time per subcommand, in ms."""
    out = {}
    for sub in CLI_SUBCOMMANDS:
        times = [r["latency_s"] for r in records if r.get("sub") == sub]
        out[f"cli.main_ms.{sub}"] = 1000 * statistics.median(times) if times else 0.0
    return out
