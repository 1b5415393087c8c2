"""Pure helpers of the benchmark: aggregation, the metric-name grammar,
result-table digests and failure accounting. No I/O, so the unit tests
in test_benchlib.py cover all of it.
"""

import hashlib
import json
import re
import statistics

# The BENCHMARK.json grammar for metric and workload names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Workload name -> config template (perfbench/workloads/), default seed,
# and the scenario kind the template loads as.
WORKLOADS = {
    "fattree_ws60": {"template": "fattree_ws60.toml", "seed": 42,
                     "kind": "fat_tree"},
    "dumbbell_coexist": {"template": "dumbbell_coexist.toml", "seed": 7,
                         "kind": "mixed_cc"},
}

# How many leading key columns of a result-table row name its simulation
# point: fat-tree rows are one point per algorithm (within a load's
# table); mixed_cc rows are keyed by the (mix, aqm, rtt, buffer) cell.
POINT_KEY_COLUMNS = {"fat_tree": 1, "mixed_cc": 4}


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def render_config(template_text, seed):
    return template_text.replace("@SEED@", str(int(seed)))


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def point_digests(tables_text, kind):
    """Maps each simulation point in a rendered result-table document to
    a sha256 over its rows (with their table's title and columns)."""
    width = POINT_KEY_COLUMNS[kind]
    hashes = {}
    for table in json.loads(tables_text):
        head = [table["title"], table["slug"], table["key_columns"],
                table["value_columns"]]
        for row in table["rows"]:
            keys = list(row["keys"].values())[:width]
            if kind == "fat_tree":
                keys = [table["slug"]] + keys
            h = hashes.setdefault("/".join(keys), hashlib.sha256())
            h.update(json.dumps([head, row]).encode())
    return {point: h.hexdigest() for point, h in hashes.items()}


def mismatched(got, want):
    """Points of `want` whose digest in `got` differs or is missing."""
    return {p for p in want if got.get(p) != want[p]}


def count_batch_failures(batches, points, kind, references=()):
    """(attempted, failed) point-runs over untraced batches.

    Each batch runs every point once. A batch that threw fails all of
    its points. Otherwise a point fails when its digest differs from the
    first batch's (the program must be deterministic) or from any of
    `references` (committed digests, or the two-shard cross-check), or
    when the tables do not name exactly `points` points."""
    attempted = failed = 0
    first = None
    for batch in batches:
        attempted += points
        if batch.get("error"):
            failed += points
            continue
        digests = point_digests(batch["tables"], kind)
        if first is None:
            first = digests
        bad = mismatched(digests, first)
        for ref in references:
            bad |= mismatched(digests, ref)
        if len(digests) != points:
            failed += points
        else:
            failed += min(points, len(bad))
    return attempted, failed


def ratio(num, den):
    return num / den if den else 0.0


LAYER_COUNTS = ("sim_events", "net_tx_packets", "net_host_tx_packets",
                "net_drops", "net_ecn_marks", "cc_on_ack_calls",
                "cc_on_timeout_calls", "workload_flows", "flows_completed",
                "stats_record_calls", "shard_windows", "shard_ambiguities")


def layer_metrics(batches, harness_load_s):
    """Per-layer metrics from traced batches: counts from the first batch
    (every batch must repeat them exactly; see counts_agree), seconds as
    medians over batches. Derived ratios use those medians."""
    first = batches[0]["layers"]

    def med(key):
        return median([b["layers"][key] for b in batches])

    run_s = med("sim_run_s")
    ack_s = med("cc_on_ack_s")
    record_s = med("stats_record_s")
    self_s = run_s - ack_s - record_s
    tx = first["net_tx_packets"]
    cpu_s = med("sim_run_cpu_s")
    # The shard layer: the traced two-shard point when the batch ran
    # one, else the workload's own engine.
    shard = {"shard.run_s": run_s, "shard.speedup": 1.0,
             "shard.cpu_per_wall": ratio(cpu_s, run_s),
             "shard.windows": first["shard_windows"],
             "shard.ambiguities": first["shard_ambiguities"]}
    if all(b.get("sharded") for b in batches):
        sharded = [b["sharded"] for b in batches]
        sh_run = median([s["layers"]["sim_run_s"] for s in sharded])
        shard = {
            "shard.run_s": sh_run,
            "shard.speedup": ratio(median([s["sequential_run_s"]
                                           for s in sharded]), sh_run),
            "shard.cpu_per_wall": ratio(median([s["layers"]["sim_run_cpu_s"]
                                                for s in sharded]), sh_run),
            "shard.windows": sharded[0]["layers"]["shard_windows"],
            "shard.ambiguities": sharded[0]["layers"]["shard_ambiguities"],
        }
    m = {
        "sim.events": first["sim_events"],
        "sim.run_s": run_s,
        "sim.ns_per_event": ratio(run_s, first["sim_events"]) * 1e9,
        "sim.run_self_s": self_s,
        "net.tx_packets": tx,
        "net.host_tx_packets": first["net_host_tx_packets"],
        "net.hops_per_packet": ratio(tx, first["net_host_tx_packets"]),
        "net.ns_per_hop": ratio(self_s, tx) * 1e9,
        "net.drops": first["net_drops"],
        "net.ecn_marks": first["net_ecn_marks"],
        "cc.on_ack_calls": first["cc_on_ack_calls"],
        "cc.on_ack_s": ack_s,
        "cc.on_ack_ns": ratio(ack_s, first["cc_on_ack_calls"]) * 1e9,
        "cc.share": ratio(ack_s, run_s),
        "cc.on_timeout_calls": first["cc_on_timeout_calls"],
        "topo.build_s": med("topo_build_s"),
        "workload.plan_s": med("workload_plan_s"),
        "workload.flows": first["workload_flows"],
        "harness.load_s": harness_load_s,
        "host.start_s": med("host_start_s"),
        "host.flows_completed": first["flows_completed"],
        "stats.record_calls": first["stats_record_calls"],
        "stats.record_s": record_s,
        "stats.summary_s": med("stats_summary_s"),
        "trace.wall_s": median([b["wall_s"] for b in batches]),
        "trace.untraced_wall_s": median([b["untraced_wall_s"]
                                         for b in batches]),
        # Paired within each batch, so slow drift of the machine cancels.
        "trace.overhead": median([ratio(b["wall_s"], b["untraced_wall_s"])
                                  for b in batches]),
    }
    m.update(shard)
    return m


def counts_agree(batches):
    """True when every traced batch repeated the first batch's counts,
    those of its two-shard point included."""
    def counts(b):
        sharded = b.get("sharded")
        return ([b["layers"][k] for k in LAYER_COUNTS],
                sharded and [sharded["layers"][k] for k in LAYER_COUNTS])
    return all(counts(b) == counts(batches[0]) for b in batches)


# The calibration kernel's time (driver.cpp, calibration_s) at the
# reference machine speed the time metrics are expressed in: roughly its
# median on the 4-vCPU machine the benchmark was tuned on.
CALIB_REFERENCE_S = 0.15


def at_reference_speed(seconds, calib):
    """Host seconds measured next to calibration-kernel times `calib`,
    scaled to the machine speed at which the kernel takes
    CALIB_REFERENCE_S. Slow phases of a shared machine slow the kernel
    and the simulator alike, so the scaled figure holds still."""
    return seconds * CALIB_REFERENCE_S / statistics.mean(calib)


def untraced_result(doc, kind, references=()):
    """(attempted, failed, metrics) of a `perfbench_driver run` document.
    `references` are digest maps every batch must match. Times are
    medians at the reference machine speed; the raw host seconds stay in
    the document."""
    points = doc["points"]
    if doc["setup_error"]:
        n = max(points, 1)
        return n, n, {}
    refs = list(references)
    ref = doc.get("reference")
    if ref is not None:
        refs.append({"<reference failed>": ref["error"]} if ref["error"]
                    else point_digests(ref["tables"], kind))
    attempted, failed = count_batch_failures(doc["batches"], points, kind,
                                             refs)
    batches = doc["batches"]
    metrics = {
        "wall_s": median([at_reference_speed(b["wall_s"], b["calib_s"])
                          for b in batches]),
        "cpu_s": median([at_reference_speed(b["cpu_s"], b["calib_s"])
                         for b in batches]),
        "setup_s": median([at_reference_speed(x, block["calib_s"])
                           for block in doc["setup"]
                           for x in block["samples"]]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    return attempted, failed, metrics


def traced_result(doc, kind, references=()):
    """(attempted, failed, metrics) of a `perfbench_driver trace`
    document. Each batch reports the points it ran and those whose
    composed run did not reproduce the harness run (the driver left
    their numbers out); the result tables are one more check per point
    when `references` has digests for this seed."""
    points = doc["points"]
    batches = doc["batches"]
    if doc["tables_error"]:
        return points, points, {}
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(len(b["failed"]) for b in batches)
    got = point_digests(doc["tables"], kind)
    for ref in references:
        attempted += points
        failed += min(points, len(mismatched(got, ref)))
    if not counts_agree(batches):
        failed += points
    metrics = layer_metrics(batches, doc["harness_load_s"])
    metrics["points_failed"] = ratio(failed, attempted)
    return attempted, failed, metrics
