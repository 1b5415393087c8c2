#!/usr/bin/env python3
"""The repository benchmark: host time of two simulator workloads.

    python3 perfbench/run.py --workload fattree_ws60 --seed 42 \
        --seconds 40 --trace 0

Run from the repository root. The first run builds perfbench_driver
(perfbench/CMakeLists.txt, linking the repository's powertcp_core) under
.bench_build/. Each run renders the workload's config from its template
and the seed, starts one driver process, checks every result table, and
prints as its last stdout line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it
carries provenance and the raw per-batch figures.

`--update-digests` (default seed, untraced) records the run's per-point
result digests in perfbench/digests.json. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_SECONDS = 1.0  # set-up repetitions per run, around the timed batches
DRIVER_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds perfbench_driver; output goes to a
    log file, shown on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e), 3)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd), 3)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256():
    """Hash of the simulator sources and build files, so results from
    checkouts without git metadata still name what they measured."""
    import hashlib
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".cpp", ".hpp", ".txt"))]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_driver(args):
    try:
        out = subprocess.run([DRIVER] + args, capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S, 4)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        fail("driver exited with code %d" % out.returncode, 4)
    return json.loads(out.stdout)


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def committed_reference(workload, seed):
    """The committed per-point digests when the run uses the workload's
    default seed; no reference otherwise."""
    entry = load_digests().get(workload)
    if entry and entry["seed"] == seed:
        return [entry["points"]]
    return []


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(benchlib.WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-digests", action="store_true",
                   help="record this run's digests (default seed only)")
    args = p.parse_args()

    build()
    spec = load_spec()
    wl = benchlib.WORKLOADS[args.workload]
    seed = wl["seed"] if args.seed is None else args.seed
    with open(os.path.join(HERE, "workloads", wl["template"])) as f:
        config_text = benchlib.render_config(f.read(), seed)
    config_dir = os.path.join(BUILD_DIR, "configs")
    os.makedirs(config_dir, exist_ok=True)
    config_path = os.path.join(config_dir, "%s-%d.toml" % (args.workload,
                                                          seed))
    with open(config_path, "w") as f:
        f.write(config_text)

    if args.trace:
        doc = run_driver(["trace", config_path, str(args.seconds)])
        account = benchlib.traced_result
    else:
        doc = run_driver(["run", config_path, str(args.seconds),
                          str(SETUP_SECONDS)])
        account = benchlib.untraced_result
    attempted, failed, values = account(
        doc, wl["kind"], committed_reference(args.workload, seed))
    if args.update_digests:
        if args.trace or seed != wl["seed"] or failed:
            fail("--update-digests needs an untraced, passing run at the "
                 "default seed", 5)
        digests = load_digests()
        digests[args.workload] = {
            "seed": seed, "config_sha256": benchlib.sha256_text(config_text),
            "points": benchlib.point_digests(doc["batches"][0]["tables"],
                                             wl["kind"])}
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and set(values) == {m["name"] for m in declared},
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }
    for b in doc.get("batches", []):
        b.pop("tables", None)
    doc.pop("tables", None)
    doc.pop("reference", None)
    detail = {
        "provenance": {
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
            "build": doc["build"],
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": seed,
            "config_sha256": benchlib.sha256_text(config_text),
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "driver": doc,
    }
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
