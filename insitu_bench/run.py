#!/usr/bin/env python3
"""One benchmark for the in-situ step: build, run one workload, report.

    python3 insitu_bench/run.py --workload evolved_insitu --seed 1 \
        --seconds 20 --trace 0

Builds insitu_bench (Release) from this checkout's sources into
.bench_build/, runs the requested workload, checks its outputs and its own
statistics, prints every metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and the ledger.
The exit status is nonzero when any check fails. README.md defines every
workload and metric.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "insitu_bench")
WORKLOADS = ("evolved_insitu", "clustered_open", "snapshot_queries")
LAYERS = ("hacc", "comm", "diy", "core", "geom", "serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def call(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group and
    wait for it, so no compiler or rank thread outlives the benchmark."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configure once, then (re)build the benchmark binary; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no tess sources under {ROOT}/src")
    cmds = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", BUILD, "--target", "insitu_bench",
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        code, out = call(cmd, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
        if code != 0:
            log(out[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "insitu_bench")


def source_id():
    """The git commit when there is one, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench", "insitu_bench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


# --- statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, n); None when fewer than 11 samples exist.
    """
    s = sorted(values)
    n = len(s)
    if n < 11:
        return None
    idx = n - 11
    return s[idx], 100.0 * (idx + 1) / n, n


def check_tail(values, t):
    """Recount the tail rule from the raw samples; '' when it holds."""
    if t is None:
        return f"tail needs at least 11 samples, have {len(values)}"
    v, _, n = t
    above = sum(1 for x in values if x > v)
    at_or_above = sum(1 for x in values if x >= v)
    if n != len(values) or above > 10 or at_or_above < 11:
        return f"tail {v} breaks the rule: {above} samples above, {at_or_above} at or above"
    return ""


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --- spans and the ledger ----------------------------------------------------

def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Self time per span id: duration minus the union of its children."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        last = s["start"]
        for c in sorted(kids.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], last), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def ledger(spans, root_name):
    """Per traced step: each layer's self time, averaged over ranks.

    Returns (rows, walls, problems): rows maps layer -> list of per-step
    seconds (plus 'unattributed'), walls the per-step rank-mean root
    durations, problems any step whose child spans overflow the root.
    """
    by_id = {s["id"]: s for s in spans}
    selft = self_times(spans)
    roots = [s for s in spans if s["name"] == root_name and s["step"] >= 0]
    steps = sorted({s["step"] for s in roots})
    layer_of = {}
    for s in spans:
        root = s
        while root["parent"] >= 0:
            root = by_id[root["parent"]]
        if root["name"] == root_name and root is not s:
            layer_of[s["id"]] = (root["id"], s["name"].split(".")[0])
    per_root = {}
    for sid, (rid, layer) in layer_of.items():
        per_root.setdefault(rid, {}).setdefault(layer, 0.0)
        per_root[rid][layer] += selft[sid]
    rows = {k: [] for k in (*LAYERS, "unattributed")}
    walls, problems = [], []
    for step in steps:
        rs = [r for r in roots if r["step"] == step]
        for k in rows:
            vals = [selft[r["id"]] if k == "unattributed" else
                    per_root.get(r["id"], {}).get(k, 0.0) for r in rs]
            rows[k].append(mean(vals))
        walls.append(mean([r["end"] - r["start"] for r in rs]))
        if min(selft[r["id"]] for r in rs) < -1e-6:
            problems.append(f"step {step}: child spans exceed the step")
    return rows, walls, problems


def span_mean(spans, name):
    """Per traced step, the rank-mean total duration of spans called name."""
    per = {}
    ranks = {}
    for s in spans:
        if s["step"] < 0:
            continue
        ranks.setdefault(s["step"], set()).add(s["rank"])
        if s["name"] == name:
            per[s["step"]] = per.get(s["step"], 0.0) + s["end"] - s["start"]
    return mean([per.get(k, 0.0) / len(r) for k, r in ranks.items()])


# --- metrics -----------------------------------------------------------------

def end_to_end(r):
    """Metrics a user of the system sees; see README.md for definitions."""
    steps, batches = r["steps"], r["batches"]
    units = steps if steps else batches  # a 'step' of snapshot_queries is a batch
    walls = [u["wall"] for u in units]
    bwalls = [b["wall"] for b in batches]
    if steps:
        bytes_per_cell = median([s["file_bytes"] / s["cells_kept"] for s in steps])
    else:
        snaps = r["extra"]["snapshots"]
        bytes_per_cell = ratio(snaps["file_bytes"], snaps["cells"])
    t_step, t_batch = tail(walls), tail([w * 1e3 for w in bwalls])
    metrics = {
        "setup_s": (median(r["setup_s"]), "s"),
        "peak_rss_mb": (r["peak_rss_kb"] / 1024.0, "MB"),
        "step_s_p50": (median(walls), "s"),
        "step_s_tail": (t_step[0] if t_step else max(walls, default=0.0), "s"),
        "cpu_s_per_step": (median([u["cpu"] for u in units]), "s"),
        "bytes_per_cell": (bytes_per_cell, "B"),
        "queries_per_s": (ratio(sum(b["queries"] for b in batches), sum(bwalls)), "1/s"),
        "batch_ms_p50": (median(bwalls) * 1e3, "ms"),
        "batch_ms_tail": (t_batch[0] if t_batch else max(bwalls, default=0.0) * 1e3, "ms"),
    }
    notes = {"step_s_tail": t_step, "batch_ms_tail": t_batch}
    problems = [f"{name}: {p}" for name, vals, t in
                (("step_s_tail", walls, t_step),
                 ("batch_ms_tail", [w * 1e3 for w in bwalls], t_batch))
                if (p := check_tail(vals, t))]
    return metrics, notes, problems


def per_layer(r, spans):
    """Per-layer metrics from the traced run; 0 where a layer is not exercised."""
    steps, batches = r["steps"], r["batches"]
    root = "step" if steps else "batch"
    rows, span_walls, problems = ledger(spans, root)
    traced = [u for u in (steps or batches) if u["traced"]]
    untraced = [u for u in (steps or batches) if not u["traced"]]
    wall = mean([u["wall"] for u in traced])
    total = sum(mean(v) for v in rows.values())
    if traced and abs(total - wall) > 0.005 * wall:
        problems.append(f"ledger rows sum to {total:.6f} s, traced step wall is {wall:.6f} s")
    if len(span_walls) != len(traced):
        problems.append(f"{len(span_walls)} traced roots for {len(traced)} traced steps")

    def pick(key):
        return [s[key] for s in steps]

    built = sum(pick("cells_built")) if steps else 0
    first_pass = [p for s in steps for p in s["pass_compute_s"][:1]]
    retries = [p for s in steps for p in s["pass_compute_s"][1:]]
    locates = [b for b in batches if b["kind"] == "locate"]
    write_s = span_mean(spans, "diy.write_blocks")
    replay = r["extra"].get("replay")
    replay_spans = [s for s in spans if s["step"] < 0]
    one_rank = r["extra"].get("parallel")
    cache = r["extra"].get("cache")
    m = {
        "hacc.step_s": (mean(rows["hacc"]), "s"),
        "comm.bytes_per_step": (median(pick("traffic_bytes")), "B"),
        "comm.barrier_wait_s": (span_mean(spans, "comm.barrier.after_tessellate"), "s"),
        "diy.ghost_received": (median(pick("ghost_received")), "count"),
        "diy.write_s": (write_s, "s"),
        "diy.write_MBps": (ratio(median(pick("file_bytes")), write_s) / 1e6, "MB/s"),
        "core.tessellate_s": (span_mean(spans, "core.tessellate_step"), "s"),
        "core.exchange_s": (median(pick("exchange_s")), "s"),
        "core.compute_s": (median(pick("compute_s")), "s"),
        "core.passes": (median(pick("passes")), "count"),
        "core.retry_compute_frac": (ratio(sum(retries), sum(retries) + sum(first_pass)), "ratio"),
        "core.cells_built": (median(pick("cells_built")), "count"),
        "core.cells_incomplete": (median(pick("cells_incomplete")), "count"),
        "core.cells_uncertified": (median(pick("cells_uncertified")), "count"),
        "core.build_yield": (median([ratio(s["cells_kept"], s["cells_built"]) for s in steps]), "ratio"),
        "core.build_imbalance": (median([ratio(max(s["rank_compute_s"]), mean(s["rank_compute_s"]))
                                         for s in steps]), "ratio"),
        "core.serialize_s": (span_mean(spans, "core.serialize"), "s"),
        "core.parallel_eff": (ratio(one_rank["one_rank_step_s"], 4 * steps[0]["wall"])
                              if one_rank and steps else 0.0, "ratio"),
        "geom.cuts_per_cell": (ratio(sum(pick("cuts")), built), "count"),
        "geom.screen_keep_ratio": (ratio(sum(pick("cand_kept")), sum(pick("cand_seen"))), "ratio"),
        "geom.exact_fallbacks": (median(pick("exact_fallbacks")), "count"),
        "geom.build_us_per_cell": (ratio(sum(s["end"] - s["start"] for s in replay_spans
                                             if s["name"] == "geom.build_into"),
                                         replay["sites"]) * 1e6 if replay else 0.0, "us"),
        "geom.canonicalize_us_per_cell": (ratio(sum(s["end"] - s["start"] for s in replay_spans
                                                    if s["name"] == "geom.canonicalize"),
                                                replay["canonicalized"]) * 1e6 if replay else 0.0,
                                          "us"),
        "serve.warm_batch_ms": (median([b["wall"] for b in locates if not b["cold"]]) * 1e3, "ms"),
        "serve.cold_batch_ms": (median([b["wall"] for b in locates if b["cold"]]) * 1e3, "ms"),
        "serve.walk_steps_mean": (ratio(sum(b["walk_steps"] for b in locates),
                                        sum(b["queries"] for b in locates)), "count"),
        "serve.fallback_ratio": (ratio(sum(b["fallbacks"] for b in locates),
                                       sum(b["queries"] for b in locates)), "ratio"),
        "serve.cache_hit_ratio": (ratio(cache["hits"], cache["hits"] + cache["misses"]) if cache
                                  else ratio(sum(not b["cold"] for b in batches), len(batches)),
                                  "ratio"),
        "serve.void_lookup_ms": (median([b["wall"] for b in batches if b["kind"] == "void"]) * 1e3, "ms"),
        "serve.region_ms": (median([b["wall"] for b in batches if b["kind"] == "region"]) * 1e3, "ms"),
        "unattributed_s": (mean(rows["unattributed"]), "s"),
        "trace_overhead_frac": (ratio(median([u["wall"] for u in traced]),
                                      median([u["wall"] for u in untraced])) - 1.0, "ratio"),
    }
    return m, rows, problems


# --- main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"insitu_bench: {e}")
        return 2
    run_dir = os.path.join(ROOT, ".bench_build", "runs", f"{a.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", run_dir]
        code, _ = call(cmd, RUN_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            log(f"insitu_bench: benchmark binary exited with status {code}")
            return 1
        with open(os.path.join(run_dir, "result.json")) as f:
            r = json.load(f)
        spans = load_spans(os.path.join(run_dir, "spans.jsonl")) if a.trace else []
        if a.trace:
            shutil.copy(os.path.join(run_dir, "spans.jsonl"),
                        os.path.join(ROOT, ".bench_build", f"spans-{a.workload}.jsonl"))
    except subprocess.TimeoutExpired:
        log(f"insitu_bench: benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    meta = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "trace": a.trace, "build_type": r["build_type"],
            "compiled_as": r["compiled_as"], "compiler": r["compiler"],
            "backend": r["backend"],
            "cpus": os.cpu_count(), "ranks": r["ranks"], "commit": source_id()}
    print("# meta " + json.dumps(meta))
    if r["build_type"] != "Release" or r["compiled_as"] != "release":
        banner = ("#" * 72 + "\n#  WARNING: NOT A RELEASE BUILD (" + r["build_type"] + ", " +
                  r["compiled_as"] + "). These numbers are not comparable.\n" + "#" * 72)
        log(banner)
        print(banner)

    if "merged_digest" in r["extra"]:
        print("# merged mesh digest (FNV-1a of core::merged_mesh_bytes): " +
              r["extra"]["merged_digest"])
    failures = r["failures"]
    attempted = max(1, r["attempted"])
    for f in failures:
        print("# FAILED " + f)
    notes = {}
    if a.trace:
        metrics, rows, problems = per_layer(r, spans)
        wall = sum(mean(v) for v in rows.values())
        print(f"# ledger ({a.workload}, per traced {'step' if r['steps'] else 'batch'}, "
              f"rank mean, {len(rows['unattributed'])} samples)")
        for k, v in rows.items():
            print(f"#   {k:<13} {mean(v):12.6f} s  {100 * ratio(mean(v), wall):6.2f} %")
        print(f"#   {'total':<13} {wall:12.6f} s")
        print(f"# tracing overhead vs untraced step_s_p50: "
              f"{100 * metrics['trace_overhead_frac'][0]:+.2f} %")
    else:
        metrics, notes, problems = end_to_end(r)
    for name, (value, unit) in metrics.items():
        extra = ""
        if notes.get(name):
            _, pct, n = notes[name]
            extra = f"  (p{pct:.1f} of n={n})"
            if n < 22:  # index n-11 is above the median index (n-1)/2 only from n = 22
                extra += ", at or below the median: too few samples for a tail"
        print(f"{name} {value:.6g} {unit}{extra}")
    print(f"failed_frac {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)} of {r['attempted']})")
    if r["steps"]:
        print(f"uncertified_cells {median([s['cells_uncertified'] for s in r['steps']]):.6g} count")
    for p in problems:
        print("# STATISTICS CHECK FAILED " + p)

    correct = not failures and not problems
    result = {"correct": correct, "attempted": r["attempted"] or 1, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
