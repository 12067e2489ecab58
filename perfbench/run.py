#!/usr/bin/env python3
"""Repository benchmark: certified solves, QoE stream sessions, open-loop fleet.

Run from the repository root:

    python3 perfbench/run.py --workload solve-cert --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload known-defects           # known solver defects
    python3 perfbench/run.py --self-test                        # smoke + gate test
    python3 perfbench/run.py --write-reference                  # regenerate refs

Each run builds the solver libraries and the perfbench engine from source
(Release, into .bench_build/perfbench), generates the workload inputs from
--seed, runs the engine, checks every output against reference.json, prints a
human-readable report with every metric by name, unit and sample count, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer ones, from a separate traced run.  The exit
status is 0 only when every output passed the correctness gate.
See README.md for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
ENGINE = BUILD / "perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("solve-cert", "stream-qoe", "fleet-open")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")

# Nominal wall time of one catalogue pass on a 4-core x86 host (Release).
NOMINAL_PASS_S = {"solve-cert": 5.0, "stream-qoe": 10.0}
ENGINE_TIMEOUT_S = 170
OFFLINE_TIMEOUT_S = 900   # reference generation and the defect probe

# --- Catalogues (regenerated into reference.json by --write-reference) ----

# Table-I instances of `mmwave_cli solve --links=L --seed=S` (K=5, Q=5,
# demand scale 1e-3), solved cold with the default hybrid pricing.  The
# median falls among L=20 seeds 11, 4 and 7, which take about the same time;
# with L=20 seeds 1, 3 and 5, a faster cluster, it fell in a gap between
# clusters and jumped by 10% from run to run.  The L=30 seed is the p90 (the
# slowest of nine).  The catalogue is small enough that a 30 s run times
# every instance six times: each op's median needs samples spread over the
# run, and L=20 seed 6 (~3.5 s) or more L=30 seeds (~2 s each) would cut
# that to three or four.
SOLVE_CERT_CATALOGUE = [(20, s) for s in (2, 4, 7, 8, 9, 10, 11, 12)] + [(30, 5)]
# 24-GoP drain-risk sessions at L=10, K=5 under deep Markov blockage.
STREAM_QOE_SEEDS = [101 + 37 * i for i in range(24)]
# Fleet request mix at L=6, K=2, Q=3.
FLEET_CATALOGUE_SIZE = 240
FLEET_CATALOGUE_SEED = 20170605
FLEET_RATES = (("low", 25.0), ("mid", 50.0), ("high", 100.0))
FLEET_PASSES = 5
FLEET_SLO_MS = 100.0          # p99 latency limit for max_rate_at_slo_rps
FLEET_LATENCY_LIMIT_S = 1.0   # a request slower than this counts as failed
# An item whose reference run is not clean, or runs longer than its cap, is a
# known defect: listed in reference.json and run by `--workload known-defects`
# rather than inside a timed workload.  The solve cap is the default pricing
# budget (CgOptions: 10 s per exact-pricing call): a solve that outlives it
# has been through the budget/escalation path.
SOLVE_COST_CAP_S = 10.0
FLEET_COST_CAP_S = 0.25
# Known solver defects, always probed:
#  * L=30 seed 2: one pricing MILP near the 10 s budget; certifies in 9-21 s
#    or, truncated, escalates and degrades with pricing-failure after ~31-34 s.
#  * fleet solve seed 68000211: ~5 s per-process (13 pricing-MILP calls).
#  * fleet stream seed 77000238 (4 GoPs, p_block 0.3): ~100 s per-process.
FLEET_SHAPE = {"links": 6, "channels": 2, "levels": 3}
NAMED_DEFECTS = [
    {"workload": "solve-cert", "links": 30, "seed": 2},
    {"workload": "fleet-open", "request": {"op": "solve", **FLEET_SHAPE, "seed": 68000211}},
    {"workload": "fleet-open", "request": {"op": "stream", **FLEET_SHAPE, "seed": 77000238,
                                           "gops": 4, "p_block": 0.3}},
]


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


# --- Build and host guard -------------------------------------------------

def ensure_build():
    """Configures (once) and builds the engine; refuses unoptimised builds."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"solver sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail_setup("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail_setup("build failed")
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail_setup(f"refusing to report numbers from build type '{build_type}'")
    info = json.loads(subprocess.run([str(ENGINE), "build-info"], capture_output=True,
                                     text=True, check=True).stdout)
    if not info.get("optimized"):
        fail_setup("refusing to report numbers from an unoptimised engine")
    return info


def host_info(build):
    load = os.getloadavg() if hasattr(os, "getloadavg") else (float("nan"),) * 3
    return {
        "build_type": build["build_type"],
        "cxx_flags": build["cxx_flags"].strip(),
        "compiler": build["compiler"],
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in load],
    }


# --- Engine invocation ----------------------------------------------------

def run_engine(mode, items, workdir, passes, traced, extra=(), timeout=ENGINE_TIMEOUT_S):
    """Runs one engine pass over `items` (input lines); returns its JSON."""
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{mode}-{'traced' if traced else 'plain'}"
    inp, out, spans = workdir / f"{tag}.in", workdir / f"{tag}.json", workdir / f"{tag}.spans"
    inp.write_text("".join(line + "\n" for line in items))
    out.unlink(missing_ok=True)
    cmd = [str(ENGINE), mode, f"--in={inp}", f"--out={out}", f"--passes={passes}",
           f"--trace={1 if traced else 0}", f"--trace-out={spans}",
           f"--workdir={workdir / 'state'}", *extra]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail_setup(f"{mode} engine timed out")
    if code != 0 or not out.is_file():
        fail_setup(f"{mode} engine exited with {code}")
    result = json.loads(out.read_text())
    result["spans_file"] = str(spans.relative_to(ROOT)) if traced else ""
    return result


# --- Statistics -----------------------------------------------------------

def pct(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    v = sorted(values)
    if not v:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(v)))
    return v[min(rank, len(v)) - 1]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def close_rel(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def closed_loop_passes(workload, seconds):
    """Whole passes over the catalogue that fill about `seconds`.

    The count depends only on --seconds, so every run of a workload makes the
    same number of passes and the per-op medians stay comparable.
    """
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


# --- Workload: solve-cert -------------------------------------------------

def solve_cert_check(op, ref):
    """Returns the list of gate failures of one certified solve."""
    errors = []
    if not op["converged"] or op["degraded"]:
        errors.append(f"not certified ({op['stop_reason']})")
    if not op["verify_ok"]:
        errors.append("ScheduleVerifier: " + op["verify_detail"])
    lb, ub = op["lower_bound"], op["total_slots"]
    if lb is None or lb > ub * (1 + 1e-9):
        errors.append(f"LB {lb} > UB {ub}")
    if ref is None or not close_rel(ub, ref, 1e-7):
        errors.append(f"objective {ub!r} != reference {ref!r}")
    if "certify_ok" in op and not (op["certify_ok"] and op["cold_lp_ok"]):
        errors.append("certificate replay failed")
    return errors


def run_solve_cert(seed, seconds, traced, ref, workdir):
    catalogue = ref["solve-cert"]["catalogue"]
    order = list(catalogue)
    rng_for("solve-cert", seed).shuffle(order)
    items = [f"{c['links']} {c['seed']}" for c in order]
    res = run_engine("solve-cert", items, workdir, closed_loop_passes("solve-cert", seconds),
                     traced)
    refs = {(c["links"], c["seed"]): c["total_slots"] for c in catalogue}
    ops = res["ops"]
    failures, failed_ops = [], 0
    for op in ops:
        errs = solve_cert_check(op, refs.get((op["links"], op["seed"])))
        failed_ops += bool(errs)
        failures += [f"L={op['links']} seed={op['seed']}: {e}" for e in errs]
    # Each instance's time is its median over the run's passes: the host's
    # co-tenants slow a few seconds of CPU at a time by up to ~1.7x, and the
    # passes spread each instance's samples over the whole run.  The
    # end-to-end metrics read the solving thread's CPU time, which leaves out
    # time the host took the CPU away; wall times stay in the report.
    key = lambda o: (o["links"], o["seed"])
    cpu = median_over_passes(ops, key, "cpu_s")
    wall = median_over_passes(ops, key, "wall_s")
    batches = [sum(o["wall_s"] for o in ops if o["pass"] == p) for p in range(res["passes"])]
    report = {f"certify_s_p50.L{links}": {
        "unit": "s", "value": pct([t for (l, _), t in wall.items() if l == links], 50),
        "n": sum(1 for o in ops if o["links"] == links)} for links in (20, 30)}
    report["batch_s"] = {"unit": "s", "value": statistics.median(batches), "n": len(batches)}
    e2e = {
        "op_ms_p50": pct(cpu.values(), 50) * 1e3,
        "op_ms_p90": pct(cpu.values(), 90) * 1e3,
        "work_s": sum(cpu.values()),
    }
    layers = solve_cert_layers(ops) if traced else {}
    return res, len(ops), failed_ops, failures, e2e, report, layers


def median_over_passes(items, key, field):
    """Per-key median of `field` over the passes of one run."""
    samples = {}
    for item in items:
        samples.setdefault(key(item), []).append(item[field])
    return {k: statistics.median(v) for k, v in samples.items()}


def solve_cert_layers(ops):
    n = len(ops)
    s = lambda key: sum(o[key] for o in ops)
    solves = s("master_solves")
    return {
        "milp.ms": 1e3 * s("milp_s") / n, "milp.calls": s("milp_calls") / n,
        "milp.certify_ms": mean([o["certify_ms"] for o in ops if "certify_ms" in o]),
        "master.ms": 1e3 * s("master_s") / n, "master.solves": solves / n,
        "master.pivots": s("master_pivots") / n,
        "master.warm_hit_rate": s("master_warm_hits") / solves if solves else 0.0,
        "lp.ftran": s("lp_ftran") / n, "lp.btran": s("lp_btran") / n,
        "lp.refactorizations": s("lp_refactorizations") / n,
        "lp.cold_solve_ms": mean([o["cold_lp_ms"] for o in ops if "cold_lp_ms" in o]),
        "cg.iterations": s("iterations") / n, "cg.columns": s("columns") / n,
        "cg.solve_ms": 1e3 * s("wall_s") / n,
        "greedy.ms": 1e3 * s("greedy_s") / n, "greedy.calls": s("greedy_calls") / n,
        "greedy.useful_ratio": (s("greedy_accepted") / s("greedy_calls")
                                if s("greedy_calls") else 0.0),
        "check.verify_ms": mean([o["verify_ms"] for o in ops]),
    }


# --- Workload: stream-qoe -------------------------------------------------

def stream_check(session, ref):
    errors = []
    if ref is None:
        return ["no reference"]
    if not session["completed"] or session["gops"] != 24 or len(session["gop_ms"]) != 24:
        errors.append("session did not complete 24 GoPs")
    if session["plan_digest_chain"] != ref["plan_digest_chain"]:
        errors.append(f"digest {session['plan_digest_chain']} != {ref['plan_digest_chain']}")
    if not close_rel(session["stall_s"], ref["stall_s"], 1e-7):
        errors.append(f"stall {session['stall_s']!r} != {ref['stall_s']!r}")
    if not close_rel(session["layer_delivery_ratio"], ref["layer_delivery_ratio"], 1e-12):
        errors.append("layer delivery ratio differs from reference")
    if session["checkpoint_save_failures"]:
        errors.append(f"{session['checkpoint_save_failures']} checkpoint saves failed")
    return errors


def run_stream_qoe(seed, seconds, traced, ref, workdir):
    catalogue = ref["stream-qoe"]["catalogue"]
    order = list(catalogue)
    rng_for("stream-qoe", seed).shuffle(order)
    res = run_engine("stream-qoe", [str(c["seed"]) for c in order], workdir,
                     closed_loop_passes("stream-qoe", seconds), traced)
    refs = {c["seed"]: c for c in catalogue}
    sessions = res["sessions"]
    failures, failed_ops, attempted = [], 0, 0
    for s in sessions:
        attempted += 24
        errs = stream_check(s, refs.get(s["seed"]))
        if errs:
            failed_ops += 24
            failures += [f"session seed={s['seed']}: {e}" for e in errs]
    # Median over the passes per (session, period), as for solve-cert; the
    # end-to-end metrics read thread CPU time, the report wall time.
    def gop_medians(field):
        return list(median_over_passes(
            ({"key": (s["seed"], g), "ms": ms} for s in sessions
             for g, ms in enumerate(s[field])), lambda x: x["key"], "ms").values())
    gops, gops_cpu = gop_medians("gop_ms"), gop_medians("gop_cpu_ms")
    session_cpu = median_over_passes(sessions, lambda s: s["seed"], "cpu_s")
    first = [s for s in sessions if s["pass"] == 0]
    offered = sum(s["layer_gops_offered"] for s in first)
    delivered = sum(s["layer_gops_delivered"] for s in first)
    n_gops = sum(len(s["gop_ms"]) for s in sessions)
    report = {
        "gop_ms_p50": {"unit": "ms", "value": pct(gops, 50), "n": n_gops},
        "gop_ms_p90": {"unit": "ms", "value": pct(gops, 90), "n": n_gops},
        "stall_s": {"unit": "s", "value": sum(s["stall_s"] for s in first), "n": len(first)},
        "layer_delivery_ratio": {"unit": "ratio", "value": delivered / offered if offered else 1.0,
                                 "n": offered},
    }
    e2e = {"op_ms_p50": pct(gops_cpu, 50), "op_ms_p90": pct(gops_cpu, 90),
           "work_s": sum(session_cpu.values())}
    layers = stream_layers(sessions) if traced else {}
    return res, attempted, failed_ops, failures, e2e, report, layers


def stream_layers(sessions):
    gops = sum(len(s["gop_ms"]) for s in sessions)
    n = len(sessions)
    s = lambda key: sum(x[key] for x in sessions)
    sched = [v for x in sessions for v in x["schedule_ms"]]
    saves = [v for x in sessions for v in x["save_ms"]]
    self_ms = sum(sum(x["gop_ms"]) for x in sessions) - sum(sched) - sum(saves)
    saves_n = s("checkpoint_saves")
    return {
        "cg.iterations": s("cg_iterations") / gops, "cg.columns": s("cg_columns") / gops,
        "pool.hit_rate": s("pool_columns_reused") / s("pool_columns_loaded")
        if s("pool_columns_loaded") else 0.0,
        "pool.columns_loaded": s("pool_columns_loaded") / gops,
        "pool.columns_reused": s("pool_columns_reused") / gops,
        "pool.columns_repaired": s("pool_columns_repaired") / gops,
        "pool.columns_dropped": s("pool_columns_dropped") / gops,
        "pool.evicted": s("pool_evicted") / gops,
        "pool.neighbour_seeded": s("pool_neighbour_seeded") / gops,
        "checkpoint.save_ms": mean(saves),
        "checkpoint.saves": saves_n / n,
        "checkpoint.delta_saves": s("checkpoint_delta_saves") / n,
        "checkpoint.bytes_per_save": s("checkpoint_bytes") / saves_n if saves_n else 0.0,
        "stream.schedule_ms": mean(sched),
        "stream.self_ms": self_ms / gops,
    }


# --- Workload: fleet-open -------------------------------------------------

def fleet_arrivals(catalogue, seed, seconds):
    """Poisson arrivals at each ladder rate for seconds/len(rates) each."""
    rng = rng_for("fleet-open", seed)
    order = list(range(len(catalogue)))
    rng.shuffle(order)
    phase_len = seconds / len(FLEET_RATES)
    arrivals, k = [], 0
    for phase, (name, rate) in enumerate(FLEET_RATES):
        t = phase * phase_len
        end = t + phase_len
        while True:
            t += rng.expovariate(rate)
            if t >= end:
                break
            idx = order[k % len(order)]
            k += 1
            req = dict(catalogue[idx]["request"])
            req = {"id": f"{name}{k:05d}-c{idx}", **req}
            arrivals.append((t, phase, idx, json.dumps(req, separators=(",", ":"))))
    return arrivals, phase_len


def fleet_check(req, entry):
    if not req["recorded"]:
        return ["no record"]
    rec = req["record"]
    errors = []
    if rec["outcome"] != "ok":
        errors.append(f"outcome {rec['outcome']} ({rec['message']})")
    elif not close_rel(rec["total_slots"], entry["total_slots"], 1e-7):
        errors.append(f"total_slots {rec['total_slots']!r} != per-process {entry['total_slots']!r}")
    elif rec["op"] == "stream" and rec["message"] != entry["message"]:
        errors.append(f"stream witness {rec['message']} != {entry['message']}")
    elif req["record_s"] - req["due_s"] > FLEET_LATENCY_LIMIT_S:
        errors.append(f"latency {req['record_s'] - req['due_s']:.3f} s over the limit")
    return errors


def fleet_backlog(reqs, start, phase_len):
    """Admitted minus finished at the end of each quarter of one phase."""
    out = []
    for q in range(1, 5):
        tq = start + q * phase_len / 4
        out.append(sum(1 for r in reqs if r["admit_s"] <= tq)
                   - sum(1 for r in reqs if r["recorded"] and r["record_s"] <= tq))
    return out


def run_fleet_open(seed, seconds, traced, ref, workdir):
    catalogue = ref["fleet-open"]["catalogue"]
    # The schedule is replayed FLEET_PASSES times, each on a fresh server; the
    # end-to-end metrics read each arrival's median over the replays, as the
    # closed loops read each op's median over their passes.
    arrivals, phase_len = fleet_arrivals(catalogue, seed, seconds / FLEET_PASSES)
    items = [f"{t:.9f} {phase} {line}" for t, phase, _, line in arrivals]
    runs = [run_engine("fleet-open", items, workdir / f"pass{p}", 1, traced)
            for p in range(FLEET_PASSES)]
    if not all(res["exec_cpu_ok"] for res in runs):
        fail_setup("fleet-open: records were not emitted on the worker that ran them")
    failures, failed = [], 0
    for res in runs:
        for (_, _, idx, _), req in zip(arrivals, res["requests"]):
            errs = fleet_check(req, catalogue[idx])
            req["failed"] = bool(errs)
            failed += bool(errs)
            failures += [f"request {req.get('record', {}).get('id', idx)}: {e}" for e in errs]
    # A failed request counts as missing the latency limit.
    lat = lambda rs: [(r["record_s"] - r["due_s"] if not r["failed"]
                       else max(r["record_s"] - r["due_s"], FLEET_LATENCY_LIMIT_S))
                      if r["recorded"] else seconds for r in rs]
    reqs = [r for res in runs for r in res["requests"]]
    report, phases = {}, []
    for phase, (name, rate) in enumerate(FLEET_RATES):
        rs = [r for r in reqs if r["phase"] == phase]
        lats = lat(rs)
        backlog = [fleet_backlog(res["requests"], phase * phase_len, phase_len) for res in runs]
        # Growing: rose every quarter, by more than the one worker holds.
        growing = any(b[3] > b[0] + 1 and b == sorted(b) for b in backlog)
        shed = sum(1 for r in rs if r["recorded"] and r["record"]["outcome"] == "shed")
        p99 = pct(lats, 99)
        phases.append({"name": name, "rate": rate, "n": len(rs), "p50_ms": pct(lats, 50) * 1e3,
                       "p99_ms": p99 * 1e3, "backlog_per_quarter": backlog,
                       "growing": growing, "shed": shed,
                       "failed": sum(1 for r in rs if r["failed"])})
        report[f"lat_ms_p99.{name}"] = {"unit": "ms", "value": p99 * 1e3, "n": len(rs),
                                        "tail_samples": len(rs) - math.ceil(0.99 * len(rs))}
    mid = [r for r in reqs if r["phase"] == 1]
    report["lat_ms_p50.mid"] = {"unit": "ms", "value": pct(lat(mid), 50) * 1e3, "n": len(mid)}
    meets = [p["rate"] for p in phases
             if p["p99_ms"] <= FLEET_SLO_MS and not p["growing"] and p["shed"] == 0]
    report["max_rate_at_slo_rps"] = {"unit": "1/s", "value": max(meets) if meets else 0.0,
                                     "n": len(phases)}
    report["gen_lateness_ms_max"] = {"unit": "ms", "n": len(reqs), "value": 1e3 * max(
        (r["admit_s"] - r["due_s"] for r in reqs), default=0.0)}
    # The end-to-end metrics read each request's CPU time on the worker; the
    # due-to-record latencies and wall execution times stay in the report
    # and the per-layer metrics.  Host steal stretches wall time, and queueing
    # and in-order emission amplify it, so due-to-record percentiles swung by
    # a third or more between seeds of one build.
    exec_cpu_ms = list(median_over_passes(
        ({"arrival": i, "ms": r["exec_cpu_ms"]}
         for res in runs for i, r in enumerate(res["requests"])
         if r["recorded"] and r["exec_cpu_ms"] >= 0), lambda x: x["arrival"], "ms").values())
    # work_s is the server process's CPU time per request (all threads,
    # median replay), scaled to the catalogue size.
    e2e = {"op_ms_p50": pct(exec_cpu_ms, 50), "op_ms_p90": pct(exec_cpu_ms, 90),
           "work_s": statistics.median(res["cpu_s"] / len(res["requests"]) for res in runs)
           * len(catalogue)}
    merged = dict(runs[0])
    merged.update(requests=reqs, phases=phases,
                  setup_s=[x for res in runs for x in res["setup_s"]],
                  rss_peak_kb=max(res["rss_peak_kb"] for res in runs),
                  report={k: sum(res["report"][k] for res in runs) for k in runs[0]["report"]},
                  pool={k: sum(res["pool"][k] for res in runs) for k in runs[0]["pool"]})
    layers = fleet_layers(merged, phases) if traced else {}
    return merged, len(reqs), failed, failures, e2e, report, layers


def fleet_layers(res, phases):
    reqs = [r for r in res["requests"] if r["recorded"]]
    out = {}
    for op in ("solve", "resolve", "stream"):
        rs = [r["record"] for r in reqs if r["record"]["op"] == op]
        for what in ("wait", "exec"):
            v = [r[f"{what}_s"] * 1e3 for r in rs]
            out[f"fleet.{what}_ms_p50.{op}"] = pct(v, 50) if v else 0.0
            out[f"fleet.{what}_ms_p99.{op}"] = pct(v, 99) if v else 0.0
    rep, pool = res["report"], res["pool"]
    out.update({
        "fleet.backlog_max": max(max(b) for p in phases for b in p["backlog_per_quarter"]),
        "fleet.shed": rep["shed"], "fleet.degraded": rep["degraded"],
        "fleet.cancelled": rep["cancelled"],
        "fleet.gen_lateness_ms_max": 1e3 * max(
            (r["admit_s"] - r["due_s"] for r in res["requests"]), default=0.0),
        "pool.columns_loaded": pool["seeded_columns"] / max(1, len(reqs)),
        "pool.neighbour_seeded": pool["neighbour_seeded"] / max(1, len(reqs)),
        "pool.evicted": pool["evicted"] / max(1, len(reqs)),
    })
    return out


RUNNERS = {"solve-cert": run_solve_cert, "stream-qoe": run_stream_qoe,
           "fleet-open": run_fleet_open}


# --- Metrics and the result line -----------------------------------------

def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_workload(workload, seed, seconds, trace, ref, bench):
    """Runs one workload: (result line, report metrics, gate failures, report extras)."""
    workdir = BUILD / "runs" / f"{workload}-s{seed}-t{trace}"
    runner = RUNNERS[workload]
    res, attempted, failed, failures, e2e, report, _ = runner(seed, seconds, False, ref, workdir)
    e2e["setup_s"] = statistics.median(res["setup_s"])
    e2e["rss_peak_mb"] = res["rss_peak_kb"] / 1024.0
    report["setup_s"] = {"unit": "s", "value": e2e["setup_s"], "n": len(res["setup_s"])}
    report["rss_peak_mb"] = {"unit": "MB", "value": e2e["rss_peak_mb"], "n": 1}
    report["failed_frac"] = {"unit": "ratio", "value": failed / attempted if attempted else 1.0,
                             "n": attempted}
    metrics, extra = {}, {"phases": res.get("phases")}
    if trace:
        tres, t_att, t_failed, t_failures, t_e2e, _, layers = runner(
            seed, seconds, True, ref, workdir)
        attempted += t_att
        failed += t_failed
        failures += t_failures
        layers["trace.spans"] = tres["spans"]
        layers["trace.overhead_ms"] = t_e2e["op_ms_p50"] - e2e["op_ms_p50"]
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
        extra["span_tree"] = tres["span_tree"]
        extra["spans_file"] = tres["spans_file"]
        extra["tracing_overhead_ms"] = layers["trace.overhead_ms"]
    else:
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": float(e2e[m["name"]]), "unit": m["unit"]}
    line = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, report, failures, extra


def print_report(workload, seed, trace, host, line, report, failures, extra):
    log(f"== perfbench {workload} seed={seed} trace={trace}")
    log("   host: " + json.dumps(host))
    log(f"   ops: attempted={line['attempted']} failed={line['failed']} "
        f"succeeded={line['attempted'] - line['failed']}")
    for name, r in report.items():
        log(f"   {name:<24} {r['value']:>14.6g} {r['unit']:<6} (n={r['n']})")
    for p in extra.get("phases") or []:
        log(f"   phase {p['name']:<5} {p['rate']:>6.0f}/s n={p['n']:<5} p50={p['p50_ms']:.2f} ms "
            f"p99={p['p99_ms']:.2f} ms backlog/quarter={p['backlog_per_quarter']} "
            f"growing={p['growing']} shed={p['shed']} failed={p['failed']}")
    if trace:
        log(f"   tracing overhead (traced - untraced op p50): "
            f"{extra['tracing_overhead_ms']:.4f} ms; spans in {extra['spans_file']}")
        log("   span tree (count, total ms, self ms):")
        for path, a in sorted(extra["span_tree"].items()):
            log(f"     {path:<44} {a['count']:>6} {a['total_ms']:>12.3f} {a['self_ms']:>12.3f}")
    for name, m in line["metrics"].items():
        log(f"   metric {name:<34} {m['value']:>14.6g} {m['unit']}")
    for f in failures[:20]:
        log(f"   GATE FAILED: {f}")


def load_reference(path):
    if not path.is_file():
        fail_setup(f"reference file missing: {path}")
    return json.loads(path.read_text())


# --- Reference generation and the defect probe ----------------------------

def fleet_catalogue():
    rng = random.Random(FLEET_CATALOGUE_SEED)
    cat = []
    for _ in range(FLEET_CATALOGUE_SIZE):
        op = rng.choices(("solve", "resolve", "stream"), weights=(4, 3, 3))[0]
        req = {"op": op, **FLEET_SHAPE, "seed": rng.randrange(1, 2**31)}
        if op == "resolve":
            req.update(block_links=[rng.randrange(6)], block_atten=0.1)
        elif op == "stream":
            req.update(gops=4, p_block=0.3)
        cat.append(req)
    return cat


def fleet_per_process(requests, workdir):
    items = [f"0 0 {json.dumps({'id': f'c{i}', **r}, separators=(',', ':'))}"
             for i, r in enumerate(requests)]
    res = run_engine("fleet-reference", items, workdir, 1, False, timeout=OFFLINE_TIMEOUT_S)
    return res["records"]


def write_reference():
    ensure_build()
    workdir = BUILD / "reference"
    out = {"generated_by": "python3 perfbench/run.py --write-reference",
           "known_defects": []}
    cert = run_engine("solve-cert", [f"{l} {s}" for l, s in SOLVE_CERT_CATALOGUE],
                      workdir, 1, False, timeout=OFFLINE_TIMEOUT_S)
    out["solve-cert"] = {"catalogue": []}
    named = {(d["links"], d["seed"]) for d in NAMED_DEFECTS if d["workload"] == "solve-cert"}
    for op in cert["ops"]:
        entry = {"links": op["links"], "seed": op["seed"], "total_slots": op["total_slots"]}
        clean = op["converged"] and not op["degraded"] and op["verify_ok"]
        if clean and op["wall_s"] <= SOLVE_COST_CAP_S and (op["links"], op["seed"]) not in named:
            out["solve-cert"]["catalogue"].append(entry)
        else:
            out["known_defects"].append({"workload": "solve-cert", **entry,
                                         "stop_reason": op["stop_reason"],
                                         "wall_s": op["wall_s"]})
    qoe = run_engine("stream-qoe", [str(s) for s in STREAM_QOE_SEEDS], workdir, 1, False)
    out["stream-qoe"] = {"catalogue": [
        {k: s[k] for k in ("seed", "plan_digest_chain", "stall_s", "layer_delivery_ratio")}
        for s in qoe["sessions"]]}
    requests = fleet_catalogue()
    records = fleet_per_process(requests, workdir)
    out["fleet-open"] = {"catalogue": []}
    for req, rec in zip(requests, records):
        entry = {"request": req, "total_slots": rec["total_slots"], "message": rec["message"]}
        if rec["outcome"] == "ok" and rec["exec_s"] <= FLEET_COST_CAP_S:
            out["fleet-open"]["catalogue"].append(entry)
        else:
            out["known_defects"].append({"workload": "fleet-open", **entry,
                                         "outcome": rec["outcome"], "exec_s": rec["exec_s"]})
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    log(f"wrote {REFERENCE.relative_to(ROOT)}: {len(out['solve-cert']['catalogue'])} solves, "
        f"{len(out['stream-qoe']['catalogue'])} sessions, "
        f"{len(out['fleet-open']['catalogue'])} fleet requests, "
        f"{len(out['known_defects'])} known defects")


def known_defects(ref):
    """Runs every known defect and reports it; they count in failed_frac here."""
    workdir = BUILD / "runs" / "known-defects"
    defects = list(ref["known_defects"])
    defects += [d for d in NAMED_DEFECTS if d["workload"] == "fleet-open"
                and d["request"] not in [k.get("request") for k in defects]]
    attempted, failed = 0, 0
    cert = [d for d in defects if d["workload"] == "solve-cert"]
    if cert:
        res = run_engine("solve-cert", [f"{d['links']} {d['seed']}" for d in cert], workdir, 1,
                         False, timeout=OFFLINE_TIMEOUT_S)
        for op in res["ops"]:
            attempted += 1
            bad = op["degraded"] or not op["converged"] or op["wall_s"] > SOLVE_COST_CAP_S
            failed += bad
            log(f"   solve-cert L={op['links']} seed={op['seed']}: {op['wall_s']:.2f} s, "
                f"{op['stop_reason']}{' (degraded)' if op['degraded'] else ''}")
    fleet = [d for d in defects if d["workload"] == "fleet-open"]
    if fleet:
        for d, rec in zip(fleet, fleet_per_process([d["request"] for d in fleet], workdir)):
            attempted += 1
            slow = rec["outcome"] != "ok" or rec["exec_s"] > FLEET_COST_CAP_S
            failed += slow
            log(f"   fleet {rec['op']} seed={d['request']['seed']}: {rec['exec_s']:.2f} s "
                f"per-process, {rec['outcome']}")
    log(f"   known defects: {failed}/{attempted} still present")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": {
        "failed_frac": {"value": failed / attempted if attempted else 0.0, "unit": "ratio"}}}


# --- Self-test ------------------------------------------------------------

def smoke_reference(ref):
    small = json.loads(json.dumps(ref))
    small["solve-cert"]["catalogue"] = [c for c in ref["solve-cert"]["catalogue"]
                                        if c["links"] == 20][:2]
    small["stream-qoe"]["catalogue"] = ref["stream-qoe"]["catalogue"][:2]
    return small


def self_test(ref, bench):
    """Smoke runs of every workload: every metric emitted with its unit, the
    op accounting adds up, and a deliberately wrong reference trips the gate."""
    small = smoke_reference(ref)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, report, failures, _ = one_workload(workload, 1, 1.5, trace, small, bench)
            log(f"self-test: {workload} trace={trace}: {len(line['metrics'])} metrics, "
                f"{line['attempted']} ops, {line['failed']} failed")
            want = bench["per_layer"] if trace else bench["end_to_end"]
            for m in want:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{workload} trace={trace}: metric {m['name']} missing/bad")
            if set(line["metrics"]) != {m["name"] for m in want}:
                problems.append(f"{workload} trace={trace}: unexpected metric names")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: gate failed {failures[:3]}")
            if trace == 0:
                for name in REPORT_METRICS[workload]:
                    if name not in report or "unit" not in report[name] or "n" not in report[name]:
                        problems.append(f"{workload}: report metric {name} missing")
    wrong = json.loads(json.dumps(small))
    wrong["solve-cert"]["catalogue"][0]["total_slots"] *= 1 + 1e-6
    wrong["stream-qoe"]["catalogue"][0]["plan_digest_chain"] = "0x0000000000000000"
    wrong["fleet-open"]["catalogue"] = [dict(c, total_slots=c["total_slots"] + 1.0)
                                        for c in ref["fleet-open"]["catalogue"]]
    for workload in WORKLOADS:
        line, _, failures, _ = one_workload(workload, 2, 1.5, 0, wrong, bench)
        log(f"self-test: {workload} with a wrong reference: {line['failed']} of "
            f"{line['attempted']} ops failed the gate")
        if line["correct"] or not line["failed"] or not failures:
            problems.append(f"{workload}: a wrong reference did not trip the gate")
    for p in problems:
        log(f"SELF-TEST FAILED: {p}")
    log("self-test " + ("FAILED" if problems else "passed"))
    return not problems


REPORT_METRICS = {
    "solve-cert": ["setup_s", "rss_peak_mb", "failed_frac", "certify_s_p50.L20",
                   "certify_s_p50.L30", "batch_s"],
    "stream-qoe": ["setup_s", "rss_peak_mb", "failed_frac", "gop_ms_p50", "gop_ms_p90",
                   "stall_s", "layer_delivery_ratio"],
    "fleet-open": ["setup_s", "rss_peak_mb", "failed_frac", "lat_ms_p50.mid", "lat_ms_p99.low",
                   "lat_ms_p99.mid", "lat_ms_p99.high", "max_rate_at_slo_rps"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all", "known-defects"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if args.write_reference:
        write_reference()
        return 0
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"solver sources not found under {ROOT / 'src'}")
    bench = load_benchmark()
    ref = load_reference(REFERENCE)
    build = ensure_build()
    host = host_info(build)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.self_test:
        return 0 if self_test(ref, bench) else 1
    if args.workload is None:
        fail_setup("--workload is required")
    if args.workload == "known-defects":
        log("== perfbench known-defects  host: " + json.dumps(host))
        print(json.dumps(known_defects(ref)))
        return 0

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines, combined = [], {}
    for workload in workloads:
        line, report, failures, extra = one_workload(
            workload, args.seed, seconds, args.trace, ref, bench)
        print_report(workload, args.seed, args.trace, host, line, report, failures, extra)
        results = BUILD / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(
            {"host": host, "line": line, "report": report, "failures": failures,
             "extra": extra}, indent=1) + "\n")
        lines.append(line)
        combined.update({f"{workload}:{k}": v for k, v in report.items()})
    if len(lines) == 1:
        final = lines[0]
    else:
        log("== all workloads (name, value, unit, samples)")
        for name, r in combined.items():
            log(f"   {name:<36} {r['value']:>14.6g} {r['unit']:<6} (n={r['n']})")
        final = {"correct": all(l["correct"] for l in lines),
                 "attempted": sum(l["attempted"] for l in lines),
                 "failed": sum(l["failed"] for l in lines),
                 "metrics": {k: {"value": float(r["value"]), "unit": r["unit"]}
                             for k, r in combined.items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
