// perfbench — workload engine of the repository benchmark (README.md).
//
// Drives the public entry points of the solver stack on inputs that run.py
// generates from the workload seed, and writes every raw per-op sample plus
// the per-layer counters the layers already return as one JSON object.
// Percentiles, the correctness gate and the final metric line live in
// run.py; this binary only measures.
//
//   perfbench solve-cert --in=FILE --out=FILE --passes=K [--trace=0|1]
//   perfbench stream-qoe --in=FILE --out=FILE --passes=K --workdir=DIR
//   perfbench fleet-open --in=FILE --out=FILE
//   perfbench fleet-reference --in=FILE --out=FILE
//   perfbench build-info
//
// Closed-loop modes run the whole input list --passes times.  Common flags:
// --trace=1 (record spans and run the per-layer replays),
// --trace-out=FILE (span list, one JSON object per line, with self times).
//
// Input formats (one item per line):
//   solve-cert       "<links> <seed>"
//   stream-qoe       "<seed>"
//   fleet-open       "<due seconds> <phase> <request json line>"
//   fleet-reference  same as fleet-open; due and phase are ignored
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/schedule_verifier.h"
#include "common/cli.h"
#include "core/checkpoint_log.h"
#include "core/column_generation.h"
#include "core/master.h"
#include "core/pricing_milp.h"
#include "fleet/server.h"
#include "lp/simplex.h"
#include "stream/blockage_session.h"

namespace {

using namespace mmwave;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of the whole
/// process (CLOCK_PROCESS_CPUTIME_ID), in seconds.  Unlike wall time it
/// leaves out time the thread waited for a CPU, including time a
/// paravirtualised host stole from the guest.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

// ---------------------------------------------------------------------------
// Minimal JSON writer (the engine only writes; run.py parses).
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Obj {
 public:
  Obj& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  Obj& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  Obj& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Obj& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  Obj& raw(const std::string& key, const std::string& json) {
    parts_.push_back(json_string(key) + ":" + json);
    return *this;
  }
  std::string done() const { return "{" + join(parts_) + "}"; }

  static std::string join(const std::vector<std::string>& items) {
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ",";
      out += items[i];
    }
    return out;
  }

 private:
  std::vector<std::string> parts_;
};

std::string json_array(const std::vector<std::string>& items) {
  return "[" + Obj::join(items) + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (double v : values) items.push_back(json_number(v));
  return json_array(items);
}

// ---------------------------------------------------------------------------
// Trace: spans around the benchmark's own calls, kept in memory and written
// when the run ends.  Parents are added before their children.
// ---------------------------------------------------------------------------

class Trace {
 public:
  Trace(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  /// Records one finished span; returns its id (-1 when tracing is off).
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, long long request) {
    if (!enabled_) return -1;
    spans_.push_back({name, ms_at(start), ms_at(end), parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Per-span self time: duration minus the part of it that child spans
  /// cover (children may overlap, e.g. concurrent fleet requests).
  std::vector<double> self_ms() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double lo = spans_[i].start_ms, hi = spans_[i].end_ms;
      std::vector<std::pair<double, double>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0, reach = lo;
      for (const auto& [start, end] : kids) {
        const double a = std::max(start, reach), b = std::min(end, hi);
        if (b > a) covered += b - a;
        reach = std::max(reach, std::min(end, hi));
      }
      self[i] = (hi - lo) - covered;
    }
    return self;
  }

  /// Writes the span list, one JSON object per line.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::vector<double> self = self_ms();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << Obj()
                 .integer("id", static_cast<long long>(i))
                 .str("name", s.name)
                 .num("start_ms", s.start_ms)
                 .num("end_ms", s.end_ms)
                 .integer("parent", s.parent)
                 .integer("request", s.request)
                 .num("self_ms", self[i])
                 .done()
          << "\n";
    }
    return static_cast<bool>(out);
  }

  /// Span tree aggregated by path ("op/cg.solve"): count, total and self ms.
  std::string summary_json() const {
    struct Agg {
      long long count = 0;
      double total_ms = 0.0;
      double self_ms = 0.0;
    };
    const std::vector<double> self = self_ms();
    std::vector<std::string> paths(spans_.size());
    std::map<std::string, Agg> by_path;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      paths[i] = s.parent >= 0 ? paths[s.parent] + "/" + s.name : s.name;
      Agg& a = by_path[paths[i]];
      ++a.count;
      a.total_ms += s.end_ms - s.start_ms;
      a.self_ms += self[i];
    }
    Obj out;
    for (const auto& [path, a] : by_path) {
      out.raw(path, Obj()
                        .integer("count", a.count)
                        .num("total_ms", a.total_ms)
                        .num("self_ms", a.self_ms)
                        .done());
    }
    return out.done();
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start_ms;
    double end_ms;
    int parent;
    long long request;
  };

  double ms_at(Clock::time_point t) const {
    return 1e3 * seconds_between(origin_, t);
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Build and host facts reported with every result.
// ---------------------------------------------------------------------------

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

std::string build_json() {
  return Obj()
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .str("compiler", PERFBENCH_COMPILER)
      .boolean("optimized", kOptimized)
      .done();
}

long long rss_peak_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<long long>(usage.ru_maxrss);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

struct RunFlags {
  std::string in;
  std::string out;
  std::string trace_out;
  std::string workdir;
  int passes = 1;
  bool traced = false;
};

/// Writes the result object: build facts, set-up samples, peak RSS, the
/// workload's own fields and (when traced) the span summary.
int finish(const RunFlags& rf, const Trace& trace,
           const std::vector<double>& setup_s, Obj body) {
  body.raw("build", build_json())
      .raw("setup_s", json_numbers(setup_s))
      .integer("rss_peak_kb", rss_peak_kb())
      .integer("spans", static_cast<long long>(trace.size()))
      .raw("span_tree", trace.summary_json());
  std::ofstream out(rf.out);
  out << body.done() << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", rf.out.c_str());
    return 1;
  }
  if (trace.enabled() && !rf.trace_out.empty() && !trace.write(rf.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 rf.trace_out.c_str());
    return 1;
  }
  return 0;
}

/// Set-up repetitions before, and again after, the timed part.
constexpr int kSetupReps = 25;

/// Times `setup` — everything the first timed op needs — `reps` times.
/// Workloads call it with kSetupReps before and after their timed part, and
/// the closed loops once more before each timed op.  The shared hosts this
/// runs on switch between a fast and a ~1.7x slower state that lasts for
/// seconds, so samples taken at only two moments of a run gave a median
/// that jumped between the two states from run to run.
template <typename Fn>
void time_setup(int reps, std::vector<double>* samples, Fn&& setup) {
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setup();
    samples->push_back(seconds_between(t0, Clock::now()));
  }
}

// ---------------------------------------------------------------------------
// solve-cert: cold certified solves of Table-I instances.
// ---------------------------------------------------------------------------

struct CertInstance {
  int links = 0;
  std::uint64_t seed = 0;
  net::Network net;
  std::vector<video::LinkDemand> demands;
};

/// The instance `mmwave_cli solve --links=L --seed=S` solves: Table I,
/// K = 5 channels, Q = 5 rate levels, demand scale 1e-3.
CertInstance build_cert_instance(int links, std::uint64_t seed) {
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = 5;
  params.sinr_thresholds.resize(5);
  for (int q = 0; q < 5; ++q) params.sinr_thresholds[q] = 0.1 * (q + 1);
  common::Rng rng(seed);
  net::Network net = net::Network::table_i(params, rng);
  video::DemandConfig dcfg;
  dcfg.demand_scale = 1e-3;
  common::Rng drng = rng.fork(0x5EED);
  auto demands = video::make_link_demands(links, dcfg, drng);
  return {links, seed, std::move(net), std::move(demands)};
}

bool close_rel(double a, double b, double tol) {
  return std::fabs(a - b) <=
         tol * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

int run_solve_cert(const RunFlags& rf) {
  std::vector<std::pair<int, std::uint64_t>> items;
  for (const std::string& line : read_lines(rf.in)) {
    std::istringstream ss(line);
    int links = 0;
    unsigned long long seed = 0;
    if (!(ss >> links >> seed) || links < 1) {
      std::fprintf(stderr, "perfbench: bad solve-cert line '%s'\n",
                   line.c_str());
      return 2;
    }
    items.emplace_back(links, seed);
  }

  const auto build_all = [&items] {
    std::vector<CertInstance> built;
    built.reserve(items.size());
    for (const auto& [links, seed] : items) {
      built.push_back(build_cert_instance(links, seed));
    }
    return built;
  };
  std::vector<double> setup_s;
  std::vector<CertInstance> instances;
  time_setup(kSetupReps, &setup_s, [&] { instances = build_all(); });

  const Clock::time_point origin = Clock::now();
  Trace trace(rf.traced, origin);
  const core::CgOptions options;
  std::vector<std::string> ops;
  for (int pass = 0; pass < rf.passes; ++pass) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      time_setup(1, &setup_s, [&] { (void)build_all(); });
      const CertInstance& inst = instances[i];
      const long long request = static_cast<long long>(ops.size());
      const double c0 = thread_cpu_s();
      const Clock::time_point t0 = Clock::now();
      const core::CgResult r =
          core::solve_column_generation(inst.net, inst.demands, options);
      const Clock::time_point t1 = Clock::now();
      const double cpu_s = thread_cpu_s() - c0;
      const check::ScheduleVerifier verifier(inst.net);
      const check::VerifyReport report =
          verifier.verify_timeline(r.timeline, inst.demands, r.unserved_links);
      const Clock::time_point t2 = Clock::now();

      Obj op;
      // Per-layer replays (traced run, first pass only): the certifying
      // pricing MILP with the solve's final duals on a fresh cache, and a
      // cold LP solve of the final master model.
      if (rf.traced && pass == 0) {
        core::PricingMilpCache cache;
        const core::PricingResult pr = core::solve_pricing_milp(
            inst.net, r.duals_hp, r.duals_lp, options.exact, nullptr, &cache);
        const Clock::time_point t3 = Clock::now();
        core::MasterProblem master(inst.net, inst.demands);
        for (const sched::Schedule& column : r.pool) {
          (void)master.add_column(column);
        }
        core::MasterCertificate certificate;
        const core::MasterSolution ms = master.solve(&certificate);
        const Clock::time_point t4 = Clock::now();
        const lp::LpSolution cold = lp::solve_lp(certificate.model);
        const Clock::time_point t5 = Clock::now();
        const int op_span = trace.add("op", t0, t5, -1, request);
        trace.add("cg.solve", t0, t1, op_span, request);
        trace.add("check.verify", t1, t2, op_span, request);
        trace.add("milp.certify", t2, t3, op_span, request);
        trace.add("master.export", t3, t4, op_span, request);
        trace.add("lp.cold_solve", t4, t5, op_span, request);
        op.num("certify_ms", 1e3 * seconds_between(t2, t3))
            .boolean("certify_ok",
                     pr.exact && pr.psi_upper_bound <= 1.0 + options.eps)
            .num("cold_lp_ms", 1e3 * seconds_between(t4, t5))
            .boolean("cold_lp_ok",
                     ms.ok && cold.optimal() &&
                         close_rel(cold.objective, r.total_slots, 1e-7));
      } else {
        const int op_span = trace.add("op", t0, t2, -1, request);
        trace.add("cg.solve", t0, t1, op_span, request);
        trace.add("check.verify", t1, t2, op_span, request);
      }

      int greedy_accepted = 0;
      for (const core::IterationStat& h : r.history) {
        if (!h.exact_pricing && h.phi < -options.eps) ++greedy_accepted;
      }
      const core::CgProfile& p = r.profile;
      op.integer("links", inst.links)
          .integer("seed", static_cast<long long>(inst.seed))
          .integer("pass", pass)
          .num("wall_s", seconds_between(t0, t1))
          .num("cpu_s", cpu_s)
          .num("verify_ms", 1e3 * seconds_between(t1, t2))
          .boolean("converged", r.converged)
          .boolean("degraded", r.degraded)
          .str("stop_reason", core::to_string(r.stop_reason))
          .num("total_slots", r.total_slots)
          .num("lower_bound", r.lower_bound)
          .boolean("verify_ok", report.ok())
          .str("verify_detail", report.ok() ? "" : report.to_string())
          .integer("iterations", r.iterations)
          .integer("columns", static_cast<long long>(r.pool.size()))
          .num("master_s", p.master_seconds)
          .num("greedy_s", p.greedy_seconds)
          .num("milp_s", p.milp_seconds)
          .integer("master_pivots", p.master_pivots)
          .integer("master_solves", p.master_solves)
          .integer("master_warm_hits", p.master_warm_hits)
          .integer("greedy_calls", p.greedy_calls)
          .integer("greedy_accepted", greedy_accepted)
          .integer("milp_calls", p.milp_calls)
          .integer("lp_ftran", p.lp_ftran_calls)
          .integer("lp_btran", p.lp_btran_calls)
          .integer("lp_refactorizations", p.lp_refactorizations);
      ops.push_back(op.done());
    }
  }
  time_setup(kSetupReps, &setup_s, [&] { (void)build_all(); });

  return finish(rf, trace, setup_s,
                Obj().str("workload", "solve-cert").integer("passes", rf.passes)
                    .raw("ops", json_array(ops)));
}

// ---------------------------------------------------------------------------
// stream-qoe: 24-GoP blockage sessions with a warm SolverContext and one
// CheckpointLog save per period, as `mmwave_cli stream --checkpoint` runs.
// ---------------------------------------------------------------------------

constexpr int kQoeLinks = 10;
constexpr int kQoeChannels = 5;
constexpr int kQoeGops = 24;

stream::BlockageSessionConfig qoe_config(const stream::DemandPolicy* policy,
                                         std::uint64_t seed) {
  stream::BlockageSessionConfig cfg;
  cfg.session.num_gops = kQoeGops;
  cfg.session.demand_scale = 1e-3;
  cfg.blockage.p_block = 0.4;
  cfg.blockage.p_recover = 0.5;
  cfg.blockage.attenuation = 1e-3;
  cfg.demand_policy = policy;
  cfg.session_fingerprint =
      stream::blockage_session_fingerprint(cfg, kQoeLinks, seed);
  return cfg;
}

net::NetworkParams qoe_params() {
  net::NetworkParams params;
  params.num_links = kQoeLinks;
  params.num_channels = kQoeChannels;
  return params;
}

/// Everything a session needs before its first period.
struct QoeSetup {
  explicit QoeSetup(std::uint64_t seed, const std::string& log_path)
      : rng(seed),
        params(qoe_params()),
        model(kQoeLinks, kQoeChannels, params.noise_watts, rng),
        policy(stream::make_drain_risk_policy(stream::ClientBufferConfig{})),
        cfg(qoe_config(policy.get(), seed)),
        log(log_path) {
    std::filesystem::remove(log_path);
    std::filesystem::remove(log.delta_path());
    (void)log.open();
  }

  common::Rng rng;
  net::NetworkParams params;
  net::TableIChannelModel model;
  std::unique_ptr<stream::DemandPolicy> policy;
  stream::BlockageSessionConfig cfg;
  stream::SolverContext context;
  core::CheckpointLog log;
};

int run_stream_qoe(const RunFlags& rf) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& line : read_lines(rf.in)) {
    std::istringstream ss(line);
    unsigned long long seed = 0;
    if (!(ss >> seed)) {
      std::fprintf(stderr, "perfbench: bad stream-qoe line '%s'\n",
                   line.c_str());
      return 2;
    }
    seeds.push_back(seed);
  }
  std::filesystem::create_directories(rf.workdir);
  const auto log_path = [&rf](std::size_t i) {
    return rf.workdir + "/session-" + std::to_string(i) + ".ckpt";
  };

  // The timed sessions build their own QoeSetup; these repetitions only
  // measure what that costs for the whole catalogue.
  const auto build_all = [&] {
    std::vector<std::unique_ptr<QoeSetup>> built;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      built.push_back(std::make_unique<QoeSetup>(seeds[i], log_path(i)));
    }
  };
  std::vector<double> setup_s;
  time_setup(kSetupReps, &setup_s, build_all);

  const Clock::time_point origin = Clock::now();
  Trace trace(rf.traced, origin);
  stream::CgSchedulerOptions sched_opts;
  sched_opts.heuristic_only = false;  // hybrid pricing, the CLI default
  sched_opts.capture_checkpoint = true;

  std::vector<std::string> sessions;
  for (int pass = 0; pass < rf.passes; ++pass) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      time_setup(1, &setup_s, build_all);
      QoeSetup s(seeds[i], log_path(i));
      const long long request = static_cast<long long>(sessions.size());
      std::vector<std::pair<Clock::time_point, Clock::time_point>> schedules;
      std::vector<std::pair<Clock::time_point, Clock::time_point>> saves;
      std::vector<double> period_end_cpu;
      long long iterations = 0, columns = 0, save_failures = 0;

      const stream::Scheduler inner =
          stream::make_cg_scheduler(sched_opts, &s.context);
      const stream::Scheduler timed =
          [&inner, &schedules](const net::Network& net,
                               const std::vector<video::LinkDemand>& d) {
            const Clock::time_point a = Clock::now();
            stream::SchedulerResult out = inner(net, d);
            schedules.emplace_back(a, Clock::now());
            return out;
          };
      stream::BlockageRunControl control;
      control.on_period = [&](const core::StreamCursor& cursor, int) {
        const Clock::time_point a = Clock::now();
        if (s.context.has_last_checkpoint) {
          core::CgCheckpoint ckpt =
              s.context.manager.export_checkpoint(s.context.last_checkpoint);
          ckpt.has_session = true;
          ckpt.session = cursor;
          if (!s.log.save(ckpt).ok()) ++save_failures;
          iterations += s.context.last_checkpoint.iterations;
          columns += static_cast<long long>(
              s.context.last_checkpoint.pool.size());
        }
        saves.emplace_back(a, Clock::now());
        period_end_cpu.push_back(thread_cpu_s());
        return true;
      };

      common::Rng session_rng = s.rng.fork(1);
      const double start_cpu = thread_cpu_s();
      const Clock::time_point start = Clock::now();
      const stream::BlockageSessionMetrics m = stream::run_blockage_session(
          s.model, s.params, s.cfg, timed, session_rng, &s.context, &control);
      const Clock::time_point end = Clock::now();
      const double cpu_s = thread_cpu_s() - start_cpu;

      std::vector<double> gop_ms, gop_cpu_ms, schedule_ms, save_ms;
      double gop_start_cpu = start_cpu;
      for (const double cpu : period_end_cpu) {
        gop_cpu_ms.push_back(1e3 * (cpu - gop_start_cpu));
        gop_start_cpu = cpu;
      }
      const int session_span = trace.add("stream.session", start, end, -1,
                                         request);
      Clock::time_point gop_start = start;
      for (std::size_t g = 0; g < saves.size(); ++g) {
        const Clock::time_point gop_end = saves[g].second;
        gop_ms.push_back(1e3 * seconds_between(gop_start, gop_end));
        save_ms.push_back(
            1e3 * seconds_between(saves[g].first, saves[g].second));
        const int gop_span =
            trace.add("stream.gop", gop_start, gop_end, session_span, request);
        if (g < schedules.size()) {
          schedule_ms.push_back(1e3 * seconds_between(schedules[g].first,
                                                      schedules[g].second));
          trace.add("stream.schedule", schedules[g].first,
                    schedules[g].second, gop_span, request);
        }
        trace.add("checkpoint.save", saves[g].first, saves[g].second,
                  gop_span, request);
        gop_start = gop_end;
      }

      const core::CheckpointLogStats& ls = s.log.stats();
      char digest[24];
      std::snprintf(digest, sizeof digest, "0x%016llx",
                    static_cast<unsigned long long>(m.plan_digest_chain));
      sessions.push_back(
          Obj()
              .integer("seed", static_cast<long long>(seeds[i]))
              .integer("pass", pass)
              .num("wall_s", seconds_between(start, end))
              .num("cpu_s", cpu_s)
              .raw("gop_ms", json_numbers(gop_ms))
              .raw("gop_cpu_ms", json_numbers(gop_cpu_ms))
              .raw("schedule_ms", json_numbers(schedule_ms))
              .raw("save_ms", json_numbers(save_ms))
              .boolean("completed", m.completed)
              .boolean("all_served", m.base.all_served)
              .integer("gops", static_cast<long long>(m.base.gops.size()))
              .num("stall_s", m.stall_seconds)
              .integer("rebuffer_events", m.rebuffer_events)
              .integer("layer_gops_offered", m.layer_gops_offered)
              .integer("layer_gops_delivered", m.layer_gops_delivered)
              .num("layer_delivery_ratio", m.layer_delivery_ratio)
              .str("plan_digest_chain", digest)
              .integer("pool_periods", m.pool_periods)
              .integer("pool_columns_loaded", m.pool_columns_loaded)
              .integer("pool_columns_reused", m.pool_columns_reused)
              .integer("pool_columns_repaired", m.pool_columns_repaired)
              .integer("pool_columns_dropped", m.pool_columns_dropped)
              .num("pool_hit_rate", m.pool_hit_rate)
              .integer("pool_evicted", m.pool_evicted)
              .integer("pool_neighbour_seeded", m.pool_neighbour_seeded)
              .integer("cg_iterations", iterations)
              .integer("cg_columns", columns)
              .integer("checkpoint_saves", ls.saves)
              .integer("checkpoint_delta_saves", ls.delta_saves)
              .integer("checkpoint_bytes", ls.delta_bytes + ls.full_bytes)
              .integer("checkpoint_save_failures", save_failures)
              .done());
    }
  }
  time_setup(kSetupReps, &setup_s, build_all);

  return finish(rf, trace, setup_s,
                Obj().str("workload", "stream-qoe").integer("passes", rf.passes)
                    .raw("sessions", json_array(sessions)));
}

// ---------------------------------------------------------------------------
// fleet-open: Poisson arrivals fed through one in-process fleet::Server.
// ---------------------------------------------------------------------------

struct Arrival {
  double due_s = 0.0;
  int phase = 0;
  std::string line;
};

bool parse_arrivals(const std::string& path, std::vector<Arrival>* out) {
  for (const std::string& text : read_lines(path)) {
    std::istringstream ss(text);
    Arrival a;
    if (!(ss >> a.due_s >> a.phase)) return false;
    std::getline(ss >> std::ws, a.line);
    if (a.line.empty()) return false;
    out->push_back(std::move(a));
  }
  return true;
}

std::string record_json(const fleet::RequestRecord& rec) {
  return Obj()
      .integer("index", rec.index)
      .str("id", rec.id)
      .str("op", fleet::to_string(rec.op))
      .str("outcome", fleet::to_string(rec.outcome))
      .str("message", rec.message)
      .num("total_slots", rec.total_slots)
      .integer("iterations", rec.iterations)
      .boolean("converged", rec.converged)
      .num("wait_s", rec.wait_seconds)
      .num("exec_s", rec.exec_seconds)
      .done();
}

int run_fleet_open(const RunFlags& rf) {
  // One worker: every record is then emitted on the worker thread as soon
  // as its request finishes, so the worker's CPU clock between two records
  // is the CPU time of the second request.  With two workers, host steal
  // preempted a worker holding the shared-pool lock and stalled the other,
  // and per-request wall times swung by a fifth or more between seeds.
  fleet::ServerOptions options;
  options.workers = 1;
  std::vector<Arrival> arrivals;
  std::unique_ptr<fleet::Server> server;
  bool parsed_ok = true;
  const auto set_up = [&] {
    arrivals.clear();
    parsed_ok = parse_arrivals(rf.in, &arrivals);
    server = std::make_unique<fleet::Server>(options);
  };
  std::vector<double> setup_s;
  time_setup(kSetupReps, &setup_s, set_up);
  if (!parsed_ok) {
    std::fprintf(stderr, "perfbench: bad fleet-open input %s\n",
                 rf.in.c_str());
    return 2;
  }

  const std::size_t n = arrivals.size();
  std::vector<Clock::time_point> admitted(n), recorded(n);
  std::vector<fleet::RequestRecord> records(n);
  std::vector<bool> have_record(n, false);
  std::vector<double> record_cpu(n, 0.0);
  std::vector<std::thread::id> record_thread(n);
  // Start the arrival clock a little ahead so the first due time is not
  // already late when the server loop begins.
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
  Trace trace(rf.traced, origin);
  std::size_t next = 0;
  const fleet::LineSource source = [&](std::string* line) {
    if (next == n) return false;
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals[next].due_s)));
    admitted[next] = Clock::now();
    *line = arrivals[next].line;
    ++next;
    return true;
  };
  // Called in admission order with the server's record lock held.
  const fleet::RecordSink sink = [&](const fleet::RequestRecord& rec) {
    const auto i = static_cast<std::size_t>(rec.index);
    if (i >= n) return;
    recorded[i] = Clock::now();
    records[i] = rec;
    have_record[i] = true;
    record_cpu[i] = thread_cpu_s();
    record_thread[i] = std::this_thread::get_id();
  };
  const double start_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const fleet::ServerReport report = server->run(source, sink);
  const Clock::time_point end = Clock::now();
  const double cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - start_cpu;
  const core::PoolManagerMetrics pool = server->shared_pool().metrics();
  {
    // Same set-up again after the run, on scratch copies.
    std::vector<Arrival> scratch;
    time_setup(kSetupReps, &setup_s, [&] {
      scratch.clear();
      (void)parse_arrivals(rf.in, &scratch);
      const fleet::Server fresh(options);
    });
  }

  // Per-request CPU time from the worker's clock (see options.workers).  The
  // first request's share includes the worker thread's start-up, a few
  // microseconds.  Records emitted on this thread (admission errors) have
  // none; any other thread means the server no longer emits records where
  // they finish, and the attribution is refused.
  std::vector<double> exec_cpu_ms(n, -1.0);
  bool exec_cpu_ok = true;
  {
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id worker;
    double last = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!have_record[i] || record_thread[i] == caller) continue;
      if (worker == std::thread::id()) worker = record_thread[i];
      if (record_thread[i] != worker) exec_cpu_ok = false;
      exec_cpu_ms[i] = 1e3 * (record_cpu[i] - last);
      last = record_cpu[i];
    }
  }

  const int run_span = trace.add("fleet.run", origin, end, -1, -1);
  std::vector<std::string> requests;
  const auto at = [origin](Clock::time_point t) {
    return seconds_between(origin, t);
  };
  for (std::size_t i = 0; i < n; ++i) {
    Obj r;
    r.num("due_s", arrivals[i].due_s)
        .integer("phase", arrivals[i].phase)
        .num("admit_s", at(admitted[i]))
        .boolean("recorded", have_record[i]);
    if (have_record[i]) {
      const fleet::RequestRecord& rec = records[i];
      r.num("record_s", at(recorded[i]))
          .num("exec_cpu_ms", exec_cpu_ms[i])
          .raw("record", record_json(rec));
      const Clock::time_point due =
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(arrivals[i].due_s));
      const auto after = [](Clock::time_point t, double s) {
        return t + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
      };
      const long long request = static_cast<long long>(i);
      const int req_span =
          trace.add("fleet.request", due, recorded[i], run_span, request);
      const Clock::time_point start = after(admitted[i], rec.wait_seconds);
      trace.add("fleet.generate", due, admitted[i], req_span, request);
      trace.add("fleet.wait", admitted[i], start, req_span, request);
      trace.add("fleet.exec", start, after(start, rec.exec_seconds), req_span,
                request);
    }
    requests.push_back(r.done());
  }

  return finish(
      rf, trace, setup_s,
      Obj().str("workload", "fleet-open")
          .integer("workers", options.workers)
          .num("cpu_s", cpu_s)
          .boolean("exec_cpu_ok", exec_cpu_ok)
          .raw("requests", json_array(requests))
          .raw("report", Obj()
                             .integer("admitted", report.admitted)
                             .integer("completed", report.completed)
                             .integer("degraded", report.degraded)
                             .integer("shed", report.shed)
                             .integer("errors", report.errors)
                             .integer("cancelled", report.cancelled)
                             .done())
          .raw("pool", Obj()
                           .integer("stores", pool.stores)
                           .integer("seed_calls", pool.seed_calls)
                           .integer("seeded_columns", pool.seeded_columns)
                           .integer("neighbour_seeded", pool.neighbour_seeded)
                           .integer("evicted", pool.evicted)
                           .done()));
}

/// Per-process answers for a request list: one worker, no shared pool —
/// the baseline every fleet record must reproduce (as perf_fleet checks).
int run_fleet_reference(const RunFlags& rf) {
  std::vector<Arrival> arrivals;
  if (!parse_arrivals(rf.in, &arrivals)) return 2;
  std::vector<std::string> lines;
  for (const Arrival& a : arrivals) lines.push_back(a.line);
  fleet::ServerOptions options;
  options.workers = 1;
  options.share_pool = false;
  options.max_queue = static_cast<int>(lines.size()) + 8;
  fleet::Server server(options);
  std::vector<std::string> records;
  (void)server.run(lines, [&records](const fleet::RequestRecord& rec) {
    records.push_back(record_json(rec));
  });
  Trace none(false, Clock::now());
  return finish(rf, none, {}, Obj().str("workload", "fleet-reference")
                                  .raw("records", json_array(records)));
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags;
  flags.parse(argc, argv);
  const std::string mode =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (mode == "build-info") {
    std::printf("%s\n", build_json().c_str());
    return 0;
  }
  // Numbers from an unoptimised build are not worth reporting.
  if (!kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure an unoptimised build "
                 "(build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  RunFlags rf;
  rf.in = flags.get_string("in", "");
  rf.out = flags.get_string("out", "");
  rf.trace_out = flags.get_string("trace-out", "");
  rf.workdir = flags.get_string("workdir", "");
  rf.passes = std::max(1, static_cast<int>(flags.get_int("passes", 1)));
  rf.traced = flags.get_int("trace", 0) != 0;
  if (rf.in.empty() || rf.out.empty()) {
    std::fprintf(stderr, "usage: perfbench <mode> --in=FILE --out=FILE\n");
    return 2;
  }
  if (mode == "solve-cert") return run_solve_cert(rf);
  if (mode == "stream-qoe") {
    if (rf.workdir.empty()) {
      std::fprintf(stderr, "perfbench: stream-qoe needs --workdir\n");
      return 2;
    }
    return run_stream_qoe(rf);
  }
  if (mode == "fleet-open") return run_fleet_open(rf);
  if (mode == "fleet-reference") return run_fleet_reference(rf);
  std::fprintf(stderr, "perfbench: unknown mode '%s'\n", mode.c_str());
  return 2;
}
