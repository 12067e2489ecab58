// Fuzz target for core::parse_checkpoint and the delta-chain loader — the
// text surfaces the solver reads back from disk after a crash, i.e. bytes
// that survived whatever the filesystem did to them.  The contract under
// fuzz: never crash, never throw, and either return state whose fields are
// inside their documented ranges (sizes aligned, every transmission
// in-bounds, index/session either valid or degraded away whole) or a
// structured kInvalidInput error; for a delta chain, damage may only drop
// the chain tail, never corrupt the loaded base.
//
// Two drivers share this file (same layout as instance_spec_fuzz.cpp):
//  * LLVMFuzzerTestOneInput: the libFuzzer entry point (clang
//    -fsanitize=fuzzer builds; not compiled by default in this repo since
//    the toolchain is gcc-only).
//  * main(): a deterministic corpus-replay driver replaying every file in
//    tests/fuzz/corpus_checkpoint/ plus a mutation battery derived from
//    them, so the ctest run exercises thousands of inputs engine-free.
//    Corpus entries ending in ".delta" are replayed through
//    load_checkpoint_log against a fixed valid base; everything else goes
//    through parse_checkpoint.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/checkpoint_log.h"

namespace {

/// Range/alignment checks on an ACCEPTED checkpoint (or delta-replayed
/// state).  Shared by both fuzz surfaces.
bool sane_state(const mmwave::core::CgCheckpoint& c) {
  bool sane = c.links >= 1 && c.links <= 4096 && c.channels >= 1 &&
              c.channels <= 1024 && c.iterations >= 0 &&
              c.total_slots >= 0.0 &&
              c.duals_hp.size() == static_cast<std::size_t>(c.links) &&
              c.duals_lp.size() == static_cast<std::size_t>(c.links) &&
              c.pool.size() == c.pool_tau.size();
  // Lifecycle metadata: either aligned with the pool or degraded away
  // entirely — a partially-parsed meta section must never be returned.
  sane = sane && (c.pool_meta.empty() || c.pool_meta.size() == c.pool.size());
  if (c.pool_meta_degraded) sane = sane && c.pool_meta.empty();
  for (const auto& m : c.pool_meta) {
    sane = sane && m.last_used_epoch >= 0 &&
           std::isfinite(m.last_reduced_cost);
  }
  for (const auto& col : c.pool) {
    for (const auto& tx : col.transmissions()) {
      sane = sane && tx.link >= 0 && tx.link < c.links && tx.channel >= 0 &&
             tx.channel < c.channels && tx.power_watts >= 0.0;
    }
  }
  for (double tau : c.pool_tau) sane = sane && tau >= 0.0;

  // Delta binding + pool index: degraded means gone, entries in range.
  sane = sane && c.base_seq >= 0 && c.pool_epoch >= 0;
  if (c.pool_index_degraded) sane = sane && c.pool_index.empty();
  for (const auto& e : c.pool_index) {
    sane = sane && e.links >= 1 && e.channels >= 1 && e.last_epoch >= 0;
    for (double f : e.features) sane = sane && std::isfinite(f);
  }

  // Session cursor: degraded means absent; a present cursor obeys every
  // documented invariant (a half-valid cursor must never be returned).
  if (c.session_degraded) sane = sane && !c.has_session;
  if (c.has_session) {
    const mmwave::core::StreamCursor& s = c.session;
    sane = sane && s.next_gop >= 1 && s.num_gops >= s.next_gop &&
           s.gops.size() == static_cast<std::size_t>(s.next_gop) &&
           s.delivered_bits.size() == static_cast<std::size_t>(c.links) &&
           s.blocked.size() == static_cast<std::size_t>(c.links) &&
           s.carryover_stall >= 0.0 && s.blocked_fraction_sum >= 0.0 &&
           s.invalidated_periods >= 0 && s.exec_transmissions_dropped >= 0;
    for (double v : s.delivered_bits) sane = sane && v >= 0.0;
    for (int b : s.blocked) sane = sane && (b == 0 || b == 1);
    const mmwave::core::StreamSolverCounters& k = s.counters;
    sane = sane && k.periods >= 0 && k.resolves >= 0 && k.pool_hits >= 0 &&
           k.pool_misses >= 0 && k.columns_loaded >= 0 &&
           k.columns_reused >= 0 && k.columns_repaired >= 0 &&
           k.columns_dropped >= 0 && k.transmissions_dropped >= 0 &&
           k.pool_evicted >= 0 && k.pool_neighbour_seeded >= 0;
    for (std::size_t i = 0; i < s.gops.size(); ++i) {
      sane = sane && s.gops[i].gop == static_cast<int>(i) &&
             std::isfinite(s.gops[i].stall_slots) &&
             s.gops[i].stall_slots >= 0.0;
    }
    // Client-buffer state: absent (no buffer model) or one record per
    // link; an accepted record is finite, non-negative, its flags encode a
    // representable (playing, started) pair, and its layer counters cannot
    // run ahead of the completed-period count.
    sane = sane && (s.buffers.empty() ||
                    s.buffers.size() == static_cast<std::size_t>(c.links));
    for (const mmwave::core::StreamBufferState& b : s.buffers) {
      sane = sane && std::isfinite(b.occupancy_seconds) &&
             b.occupancy_seconds >= 0.0 && std::isfinite(b.stall_seconds) &&
             b.stall_seconds >= 0.0 && b.rebuffer_events >= 0 &&
             (b.flags == 0 || b.flags == 2 || b.flags == 3) &&
             b.hp_gops_delivered >= 0 && b.hp_gops_delivered <= s.next_gop &&
             b.lp_gops_delivered >= 0 && b.lp_gops_delivered <= s.next_gop;
    }
  }
  return sane;
}

/// One parse_checkpoint probe.  Returns false (after printing a diagnosis)
/// if the parser violated its contract on this input.
bool probe(std::string_view text) {
  const auto result = mmwave::core::parse_checkpoint(text);
  if (!result.ok()) {
    if (result.status().code() != mmwave::common::ErrorCode::kInvalidInput ||
        result.status().message().empty()) {
      std::fprintf(stderr, "fuzz: unstructured error (code=%d, msg='%s')\n",
                   static_cast<int>(result.status().code()),
                   result.status().message().c_str());
      return false;
    }
    return true;
  }
  if (!sane_state(result.value())) {
    std::fprintf(stderr,
                 "fuzz: accepted out-of-range checkpoint (links=%d "
                 "channels=%d columns=%zu)\n",
                 result.value().links, result.value().channels,
                 result.value().pool.size());
    return false;
  }
  return true;
}

/// The fixed base every fuzzed delta chain loads against.  Hand-built (no
/// solver) so the corpus stays reproducible; dimensions 3x2, empty pool,
/// a valid two-period session cursor.  Kept in sync with the generator of
/// corpus_checkpoint/*.delta seeds by construction, not by copying bytes.
mmwave::core::CgCheckpoint fuzz_base_checkpoint() {
  using namespace mmwave::core;
  CgCheckpoint c;
  c.fingerprint = 0x1234567890ABCDEFULL;
  c.links = 3;
  c.channels = 2;
  c.iterations = 4;
  c.converged = true;
  c.total_slots = 12.5;
  c.lower_bound = 12.5;
  c.duals_hp = {0.1, 0.2, 0.3};
  c.duals_lp = {0.05, 0.1, 0.15};
  c.base_seq = 2;
  c.pool_epoch = 5;
  PoolIndexEntry e1;
  e1.fingerprint = c.fingerprint;
  e1.links = 3;
  e1.channels = 2;
  e1.last_epoch = 5;
  e1.features = {1.0, 2.0, 0.5};
  PoolIndexEntry e2;
  e2.fingerprint = 0xFEEDFACEFEEDFACEULL;
  e2.links = 3;
  e2.channels = 2;
  e2.last_epoch = 3;
  c.pool_index = {e1, e2};
  StreamCursor s;
  s.next_gop = 2;
  s.num_gops = 6;
  s.session_fingerprint = 0xAAAAAAAAAAAAAAAAULL;
  s.carryover_stall = 0.5;
  s.blocked_fraction_sum = 0.4;
  s.invalidated_periods = 0;
  s.exec_transmissions_dropped = 0;
  s.plan_digest = 0xBBBBBBBBBBBBBBBBULL;
  s.delivered_bits = {10.0, 20.0, 30.0};
  s.blocked = {1, 0, 0};
  s.counters.periods = 2;
  s.counters.resolves = 2;
  s.counters.pool_hits = 1;
  s.counters.pool_misses = 1;
  for (int l = 0; l < 3; ++l) {
    StreamBufferState b;
    b.occupancy_seconds = 0.5 * (l + 1);
    b.stall_seconds = l == 0 ? 0.5 : 0.0;
    b.rebuffer_events = l == 0 ? 1 : 0;
    b.flags = l == 0 ? 2 : 3;  // link 0 mid-rebuffer, the rest playing
    b.hp_gops_delivered = 2;
    b.lp_gops_delivered = 2 - l % 2;
    s.buffers.push_back(b);
  }
  for (int g = 0; g < 2; ++g) {
    StreamGopRecord r;
    r.gop = g;
    r.demand_bits = 100.0 + g;
    r.schedule_slots = 5.0 + g;
    r.budget_slots = 8.0;
    r.on_time = g == 0;
    r.stall_slots = g == 0 ? 0.0 : 0.25;
    s.gops.push_back(r);
  }
  c.has_session = true;
  c.session = s;
  return c;
}

bool write_whole_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  return std::fclose(f) == 0 && written == bytes.size();
}

/// One delta-chain probe: the fuzz input is the .delta file next to a
/// known-good base.  Contract: the base always loads, damage only ever
/// drops the chain tail, and the returned state passes the same range
/// checks as a parsed checkpoint.
bool probe_delta(std::string_view chain_bytes) {
  static const std::string base_text =
      mmwave::core::serialize_checkpoint(fuzz_base_checkpoint());
  const std::string path = "checkpoint_fuzz_log.tmp";
  if (!write_whole_file(path, base_text) ||
      !write_whole_file(path + ".delta", chain_bytes)) {
    std::fprintf(stderr, "fuzz: cannot stage delta probe files\n");
    return false;
  }
  const auto load = mmwave::core::load_checkpoint_log(path);
  if (!load.loaded || load.base_damaged) {
    std::fprintf(stderr, "fuzz: valid base failed to load under delta\n");
    return false;
  }
  if (load.deltas_applied < 0 || load.tail_bytes_dropped < 0 ||
      (load.tail_bytes_dropped > 0 && !load.tail_dropped)) {
    std::fprintf(stderr, "fuzz: inconsistent delta-load accounting\n");
    return false;
  }
  if (!sane_state(load.state)) {
    std::fprintf(stderr, "fuzz: delta replay produced out-of-range state\n");
    return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (!probe(std::string_view(reinterpret_cast<const char*>(data), size))) {
    __builtin_trap();
  }
  return 0;
}

#ifndef MMWAVE_FUZZ_ENGINE
namespace {

std::string read_file(const char* path) {
  std::string out;
  if (std::FILE* f = std::fopen(path, "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

using Probe = std::function<bool(std::string_view)>;

/// Deterministic mutation battery over one corpus entry: truncations,
/// byte flips, splices and repetitions.
int replay_with_mutations(const std::string& seed_input,
                          mmwave::common::Rng& rng, const Probe& fn) {
  int failures = fn(seed_input) ? 0 : 1;
  const std::size_t n = seed_input.size();
  for (std::size_t cut = 0; cut <= n && cut <= 512; ++cut) {
    if (!fn(std::string_view(seed_input).substr(0, cut))) ++failures;
    if (!fn(std::string_view(seed_input).substr(n - cut))) ++failures;
  }
  for (int round = 0; round < 200; ++round) {
    std::string mutated = seed_input;
    const int edits = 1 + static_cast<int>(rng.uniform() * 4);
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniform() * mutated.size());
      switch (static_cast<int>(rng.uniform() * 3)) {
        case 0:  // flip to an arbitrary byte (NUL and 0xff included)
          mutated[pos] = static_cast<char>(rng.uniform() * 256.0);
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a chunk
          mutated.insert(pos, mutated.substr(pos, 16));
          break;
      }
    }
    if (!fn(mutated)) ++failures;
  }
  if (n > 1 &&
      !fn(seed_input.substr(n / 2) + seed_input.substr(0, n / 2)))
    ++failures;
  return failures;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// A genuine two-block delta chain built against fuzz_base_checkpoint()
/// through the real writer — the well-formed seed the mutation battery
/// tears apart.
std::string built_in_delta_seed() {
  using namespace mmwave::core;
  const std::string path = "checkpoint_fuzz_seed.tmp";
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();
  CgCheckpoint state = fuzz_base_checkpoint();
  if (!log.save(state).ok()) return {};
  for (int step = 0; step < 2; ++step) {
    state.iterations += 1;
    state.duals_hp[0] += 0.01;
    state.pool_epoch += 1;
    StreamGopRecord r;
    const int g = state.session.next_gop;
    r.gop = g;
    r.demand_bits = 100.0 + g;
    r.schedule_slots = 5.0 + g;
    r.budget_slots = 8.0;
    r.on_time = true;
    state.session.gops.push_back(r);
    state.session.next_gop += 1;
    for (StreamBufferState& b : state.session.buffers) {
      b.occupancy_seconds += 0.25;
      b.hp_gops_delivered += 1;
    }
    if (!log.save(state).ok()) return {};
  }
  std::string chain = read_file((path + ".delta").c_str());
  std::remove(path.c_str());
  std::remove((path + ".delta").c_str());
  return chain;
}

}  // namespace

int main(int argc, char** argv) {
  mmwave::common::Rng rng(0xC4EC);
  int failures = 0;
  int inputs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string text = read_file(argv[i]);
    const bool is_delta = ends_with(argv[i], ".delta");
    failures += replay_with_mutations(text, rng,
                                      is_delta ? Probe(probe_delta)
                                               : Probe(probe));
    ++inputs;
  }
  // Hostile built-ins: header-only fragments, oversized counts, and a
  // checksum line pointing at a body that is not there.
  const char* builtins[] = {
      "",
      "mmwave-cg-checkpoint v4\n",
      "mmwave-cg-checkpoint v999999\nchecksum = 0x0000000000000000\n",
      "mmwave-cg-checkpoint v4\nchecksum = 0xcbf29ce484222325\n",
      "mmwave-cg-checkpoint v4\nchecksum = 0xzzzzzzzzzzzzzzzz\nrest\n",
      "mmwave-cg-checkpoint v4\nchecksum = 0x0000000000000000\n"
      "fingerprint = 0x0000000000000000\nlinks = 4096\nchannels = 1024\n"
      "iterations = 0\nconverged = 0\ntotal_slots = 0\nlower_bound = nan\n"
      "duals_hp = 0\nduals_lp = 0\ncolumns = 999999\n",
  };
  for (const char* b : builtins) {
    failures += replay_with_mutations(b, rng, Probe(probe));
    ++inputs;
  }
  // The full serializer output and a real delta chain, torn apart by
  // the same battery.
  failures += replay_with_mutations(
      mmwave::core::serialize_checkpoint(fuzz_base_checkpoint()), rng,
      Probe(probe));
  ++inputs;
  const std::string delta_seed = built_in_delta_seed();
  if (delta_seed.empty()) {
    std::fprintf(stderr, "checkpoint_fuzz: cannot build delta seed\n");
    return 1;
  }
  failures += replay_with_mutations(delta_seed, rng, Probe(probe_delta));
  ++inputs;

  if (failures > 0) {
    std::fprintf(stderr, "checkpoint_fuzz: %d contract violation(s)\n",
                 failures);
    return 1;
  }
  std::printf("checkpoint_fuzz: %d seed input(s) replayed clean\n", inputs);
  return 0;
}
#endif  // MMWAVE_FUZZ_ENGINE
