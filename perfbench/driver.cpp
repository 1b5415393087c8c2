// perfbench_driver: runs one benchmark workload config in one process and
// prints one JSON document on stdout for perfbench/run.py to check and
// aggregate.
//
//   perfbench_driver run   <config.toml> <seconds> <setup_seconds>
//   perfbench_driver trace <config.toml> <seconds>
//
// `run` (tracing off): runs the config through harness::run_config on a
// one-thread SweepRunner, batch after batch, for about `seconds`,
// recording each batch's wall/CPU seconds and its rendered result
// tables; the set-up calls are timed over and over for about
// `setup_seconds`, half before and half after the batches. A fixed
// calibration kernel is timed next to every batch and set-up block. A sequential
// fat-tree config's first scheme is then run once more on two engine
// shards, so the caller can check the sharded row against it.
//
// `trace`: batch after batch, runs every point through the harness
// (untraced wall time and reference results) and right after rebuilds it
// from the layers' public APIs (composed.hpp) with per-layer timing;
// reports the layer tallies plus every point whose composed run did not
// reproduce the harness point. On a sequential fat-tree
// config each batch also runs the first point on two shards (the shard
// layer's figures), which must reproduce the same harness point.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "composed.hpp"
#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "harness/shard_setup.hpp"

namespace harness = powertcp::harness;
namespace stats = powertcp::stats;
using perfbench::LayerStats;

namespace {

using Clock = std::chrono::steady_clock;

/// Engine shards of the sharding cross-check on sequential fat-tree
/// configs (run mode) and of the traced sharded point (trace mode).
constexpr int kShardCheckThreads = 2;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---- minimal JSON emission -----------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// Builds one JSON object field by field.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  Obj& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  template <typename T>
  Obj& n(const std::string& key, T v) {
    return raw(key, num(v));
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out + "]";
}

std::string nums(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (const double x : v) items.push_back(num(x));
  return array(items);
}

std::string render_tables(const std::vector<harness::ResultTable>& tables) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (i) out += ",\n";
    tables[i].append_json(out, 2);
  }
  return out + "\n]\n";
}

std::string layers_json(const LayerStats& l) {
  return Obj()
      .n("sim_events", l.sim_events)
      .n("net_tx_packets", l.net_tx_packets)
      .n("net_host_tx_packets", l.net_host_tx_packets)
      .n("net_drops", l.net_drops)
      .n("net_ecn_marks", l.net_ecn_marks)
      .n("cc_on_ack_calls", l.cc_on_ack_calls)
      .n("cc_on_timeout_calls", l.cc_on_timeout_calls)
      .n("workload_flows", l.workload_flows)
      .n("flows_completed", l.flows_completed)
      .n("stats_record_calls", l.stats_record_calls)
      .n("shard_windows", l.shard_windows)
      .n("shard_ambiguities", l.shard_ambiguities)
      .n("topo_build_s", l.topo_build_s)
      .n("workload_plan_s", l.workload_plan_s)
      .n("host_start_s", l.host_start_s)
      .n("sim_run_s", l.sim_run_s)
      .n("sim_run_cpu_s", l.sim_run_cpu_s)
      .n("cc_on_ack_s", l.cc_on_ack_s)
      .n("stats_record_s", l.stats_record_s)
      .n("stats_summary_s", l.stats_summary_s)
      .done();
}

std::string build_json() {
  return Obj()
      .str("compiler", std::string("g++ ") + __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .done();
}

// ---- the loaded workload -------------------------------------------

struct MixedCell {
  std::size_t mix;
  std::string aqm;
  double rtt_us;
  std::int64_t buffer;
};

/// A config loaded through the public entry points, with its
/// simulation points enumerated the way the kind's run() does.
struct Workload {
  harness::RunnerConfig runner;
  const harness::FatTreeKindConfig* fat_tree = nullptr;
  const harness::MixedCcKindConfig* mixed = nullptr;
  std::vector<harness::SweepSpec> specs;  ///< fat-tree: one per load
  std::vector<MixedCell> cells;           ///< mixed_cc: cell order

  explicit Workload(const std::string& path)
      : runner(harness::load_runner_config(
            harness::ConfigFile::parse_file(path))) {
    if ((fat_tree = dynamic_cast<const harness::FatTreeKindConfig*>(
             runner.scenario.get()))) {
      for (const double load : fat_tree->loads) {
        specs.push_back(harness::fct_sweep_spec(
            fat_tree->fat_tree, load, fat_tree->percentile,
            fat_tree->schemes, fat_tree->slug_prefix));
      }
    } else if ((mixed = dynamic_cast<const harness::MixedCcKindConfig*>(
                    runner.scenario.get()))) {
      const auto& m = mixed->mixed;
      const std::vector<std::int64_t> buffers =
          m.buffer_bytes.empty() ? std::vector<std::int64_t>{0}
                                 : m.buffer_bytes;
      for (std::size_t i = 0; i < m.mixes.size(); ++i) {
        for (const auto& aqm : m.aqm_kinds) {
          for (const double rtt : m.rtt_us) {
            for (const std::int64_t buf : buffers) {
              cells.push_back({i, aqm, rtt, buf});
            }
          }
        }
      }
    } else {
      throw std::invalid_argument("perfbench covers the fat_tree and "
                                  "mixed_cc kinds, not '" +
                                  runner.kind + "'");
    }
  }

  std::size_t points() const {
    std::size_t n = cells.size();
    for (const auto& s : specs) n += s.points.size();
    return n;
  }

  int sim_threads() const {
    const int t = fat_tree ? fat_tree->fat_tree.sim_threads
                           : mixed->mixed.sim_threads;
    return harness::effective_sim_threads(t, false);
  }

  /// The point's identity as the result tables key it.
  std::string fat_tree_id(const harness::SweepSpec& spec,
                          const harness::SweepPoint& p) const {
    return spec.slug + "/" + p.keys.front().render();
  }
  std::string cell_id(const MixedCell& c) const {
    const harness::Cell rtt(c.rtt_us, 1);
    const harness::Cell buf =
        c.buffer > 0 ? harness::Cell(static_cast<double>(c.buffer) / 1e3, 0)
                     : harness::Cell(std::string("default"));
    return mixed->mixed.mixes[c.mix].display + "/" + c.aqm + "/" +
           rtt.render() + "/" + buf.render();
  }
};

/// The config-load plus every point's set-up calls (topology, plan,
/// flow start), untraced. Returns host seconds spent in those calls.
double setup_once(const std::string& path) {
  const auto t0 = Clock::now();
  const Workload w(path);
  double s = elapsed_s(t0);
  const int threads = w.sim_threads();
  for (const auto& spec : w.specs) {
    for (const auto& p : spec.points) {
      const perfbench::ComposedFatTree point(p.cfg, threads, false);
      s += point.layers().setup_s();
    }
  }
  for (const auto& c : w.cells) {
    const perfbench::ComposedDumbbell cell(w.mixed->mixed,
                                           w.mixed->mixed.mixes[c.mix], c.aqm,
                                           c.rtt_us, c.buffer, threads, false);
    s += cell.layers().setup_s();
  }
  return s;
}

/// Host seconds of a fixed kernel that uses no simulator code: a binary
/// heap of timestamped events, hash-map lookups and indirect calls over
/// an L2-sized working set, the simulator's kind of work. Run mode times
/// it next to every batch and set-up block, so run.py can scale host
/// seconds by the machine's speed at that moment (README, "Machine
/// speed").
double calibration_s() {
  struct Event {
    std::uint64_t t;
    std::uint64_t seq;
    bool operator<(const Event& o) const {
      return t > o.t || (t == o.t && seq > o.seq);
    }
  };
  std::mt19937_64 rng(1);
  std::priority_queue<Event> events;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> table;
  for (std::uint64_t i = 0; i < 4096; ++i) table[i] = {i, i + 1, i + 2};
  std::vector<std::function<void(std::uint64_t&)>> handlers;
  for (std::uint64_t i = 0; i < 64; ++i) {
    handlers.push_back([i](std::uint64_t& acc) { acc += i; });
  }
  std::uint64_t seq = 0;
  for (int i = 0; i < 20000; ++i) events.push({rng() % 1000000, seq++});
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 750000; ++i) {
    const Event e = events.top();
    events.pop();
    acc += table[e.t & 4095][e.t % 3];
    handlers[e.t & 63](acc);
    events.push({e.t + 1 + rng() % 5000, seq++});
  }
  const double s = elapsed_s(t0);
  static volatile std::uint64_t sink;
  sink = acc;
  return s;
}

/// setup_once() samples for about `seconds` (at least 5), as a JSON
/// object with the calibration kernel timed before and after them.
std::string time_setup(const std::string& path, double seconds) {
  const double before = calibration_s();
  std::vector<double> samples;
  const auto t0 = Clock::now();
  for (int n = 0; n < 5 || (elapsed_s(t0) < seconds && n < 500); ++n) {
    samples.push_back(setup_once(path));
  }
  return Obj()
      .raw("samples", nums(samples))
      .raw("calib_s", nums({before, calibration_s()}))
      .done();
}

/// Runs `batch` at least once, then again while another call of the
/// median length still fits in `seconds`. Stops early when `batch`
/// returns false (an error).
void repeat_batches(double seconds, const std::function<bool()>& batch) {
  std::vector<double> calls;
  const auto t0 = Clock::now();
  while (calls.empty() || elapsed_s(t0) + median(calls) <= seconds) {
    const auto t1 = Clock::now();
    const bool ok = batch();
    calls.push_back(elapsed_s(t1));
    if (!ok || calls.size() >= 1000) break;
  }
}

/// Resets the kernel's resident-set high-water mark (Linux
/// /proc/self/clear_refs), so peak_rss_mb() covers only what follows.
/// Returns false where that is unsupported.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// The process's resident-set high-water mark in MiB: VmHWM when
/// readable, else getrusage's lifetime maximum.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int run_mode(const std::string& path, double seconds, double setup_seconds) {
  Obj doc;
  doc.str("mode", "run").raw("build", build_json());
  std::vector<std::string> setup;  // blocks of set-up samples
  std::string setup_error;
  std::size_t points = 0;
  int threads = 1;
  try {
    const Workload w(path);
    points = w.points();
    threads = w.sim_threads();
    doc.str("kind", w.runner.kind);
    setup.push_back(time_setup(path, setup_seconds / 2));
  } catch (const std::exception& e) {
    setup_error = e.what();
  }
  doc.n("points", static_cast<std::uint64_t>(points))
      .n("sim_threads", static_cast<std::uint64_t>(threads))
      .raw("setup_error", setup_error.empty() ? "null" : quote(setup_error));

  std::vector<std::string> batches;
  // The set-up loop's allocations are not the workload's memory.
  doc.raw("peak_rss_reset", reset_peak_rss() ? "true" : "false");
  if (setup_error.empty()) {
    const Workload w(path);
    const harness::SweepRunner runner(1);
    double calib = calibration_s();
    repeat_batches(seconds, [&] {
      Obj b;
      std::string error;
      std::string tables;
      const double cpu0 = perfbench::process_cpu_s();
      const auto t0 = Clock::now();
      try {
        tables = render_tables(harness::run_config(w.runner, runner));
      } catch (const std::exception& e) {
        error = e.what();
      }
      b.n("wall_s", elapsed_s(t0))
          .n("cpu_s", perfbench::process_cpu_s() - cpu0);
      const double next = calibration_s();
      b.raw("calib_s", nums({calib, next}));
      calib = next;
      b.raw("error", error.empty() ? "null" : quote(error));
      b.str("tables", tables);
      batches.push_back(b.done());
      return error.empty();
    });
  }
  doc.raw("batches", array(batches)).n("peak_rss_mb", peak_rss_mb());
  // The other half of the set-up samples, so they span the run's
  // machine noise like the batches do.
  if (setup_error.empty()) setup.push_back(time_setup(path, setup_seconds / 2));
  doc.raw("setup", array(setup));

  // The sharding cross-check, after the peak-RSS reading so it does
  // not count toward the workload's memory: a sequential fat-tree
  // config's first scheme again on kShardCheckThreads engine shards,
  // whose table row must equal the sequential one byte for byte.
  if (setup_error.empty() && threads == 1) {
    const Workload w(path);
    if (w.fat_tree != nullptr) {
      std::string error;
      std::string tables;
      try {
        auto sharded =
            std::make_shared<harness::FatTreeKindConfig>(*w.fat_tree);
        sharded->fat_tree.sim_threads = kShardCheckThreads;
        sharded->schemes.resize(1);
        const harness::RunnerConfig rc{w.runner.kind, sharded};
        tables =
            render_tables(harness::run_config(rc, harness::SweepRunner(1)));
      } catch (const std::exception& e) {
        error = e.what();
      }
      doc.raw("reference",
              Obj()
                  .raw("error", error.empty() ? "null" : quote(error))
                  .str("tables", tables)
                  .done());
    }
  }
  std::printf("%s\n", doc.done().c_str());
  return 0;
}

// ---- trace mode ----------------------------------------------------

bool same_records(const stats::FctRecorder& a, const stats::FctRecorder& b) {
  if (a.flows().size() != b.flows().size()) return false;
  for (std::size_t i = 0; i < a.flows().size(); ++i) {
    const auto& x = a.flows()[i];
    const auto& y = b.flows()[i];
    if (x.flow_id != y.flow_id || x.size_bytes != y.size_bytes ||
        x.start != y.start || x.finish != y.finish || x.ideal != y.ideal) {
      return false;
    }
  }
  return true;
}

bool same_point(const perfbench::ComposedFatTree::Outcome& got,
                const harness::ExperimentResult& want,
                const std::vector<harness::Cell>& want_row) {
  const auto& r = got.result;
  if (r.flows_started != want.flows_started ||
      r.flows_completed != want.flows_completed || r.drops != want.drops ||
      r.tau != want.tau || !same_records(r.fct, want.fct) ||
      r.uplink_queue_bytes.values() != want.uplink_queue_bytes.values() ||
      got.row.size() != want_row.size()) {
    return false;
  }
  for (std::size_t i = 0; i < want_row.size(); ++i) {
    if (got.row[i].render() != want_row[i].render()) return false;
  }
  return true;
}

bool same_cell(const harness::MixedCcCellResult& a,
               const harness::MixedCcCellResult& b) {
  if (a.jain != b.jain || a.agg_gbps != b.agg_gbps ||
      a.done_frac != b.done_frac || a.drops != b.drops ||
      a.ecn_marks != b.ecn_marks || a.members.size() != b.members.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    const auto& x = a.members[m];
    const auto& y = b.members[m];
    if (x.hosts != y.hosts || x.share_pct != y.share_pct ||
        x.mean_gbps != y.mean_gbps || x.p50_slowdown != y.p50_slowdown ||
        x.p99_slowdown != y.p99_slowdown || x.done != y.done) {
      return false;
    }
  }
  return true;
}

int trace_mode(const std::string& path, double seconds) {
  Obj doc;
  doc.str("mode", "trace").raw("build", build_json());
  const auto t0 = Clock::now();
  const Workload w(path);
  doc.n("harness_load_s", elapsed_s(t0))
      .str("kind", w.runner.kind)
      .n("points", static_cast<std::uint64_t>(w.points()));
  const int threads = w.sim_threads();

  // The result tables for the digest check: mixed_cc's from run_config;
  // fat-tree's assembled from the first batch's harness points, exactly
  // as SweepRunner::run assembles them.
  std::string tables_error;
  std::string tables;
  if (w.mixed != nullptr) {
    try {
      tables = render_tables(
          harness::run_config(w.runner, harness::SweepRunner(1)));
    } catch (const std::exception& e) {
      tables_error = e.what();
    }
  }
  std::vector<harness::ResultTable> fat_tables;
  for (const auto& spec : w.specs) {
    fat_tables.push_back({spec.title, spec.slug, spec.key_columns,
                          spec.value_columns, {}});
  }

  // Each batch runs every point twice, adjacent in time: through the
  // harness, untraced (the reference results and the untraced wall
  // time), then composed and traced.
  std::vector<std::string> batches;
  if (tables_error.empty()) {
    repeat_batches(seconds, [&] {
      LayerStats layers;
      std::string sharded = "null";  // the shard layer's traced point
      std::uint64_t attempted = 0;
      std::vector<std::string> failed;
      std::vector<std::string> errors;
      double wall = 0;      // traced, the workload's points only
      double untraced = 0;  // the same points through the harness
      const bool first = batches.empty();
      for (std::size_t t = 0; t < w.specs.size(); ++t) {
        const harness::SweepSpec& spec = w.specs[t];
        for (std::size_t i = 0; i < spec.points.size(); ++i) {
          const harness::SweepPoint& p = spec.points[i];
          const std::string id = w.fat_tree_id(spec, p);
          ++attempted;
          try {
            auto t1 = Clock::now();
            const harness::ExperimentResult ref =
                harness::run_fat_tree_experiment(p.cfg);
            untraced += elapsed_s(t1);
            const std::vector<harness::Cell> row = spec.metrics(p.cfg, ref);
            if (first) fat_tables[t].rows.push_back({p.keys, row});
            t1 = Clock::now();
            auto point = std::make_unique<perfbench::ComposedFatTree>(
                p.cfg, threads, true);
            const auto out = point->run(spec);
            const LayerStats l = point->layers();
            point.reset();
            wall += elapsed_s(t1);
            if (same_point(out, ref, row)) {
              layers.add(l);
            } else {
              failed.push_back(quote(id));
            }
            if (t > 0 || i > 0 || threads > 1) continue;
            // The shard layer: the first point again on two shards,
            // which must reproduce the same (sequential) harness point.
            ++attempted;
            perfbench::ComposedFatTree sp(p.cfg, kShardCheckThreads, true);
            if (same_point(sp.run(spec), ref, row)) {
              sharded = Obj()
                            .raw("layers", layers_json(sp.layers()))
                            .n("sequential_run_s", l.sim_run_s)
                            .done();
            } else {
              failed.push_back(quote(id + " (sharded)"));
            }
          } catch (const std::exception& e) {
            failed.push_back(quote(id));
            errors.push_back(quote(id + ": " + e.what()));
          }
        }
      }
      for (const MixedCell& c : w.cells) {
        const std::string id = w.cell_id(c);
        const auto& m = w.mixed->mixed;
        ++attempted;
        try {
          auto t1 = Clock::now();
          const harness::MixedCcCellResult ref = harness::run_mixed_cc_cell(
              m, m.mixes[c.mix], c.aqm, c.rtt_us, c.buffer);
          untraced += elapsed_s(t1);
          t1 = Clock::now();
          auto cell = std::make_unique<perfbench::ComposedDumbbell>(
              m, m.mixes[c.mix], c.aqm, c.rtt_us, c.buffer, threads, true);
          const harness::MixedCcCellResult got = cell->run();
          const LayerStats l = cell->layers();
          cell.reset();
          wall += elapsed_s(t1);
          if (same_cell(got, ref)) {
            layers.add(l);
          } else {
            failed.push_back(quote(id));
          }
        } catch (const std::exception& e) {
          failed.push_back(quote(id));
          errors.push_back(quote(id + ": " + e.what()));
        }
      }
      if (first && w.fat_tree != nullptr) tables = render_tables(fat_tables);
      Obj b;
      b.n("wall_s", wall)
          .n("untraced_wall_s", untraced)
          .n("attempted", attempted)
          .raw("failed", array(failed))
          .raw("errors", array(errors))
          .raw("layers", layers_json(layers))
          .raw("sharded", sharded);
      batches.push_back(b.done());
      return failed.empty();
    });
  }
  doc.raw("tables_error", tables_error.empty() ? "null" : quote(tables_error))
      .str("tables", tables)
      .raw("batches", array(batches))
      .n("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", doc.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "run" && argc == 5) {
      return run_mode(argv[2], std::atof(argv[3]), std::atof(argv[4]));
    }
    if (mode == "trace" && argc == 4) {
      return trace_mode(argv[2], std::atof(argv[3]));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_driver run <config> <seconds> <setup_seconds>\n"
               "       perfbench_driver trace <config> <seconds>\n");
  return 2;
}
