#include "bench/common/harness.hpp"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/common/expect.hpp"
#include "src/metrics/chrome_trace.hpp"
#include "src/metrics/trace.hpp"

namespace phigraph::bench {

Scale get_scale() {
  const char* env = std::getenv("PHIGRAPH_SCALE");
  const std::string which = env ? env : "small";
  if (which == "paper") {
    // The paper's dataset sizes (§V-B). The TopoSort DAG is 200M edges —
    // expect long generation times on a small host.
    return {"paper", 1'600'000, 31'000'000, 436'000, 1'100'000,
            40'000,  200'000'000, 40, 15, 8};
  }
  if (which == "tiny") {
    return {"tiny", 20'000, 250'000, 8'000, 24'000, 600, 150'000, 12, 10, 5};
  }
  PG_CHECK_MSG(which == "small", "PHIGRAPH_SCALE must be tiny|small|paper");
  // Default: structure-preserving scale-down; runs in seconds. The DAG
  // keeps the paper's edges >> vertices density (its whole point).
  return {"small", 100'000, 1'800'000, 30'000, 90'000,
          1'200,   2'000'000, 16, 15, 6};
}

int host_threads() {
  if (const char* env = std::getenv("PHIGRAPH_HOST_THREADS"))
    return std::max(1, std::atoi(env));
  return 4;
}

graph::Csr make_pokec(const Scale& s, bool weighted) {
  auto g = gen::pokec_like(s.pokec_n, s.pokec_m, /*seed=*/0x90CEC);
  if (weighted) gen::add_random_weights(g, 0xED6E);
  return g;
}

graph::Csr make_dblp(const Scale& s) {
  return gen::dblp_like(s.dblp_n, s.dblp_m, /*seed=*/0xDB19);
}

graph::Csr make_dag(const Scale& s) {
  return gen::dag_like(s.dag_n, s.dag_m, /*seed=*/0xDA6, s.dag_levels);
}

DeviceSetup cpu_setup(core::ExecMode mode, bool use_simd) {
  DeviceSetup d;
  d.spec = sim::xeon_e5_2680();
  d.engine.mode = mode;
  d.engine.simd_bytes = simd::kCpuSimdBytes;
  d.engine.use_simd = use_simd && mode != core::ExecMode::kOmpStyle;
  d.engine.threads = host_threads();
  d.engine.movers = std::max(1, host_threads() / 2);
  // The paper's best CPU configuration: 16 threads total (1 per core);
  // for pipelining we model a 12 + 4 split of the same total.
  d.profile.mode = mode;
  d.profile.use_simd = d.engine.use_simd;
  d.profile.lanes = 4;
  if (mode == core::ExecMode::kPipelining) {
    d.profile.threads = 12;
    d.profile.movers = 4;
  } else {
    d.profile.threads = 16;
    d.profile.movers = 0;
  }
  return d;
}

DeviceSetup mic_setup(core::ExecMode mode, bool use_simd) {
  DeviceSetup d;
  d.spec = sim::xeon_phi_se10p();
  d.engine.mode = mode;
  d.engine.simd_bytes = simd::kMicSimdBytes;
  d.engine.use_simd = use_simd && mode != core::ExecMode::kOmpStyle;
  d.engine.threads = host_threads();
  d.engine.movers = std::max(1, host_threads() / 2);
  // The paper's best MIC configurations: 240 threads for OMP/locking,
  // 180 workers + 60 movers for pipelining.
  d.profile.mode = mode;
  d.profile.use_simd = d.engine.use_simd;
  d.profile.lanes = 16;
  if (mode == core::ExecMode::kPipelining) {
    d.profile.threads = 180;
    d.profile.movers = 60;
  } else {
    d.profile.threads = 240;
    d.profile.movers = 0;
  }
  return d;
}

void print_header(const std::string& title, const graph::Csr& g,
                  const Scale& s) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("   workload: %u vertices, %llu edges (scale: %s)\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), s.name.c_str());
  std::printf("   %-12s %12s %12s\n", "version", "exec (s)", "comm (s)");
}

void print_row(const std::string& version, double exec_s, double comm_s) {
  if (comm_s > 0)
    std::printf("   %-12s %12.4f %12.4f\n", version.c_str(), exec_s, comm_s);
  else
    std::printf("   %-12s %12.4f %12s\n", version.c_str(), exec_s, "-");
}

void print_ratio(const std::string& label, double ratio,
                 const std::string& paper_band) {
  std::printf("   -> %-38s %6.2fx   (paper: %s)\n", label.c_str(), ratio,
              paper_band.c_str());
}

void print_footer() { std::printf("\n"); }

// ---- span tracing ----------------------------------------------------------------

void trace_run_begin() {
#if PG_TRACE_ENABLED
  trace::Collector::instance().clear();
#endif
}

void trace_run_end(const std::string& figure) {
#if PG_TRACE_ENABLED
  const char* env = std::getenv("PHIGRAPH_TRACE_JSON");
  if (env == nullptr || *env == '\0' || std::string(env) == "0") return;
  std::string slug;
  for (char ch : figure)
    if (std::isalnum(static_cast<unsigned char>(ch)))
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  const std::string dir = std::string(env) == "1" ? "." : env;
  const std::string path =
      dir + "/TRACE_" + (slug.empty() ? "bench" : slug) + ".json";
  const auto snap = trace::Collector::instance().snapshot();
  if (trace::write_chrome_trace(path, snap))
    std::printf("   [trace] wrote %s (%zu threads)\n", path.c_str(),
                snap.size());
  else
    std::fprintf(stderr, "   [trace] could not write %s\n", path.c_str());
#else
  (void)figure;
#endif
}

// ---- JSON emitter ----------------------------------------------------------------

namespace {

/// "Fig 5(b)" -> "fig5b": lowercase alphanumerics only, filesystem-safe.
std::string fig_slug(const std::string& figure) {
  std::string slug;
  for (char ch : figure) {
    if (std::isalnum(static_cast<unsigned char>(ch)))
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return slug.empty() ? "bench" : slug;
}

void append_value(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_value(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out += buf;
}

void append_value(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    append_value(out, v[i]);
  }
  out += ']';
}

/// Which fields of a list to write: all, or only the counters whose
/// kTimingDependent flag is clear (kExact) or set (kTiming).
enum class Pick { kAll, kExact, kTiming };

/// `"name": value` for each picked field of `s`, comma-separated.
template <typename T>
void append_fields(std::string& out, const T& s, Pick pick = Pick::kAll) {
  const char* sep = "";
  T::fields([&](const char* name, auto member, bool timing = false) {
    if (pick != Pick::kAll && timing != (pick == Pick::kTiming)) return;
    out += sep;
    sep = ", ";
    out += '"';
    out += name;
    out += "\": ";
    append_value(out, s.*member);
  });
}

}  // namespace

bool JsonEmitter::enabled() {
  const char* env = std::getenv("PHIGRAPH_BENCH_JSON");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

JsonEmitter::JsonEmitter(const std::string& figure, const std::string& app,
                         const graph::Csr& g, const Scale& s)
    : enabled_(enabled()) {
  if (!enabled_) return;
  const std::string env = std::getenv("PHIGRAPH_BENCH_JSON");
  std::string dir = env == "1" ? "." : env;
  path_ = dir + "/BENCH_" + fig_slug(figure) + ".json";
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\n  \"figure\": \"%s\",\n  \"app\": \"%s\",\n"
                "  \"scale\": \"%s\",\n  \"vertices\": %u,\n"
                "  \"edges\": %llu,\n  \"versions\": [",
                figure.c_str(), app.c_str(), s.name.c_str(), g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()));
  body_ = head;
}

void JsonEmitter::add_version(const std::string& name, double exec_s,
                              double comm_s, const metrics::RunTrace& trace,
                              const metrics::PhaseTrace& phases) {
  if (!enabled_) return;
  if (!first_version_) body_ += ',';
  first_version_ = false;
  const auto t = metrics::totals(trace);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\n    {\"name\": \"%s\", \"exec_s\": %.6f, \"comm_s\": %.6f, "
                "\"supersteps\": %zu,\n     \"totals\": {",
                name.c_str(), exec_s, comm_s, trace.size());
  body_ += buf;
  append_fields(body_, t, Pick::kExact);
  body_ += "},\n     \"timing_totals\": {";
  append_fields(body_, t, Pick::kTiming);
  body_ += "},\n     \"supersteps_detail\": [";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += "\n       {";
    append_fields(body_, trace[i]);
    body_ += '}';
  }
  body_ += ']';
  append_phases(phases);
  body_ += '}';
}

/// Per-superstep host phase seconds: a "phases" array (one row per
/// superstep, phase_sum + wall included so regressions and the sum≈wall
/// invariant are diffable from the JSON alone) plus a "phase_totals" rollup.
void JsonEmitter::append_phases(const metrics::PhaseTrace& phases) {
  if (phases.empty()) return;
  auto row = [this](const metrics::PhaseSeconds& p, std::size_t superstep) {
    body_ += "{\"superstep\": " + std::to_string(superstep) + ", ";
    append_fields(body_, p);
    body_ += ", \"phase_sum\": ";
    append_value(body_, p.phase_sum());
    body_ += '}';
  };
  body_ += ",\n     \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += "\n       ";
    row(phases[i], i);
  }
  body_ += "],\n     \"phase_totals\": ";
  row(metrics::phase_totals(phases), phases.size());
}

void JsonEmitter::set_ranks(const std::vector<metrics::RankIo>& io) {
  if (!enabled_) return;
  std::string out = "\n  \"ranks\": [";
  for (std::size_t r = 0; r < io.size(); ++r) {
    if (r > 0) out += ',';
    out += "\n    {\"rank\": " + std::to_string(r) + ", \"bytes_to\": [";
    for (std::size_t d = 0; d < io[r].bytes_to.size(); ++d) {
      if (d > 0) out += ", ";
      out += std::to_string(io[r].bytes_to[d]);
    }
    out += "], \"bytes_from\": [";
    for (std::size_t s = 0; s < io[r].bytes_from.size(); ++s) {
      if (s > 0) out += ", ";
      out += std::to_string(io[r].bytes_from[s]);
    }
    out += "]}";
  }
  out += "\n  ],";
  ranks_json_ = std::move(out);
}

JsonEmitter::~JsonEmitter() {
  if (!enabled_) return;
  body_ += "\n  ],";
  body_ += ranks_json_;
  auto object = [this](const char* key, const auto& stats) {
    body_ += "\n  \"";
    body_ += key;
    body_ += "\": {";
    append_fields(body_, stats);
    body_ += "},";
  };
  object("failover", failover_);
  object("serving", serving_);
  object("partition", partition_);
  body_.pop_back();  // drop the trailing comma after the last member
  body_ += "\n}\n";
  if (std::FILE* f = std::fopen(path_.c_str(), "w")) {
    std::fwrite(body_.data(), 1, body_.size(), f);
    std::fclose(f);
    std::printf("   [json] wrote %s\n", path_.c_str());
  } else {
    std::fprintf(stderr, "   [json] could not open %s\n", path_.c_str());
  }
}

}  // namespace phigraph::bench
