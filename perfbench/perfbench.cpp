// Host-clock benchmark worker.
//
// One process does one thing and prints one JSON object on stdout:
//
//   perfbench info
//       build provenance (compiler, build type, optimisation, kernel,
//       engine).
//   perfbench setup --workload W --seed N [--out F.rsys] [--smoke]
//       the workload's set-up: build_myoglobin_like(seed) + relax_system
//       for the system workloads (saved to F.rsys), network + engine
//       construction for des_fabric.
//   perfbench run --workload W --seed N [--system F.rsys] [--smoke]
//                 [--trace]
//       one repetition of the workload's timed phase, with every
//       correctness check. --trace records spans around the calls this
//       program makes into the simulator's modules.
//   perfbench probe --workload W --seed N [--system F.rsys] [--smoke]
//       the traced per-layer probes: the sequential cell replay of the
//       factorial sweep, the md/pme/fft kernel probes on the relaxed
//       system, the allreduce-only / ring-only / single-switch variants
//       of des_fabric.
//
// Every repetition runs in a fresh process, so the simulator's memo
// caches start empty, as in any user's process. run.py drives the
// processes and turns their records into the benchmark's metrics; see
// README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "charmm/decomp_spec.hpp"
#include "charmm/simulation.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/sweep.hpp"
#include "fft/fft.hpp"
#include "md/bonded.hpp"
#include "md/neighbor.hpp"
#include "md/nonbonded.hpp"
#include "mpi/comm.hpp"
#include "net/cluster.hpp"
#include "net/topology.hpp"
#include "perf/recorder.hpp"
#include "pme/pme.hpp"
#include "sim/engine.hpp"
#include "sysbuild/builder.hpp"
#include "sysbuild/io.hpp"
#include "util/error.hpp"
#include "util/kernel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace repro;

namespace {

// --- workload sizes ----------------------------------------------------------

// Minimisation steps of the set-up relax (see README.md, "Set-up").
constexpr int kRelaxSteps = 30;
constexpr int kSmokeRelaxSteps = 2;

constexpr int kMdSteps = 10;  // the paper's measurement runs
constexpr int kSpatialProcs = 128;
constexpr int kSmokeSpatialProcs = 8;
constexpr int kSweepWorkers = 2;

constexpr int kFabricRanks = 4096;
constexpr int kSmokeFabricRanks = 256;
constexpr int kFabricIterations = 16;
constexpr int kSmokeFabricIterations = 2;
constexpr std::size_t kAllreduceDoubles = 64;
constexpr std::size_t kRingDoubles = 1024;  // 8 KiB
constexpr double kFabricCompute = 5e-6;
constexpr const char* kFabricTopology = "fattree:radix=16,over=4";

// Repeats of each kernel probe; the record keeps the median.
constexpr int kProbeRepeats = 5;

// --- small utilities ---------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  REPRO_REQUIRE(!v.empty(), "median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Full-width unsigned parse: digits only, no sign, no trailing bytes.
std::uint64_t parse_u64(std::string_view text, const char* what) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw util::Error(std::string("bad ") + what + ": '" + std::string(text) +
                      "' (want an unsigned 64-bit integer)");
  }
  return value;
}

// Minimal JSON object writer; numbers keep all 17 significant digits.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  Json& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& raw(const char* key, const std::string& value) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += value;
    return *this;
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

// --- tracing -----------------------------------------------------------------

// Spans around the calls this program makes into the simulator's modules,
// named "<layer>.<call>". Kept in memory and written into the record when
// the process ends; when tracing is off, opening a span costs one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  class Span {
   public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer), name_(name) {
      if (tracer_.on_) t0_ = Clock::now();
    }
    ~Span() {
      if (tracer_.on_) tracer_.spans_.push_back({name_, t0_, Clock::now()});
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    const char* name_;
    Clock::time_point t0_;
  };

  Span span(const char* name) { return Span(*this, name); }

  std::string json() const {
    std::vector<std::string> items;
    items.reserve(spans_.size());
    for (const auto& s : spans_) {
      const auto rel = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - origin_).count();
      };
      items.push_back(
          Json().str("name", s.name).num("t0", rel(s.t0)).num("t1", rel(s.t1))
              .done());
    }
    return json_array(items);
  }

 private:
  struct Record {
    const char* name;
    Clock::time_point t0, t1;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
};

// --- options -----------------------------------------------------------------

enum class Workload { kFactorial, kSpatial128, kDesFabric };

Workload parse_workload(std::string_view name) {
  if (name == "factorial") return Workload::kFactorial;
  if (name == "spatial128") return Workload::kSpatial128;
  if (name == "des_fabric") return Workload::kDesFabric;
  throw util::Error("unknown workload '" + std::string(name) +
                    "' (factorial, spatial128, des_fabric)");
}

struct Options {
  std::string mode;
  Workload workload = Workload::kFactorial;
  bool have_workload = false;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::string system_path;
  std::string out_path;
  bool smoke = false;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw util::Error("usage: perfbench info|setup|run|probe ...");
  Options o;
  o.mode = argv[1];
  if (o.mode != "info" && o.mode != "setup" && o.mode != "run" &&
      o.mode != "probe") {
    throw util::Error("unknown mode '" + o.mode +
                      "' (info, setup, run, probe)");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        throw util::Error("missing value for " + std::string(arg));
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = parse_workload(value());
      o.have_workload = true;
    } else if (arg == "--seed") {
      o.seed = parse_u64(value(), "--seed");
      o.have_seed = true;
    } else if (arg == "--system") {
      o.system_path = value();
    } else if (arg == "--out") {
      o.out_path = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--trace") {
      o.trace = true;
    } else {
      throw util::Error("unknown option '" + std::string(arg) + "'");
    }
  }
  if (o.mode != "info") {
    if (!o.have_workload) throw util::Error("--workload is required");
    if (!o.have_seed) throw util::Error("--seed is required");
    const bool needs_system = o.workload != Workload::kDesFabric;
    if (needs_system && o.mode != "setup" && o.system_path.empty()) {
      throw util::Error("--system is required for this workload");
    }
    if (needs_system && o.mode == "setup" && o.out_path.empty()) {
      throw util::Error("--out is required for this workload's set-up");
    }
  }
  return o;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

// Refuses to measure a configuration other than the program's defaults.
void guard_provenance() {
  if (!optimized_build()) {
    throw util::Error("perfbench was built without optimisation");
  }
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "REPRO_", 6) == 0) {
      throw util::Error(std::string("refusing to run with ") + *env +
                        " set: the benchmark measures the defaults");
    }
  }
}

// --- checks ------------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }

  void write(Json& j) const {
    std::vector<std::string> items;
    for (const auto& f : failures) items.push_back(Json().str("what", f).done());
    j.count("checks_attempted", attempted)
        .count("checks_failed", failed)
        .raw("check_failures", json_array(items));
  }
};

struct Traffic {
  std::uint64_t messages = 0;
  double bytes = 0.0;
};

Traffic traffic_of(const core::ExperimentResult& r) {
  Traffic t;
  for (const auto& ch : r.metrics.channels) {
    t.messages += ch.messages;
    t.bytes += ch.bytes;
  }
  return t;
}

// --- system workloads --------------------------------------------------------

const std::vector<int> kFactorialProcs{2, 4, 8};

int md_steps(bool smoke) { return smoke ? 1 : kMdSteps; }

std::vector<core::ExperimentSpec> factorial_specs(const Options& o) {
  std::vector<core::ExperimentSpec> specs;
  for (const core::Platform& platform : core::full_factorial()) {
    for (int p : kFactorialProcs) {
      core::ExperimentSpec spec;
      spec.platform = platform;
      spec.nprocs = p;
      spec.seed = o.seed;
      spec.charmm.nsteps = md_steps(o.smoke);
      specs.push_back(spec);
    }
  }
  return specs;
}

core::ExperimentSpec spatial_spec(const Options& o, int nprocs) {
  core::ExperimentSpec spec;
  spec.platform.network = net::Network::kMyrinetGM;
  spec.nprocs = nprocs;
  spec.seed = o.seed;
  spec.charmm.nsteps = md_steps(o.smoke);
  spec.charmm.decomp = charmm::parse_decomp_spec("spatial:pme=pencil");
  return spec;
}

// Within one tolerance: same physics up to floating-point reassociation
// (the tolerance of tests/decomposition_test.cpp and charmm_test.cpp).
bool same_physics(const core::ExperimentResult& a,
                  const core::ExperimentResult& b) {
  const double e = b.energy.potential();
  const double c = b.position_checksum;
  return std::abs(a.energy.potential() - e) <= std::abs(e) * 1e-6 + 1e-4 &&
         std::abs(a.position_checksum - c) <= std::abs(c) * 1e-9;
}

// For each p, the network and CPUs-per-node never change the arithmetic:
// final energy and position checksum are bit-identical across the cells of
// one middleware. CMPI reduces in another order than MPI, so the two
// middlewares agree within the reassociation tolerance (charmm_test's
// MiddlewareNeverChangesPhysics). The MPI cells' payload bytes must equal
// the closed-form schedule (the replicated atom decomposition's pin in
// tests/decomposition_test.cpp).
void check_factorial(const sysbuild::BuiltSystem& sys,
                     const std::vector<core::SweepOutcome>& cells,
                     Checks& checks) {
  for (int p : kFactorialProcs) {
    const core::SweepOutcome* first[2] = {nullptr, nullptr};
    for (const auto& cell : cells) {
      if (cell.spec.nprocs != p || !cell.ok()) continue;
      const std::string label = core::spec_label(cell.spec);
      const bool mpi = cell.spec.platform.middleware == middleware::Kind::kMpi;
      const core::SweepOutcome*& ref = first[mpi ? 0 : 1];
      if (ref == nullptr) {
        ref = &cell;
      } else {
        checks.expect(cell.result.energy.potential() ==
                              ref->result.energy.potential() &&
                          cell.result.position_checksum ==
                              ref->result.position_checksum,
                      label + ": energy/checksum differ from " +
                          core::spec_label(ref->spec));
      }
      if (mpi) {
        const core::OverheadPrediction pred = core::predict_step_overheads(
            net::params_for(cell.spec.platform.network), p,
            sys.topo.natoms(), cell.spec.charmm.pme);
        const double want = pred.bytes_per_step() * cell.spec.charmm.nsteps;
        checks.expect(traffic_of(cell.result).bytes == want,
                      label + ": payload bytes differ from the predicted " +
                          "schedule");
      }
    }
    if (first[0] != nullptr && first[1] != nullptr) {
      checks.expect(same_physics(first[1]->result, first[0]->result),
                    "p=" + std::to_string(p) +
                        ": CMPI energy/checksum outside the MPI tolerance");
    }
  }
}

// Same seed and steps at p=1, within the spatial tolerance of
// tests/decomposition_test.cpp.
void check_spatial(const sysbuild::BuiltSystem& sys, const Options& o,
                   const core::ExperimentResult& par, Checks& checks) {
  const core::ExperimentResult ref =
      core::run_experiment(sys, spatial_spec(o, 1));
  checks.expect(same_physics(par, ref),
                "spatial energy/checksum outside the tolerance of the p=1 run");
}

std::string run_factorial(const Options& o, Tracer& tracer) {
  const sysbuild::BuiltSystem sys = sysbuild::load_system(o.system_path);
  const std::vector<core::ExperimentSpec> specs = factorial_specs(o);
  const core::SweepRunner runner(kSweepWorkers);
  std::vector<core::SweepOutcome> cells;
  const auto t0 = Clock::now();
  {
    auto span = tracer.span("core.sweep");
    cells = runner.run(sys, specs);
  }
  const double phase = seconds_since(t0);

  Checks checks;
  std::uint64_t failed_cells = 0, events = 0, switches = 0, rank_steps = 0;
  Traffic traffic;
  for (const auto& cell : cells) {
    if (!cell.ok()) {
      ++failed_cells;
      if (checks.failures.size() < 20) {
        checks.failures.push_back(core::spec_label(cell.spec) + ": " +
                                  cell.error);
      }
      continue;
    }
    events += cell.result.engine_events;
    switches += cell.result.engine_context_switches;
    rank_steps += static_cast<std::uint64_t>(cell.spec.nprocs) *
                  static_cast<std::uint64_t>(cell.spec.charmm.nsteps);
    const Traffic t = traffic_of(cell.result);
    traffic.messages += t.messages;
    traffic.bytes += t.bytes;
  }
  check_factorial(sys, cells, checks);

  Json j;
  j.num("phase_s", phase)
      .count("rank_steps", rank_steps)
      .count("events", events)
      .count("context_switches", switches)
      .count("messages", traffic.messages)
      .num("bytes", traffic.bytes)
      .count("cells_attempted", cells.size())
      .count("cells_failed", failed_cells);
  checks.write(j);
  return j.num("peak_rss_mb", peak_rss_mb()).raw("spans", tracer.json()).done();
}

std::string run_spatial(const Options& o, Tracer& tracer) {
  const sysbuild::BuiltSystem sys = sysbuild::load_system(o.system_path);
  const int p = o.smoke ? kSmokeSpatialProcs : kSpatialProcs;
  const core::ExperimentSpec spec = spatial_spec(o, p);
  Checks checks;
  std::uint64_t failed_cells = 0;
  core::ExperimentResult result;
  const auto t0 = Clock::now();
  try {
    auto span = tracer.span("core.run_experiment");
    result = core::run_experiment(sys, spec);
  } catch (const std::exception& e) {
    failed_cells = 1;
    checks.failures.push_back(core::spec_label(spec) + ": " + e.what());
  }
  const double phase = seconds_since(t0);
  if (failed_cells == 0) check_spatial(sys, o, result, checks);
  const Traffic traffic = traffic_of(result);

  Json j;
  j.num("phase_s", phase)
      .count("rank_steps", static_cast<std::uint64_t>(p) *
                               static_cast<std::uint64_t>(spec.charmm.nsteps))
      .count("events", result.engine_events)
      .count("context_switches", result.engine_context_switches)
      .count("messages", traffic.messages)
      .num("bytes", traffic.bytes)
      .count("cells_attempted", 1)
      .count("cells_failed", failed_cells);
  checks.write(j);
  return j.num("peak_rss_mb", peak_rss_mb()).raw("spans", tracer.json()).done();
}

// --- des_fabric ----------------------------------------------------------------

// The simulated cluster of des_fabric: ScoreGigE ranks, one per node, on a
// fabric; built fresh for every phase.
struct Fabric {
  std::unique_ptr<net::ClusterNetwork> net;
  std::unique_ptr<sim::Engine> engine;
  std::vector<perf::RankRecorder> recorders;

  Fabric(int ranks, const net::TopologySpec& topology) {
    net::ClusterConfig cfg;
    cfg.nranks = ranks;
    cfg.cpus_per_node = 1;
    cfg.network = net::Network::kScoreGigE;
    cfg.topology = topology;
    net = std::make_unique<net::ClusterNetwork>(cfg);
    engine = std::make_unique<sim::Engine>(ranks);
    recorders.resize(static_cast<std::size_t>(ranks));
  }
};

int fabric_ranks(bool smoke) { return smoke ? kSmokeFabricRanks : kFabricRanks; }
int fabric_iterations(bool smoke) {
  return smoke ? kSmokeFabricIterations : kFabricIterations;
}

enum class FabricPhase { kFull, kAllreduceOnly, kRingOnly };

struct FabricResult {
  double phase_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  Traffic traffic;
};

// Seed-derived payloads. Allreduce words are small integers, so their sum
// over every rank is exact in any order; ring words are a per-iteration
// seed vector plus the sender's rank.
double allreduce_word(std::uint64_t seed, int rank, int iter, std::size_t k) {
  const std::uint64_t h = splitmix64(
      seed ^ (static_cast<std::uint64_t>(rank) << 24) ^
      (static_cast<std::uint64_t>(iter) << 12) ^ k);
  return static_cast<double>(h & 1023u);
}

FabricResult run_fabric_phase(Fabric& fabric, const Options& o,
                              FabricPhase phase, Checks& checks) {
  const int p = fabric.engine->size();
  const int iters = fabric_iterations(o.smoke);
  const bool allreduce = phase != FabricPhase::kRingOnly;
  const bool ring = phase != FabricPhase::kAllreduceOnly;

  // Expected values, computed before the timed phase.
  std::vector<double> allreduce_sum(
      static_cast<std::size_t>(iters) * kAllreduceDoubles, 0.0);
  if (allreduce) {
    for (int it = 0; it < iters; ++it) {
      for (std::size_t k = 0; k < kAllreduceDoubles; ++k) {
        double s = 0.0;
        for (int r = 0; r < p; ++r) s += allreduce_word(o.seed, r, it, k);
        allreduce_sum[static_cast<std::size_t>(it) * kAllreduceDoubles + k] = s;
      }
    }
  }
  std::vector<double> ring_base(static_cast<std::size_t>(iters) * kRingDoubles);
  for (std::size_t i = 0; i < ring_base.size(); ++i) {
    ring_base[i] = static_cast<double>(splitmix64(o.seed + i) >> 40);
  }
  std::vector<std::uint8_t> allreduce_bad(static_cast<std::size_t>(iters), 0);
  std::vector<std::uint8_t> ring_bad(static_cast<std::size_t>(iters), 0);

  const auto t0 = Clock::now();
  fabric.engine->run([&](sim::RankCtx& ctx) {
    const int r = ctx.rank();
    mpi::Comm comm(ctx, *fabric.net,
                   fabric.recorders[static_cast<std::size_t>(r)]);
    const int right = (r + 1) % p;
    const int left = (r - 1 + p) % p;
    std::vector<double> data(kAllreduceDoubles);
    std::vector<double> out(kRingDoubles);
    std::vector<double> in(kRingDoubles);
    for (int it = 0; it < iters; ++it) {
      const auto iu = static_cast<std::size_t>(it);
      if (allreduce) {
        for (std::size_t k = 0; k < kAllreduceDoubles; ++k) {
          data[k] = allreduce_word(o.seed, r, it, k);
        }
        comm.allreduce_sum(data.data(), data.size());
        const double* want = &allreduce_sum[iu * kAllreduceDoubles];
        for (std::size_t k = 0; k < kAllreduceDoubles; ++k) {
          if (data[k] != want[k]) allreduce_bad[iu] = 1;
        }
      }
      if (ring) {
        const double* base = &ring_base[iu * kRingDoubles];
        for (std::size_t k = 0; k < kRingDoubles; ++k) out[k] = base[k] + r;
        comm.sendrecv(right, 11, out.data(), kRingDoubles * sizeof(double),
                      left, 11, in.data(), kRingDoubles * sizeof(double));
        for (std::size_t k = 0; k < kRingDoubles; ++k) {
          if (in[k] != base[k] + left) ring_bad[iu] = 1;
        }
      }
      comm.compute(kFabricCompute);
    }
  });
  FabricResult res;
  res.phase_s = seconds_since(t0);
  res.events = fabric.engine->events_processed();
  res.switches = fabric.engine->context_switches();
  fabric.net->for_each_channel(
      [&](int, int, const net::ChannelStats& ch) {
        res.traffic.messages += ch.messages;
        res.traffic.bytes += ch.bytes;
      });
  for (int it = 0; it < iters; ++it) {
    const auto iu = static_cast<std::size_t>(it);
    if (allreduce) {
      checks.expect(allreduce_bad[iu] == 0,
                    "allreduce result differs from the rank sum at iteration " +
                        std::to_string(it));
    }
    if (ring) {
      checks.expect(ring_bad[iu] == 0,
                    "ring receive differs from the left neighbour's payload "
                    "at iteration " +
                        std::to_string(it));
    }
  }
  return res;
}

net::TopologySpec fabric_topology() {
  return net::parse_topology_spec(kFabricTopology);
}

std::string run_des_fabric(const Options& o, Tracer& tracer) {
  Checks checks;
  std::unique_ptr<Fabric> fabric;
  {
    auto span = tracer.span("net.construct");
    fabric = std::make_unique<Fabric>(fabric_ranks(o.smoke), fabric_topology());
  }
  FabricResult res;
  {
    auto span = tracer.span("sim.engine_run");
    res = run_fabric_phase(*fabric, o, FabricPhase::kFull, checks);
  }
  Json j;
  j.num("phase_s", res.phase_s)
      .count("rank_steps", static_cast<std::uint64_t>(fabric->engine->size()) *
                               static_cast<std::uint64_t>(
                                   fabric_iterations(o.smoke)))
      .count("events", res.events)
      .count("context_switches", res.switches)
      .count("messages", res.traffic.messages)
      .num("bytes", res.traffic.bytes)
      .count("cells_attempted", 1)
      .count("cells_failed", 0);
  checks.write(j);
  return j.num("peak_rss_mb", peak_rss_mb()).raw("spans", tracer.json()).done();
}

// --- set-up ------------------------------------------------------------------

std::string setup(const Options& o) {
  Json j;
  if (o.workload == Workload::kDesFabric) {
    const auto t0 = Clock::now();
    const Fabric fabric(fabric_ranks(o.smoke), fabric_topology());
    const double setup_s = seconds_since(t0);
    return j.num("setup_s", setup_s).num("build_s", 0.0).num("relax_s", 0.0)
        .done();
  }
  const auto t0 = Clock::now();
  std::unique_ptr<sysbuild::BuiltSystem> sys;
  sys = std::make_unique<sysbuild::BuiltSystem>(
      sysbuild::build_myoglobin_like(o.seed));
  const double build_s = seconds_since(t0);
  const auto t1 = Clock::now();
  charmm::relax_system(*sys, o.smoke ? kSmokeRelaxSteps : kRelaxSteps);
  const double relax_s = seconds_since(t1);
  const double setup_s = seconds_since(t0);
  sysbuild::save_system(o.out_path, *sys);
  return j.num("setup_s", setup_s).num("build_s", build_s)
      .num("relax_s", relax_s).done();
}

// --- probes ------------------------------------------------------------------

template <typename F>
double time_call(Tracer& tracer, const char* name, F&& fn) {
  const auto t0 = Clock::now();
  {
    auto span = tracer.span(name);
    fn();
  }
  return seconds_since(t0);
}

// Kernel probes on the workload's relaxed system, in a fresh process: the
// first neighbor-list build and bonded evaluation of each new position
// set miss the memo caches, a repeat on the same positions hits them.
std::string kernel_probes(const sysbuild::BuiltSystem& sys, Tracer& tracer) {
  const charmm::CharmmConfig config;
  const auto n = static_cast<std::size_t>(sys.topo.natoms());
  std::vector<double> nbl_miss, nbl_hit, bonded_miss, bonded_hit, pair, recip,
      fft3d;
  std::size_t pairs = 0, stencil = 0;
  std::vector<util::Vec3> forces(n);
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    // A fresh, never-seen position set for every repeat.
    std::vector<util::Vec3> pos = sys.positions;
    const double shift = 1e-7 * (rep + 1);
    for (auto& x : pos) x = x + util::Vec3{shift, -shift, shift};

    md::NeighborList miss_list(config.cutoff, config.skin);
    nbl_miss.push_back(time_call(tracer, "md.neighbor_build", [&] {
      miss_list.build(sys.topo, sys.box, pos);
    }));
    md::NeighborList hit_list(config.cutoff, config.skin);
    nbl_hit.push_back(time_call(tracer, "md.neighbor_build", [&] {
      hit_list.build(sys.topo, sys.box, pos);
    }));

    // The bonded memo keys on the incoming accumulators too, so both calls
    // start from zeroed forces and energies.
    md::EnergyTerms energy;
    const auto bonded_call = [&] {
      std::fill(forces.begin(), forces.end(), util::Vec3{});
      energy = md::EnergyTerms{};
      return time_call(tracer, "md.bonded_energy", [&] {
        md::bonded_energy(sys.topo, sys.box, pos, forces, energy);
      });
    };
    bonded_miss.push_back(bonded_call());
    bonded_hit.push_back(bonded_call());

    md::NonbondedOptions nb;
    nb.cutoff = config.cutoff;
    nb.switch_on = config.switch_on;
    nb.elec = md::NonbondedOptions::Elec::kEwaldDirect;
    nb.beta = config.pme.beta;
    nb.kernel = config.kernel;
    nb.table = md::build_pair_table(sys.topo);
    md::NonbondedWork work;
    pair.push_back(time_call(tracer, "md.nonbonded_energy", [&] {
      work = md::nonbonded_energy(sys.topo, sys.box, pos, miss_list, nb,
                                  forces, energy);
    }));
    pairs = work.pairs_listed;

    pme::SerialPme serial_pme(config.pme, sys.box, config.kernel);
    pme::PmeWork pme_work;
    recip.push_back(time_call(tracer, "pme.reciprocal", [&] {
      serial_pme.reciprocal(sys.topo, pos, forces, &pme_work);
    }));
    stencil = pme_work.stencil_points;

    const fft::Fft3D fft(config.pme.nx, config.pme.ny, config.pme.nz);
    std::vector<fft::Complex> grid(fft.volume());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid[i] = fft::Complex(std::sin(0.001 * static_cast<double>(i)),
                             std::cos(0.003 * static_cast<double>(i)));
    }
    fft3d.push_back(time_call(tracer, "fft.fft3d", [&] {
      fft.forward(grid.data());
      fft.inverse(grid.data());
    }));
  }
  const double volume = static_cast<double>(config.pme.nx * config.pme.ny *
                                            config.pme.nz);
  const double fft_flops = 2.0 * 5.0 * volume * std::log2(volume);
  return Json()
      .num("nbl_build_miss_s", median(nbl_miss))
      .num("nbl_build_hit_s", median(nbl_hit))
      .num("bonded_miss_s", median(bonded_miss))
      .num("bonded_hit_s", median(bonded_hit))
      .num("pair_s", median(pair))
      .count("pairs", pairs)
      .num("recip_s", median(recip))
      .count("stencil_points", stencil)
      .num("fft3d_s", median(fft3d))
      .num("fft3d_flops_computed", fft_flops)
      .done();
}

// Sequential replay of the sweep, one span per run_experiment, in a fresh
// process (cold memo caches, as in the sweep).
std::string factorial_replay(const sysbuild::BuiltSystem& sys,
                             const Options& o, Tracer& tracer) {
  std::vector<std::string> items;
  for (const core::ExperimentSpec& spec : factorial_specs(o)) {
    const double cell_s = time_call(tracer, "core.run_experiment", [&] {
      (void)core::run_experiment(sys, spec);
    });
    items.push_back(
        Json()
            .str("middleware", middleware::to_string(spec.platform.middleware))
            .count("nprocs", static_cast<std::uint64_t>(spec.nprocs))
            .str("label", core::spec_label(spec))
            .num("cell_s", cell_s)
            .done());
  }
  return json_array(items);
}

std::string fabric_variants(const Options& o, Tracer& tracer) {
  Checks checks;
  const auto variant = [&](const char* name, FabricPhase phase,
                           const net::TopologySpec& topology) {
    Fabric fabric(fabric_ranks(o.smoke), topology);
    auto span = tracer.span(name);
    return run_fabric_phase(fabric, o, phase, checks).phase_s;
  };
  const net::TopologySpec fattree = fabric_topology();
  const double allreduce_s =
      variant("mpi.allreduce_sum", FabricPhase::kAllreduceOnly, fattree);
  const double ring_s = variant("mpi.sendrecv", FabricPhase::kRingOnly, fattree);
  const double fattree_s = variant("net.fattree", FabricPhase::kFull, fattree);
  const double single_s =
      variant("net.single_switch", FabricPhase::kFull, net::TopologySpec{});
  const double calls = static_cast<double>(fabric_ranks(o.smoke)) *
                       static_cast<double>(fabric_iterations(o.smoke));
  Json j;
  j.num("allreduce_only_s", allreduce_s)
      .num("ring_only_s", ring_s)
      .num("fattree_s", fattree_s)
      .num("single_switch_s", single_s)
      .num("rank_calls", calls);
  checks.write(j);
  return j.done();
}

std::string probe(const Options& o, Tracer& tracer) {
  Json j;
  if (o.workload == Workload::kDesFabric) {
    return j.raw("fabric", fabric_variants(o, tracer))
        .raw("spans", tracer.json()).done();
  }
  const sysbuild::BuiltSystem sys = sysbuild::load_system(o.system_path);
  if (o.workload == Workload::kFactorial) {
    // The replay first, while the memo caches are cold.
    j.raw("cells", factorial_replay(sys, o, tracer));
  }
  return j.raw("kernels", kernel_probes(sys, tracer))
      .raw("spans", tracer.json()).done();
}

std::string info() {
  return Json()
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("optimized", optimized_build())
      .str("kernel", util::to_string(util::default_kernel_kind()))
      .str("engine", sim::to_string(sim::default_engine_backend()))
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    if (o.mode == "info") {
      std::printf("%s\n", info().c_str());
      return 0;
    }
    guard_provenance();
    Tracer tracer(o.trace || o.mode == "probe");
    std::string record;
    if (o.mode == "setup") {
      record = setup(o);
    } else if (o.mode == "probe") {
      record = probe(o, tracer);
    } else if (o.workload == Workload::kFactorial) {
      record = run_factorial(o, tracer);
    } else if (o.workload == Workload::kSpatial128) {
      record = run_spatial(o, tracer);
    } else {
      record = run_des_fabric(o, tracer);
    }
    std::printf("%s\n", record.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
