// Repository benchmark program: runs one workload for a fixed host-time
// budget and prints its metrics by name with their units.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 reports the end-to-end metrics from untraced repetitions;
// --trace 1 reports the per-layer ledger: layer microbenchmarks, layer
// counts, and one traced repetition's virtual attribution (its Chrome
// trace and attribution CSV are written to --out). Either mode runs the
// correctness gate. The last stdout line is one JSON object with the
// keys correct, attempted, failed and metrics. Exit status: 0 when the
// run completed (even if a check failed; "correct" says so), 2 on bad
// arguments, 1 on an internal error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "emc/common/timer.hpp"
#include "emc/trace/export.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".bench_build/results";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <small_msg_64r|bulk_1MiB_ib|"
               "lossy_wan_keyring> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &used);
      } else if (flag == "--out") {
        a.out = v;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != v.size()) usage("bad value for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!workload_by_name(a.workload)) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    usage("--seconds must be positive and --trace 0 or 1");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Linear-interpolation percentile (the numpy default).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Peak resident set of this process image, MB. Read from VmHWM:
/// getrusage's ru_maxrss survives execve, so a benchmark started from
/// a larger parent process would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += (c == '\n' ? ' ' : c);
  }
  return o + "\"";
}

/// One reported metric: value, unit, and the layer map entry (which
/// end-to-end metric it should move, on which workload).
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

/// Failed/attempted accounting plus the gate's findings.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t diverged = 0;  ///< reps whose virtual values differed
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, bool>> checks;

  void account(const Rep& r, const std::string& what) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) problems.push_back(what + ": " + e);
  }
  /// A repetition whose virtual values differ from the reference
  /// counts every one of its operations as failed.
  void same(const Rep& r, const Rep& ref, const std::string& what) {
    if (r.same_virtual(ref)) return;
    ++diverged;
    failed += r.attempted - std::min(r.failed, r.attempted);
    problems.push_back(what + ": virtual values differ from the reference rep");
  }
  void check(bool ok, const std::string& what) {
    checks.emplace_back(what, ok);
  }
  [[nodiscard]] bool correct() const {
    return failed == 0 && problems.empty() &&
           std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

/// Host CPU milliseconds calibration_ms() takes at the reference host
/// speed. Host-time end-to-end metrics are scaled by this over the
/// run's median calibration, so that a shared host running slower or
/// faster for minutes at a time moves them less than a program change
/// does.
constexpr double kCalibNominalMs = 20.0;

int run(const Args& a) {
  const Workload w = *workload_by_name(a.workload);
  const std::string wname = workload_name(w);
  const double T = a.seconds;
  Gate gate;

  // ---- one-time set-up: the inputs every rep uses. setup_s is the
  // median host CPU time of repeating it next to the timed reps, where
  // the core is as warm as for the reps: the same few ms of work right
  // after process start read up to 2x slower, and CPU time is blurred
  // less than wall time by other tenants.
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const double cpu0 = cpu_seconds();
    Inputs x = make_inputs(w, a.seed);
    setups.push_back(cpu_seconds() - cpu0);
    return x;
  };
  const Inputs in = timed_setup();
  std::vector<double> calib;
  const emc::WallTimer clock;

  std::vector<Metric> layer;
  const auto row = [&](const std::string& name, double v,
                       const std::string& unit, const std::string& note) {
    layer.push_back({name, v, unit, note});
  };
  const double unit_budget = 0.02 * T;
  if (a.trace == 1) {
    // Layer microbenchmarks, each at its workload's operating point.
    row("sim.handoff_us_4p", handoff_us_per_event(4, unit_budget), "us",
        "Engine::run, 4 procs; moves host_msgs_per_s on lossy_wan_keyring");
    row("sim.handoff_us_8p", handoff_us_per_event(8, unit_budget), "us",
        "Engine::run, 8 procs; should barely move bulk_1MiB_ib");
    row("sim.handoff_us_64p", handoff_us_per_event(64, unit_budget), "us",
        "Engine::run, 64 procs; moves host_msgs_per_s on small_msg_64r");
    row("mpi.match_ns_depth1", match_ns(false, unit_budget), "ns",
        "Comm::recv, tag order; moves host_msgs_per_s on small_msg_64r");
    row("mpi.match_ns_depth16", match_ns(true, unit_budget), "ns",
        "Comm::recv, reverse tag order; moves host_msgs_per_s on "
        "small_msg_64r");
    row("netsim.reserve_path_ns", reserve_ns(false, unit_budget), "ns",
        "Fabric::reserve_path, 8x8 10GbE; moves host_msgs_per_s on "
        "small_msg_64r");
    row("netsim.reserve_link_ns", reserve_ns(true, unit_budget), "ns",
        "Fabric::reserve_path, hostile WAN link; moves host_msgs_per_s on "
        "lossy_wan_keyring");
    const std::pair<std::size_t, const char*> sizes[] = {
        {64, "64B"}, {4096, "4KiB"}, {std::size_t{1} << 20, "1MiB"}};
    const char* moves[] = {"sets the per-op floor on small_msg_64r",
                           "moves host_msgs_per_s on lossy_wan_keyring",
                           "moves host_msgs_per_s on bulk_1MiB_ib"};
    for (int s = 0; s < 3; ++s) {
      for (const bool seal : {true, false}) {
        row(std::string("crypto.") + (seal ? "seal" : "open") + "_MBps_" +
                sizes[s].second,
            aead_mbps(sizes[s].first, seal, unit_budget), "MB/s",
            std::string("AeadKey::") + (seal ? "seal" : "open") +
                " boringssl-sim; " + moves[s]);
      }
    }
  }
  const double micro_s = clock.seconds();

  // ---- encrypted repetitions; the first is the warm-up and reference
  const Rep ref = run_rep(in, true);
  gate.account(ref, "rep 0");
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> offcpu;
  double rss_mb = 0.0;
  const double rep_until = a.trace == 0 ? T : micro_s + 0.65 * (T - micro_s);
  while (walls.size() < 3 || clock.seconds() < rep_until) {
    for (int i = 0; i < 3; ++i) {
      calib.push_back(calibration_ms());
      if (a.trace == 0) (void)timed_setup();
    }
    const Rep r = run_rep(in, true);
    const std::string what = "rep " + std::to_string(walls.size() + 1);
    gate.account(r, what);
    gate.same(r, ref, what);
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    offcpu.push_back(1.0 - r.cpu_s / r.wall_s);
    // Read after a fixed number of reps: RSS creeps up with every rep
    // that starts 64 fresh rank threads, so a peak taken at the end
    // would depend on how many reps fit in the run.
    if (walls.size() == 3) rss_mb = peak_rss_mb();
  }

  // ---- unencrypted twin: same program and seed on a plain Comm
  const Rep twin = run_rep(in, false);
  gate.account(twin, "twin 0");
  std::vector<double> twin_cpus;
  if (a.trace == 1) {
    const double twin_until = micro_s + 0.9 * (T - micro_s);
    while (twin_cpus.size() < 3 || clock.seconds() < twin_until) {
      const Rep r = run_rep(in, false);
      const std::string what = "twin " + std::to_string(twin_cpus.size() + 1);
      gate.account(r, what);
      gate.same(r, twin, what);
      twin_cpus.push_back(r.cpu_s);
    }
  }

  // ---- workload sanity checks
  if (w == Workload::kLossy) {
    gate.check(ref.rel.retransmits > 0, "lossy: reliable.retransmits > 0");
    gate.check(ref.ratchets > 0, "lossy: keys.ratchets > 0");
    gate.check(ref.catchup_opens > 0, "lossy: keys.catchup_opens > 0");
    const Inputs alt_in = make_inputs(w, mix(a.seed, 0xa17));
    const Rep alt = run_rep(alt_in, true);
    gate.account(alt, "second seed");
    gate.check(alt.makespan != ref.makespan,
               "lossy: a second seed gives a different timeline");
  }

  std::vector<Metric> e2e;
  const double wall50 = median(walls);
  const double cpu50 = median(cpus);
  const double speed = kCalibNominalMs / median(calib);
  const std::size_t nsteps = ref.steps_us.size();
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  e2e.push_back({"setup_s", median(setups) * speed, "s",
                 "median CPU time of the set-ups, speed-scaled"});
  e2e.push_back({"host_msgs_per_s", d(ref.deliveries) / (wall50 * speed),
                 "msg/s", "verified deliveries per host wall second, "
                          "speed-scaled"});
  e2e.push_back({"rep_cpu_ms_p50", cpu50 * 1e3 * speed, "ms",
                 "median rep CPU time, speed-scaled"});
  e2e.push_back({"peak_rss_MB", rss_mb, "MB",
                 "peak resident memory over the warm-up and 3 reps"});
  e2e.push_back({"virt_goodput_MBps", d(ref.bytes) / ref.makespan / 1e6,
                 "MB/s", "verified plaintext bytes / virtual makespan"});
  e2e.push_back({"virt_overhead_pct",
                 (ref.makespan / twin.makespan - 1.0) * 100.0, "%",
                 "virtual makespan against the unencrypted twin"});
  e2e.push_back({"virt_step_us_p50", percentile(ref.steps_us, 50), "us",
                 std::to_string(nsteps) + " samples"});
  const auto tail =
      nsteps - static_cast<std::size_t>(std::ceil(0.99 * d(nsteps)));
  e2e.push_back({"virt_step_us_p99", percentile(ref.steps_us, 99), "us",
                 std::to_string(nsteps) + " samples, " + std::to_string(tail) +
                     " beyond p99"});
  gate.check(nsteps >= 1000, "at least 10 step samples beyond p99");

  // ---- per-layer counts and the traced repetition
  if (a.trace == 1) {
    row("host.calib_ms", median(calib), "ms",
        "speed probe (no library code); host-time end-to-end metrics are "
        "scaled by " + num(kCalibNominalMs) + " ms over it");
    const double events = d(ref.events);
    row("sim.events", events, "count", "Engine::scheduled_events() per rep");
    row("sim.wall_us_per_event", wall50 / events * 1e6, "us",
        "moves host_msgs_per_s on small_msg_64r");
    row("sim.offcpu_frac", median(offcpu), "ratio",
        "1 - CPU/wall per rep; moves host_msgs_per_s on small_msg_64r");
    const std::string arq = "World::reliability()->stats()";
    row("reliable.data_frames", d(ref.rel.data_frames), "count", arq);
    row("reliable.retransmits", d(ref.rel.retransmits), "count", arq);
    row("reliable.spurious_retransmits", d(ref.rel.spurious_retransmits),
        "count", arq);
    row("reliable.window_stalls", d(ref.rel.window_stalls), "count", arq);
    row("reliable.useful_ratio",
        ref.rel.data_frames == 0
            ? 1.0
            : d(ref.rel.deliveries) / d(ref.rel.data_frames),
        "ratio", "deliveries / data frames (1 with the ARQ off); moves "
                 "virt_goodput_MBps on lossy_wan_keyring");
    const std::string cc = "CryptoCounters, summed over ranks";
    row("secure_mpi.msgs_sealed", d(ref.msgs_sealed), "count", cc);
    row("secure_mpi.bytes_sealed", d(ref.bytes_sealed), "B", cc);
    row("secure_mpi.chunks_sealed", d(ref.chunks_sealed), "count", cc);
    const double host_us =
        (cpu50 - median(twin_cpus)) / d(ref.msgs_sealed) * 1e6;
    row("secure_mpi.host_us_per_msg", host_us, "us",
        "(rep CPU - twin rep CPU) / seals; moves host_msgs_per_s on small "
        "and bulk");
    // The isolated seal+open runs at the mean plaintext size per seal.
    const std::size_t op_size =
        ref.msgs_sealed == 0 ? 0 : ref.bytes_sealed / ref.msgs_sealed;
    row("secure_mpi.framing_us_per_msg",
        host_us - seal_open_us(op_size, unit_budget), "us",
        "minus isolated seal+open at " + std::to_string(op_size) +
            " B; moves host_msgs_per_s on small_msg_64r");
    row("keys.handshake_attempts", d(ref.handshake_attempts),
        "count", "HandshakeResult::attempts, summed over endpoints");
    row("keys.ratchets", d(ref.ratchets), "count",
        "LinkKeyring::counters(), summed over ranks");
    row("keys.catchup_opens", d(ref.catchup_opens), "count",
        "LinkKeyring::counters(), summed over ranks");
    row("keys.handshake_virt_ms", median(ref.handshake_elapsed) * 1e3, "ms",
        "median HandshakeResult::elapsed; moves virt_overhead_pct on lossy");

    auto rec = std::make_shared<emc::trace::TraceRecorder>(
        emc::trace::Config{.ring_capacity = 1024}, world_ranks(w));
    const Rep traced = run_rep(in, true, rec);
    gate.account(traced, "traced rep");
    gate.same(traced, ref, "traced rep");
    const auto summary = emc::trace::Summary::from(*rec);
    const emc::trace::SummaryRow all = summary.aggregate();
    const auto cat = [&](emc::trace::Category c) {
      return all.seconds[static_cast<std::size_t>(c)];
    };
    using emc::trace::Category;
    double overlap = 0.0;
    for (const auto& r : summary.rows) overlap += r.pipeline_overlap_s();
    row("mpi.sync_wait_s", cat(Category::kSyncWait), "s",
        "traced; moves virt_step_us_p99 on small_msg_64r");
    row("mpi.copy_s", cat(Category::kCopy), "s",
        "traced; moves virt_goodput_MBps on bulk_1MiB_ib");
    row("netsim.wire_s", cat(Category::kWire), "s",
        "traced; moves virt_goodput_MBps on bulk_1MiB_ib");
    row("netsim.nic_queue_s", cat(Category::kNicQueue), "s",
        "traced; moves virt_step_us_p99 on small_msg_64r");
    row("reliable.arq_retransmit_s", cat(Category::kArqRetransmit), "s",
        "traced; moves virt_step_us_p99 on lossy_wan_keyring");
    row("secure_mpi.crypto_s",
        cat(Category::kCryptoEncrypt) + cat(Category::kCryptoDecrypt), "s",
        "traced; moves virt_overhead_pct on bulk_1MiB_ib");
    row("secure_mpi.helper_s", cat(Category::kCryptoHelper), "s",
        "traced; moves virt_goodput_MBps on bulk_1MiB_ib");
    row("secure_mpi.pipeline_stall_s", cat(Category::kPipelineStall), "s",
        "traced; moves virt_overhead_pct on bulk_1MiB_ib");
    row("secure_mpi.overlap_s", overlap, "s",
        "traced; moves virt_goodput_MBps on bulk_1MiB_ib");
    row("keys.key_mgmt_s", cat(Category::kKeyMgmt), "s",
        "traced; moves virt_overhead_pct on lossy_wan_keyring");
    row("trace.overhead_pct", (traced.wall_s / wall50 - 1.0) * 100.0, "%",
        "traced rep wall against the median untraced rep");
    row("trace.idle_s", all.idle, "s",
        "uninstrumented virtual seconds (guard)");

    std::filesystem::create_directories(a.out);
    const std::string stem =
        a.out + "/" + wname + "_seed" + std::to_string(a.seed);
    std::ofstream json(stem + ".trace.json", std::ios::binary);
    emc::trace::ChromeTraceWriter writer(json);
    writer.add_world(*rec, wname, 0);
    writer.finish();
    std::ofstream csv(stem + ".attribution.csv", std::ios::binary);
    emc::trace::write_attribution_csv(csv, summary, wname, true);
    std::cout << "trace: " << stem << ".trace.json\n";
    emc::trace::print_summary(std::cout, summary,
                              wname + " virtual attribution");
    for (std::size_t c = 0; c < emc::trace::kNumCategories; ++c) {
      std::printf("  attribution %-22s %.9f s\n",
                  emc::trace::category_name(static_cast<Category>(c)),
                  all.seconds[c]);
    }
    std::printf("  attribution %-22s %.9f s\n", "idle", all.idle);
  }

  gate.check(gate.diverged == 0, "the same seed replays exactly in every rep");

  // ---- report
  std::vector<Metric>& shown = a.trace == 0 ? e2e : layer;
  for (Metric& m : shown) {
    if (!std::isfinite(m.value)) {
      gate.problems.push_back(m.name + " is not finite");
      m.value = 0.0;
    }
  }
  std::cout << wname << " seed=" << a.seed << " trace=" << a.trace
            << " reps=" << walls.size() << " (+1 warm-up)\n";
  std::printf("  rep wall s p25/p50/p75 %.4f/%.4f/%.4f"
              "   rep CPU s p25/p50/p75 %.4f/%.4f/%.4f\n",
              percentile(walls, 25), wall50, percentile(walls, 75),
              percentile(cpus, 25), cpu50, percentile(cpus, 75));
  std::printf("  host calibration ms p25/p50/p75 %.4f/%.4f/%.4f; host "
              "times scaled by %.4f (nominal %.1f ms)\n",
              percentile(calib, 25), median(calib), percentile(calib, 75),
              speed, kCalibNominalMs);
  std::printf("  unscaled: setup_s %.6g s, host_msgs_per_s %.6g msg/s, "
              "rep_cpu_ms_p50 %.6g ms\n",
              median(setups), d(ref.deliveries) / wall50, cpu50 * 1e3);
  for (const Metric& m : shown) {
    std::printf("  %-32s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-32s %16.6g %-6s %s\n", "error_rate",
              gate.attempted == 0 ? 1.0
                                  : static_cast<double>(gate.failed) /
                                        static_cast<double>(gate.attempted),
              "ratio", "failed / attempted operations of every rep in the run");
  for (const auto& [what, ok] : gate.checks) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
  }
  for (const std::string& p : gate.problems) {
    std::cout << "  [FAIL] " << p << "\n";
  }

  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    metrics << (i ? ", " : "") << json_str(shown[i].name) << ": {\"value\": "
            << num(shown[i].value) << ", \"unit\": " << json_str(shown[i].unit)
            << "}";
  }
  metrics << "}";
  std::cout << "{\"correct\": " << (gate.correct() ? "true" : "false")
            << ", \"attempted\": " << gate.attempted
            << ", \"failed\": " << gate.failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
