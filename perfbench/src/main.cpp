// The repo benchmark: host time per closed-loop DDP round, split by layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
//   perfbench --self-test
//
// A run repeats one seeded training job (workload.h) until --seconds have
// passed, then prints a manifest, a readable table and, as its last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, measured on untraced
// trials. With --trace 1 they are the per-layer set: traced trials
// alternate with untraced ones, so the run also measures what tracing
// costs and checks that both kinds produce bit-identical outputs.
// perfbench/run.py builds this program and is the command to use.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simd.h"
#include "core/threadpool.h"
#include "probe_channel.h"
#include "probes.h"
#include "workload.h"

namespace {

using namespace perfbench;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The 90th percentile. A 20-second run times 600 rounds or more, so at
/// least 60 lie beyond it. The 11th-largest round (the highest percentile
/// with ten beyond it) moved by 25-46% between seeds on a 4-vCPU VM, and
/// the 95th by up to 53% while the host was busy, because stalls of the
/// VM decide them.
double p90(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.9 * static_cast<double>(v.size() - 1))];
}

/// CPU time the hypervisor gave to other guests (`steal` in /proc/stat)
/// and total CPU time, in clock ticks; {0, 0} where it cannot be read.
std::pair<double, double> steal_and_total_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (const unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*val == '\0' || *end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*val == '\0' || *end != '\0' || !(a.seconds > 0) || a.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = val[0] - '0';
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!a.self_test && (a.workload.empty() || a.seconds <= 0 || a.trace < 0))
    usage("--workload, --seconds and --trace are required");
  return a;
}

/// The timed trials of one kind, and every round they ran.
struct Pool {
  std::vector<TrialResult> trials;
  std::vector<double> rounds;

  void add(TrialResult t) {
    rounds.insert(rounds.end(), t.round_s.begin(), t.round_s.end());
    trials.push_back(std::move(t));
  }
  template <typename T>
  double sum(T TrialResult::*field) const {
    double s = 0;
    for (const TrialResult& t : trials) s += static_cast<double>(t.*field);
    return s;
  }
};

/// Median of a per-trial value over the trials of some pools.
template <typename F>
double median_trials(std::initializer_list<const Pool*> pools, F f) {
  std::vector<double> v;
  for (const Pool* p : pools) {
    for (const TrialResult& t : p->trials) v.push_back(f(t));
  }
  return median(std::move(v));
}

/// `ref` holds one trial per network draw; the deterministic metrics are
/// means over them.
std::vector<Metric> end_to_end(const Pool& p,
                               const std::vector<const TrialResult*>& ref,
                               double calibrate_s) {
  double comm_s = 0, wire_kib = 0, loss = 0;
  for (const TrialResult* t : ref) {
    comm_s += t->sim_comm_s;
    wire_kib += static_cast<double>(t->wire_bytes) / 1024.0 /
                static_cast<double>(t->round_s.size());
    loss += t->epoch_loss.back();
  }
  const double n = static_cast<double>(ref.size());
  const double setup =
      median_trials({&p}, [](const TrialResult& t) { return t.setup_s(); });
  return {
      {"round_ms", median(p.rounds) * 1e3, "ms"},
      {"round_ms_tail", p90(p.rounds) * 1e3, "ms"},
      {"samples_per_s",
       median_trials({&p},
                     [](const TrialResult& t) {
                       return static_cast<double>(t.samples) /
                              (t.train_s + t.eval_s);
                     }),
       "samples/s"},
      {"setup_s", setup + calibrate_s, "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"sim_comm_ms", comm_s / n * 1e3, "sim_ms"},
      {"wire_kb_per_round", wire_kib / n, "KiB"},
      {"final_loss", loss / n, "nats"},
  };
}

std::vector<Metric> per_layer(const Pool& traced, const Pool& untraced,
                              double calibrate_s) {
  const auto sum = [&traced](auto field) { return traced.sum(field); };
  const double per_round = 1.0 / static_cast<double>(traced.rounds.size());
  const double ms = 1e3 * per_round;
  const double encode = sum(&TrialResult::encode_s);
  // With one pool thread the ranks' forward/backward run back to back, so
  // the live clock's slowest rank is not the phase's host time. The phase
  // is the round's lead-in to its first transfer() minus the encodes in
  // it: the parameter server encodes 3 of its 6 equal-length messages
  // before the gather, the other 3 before the broadcast.
  const double compute = sum(&TrialResult::lead_s) - 0.5 * encode;
  const double decode = sum(&TrialResult::decode_s);
  const double transfer = sum(&TrialResult::transfer_s);
  const double probe = sum(&TrialResult::probe_s);
  const double coords = sum(&TrialResult::coords);
  const double packets = sum(&TrialResult::packets);
  const double retx = sum(&TrialResult::retransmits);
  const double events = sum(&TrialResult::events);
  double round_sum = 0;
  for (const double r : traced.rounds) round_sum += r;
  const auto setup_ms = [&](double TrialResult::*field) {
    return median_trials({&traced, &untraced},
                         [field](const TrialResult& t) { return t.*field; }) *
           1e3;
  };
  const double traced_ms = median(traced.rounds) * 1e3;
  return {
      {"ml.compute_ms", compute * ms, "ms"},
      {"ml.slowest_rank_ms", sum(&TrialResult::compute_s) * ms, "ms"},
      {"ml.samples_per_s", sum(&TrialResult::samples) / compute, "samples/s"},
      {"core.encode_ms", encode * ms, "ms"},
      {"core.decode_ms", decode * ms, "ms"},
      {"core.coords_per_s", coords / (encode + decode), "coords/s"},
      {"core.bits_per_coord", 8.0 * sum(&TrialResult::probe_wire_bytes) / coords,
       "bits/coord"},
      {"collective.transfer_ms", transfer * ms, "ms"},
      {"collective.messages", sum(&TrialResult::messages) * per_round, "count"},
      {"collective.packets", packets * per_round, "count"},
      {"collective.trimmed", sum(&TrialResult::trimmed) * per_round, "count"},
      {"collective.dropped", sum(&TrialResult::dropped) * per_round, "count"},
      {"net.events", events * per_round, "count"},
      {"net.events_per_s", events / transfer, "events/s"},
      {"net.retransmits", retx * per_round, "count"},
      {"net.retransmit_ratio", retx / packets, "ratio"},
      {"net.corrupt_nacks", sum(&TrialResult::corrupt_nacks) * per_round,
       "count"},
      {"net.monitor_checks", sum(&TrialResult::monitor_checks) * per_round,
       "count"},
      {"ddp.eval_ms", sum(&TrialResult::eval_s) / sum(&TrialResult::evals) * 1e3,
       "ms"},
      {"ddp.policy_switches",
       sum(&TrialResult::policy_switches) / static_cast<double>(traced.trials.size()),
       "count"},
      {"ddp.other_ms",
       (round_sum - compute - encode - decode - transfer - probe) * ms, "ms"},
      {"ml.dataset_ms", setup_ms(&TrialResult::dataset_s), "ms"},
      {"net.fabric_build_ms", setup_ms(&TrialResult::fabric_s), "ms"},
      {"ddp.calibrate_ms", calibrate_s * 1e3, "ms"},
      {"ddp.trainer_init_ms", setup_ms(&TrialResult::trainer_init_s), "ms"},
      {"trace.round_ms", traced_ms, "ms"},
      {"trace.overhead_ms", traced_ms - median(untraced.rounds) * 1e3, "ms"},
      {"trace.probe_ms", probe * ms, "ms"},
  };
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.self_test) return self_test() == 0 ? 0 : 1;
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::string names;
    for (const Workload& x : all_workloads()) names += " " + x.name;
    usage(("unknown workload '" + args.workload + "'; known:" + names).c_str());
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // One pool thread. On the shared 4-vCPU reference VM, 20% steal made
  // 4-thread rounds 2-6x slower and unrepeatable (fattree-loop: 4.9-15.2
  // ms per round across three runs of one seed, against 2.6-3.0 ms at one
  // thread), because every parallel_for waits for its slowest vCPU.
  constexpr std::size_t threads = 1;
  trimgrad::core::ThreadPool::set_global_threads(threads);
  std::printf(
      "# manifest {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"commit\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"cxx_flags\": %s, \"isa\": %s, \"threads\": %zu, \"nproc\": %u}\n",
      json_string(w->name).c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, json_string(args.commit).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(),
      json_string(trimgrad::core::simd::to_string(
                      trimgrad::core::simd::active_isa()))
          .c_str(),
      threads, nproc);

  std::vector<std::string> errors;

  // Codec and all-reduce probes on this workload's codec and gradient length.
  {
    const Seeds seeds(args.seed, 0);
    const auto codec = trainer_config(*w, seeds).codec;
    const std::size_t coords = make_model(*w, seeds)->param_count();
    for (const std::string& e :
         {check_allreduce(codec, coords, w->spec.world, seeds.probe),
          check_trimmed_nmse(codec, coords, seeds.probe)}) {
      if (!e.empty()) errors.push_back("probe: " + e);
    }
  }

  // Each kind of trial cycles through the network draws of --seed.
  unsigned next[2] = {0, 0};
  const auto trial = [&](bool trace) {
    const unsigned draw = next[trace]++ % w->draws;
    TrialResult t = run_trial(*w, Seeds(args.seed, draw), trace);
    t.draw = draw;
    return t;
  };

  // Warm-up: the first second or so of a process runs rounds up to 4x
  // slower (seen on every workload), so whole trials run checked but
  // untimed until kWarmupSeconds have passed. The first one also pays the
  // once-per-process codec calibration.
  constexpr double kWarmupSeconds = 2.0;
  std::vector<TrialResult> warmup;
  const auto process_start = Clock::now();
  do {
    warmup.push_back(trial(false));
  } while (seconds_since(process_start) < kWarmupSeconds);

  // Closed loop: whole training runs until the time is up; untraced runs
  // cover every draw. Traced runs alternate with untraced ones, so both
  // kinds see the same machine state.
  Pool untraced, traced;
  const auto steal0 = steal_and_total_ticks();
  const auto start = Clock::now();
  const std::size_t min_trials = args.trace ? 2 : w->draws;
  while (untraced.trials.size() < min_trials ||
         (args.trace && traced.trials.size() < min_trials) ||
         seconds_since(start) < args.seconds) {
    const bool trace_now =
        args.trace && traced.trials.size() < untraced.trials.size();
    (trace_now ? traced : untraced).add(trial(trace_now));
  }

  const auto steal1 = steal_and_total_ticks();
  if (steal1.second > steal0.second) {
    std::printf("# host steal during the timed trials: %.1f%% of vCPU time\n",
                100.0 * (steal1.first - steal0.first) /
                    (steal1.second - steal0.second));
  }

  // Every trial of a draw must reproduce that draw's first trial exactly,
  // traced or not: tracing may cost time, never change a result.
  std::vector<const TrialResult*> all;
  for (const TrialResult& t : warmup) all.push_back(&t);
  for (const Pool* p : {&untraced, &traced}) {
    for (const TrialResult& t : p->trials) all.push_back(&t);
  }
  std::vector<const TrialResult*> ref(w->draws, nullptr);
  std::size_t attempted = 0, failed = 0;
  bool same = true;
  for (const TrialResult* t : all) {
    for (const std::string& e : t->errors) errors.push_back(e);
    if (ref[t->draw] == nullptr) ref[t->draw] = t;
    same = same && t->same_outputs(*ref[t->draw]);
    attempted += t->round_s.size();
    failed += t->failed_rounds;
  }
  if (!same) errors.push_back("trials of one seed produced different outputs");

  const double calibrate_s = warmup.front().calibrate_s;  // once per process
  const std::vector<Metric> metrics =
      args.trace ? per_layer(traced, untraced, calibrate_s)
                 : end_to_end(untraced, ref, calibrate_s);

  std::printf("# %zu warm-up + %zu untraced + %zu traced trials, %zu rounds "
              "(%zu failed)\n",
              warmup.size(), untraced.trials.size(), traced.trials.size(),
              attempted, failed);
  for (const TrialResult* t : ref) {
    if (t == nullptr) continue;  // --trace 1 need not cover every draw
    std::printf("# draw %u: top-1 %.3f, policy switches %zu, epoch losses",
                t->draw, t->final_top1, t->policy_switches);
    for (const double l : t->epoch_loss) std::printf(" %.4f", l);
    std::printf("\n");
  }
  for (const Metric& m : metrics) {
    std::printf("# %-24s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::string doc = "{\"correct\": ";
  doc += errors.empty() ? "true" : "false";
  doc += ", \"attempted\": " + std::to_string(attempted);
  doc += ", \"failed\": " + std::to_string(failed);
  doc += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    doc += buf;
  }
  doc += "}}";
  std::printf("%s\n", doc.c_str());
  return 0;
}
