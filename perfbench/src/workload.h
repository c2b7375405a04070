// The benchmark's workloads and the training run ("trial") it repeats.
//
// A trial is one complete closed-loop DDP training job: build the dataset,
// the fabric and the trainer, train a fixed number of epochs (a round
// starts only after the previous one finished), evaluate after every
// epoch, and check the outcome. Trials of one draw are identical, so every
// deterministic output must repeat bit for bit across the trials of a run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ddp/experiment.h"
#include "ml/data.h"
#include "ml/layers.h"

namespace perfbench {

struct Workload {
  std::string name;
  trimgrad::ddp::ExperimentSpec spec;  ///< seeds are filled in per run
  trimgrad::ml::SynthCifarConfig data;
  bool vgg = false;        ///< mini-VGG when true, else the two-layer MLP
  std::size_t width = 0;   ///< VGG base width or MLP hidden width
  std::size_t rht_row_len = 0;
  double straggler_factor = 1.0;
  /// Network draws a run cycles its trials through; the deterministic
  /// metrics are means over them. More for cheaper trials.
  unsigned draws = 4;
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// The inputs of one training run. --seed and the draw index pick the
/// network side: trim coins, fault coins and codec rotations. The ML side
/// (dataset, model init, batch order, augmentation) is fixed per workload,
/// because dataset difficulty and init otherwise dominate the spread of
/// final_loss across seeds (see README.md).
struct Seeds {
  Seeds(std::uint64_t seed, unsigned draw);
  std::uint64_t data, init, shuffle, augment;  // fixed
  std::uint64_t injector, faults, codec, probe;  // from (seed, draw)
};

/// The workload's trainer configuration for one run (codec included).
trimgrad::ddp::TrainerConfig trainer_config(const Workload& w,
                                            const Seeds& seeds);
/// One replica of the workload's model, initialised from the run's seed.
std::unique_ptr<trimgrad::ml::Sequential> make_model(const Workload& w,
                                                     const Seeds& seeds);

struct TrialResult {
  unsigned draw = 0;  ///< draw index of the trial's Seeds
  // --- set-up (host seconds) -----------------------------------------
  double dataset_s = 0;
  double fabric_s = 0;
  double calibrate_s = 0;
  double trainer_init_s = 0;
  // --- the timed region -----------------------------------------------
  std::vector<double> round_s;  ///< host seconds per training round
  double train_s = 0;           ///< sum of run_epoch() host time
  double eval_s = 0;            ///< sum of evaluate() host time
  std::size_t evals = 0;
  std::uint64_t samples = 0;    ///< training samples processed
  std::size_t failed_rounds = 0;
  // --- deterministic outputs ------------------------------------------
  std::vector<double> epoch_loss;
  double final_top1 = 0;
  double sim_comm_s = 0;        ///< mean simulated comm time per round
  std::uint64_t wire_bytes = 0; ///< EpochRecord::wire_bytes, summed
  std::size_t policy_switches = 0;
  std::uint64_t corrupt_nacks = 0;
  std::uint64_t events = 0;
  std::uint64_t monitor_checks = 0;
  // --- the trainer's live clock (traced trials only), summed over rounds
  double compute_s = 0;
  double encode_s = 0;
  double decode_s = 0;
  // --- ProbeChannel totals (traced trials only) -------------------------
  double transfer_s = 0;
  double probe_s = 0;
  double lead_s = 0;
  std::uint64_t messages = 0, packets = 0, trimmed = 0, dropped = 0,
                retransmits = 0, probe_wire_bytes = 0, coords = 0;
  /// Failed correctness checks, one line each; empty when the trial passed.
  std::vector<std::string> errors;

  double setup_s() const { return dataset_s + fabric_s + trainer_init_s; }
  /// The outputs a host-only change must leave bit-identical.
  bool same_outputs(const TrialResult& o) const;
};

/// Run one trial. Traced trials use the trainer's live clock and a checking
/// ProbeChannel; untraced trials use the modeled clock (calibrated once per
/// process) and a ProbeChannel that only marks round boundaries.
TrialResult run_trial(const Workload& w, const Seeds& seeds, bool trace);

}  // namespace perfbench
