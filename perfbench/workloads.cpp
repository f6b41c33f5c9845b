#include "workloads.h"

#include <array>
#include <utility>
#include <vector>

#include "analysis/race_checker.h"
#include "analysis/similarity.h"
#include "benchmarks/registry.h"
#include "checks.h"
#include "fault/campaign.h"
#include "frontend/compiler.h"
#include "instrument/instrument.h"
#include "ir/verifier.h"
#include "pipeline/pipeline.h"
#include "runtime/monitor_interface.h"
#include "vm/machine.h"

namespace perfbench {

namespace {

using bw::fault::FaultType;
using bw::pipeline::CompiledProgram;
using bw::pipeline::ExecutionConfig;

/// Injections per campaign. Every kernel runs one branch-flip and one
/// branch-condition campaign per round, so run_campaign's fixed costs
/// (build, golden run, monitor and thread start-up) weigh as much as the
/// injections themselves.
constexpr int kInjections = 2;
constexpr std::array<FaultType, 2> kFaultTypes = {FaultType::BranchFlip,
                                                  FaultType::BranchCondition};

// A private SplitMix64 so the inputs depend on the seed alone, not on any
// library helper.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, int round, std::uint64_t salt) {
  return mix(mix(seed ^ mix(static_cast<std::uint64_t>(round))) ^ salt);
}

/// Fisher-Yates shuffle of 0..n-1 driven by (seed, round).
std::vector<std::size_t> round_order(std::size_t n, std::uint64_t seed,
                                     int round) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = derive(seed, round, 0x6f72646572ULL);
  for (std::size_t i = n; i > 1; --i) {
    state = mix(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

struct Kernel {
  std::string name;
  const char* source;
  bool racy;
};

/// Kernels whose faulted runs are schedule-dependent: rerunning one
/// campaign plan gives Sdc in one run and Benign in another (CHANGES.md,
/// FOUND), so a protected/unprotected verdict pair can disagree by chance.
/// The campaign workload leaves them out; the other workloads run them.
bool schedule_dependent_under_fault(const std::string& name) {
  return name == "fmm" || name == "fft" || name == "ocean_noncontig" ||
         name == "radix";
}

/// The kernels a workload runs every round: the seven SPLASH-2 kernels plus
/// the two service kernels; `build` adds the two deliberately racy
/// diagnostics (build-only: their output depends on the schedule) and
/// `campaign` leaves out the kernels above.
std::vector<Kernel> kernel_set(const std::string& workload) {
  std::vector<Kernel> set;
  auto add = [&](const bw::benchmarks::Benchmark& b, bool racy) {
    if (workload == "campaign" && schedule_dependent_under_fault(b.name))
      return;
    set.push_back({b.name, b.source, racy});
  };
  for (const auto& b : bw::benchmarks::all_benchmarks()) add(b, false);
  for (const auto& b : bw::benchmarks::service_benchmarks()) add(b, false);
  if (workload == "build") {
    for (const auto& b : bw::benchmarks::diagnostic_benchmarks()) add(b, true);
  }
  return set;
}

std::string init_of(const bw::ir::Module& module) {
  return module.find_function("init") != nullptr ? "init" : "";
}

/// The independent reference output: the uninstrumented kernel on one
/// thread in the interpreter tier, with no monitor attached.
bool reference_output(const CompiledProgram& plain, std::string& out) {
  bw::vm::RunOptions options;
  options.num_threads = 1;
  options.tier = bw::vm::ExecTier::Interpreter;
  options.init_function = init_of(*plain.module);
  bw::vm::RunResult run = bw::vm::run_program(*plain.module, options);
  out = run.output;
  return run.ok && !out.empty();
}

ExecutionConfig protected_config() {
  ExecutionConfig config;
  config.num_threads = kThreads;
  return config;
}

ExecutionConfig plain_config() {
  ExecutionConfig config = protected_config();
  config.monitor = bw::pipeline::MonitorMode::Off;
  return config;
}

/// A BranchSink that only counts reports, so an instrumented run can be
/// timed without any monitor behind it. One producer per thread id writes
/// its own slot; the counts are read after run_program has joined them.
class CountingSink final : public bw::runtime::BranchSink {
 public:
  explicit CountingSink(unsigned threads) : slots_(threads) {}

  void send(const bw::runtime::BranchReport& report) override {
    if (report.thread < slots_.size()) ++slots_[report.thread].reports;
  }
  bool violation_detected() const override { return false; }

  std::uint64_t reports() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.reports;
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t reports = 0;
  };
  std::vector<Slot> slots_;
};

std::uint64_t count_instructions(const bw::ir::Module& module) {
  std::uint64_t n = 0;
  for (const auto& fn : module.functions())
    for (const auto& block : fn->blocks()) n += block->size();
  return n;
}

/// Shared state of every workload: the kernels, their prebuilt protected
/// and plain programs, and their reference outputs.
class WorkloadBase : public Workload {
 protected:
  WorkloadBase(const std::string& workload, std::uint64_t seed,
               Ledger& ledger)
      : seed_(seed), ledger_(ledger), kernels_(kernel_set(workload)) {}

  /// Build every kernel both ways and compute the references of the
  /// non-racy ones.
  bool build_inputs() {
    bool ok = true;
    for (const Kernel& k : kernels_) {
      Input in;
      ledger_.time("setup.build", k.name, [&] {
        in.plain = bw::pipeline::compile_program(k.source);
        in.prot = bw::pipeline::protect_program(k.source);
      });
      if (!k.racy) {
        ledger_.time("setup.reference", k.name,
                     [&] { ok &= reference_output(in.plain, in.reference); });
      }
      inputs_.push_back(std::move(in));
    }
    return ok;
  }

  struct Input {
    CompiledProgram plain;
    CompiledProgram prot;
    std::string reference;
  };

  std::uint64_t seed_;
  Ledger& ledger_;
  std::vector<Kernel> kernels_;
  std::vector<Input> inputs_;
};

// --- protect ---------------------------------------------------------------
// Each round runs the nine kernels once protected, from prebuilt programs
// to verdict, then the same nine unprotected (no monitor) as the baseline.
class ProtectWorkload final : public WorkloadBase {
 public:
  ProtectWorkload(std::uint64_t seed, Ledger& ledger)
      : WorkloadBase("protect", seed, ledger) {}

  bool setup() override { return build_inputs(); }

  RoundResult round(int index) override {
    RoundResult r;
    std::vector<std::size_t> order = round_order(kernels_.size(), seed_, index);
    for (std::size_t i : order) {
      const Kernel& k = kernels_[i];
      bw::pipeline::ExecutionResult res;
      r.protect_ms += ledger_.time("pipeline.protected_ms", k.name, [&] {
        res = bw::pipeline::execute(inputs_[i].prot, protected_config());
      });
      r.check(protected_run_ok(res, inputs_[i].reference));
      ledger_.add("runtime.reports", "",
                  static_cast<double>(res.monitor_stats.reports_processed));
      ledger_.add("runtime.instances_checked", "",
                  static_cast<double>(res.monitor_stats.instances_checked));
      ledger_.add("runtime.dropped_reports", "",
                  static_cast<double>(res.monitor_stats.dropped_reports));
      ledger_.add("runtime.degraded_runs", "",
                  res.monitor_health == bw::runtime::MonitorHealth::Healthy
                      ? 0.0
                      : 1.0);
    }
    for (std::size_t i : order) {
      bw::pipeline::ExecutionResult res;
      r.baseline_ms += ledger_.time("pipeline.plain_ms", kernels_[i].name, [&] {
        res = bw::pipeline::execute(inputs_[i].plain, plain_config());
      });
      r.check(plain_run_ok(res, inputs_[i].reference));
    }
    if (ledger_.tracing()) split_layers(order, r);
    return r;
  }

 private:
  /// The VM alone, plain and instrumented into a counting sink; the
  /// monitor's share of a protected run is the rest.
  void split_layers(const std::vector<std::size_t>& order, RoundResult& r) {
    for (std::size_t i : order) {
      const Kernel& k = kernels_[i];
      const Input& in = inputs_[i];
      bw::vm::RunOptions options;
      options.num_threads = kThreads;
      options.init_function = init_of(*in.plain.module);
      bw::vm::RunResult plain;
      ledger_.time("vm.plain_run_ms", k.name, [&] {
        plain = bw::vm::run_program(*in.plain.module, options);
      });
      r.check(vm_run_ok(plain, in.reference));
      ledger_.add("vm.instructions", "",
                  static_cast<double>(plain.total_instructions));

      CountingSink sink(kThreads);
      options.monitor = &sink;
      bw::vm::RunResult instrumented;
      ledger_.time("vm.instrumented_run_ms", k.name, [&] {
        instrumented = bw::vm::run_program(*in.prot.module, options);
      });
      r.check(vm_run_ok(instrumented, in.reference) && sink.reports() > 0);
    }
  }
};

// --- campaign --------------------------------------------------------------
// Each round runs, for every kernel of its set, a short branch-flip and a
// short branch-condition campaign from source, then the same plans
// unprotected.
class CampaignWorkload final : public WorkloadBase {
 public:
  CampaignWorkload(std::uint64_t seed, Ledger& ledger)
      : WorkloadBase("campaign", seed, ledger) {}

  bool setup() override {
    bool ok = build_inputs();
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      const Input& in = inputs_[i];
      ok &= bw::fault::golden_run(in.prot, kThreads).output == in.reference;
      ok &= bw::fault::golden_run(in.plain, kThreads).output == in.reference;
    }
    return ok;
  }

  RoundResult round(int index) override {
    RoundResult r;
    std::vector<std::size_t> order = round_order(kernels_.size(), seed_, index);
    const std::size_t n = kernels_.size() * kFaultTypes.size();
    std::vector<bw::fault::CampaignResult> prot(n), base(n);
    for (bool protect : {true, false}) {
      for (std::size_t i : order) {
        const Kernel& k = kernels_[i];
        for (std::size_t t = 0; t < kFaultTypes.size(); ++t) {
          bw::fault::CampaignOptions options = plan(index, i, t);
          options.protect = protect;
          const std::size_t slot = i * kFaultTypes.size() + t;
          if (protect) {
            r.protect_ms += ledger_.time("fault.campaign_ms", k.name, [&] {
              prot[slot] = bw::fault::run_campaign(k.source, options);
            });
            ledger_.add("fault.run_ms", "", prot[slot].run_ns_total / 1e6);
          } else {
            r.baseline_ms +=
                ledger_.time("fault.baseline_campaign_ms", k.name, [&] {
                  base[slot] = bw::fault::run_campaign(k.source, options);
                });
          }
        }
      }
    }
    for (std::size_t slot = 0; slot < n; ++slot) {
      bool ok = campaign_pair_ok(prot[slot], base[slot],
                                 kFaultTypes[slot % kFaultTypes.size()],
                                 kInjections);
      r.check(ok);  // the protected campaign
      r.check(ok);  // its unprotected twin
      ledger_.add("fault.detected", "", prot[slot].detected);
      ledger_.add("fault.sdc", "", prot[slot].sdc);
      ledger_.add("fault.activated", "", prot[slot].activated);
      ledger_.add("fault.baseline_sdc", "", base[slot].sdc);
      ledger_.add("fault.baseline_activated", "", base[slot].activated);
    }
    if (ledger_.tracing()) split_layers(order, r);
    return r;
  }

 private:
  bw::fault::CampaignOptions plan(int round, std::size_t kernel,
                                  std::size_t type) const {
    bw::fault::CampaignOptions options;
    options.num_threads = kThreads;
    options.injections = kInjections;
    options.type = kFaultTypes[type];
    options.seed = derive(seed_, round, kernel * kFaultTypes.size() + type);
    options.campaign_workers = 1;
    return options;
  }

  /// The golden run every campaign starts with, timed from outside.
  void split_layers(const std::vector<std::size_t>& order, RoundResult& r) {
    for (std::size_t i : order) {
      bw::fault::GoldenRun golden;
      ledger_.time("fault.golden_ms", kernels_[i].name, [&] {
        golden = bw::fault::golden_run(inputs_[i].prot, kThreads);
      });
      r.check(golden.output == inputs_[i].reference);
    }
  }
};

// --- build -----------------------------------------------------------------
// Each round takes the nine kernels and the two racy diagnostics through
// protect_program plus the static race analysis; the baseline is
// compile_program alone.
class BuildWorkload final : public WorkloadBase {
 public:
  BuildWorkload(std::uint64_t seed, Ledger& ledger)
      : WorkloadBase("build", seed, ledger) {}

  bool setup() override {
    bool ok = build_inputs();
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      const Kernel& k = kernels_[i];
      const Input& in = inputs_[i];
      plain_ir_.push_back(in.plain.module->to_string());
      prot_ir_.push_back(in.prot.module->to_string());
      bw::analysis::RaceCheckResult race =
          bw::analysis::check_races(*in.prot.module);
      candidates_.push_back(race.candidates.size());
      ok &= race_verdict_ok(race, race.candidates.size(), k.racy);
      if (!k.racy) {
        // The built protected module gives the reference output.
        ok &= protected_run_ok(bw::pipeline::execute(in.prot, protected_config()),
                               in.reference);
      }
    }
    return ok;
  }

  RoundResult round(int index) override {
    RoundResult r;
    std::vector<std::size_t> order = round_order(kernels_.size(), seed_, index);
    for (std::size_t i : order) {
      const Kernel& k = kernels_[i];
      CompiledProgram prog;
      r.protect_ms += ledger_.time("pipeline.protect_program_ms", k.name,
                                   [&] { prog = protect(k); });
      bw::analysis::RaceCheckResult race;
      r.protect_ms += ledger_.time("analysis.race_ms", k.name, [&] {
        race = bw::analysis::check_races(*prog.module);
      });
      ledger_.add("instrument.sites", "",
                  prog.instrument_stats.instrumented_branches);
      r.check(same_ir(prog.module->to_string(), prot_ir_[i]));
      r.check(race_verdict_ok(race, candidates_[i], k.racy));
    }
    for (std::size_t i : order) {
      CompiledProgram prog;
      r.baseline_ms +=
          ledger_.time("pipeline.compile_program_ms", kernels_[i].name,
                       [&] { prog = compile(kernels_[i]); });
      r.check(same_ir(prog.module->to_string(), plain_ir_[i]));
    }
    return r;
  }

 private:
  /// compile_program, or with tracing on the same two steps timed one by
  /// one (the IR check proves the result identical).
  CompiledProgram compile(const Kernel& k) {
    if (!ledger_.tracing()) return bw::pipeline::compile_program(k.source);
    CompiledProgram prog;
    ledger_.time("frontend.compile_ms", k.name,
                 [&] { prog.module = bw::frontend::compile(k.source); });
    ledger_.add("frontend.ir_instructions", "",
                static_cast<double>(count_instructions(*prog.module)));
    ledger_.time("analysis.similarity_ms", k.name, [&] {
      prog.analysis = bw::analysis::analyze_similarity(*prog.module);
    });
    ledger_.add("analysis.fixpoint_iterations", "",
                prog.analysis.fixpoint_iterations);
    return prog;
  }

  /// protect_program, or with tracing on its four steps timed one by one.
  CompiledProgram protect(const Kernel& k) {
    if (!ledger_.tracing()) return bw::pipeline::protect_program(k.source);
    CompiledProgram prog = compile(k);
    ledger_.time("instrument.module_ms", k.name, [&] {
      prog.instrument_stats =
          bw::instrument::instrument_module(*prog.module, prog.analysis);
    });
    prog.instrumented = true;
    ledger_.time("ir.verify_ms", k.name,
                 [&] { bw::ir::verify_module_or_throw(*prog.module); });
    return prog;
  }

  std::vector<std::string> plain_ir_;
  std::vector<std::string> prot_ir_;
  std::vector<std::size_t> candidates_;
};

}  // namespace

std::vector<std::string> kernel_names(const std::string& workload) {
  std::vector<std::string> names;
  for (const Kernel& k : kernel_set(workload)) names.push_back(k.name);
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Ledger& ledger) {
  if (name == "protect") return std::make_unique<ProtectWorkload>(seed, ledger);
  if (name == "campaign")
    return std::make_unique<CampaignWorkload>(seed, ledger);
  if (name == "build") return std::make_unique<BuildWorkload>(seed, ledger);
  return nullptr;
}

}  // namespace perfbench
