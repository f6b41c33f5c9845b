// The benchmark's own test: every independent check accepts a genuine
// result and rejects a planted wrong answer. Run it with
//   python3 perfbench/run.py --selftest
// Exit code 0 when every check behaves, 1 otherwise.

#include <cstdio>
#include <string>
#include <utility>

#include "benchmarks/registry.h"
#include "checks.h"

namespace {

using bw::fault::FaultType;
using bw::fault::Verdict;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

int& outcome_count(bw::fault::CampaignResult& r, Verdict v) {
  switch (v) {
    case Verdict::Benign: return r.benign;
    case Verdict::Detected: return r.detected;
    case Verdict::Recovered: return r.recovered;
    case Verdict::Crashed: return r.crashed;
    case Verdict::Hung: return r.hung;
    case Verdict::Sdc: return r.sdc;
    default: return r.false_alarms;
  }
}

std::string reference_of(const bw::pipeline::CompiledProgram& plain) {
  bw::vm::RunOptions options;
  options.num_threads = 1;
  options.tier = bw::vm::ExecTier::Interpreter;
  return bw::vm::run_program(*plain.module, options).output;
}

void run_checks() {
  const char* source = bw::benchmarks::find_benchmark("fft")->source;
  bw::pipeline::CompiledProgram plain = bw::pipeline::compile_program(source);
  bw::pipeline::CompiledProgram prot = bw::pipeline::protect_program(source);
  const std::string reference = reference_of(plain);

  bw::pipeline::ExecutionConfig config;
  config.num_threads = 4;
  bw::pipeline::ExecutionResult good = bw::pipeline::execute(prot, config);
  expect(perfbench::protected_run_ok(good, reference),
         "protected_run_ok accepts a clean protected run");
  {
    bw::pipeline::ExecutionResult bad = good;
    bad.run.output.back() ^= 1;
    expect(!perfbench::protected_run_ok(bad, reference),
           "protected_run_ok rejects a wrong output");
  }
  {
    bw::pipeline::ExecutionResult bad = good;
    bad.violations.emplace_back();
    expect(!perfbench::protected_run_ok(bad, reference),
           "protected_run_ok rejects a violation on a clean run");
  }
  {
    bw::pipeline::ExecutionResult bad = good;
    bad.run.ok = false;
    expect(!perfbench::protected_run_ok(bad, reference),
           "protected_run_ok rejects a run that did not complete");
  }

  config.monitor = bw::pipeline::MonitorMode::Off;
  bw::pipeline::ExecutionResult base = bw::pipeline::execute(plain, config);
  expect(perfbench::plain_run_ok(base, reference),
         "plain_run_ok accepts a clean unprotected run");
  base.run.output = "0\n";
  expect(!perfbench::plain_run_ok(base, reference),
         "plain_run_ok rejects a wrong output");
  expect(!perfbench::vm_run_ok(base.run, reference),
         "vm_run_ok rejects a wrong output");

  for (FaultType type : {FaultType::BranchFlip, FaultType::BranchCondition}) {
    bw::fault::CampaignOptions options;
    options.num_threads = 4;
    options.injections = 4;
    options.type = type;
    options.campaign_workers = 1;
    bw::fault::CampaignResult p = bw::fault::run_campaign(source, options);
    options.protect = false;
    bw::fault::CampaignResult b = bw::fault::run_campaign(source, options);
    const int n = options.injections;
    expect(perfbench::campaign_pair_ok(p, b, type, n),
           "campaign_pair_ok accepts a genuine campaign pair");

    auto planted = [&](const char* what, auto&& plant) {
      bw::fault::CampaignResult pp = p, bb = b;
      plant(pp, bb);
      expect(!perfbench::campaign_pair_ok(pp, bb, type, n), what);
    };
    planted("campaign_pair_ok rejects a protected Sdc that is Benign unprotected",
            [](auto& pp, auto& bb) {
              pp.verdicts[0] = Verdict::Sdc;
              bb.verdicts[0] = Verdict::Benign;
            });
    planted("campaign_pair_ok rejects an unprotected Benign that crashed protected",
            [](auto& pp, auto& bb) {
              pp.verdicts[1] = Verdict::Crashed;
              bb.verdicts[1] = Verdict::Benign;
            });
    planted("campaign_pair_ok rejects a false alarm",
            [](auto& pp, auto&) { ++pp.false_alarms; });
    planted("campaign_pair_ok rejects a broken outcome partition",
            [](auto& pp, auto&) { ++pp.detected; });
    planted("campaign_pair_ok rejects a missing verdict",
            [](auto&, auto& bb) { bb.verdicts.pop_back(); });
    if (type == FaultType::BranchFlip) {
      // Partition kept consistent, so only the activation rule can reject.
      planted("campaign_pair_ok rejects an unactivated branch flip",
              [](auto& pp, auto&) {
                --outcome_count(pp, pp.verdicts[0]);
                --pp.activated;
                pp.verdicts[0] = Verdict::NotActivated;
              });
    }
  }

  bw::pipeline::CompiledProgram again = bw::pipeline::protect_program(source);
  const std::string ir = prot.module->to_string();
  expect(perfbench::same_ir(again.module->to_string(), ir),
         "same_ir accepts two builds of one source");
  expect(!perfbench::same_ir(ir + " ", ir), "same_ir rejects a different IR");

  bw::pipeline::CompiledProgram racy = bw::pipeline::protect_program(
      bw::benchmarks::find_benchmark("racy_sum")->source);
  bw::analysis::RaceCheckResult race = bw::analysis::check_races(*racy.module);
  const std::size_t count = race.candidates.size();
  expect(perfbench::race_verdict_ok(race, count, true),
         "race_verdict_ok accepts racy_sum left uncertified");
  {
    bw::analysis::RaceCheckResult bad = race;
    bad.candidates.clear();
    expect(!perfbench::race_verdict_ok(bad, 0, true),
           "race_verdict_ok rejects racy_sum certified race-free");
  }
  expect(!perfbench::race_verdict_ok(race, count + 1, true),
         "race_verdict_ok rejects a changed candidate count");
  {
    bw::analysis::RaceCheckResult bad = race;
    bad.analyzable = false;
    expect(!perfbench::race_verdict_ok(bad, count, true),
           "race_verdict_ok rejects an unanalyzed module");
  }
}

}  // namespace

int main() {
  run_checks();
  std::printf("%s: %d check(s) misbehaved\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
