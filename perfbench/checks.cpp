#include "checks.h"

namespace perfbench {

using bw::fault::Verdict;

bool vm_run_ok(const bw::vm::RunResult& run, const std::string& reference) {
  return run.ok && run.output == reference;
}

bool plain_run_ok(const bw::pipeline::ExecutionResult& result,
                  const std::string& reference) {
  return vm_run_ok(result.run, reference);
}

bool protected_run_ok(const bw::pipeline::ExecutionResult& result,
                      const std::string& reference) {
  return plain_run_ok(result, reference) && !result.detected &&
         result.violations.empty();
}

namespace {

bool complete_partition(const bw::fault::CampaignResult& r, int injections) {
  return r.injected == injections && !r.interrupted &&
         static_cast<int>(r.verdicts.size()) == injections &&
         r.benign + r.detected + r.recovered + r.crashed + r.hung + r.sdc +
                 r.false_alarms ==
             r.activated;
}

}  // namespace

bool campaign_pair_ok(const bw::fault::CampaignResult& protect,
                      const bw::fault::CampaignResult& baseline,
                      bw::fault::FaultType type, int injections) {
  if (!complete_partition(protect, injections) ||
      !complete_partition(baseline, injections) || protect.false_alarms != 0) {
    return false;
  }
  if (type == bw::fault::FaultType::BranchFlip &&
      (protect.activated != injections || baseline.activated != injections)) {
    return false;
  }
  for (int i = 0; i < injections; ++i) {
    Verdict p = protect.verdicts[i];
    Verdict b = baseline.verdicts[i];
    if (p == Verdict::Sdc && b != Verdict::Sdc) return false;
    if (b == Verdict::Benign && p != Verdict::Benign && p != Verdict::Detected)
      return false;
  }
  return true;
}

bool same_ir(const std::string& ir, const std::string& reference_ir) {
  return !ir.empty() && ir == reference_ir;
}

bool race_verdict_ok(const bw::analysis::RaceCheckResult& result,
                     std::size_t reference_candidates, bool racy) {
  if (!result.analyzable) return false;
  if (result.candidates.size() != reference_candidates) return false;
  return !(racy && result.statically_race_free());
}

}  // namespace perfbench
