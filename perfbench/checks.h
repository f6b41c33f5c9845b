// Independent correctness checks of the end-to-end benchmark. Each check
// judges one operation's result against a reference the benchmark computed
// itself; an operation whose check does not hold counts as failed.
// selftest.cpp plants a wrong answer in front of every check.
#pragma once

#include <cstddef>
#include <string>

#include "analysis/race_checker.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "vm/machine.h"

namespace perfbench {

/// A clean protected run: it completes, prints the reference output and
/// the monitor raises no violation.
bool protected_run_ok(const bw::pipeline::ExecutionResult& result,
                      const std::string& reference);

/// An unprotected (or monitor-free) run completes with the reference output.
bool plain_run_ok(const bw::pipeline::ExecutionResult& result,
                  const std::string& reference);
bool vm_run_ok(const bw::vm::RunResult& run, const std::string& reference);

/// One protected campaign and its unprotected twin, run with the same
/// options apart from `protect`, so injection i targets the same
/// (thread, dynamic branch, bit) in both. Holds when both campaigns
/// completed their whole plan with a consistent outcome partition, the
/// protected one raised no false alarm, branch-flip plans activated every
/// injection, and verdicts pair up as monitoring allows: a protected Sdc
/// is Sdc unprotected too, and an unprotected Benign is Benign or Detected
/// protected (the monitor never corrupts output).
bool campaign_pair_ok(const bw::fault::CampaignResult& protect,
                      const bw::fault::CampaignResult& baseline,
                      bw::fault::FaultType type, int injections);

/// Two builds of one source print identical IR.
bool same_ir(const std::string& ir, const std::string& reference_ir);

/// The static race verdict is reproducible (same candidate count as the
/// set-up build) and a deliberately racy kernel is never certified
/// race-free.
bool race_verdict_ok(const bw::analysis::RaceCheckResult& result,
                     std::size_t reference_candidates, bool racy);

}  // namespace perfbench
