// The benchmark's three closed-loop workloads. A round is one pass over a
// workload's fixed operation list, in an order drawn from the workload seed
// and the round index; it reports the time of its BLOCKWATCH operations and
// of their unprotected baseline separately. See README.md for why each
// workload exists and which layers it exercises.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

/// Program threads for every run: the core count of the 4-vCPU machine the
/// README figures come from, and a divisor of every kernel's problem size
/// (several kernels partition N / threads and drop the remainder, which
/// changes their answer at other counts).
constexpr unsigned kThreads = 4;

struct RoundResult {
  double protect_ms = 0.0;   // operations with BLOCKWATCH
  double baseline_ms = 0.0;  // the same operations without it
  int attempted = 0;
  int failed = 0;

  /// Count one operation, failed unless its check held.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs and the independent references. False if a set-up
  /// check did not hold.
  virtual bool setup() = 0;

  /// One round. Round -1 is the warm-up round of the set-up. With tracing
  /// on, a round also times each layer's own entry point (outside
  /// protect_ms/baseline_ms) so the per-layer metrics can be derived.
  virtual RoundResult round(int index) = 0;
};

/// The kernels `workload` runs every round, in registry order.
std::vector<std::string> kernel_names(const std::string& workload);

/// "protect", "campaign" or "build"; nullptr for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Ledger& ledger);

}  // namespace perfbench
