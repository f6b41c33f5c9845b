// End-to-end benchmark of the BLOCKWATCH library, one closed-loop client.
//
//   bw_perfbench --workload protect|campaign|build --seed N --seconds S
//                --trace 0|1 [--trace-file PATH]
//
// perfbench/run.py builds this program from source and forwards its
// arguments. After set-up (inputs, independent references, one warm-up
// round) it runs whole rounds of the named workload until S seconds have
// passed, checks every operation, and prints one JSON object as the last
// line of standard output:
//   --trace 0: setup_s, round_ms, baseline_round_ms
//   --trace 1: the per-layer metrics (README.md lists them), from spans the
//              ledger records around each layer's entry point; the spans go
//              to --trace-file.
// The exit code is 0 only when every set-up check held.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

using perfbench::Clock;
using perfbench::Ledger;

const char* const kWorkloads[] = {"protect", "campaign", "build"};
/// Rounds a traced run gives each workload other than the named one, so
/// that every layer is measured on the workload that exercises it.
constexpr int kSideRounds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

bool parse_args(int argc, char** argv, Options& opt) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        opt.trace = value == "1";
      } else if (key == "--trace-file") {
        opt.trace_file = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= opt.workload == w;
  return argc % 2 == 1 && known && have_seed && opt.seconds > 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// What one workload's set-up and rounds produced.
struct Run {
  bool setup_ok = false;
  Clock::time_point setup_end;  // end of the warm-up round
  std::vector<double> protect_ms;
  std::vector<double> baseline_ms;
  int attempted = 0;
  int failed = 0;
};

/// Set-up plus warm-up, then `rounds` rounds, or whole rounds until
/// `seconds` have passed when rounds is 0.
Run drive(perfbench::Workload& w, Ledger& ledger, double seconds, int rounds) {
  Run run;
  ledger.begin_round(-1);
  run.setup_ok = w.setup();
  run.setup_ok &= w.round(-1).failed == 0;
  run.setup_end = Clock::now();
  for (int r = 0;; ++r) {
    bool done = rounds > 0 ? r == rounds
                           : r > 0 && perfbench::ms_between(run.setup_end,
                                                            Clock::now()) >=
                                          seconds * 1000.0;
    if (done) break;
    ledger.begin_round(r);
    perfbench::RoundResult res = w.round(r);
    run.protect_ms.push_back(res.protect_ms);
    run.baseline_ms.push_back(res.baseline_ms);
    run.attempted += res.attempted;
    run.failed += res.failed;
  }
  ledger.begin_round(-1);
  return run;
}

/// Median over rounds of f(round) for every round that has all inputs.
template <class F>
double per_round(const Ledger& ledger, const std::vector<std::string>& inputs,
                 F&& f) {
  std::vector<double> values;
  for (const auto& [round, first] : ledger.series(inputs.front())) {
    std::vector<double> args;
    for (const std::string& name : inputs) {
      auto it = ledger.series(name).find(round);
      if (it == ledger.series(name).end()) break;
      args.push_back(it->second);
    }
    if (args.size() == inputs.size()) values.push_back(f(args));
  }
  return perfbench::median(std::move(values));
}

std::vector<Metric> layer_metrics(const Ledger& ledger, const Run& named) {
  const std::vector<std::string> kernels = perfbench::kernel_names("protect");
  std::vector<Metric> m;
  auto med = [&](const std::string& name, const char* unit) {
    m.push_back({name, ledger.median_per_round(name), unit});
  };
  auto med_k = [&](const std::string& name,
                   const std::vector<std::string>& names) {
    med(name, "ms");
    for (const std::string& k : names) med(name + "." + k, "ms");
  };
  auto diff_k = [&](const std::string& name, const std::string& a,
                    const std::string& b) {
    auto sub = [](const std::vector<double>& v) { return v[0] - v[1]; };
    m.push_back({name, per_round(ledger, {a, b}, sub), "ms"});
    for (const std::string& k : kernels)
      m.push_back({name + "." + k,
                   per_round(ledger, {a + "." + k, b + "." + k}, sub), "ms"});
  };
  auto share = [&](const std::string& part, const std::string& whole) {
    double w = ledger.total(whole);
    return w == 0.0 ? 0.0 : ledger.total(part) / w;
  };

  med("frontend.compile_ms", "ms");
  med("frontend.ir_instructions", "count");
  med("analysis.similarity_ms", "ms");
  med("analysis.fixpoint_iterations", "count");
  med("analysis.race_ms", "ms");
  med("instrument.module_ms", "ms");
  med("instrument.sites", "count");
  med("ir.verify_ms", "ms");

  med_k("vm.plain_run_ms", kernels);
  med_k("vm.instrumented_run_ms", kernels);
  med("vm.instructions", "count");
  m.push_back({"vm.minstr_per_s",
               per_round(ledger, {"vm.instructions", "vm.plain_run_ms"},
                         [](const std::vector<double>& v) {
                           return v[0] / v[1] / 1000.0;
                         }),
               "Minstr/s"});

  diff_k("runtime.monitor_ms", "pipeline.protected_ms",
         "vm.instrumented_run_ms");
  med("runtime.reports", "count");
  med("runtime.instances_checked", "count");
  m.push_back(
      {"runtime.reports_per_ms",
       per_round(ledger,
                 {"runtime.reports", "pipeline.protected_ms",
                  "vm.instrumented_run_ms"},
                 [](const std::vector<double>& v) { return v[0] / (v[1] - v[2]); }),
       "1/ms"});
  m.push_back({"runtime.dropped_reports",
               ledger.total("runtime.dropped_reports"), "count"});
  m.push_back({"runtime.degraded_runs", ledger.total("runtime.degraded_runs"),
               "count"});

  med_k("pipeline.protected_ms", kernels);
  med_k("pipeline.plain_ms", kernels);

  med_k("fault.campaign_ms", perfbench::kernel_names("campaign"));
  med("fault.golden_ms", "ms");
  med("fault.run_ms", "ms");
  // Campaign wall time less its injection runs: build, golden run,
  // planning and classification.
  m.push_back({"fault.engine_self_ms",
               per_round(ledger, {"fault.campaign_ms", "fault.run_ms"},
                         [](const std::vector<double>& v) {
                           return v[0] - v[1];
                         }),
               "ms"});
  m.push_back({"fault.detected", ledger.total("fault.detected"), "count"});
  m.push_back({"fault.sdc", ledger.total("fault.sdc"), "count"});
  m.push_back({"fault.coverage", 1.0 - share("fault.sdc", "fault.activated"),
               "ratio"});
  m.push_back({"fault.baseline_coverage",
               1.0 - share("fault.baseline_sdc", "fault.baseline_activated"),
               "ratio"});

  m.push_back({"trace.round_ms", perfbench::median(named.protect_ms), "ms"});
  m.push_back({"trace.baseline_round_ms", perfbench::median(named.baseline_ms),
               "ms"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload protect|campaign|build --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n",
                 argv[0]);
    return 2;
  }
  try {
    Ledger ledger(opt.trace);
    auto workload = perfbench::make_workload(opt.workload, opt.seed, ledger);
    Run named = drive(*workload, ledger, opt.seconds, 0);
    bool correct = named.setup_ok;
    int attempted = named.attempted;
    int failed = named.failed;

    std::vector<Metric> metrics;
    if (!opt.trace) {
      metrics = {
          {"setup_s", perfbench::ms_between(start, named.setup_end) / 1000.0,
           "s"},
          {"round_ms", perfbench::median(named.protect_ms), "ms"},
          {"baseline_round_ms", perfbench::median(named.baseline_ms), "ms"}};
    } else {
      for (const char* other : kWorkloads) {
        if (opt.workload == other) continue;
        auto w = perfbench::make_workload(other, opt.seed, ledger);
        Run side = drive(*w, ledger, 0.0, kSideRounds);
        correct &= side.setup_ok;
        attempted += side.attempted;
        failed += side.failed;
      }
      metrics = layer_metrics(ledger, named);
      if (!opt.trace_file.empty() && !ledger.write_chrome_trace(opt.trace_file)) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_file.c_str());
        correct = false;
      }
    }
    for (Metric& m : metrics) {
      if (!std::isfinite(m.value)) {  // JSON has no NaN; a missing sample
        std::fprintf(stderr, "no value for %s\n", m.name.c_str());
        m.value = 0.0;
        correct = false;
      }
    }

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
              "\": {\"value\": " + number(metrics[i].value) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bw_perfbench: %s\n", e.what());
    return 1;
  }
}
