#pragma once

#include "harness.hpp"

/// The three workloads. Each runs whole rounds of identical operations until
/// `options.seconds` have passed, checks the program's outputs, and fills
/// the report with its end-to-end metrics and per-layer numbers.
namespace perfbench {

/// Complete tank runs at the settings of Fig. 4, Fig. 5, Fig. 6 and
/// Table 1 on the default serial kernel. One operation = one tank run.
void run_paper_figures(const Options& options, Tracer& tracer, Report& report);

/// A fixed range of generated chaos artifacts, each judged by run_trial.
/// One operation = one trial.
void run_chaos_trials(const Options& options, Tracer& tracer, Report& report);

/// One writer and three readers on the sharded track store. One operation
/// = one query answered or one report applied.
void run_serve_mixed(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench
