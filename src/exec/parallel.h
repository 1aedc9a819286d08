// Deterministic parallel execution for simulation sweeps.
//
// WASP simulations are embarrassingly parallel across configurations: every
// run owns its whole world (Rng, Topology, Network, WaspSystem, Recorder,
// MetricsRegistry, TraceEmitter) and touches nothing shared, so a grid of
// runs can fan out across cores with no synchronization beyond claiming the
// next index. What must NOT vary with the fan-out is the *result*: the sweep
// contract (DESIGN.md §9) is that `--jobs N` produces byte-identical merged
// output to `--jobs 1`. The executor is therefore deliberately boring:
//
//   - a fixed thread count per call (jobs-1 spawned threads plus the caller);
//   - one atomic counter -- indices are *started* in ascending order even
//     though they may *finish* in any order;
//   - no executor-provided randomness or time: anything a run needs that
//     could differ between schedules (seeds above all) is derived from the
//     run's index via `fork_seed`, never from which thread ran it or when.
//
// Determinism then reduces to a caller-side rule: fn writes only to
// per-index slots (results[i]) and the merge walks indices in order.
//
// One simulation run is always single-threaded (DESIGN.md §11): its tick is
// far too fine-grained for threads to pay, so parallelism lives here, across
// runs, and nowhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace wasp::exec {

// Splits `base_seed` into the seed for run `index`. Pure function of
// (base_seed, index) -- scheduling order, thread identity, and the number of
// threads cannot perturb it. Uses the splitmix64 finalizer (the same mixer
// wasp::Rng seeds through), so adjacent indices land in decorrelated streams.
[[nodiscard]] std::uint64_t fork_seed(std::uint64_t base_seed,
                                      std::uint64_t index);

// max(1, std::thread::hardware_concurrency()) -- the default --jobs.
[[nodiscard]] int hardware_workers();

// Fork/join helper: runs fn(0) .. fn(n-1) on min(jobs, n) threads (jobs-1
// spawned plus the calling thread) and returns when all are done. Threads
// claim ascending indices from one atomic counter; jobs <= 1 runs every
// index inline on the caller, in order, through the same claim loop -- so a
// shared-nothing fn gives identical per-index results either way. If one or
// more calls throw, every index still runs and the exception of the *lowest
// index* is rethrown (lowest-index, not first-in-time, so the error too is
// schedule-independent). Spawns threads per call: meant for coarse work
// items (whole simulation runs), not per-tick phases.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wasp::exec
