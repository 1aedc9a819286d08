#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wasp::exec {

std::uint64_t fork_seed(std::uint64_t base_seed, std::uint64_t index) {
  // splitmix64 finalizer over the (base, index) pair. Mixing the index with
  // the golden-ratio increment before the finalizer keeps index 0 from
  // degenerating to a plain hash of the base seed.
  std::uint64_t z = base_seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int hardware_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::size_t error_index = n;
  std::exception_ptr error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  const std::size_t width =
      std::min(static_cast<std::size_t>(std::max(1, jobs)), n);
  std::vector<std::thread> threads;
  threads.reserve(width - 1);
  for (std::size_t t = 1; t < width; ++t) {
    try {
      threads.emplace_back(drain);
    } catch (const std::exception&) {
      // Out of threads or memory: the started threads and the caller still
      // drain every index, and each started thread is joined below.
      break;
    }
  }
  drain();
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace wasp::exec
