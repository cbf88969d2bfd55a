// Differential libFuzzer target for the recorder's reuse simulation.
//
// Decodes a window ladder and a read trace from the input, runs the trace
// through one `trace::ReuseSim` and through one textbook `ReferenceLru` per
// window (tests/oracles/reference_lru.hpp), and aborts when any window's
// miss count differs.  Input layout:
//
//   byte 0          window count, 1 + b % 8
//   byte 1          bit 0 set: reads are 2 bytes (big-endian), else 1 byte
//   2 bytes/window  capacity, 1 + v % 2048 (sorted, duplicates dropped)
//   rest            the read trace
//
// Built with clang this is a real libFuzzer binary (-fsanitize=fuzzer).
// With DTSE_FUZZ_STANDALONE (the gcc fallback) it becomes a file-driven
// replayer: `fuzz_reuse_sim corpus/*` runs every file once.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "oracles/reference_lru.hpp"
#include "trace/recorder.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return 0;
  const std::size_t windows = 1 + data[0] % 8;
  const std::size_t read_bytes = (data[1] & 1u) != 0 ? 2 : 1;
  std::size_t pos = 2;
  if (size < pos + 2 * windows) return 0;
  std::vector<std::uint64_t> capacities;
  for (std::size_t w = 0; w < windows; ++w, pos += 2) {
    capacities.push_back(1 + ((data[pos] << 8) | data[pos + 1]) % 2048);
  }
  std::sort(capacities.begin(), capacities.end());
  capacities.erase(std::unique(capacities.begin(), capacities.end()), capacities.end());

  std::vector<std::uint64_t> trace;
  for (; pos + read_bytes <= size; pos += read_bytes) {
    trace.push_back(read_bytes == 2 ? (data[pos] << 8) | data[pos + 1] : data[pos]);
  }

  dtse::trace::ReuseSim sim;
  sim.init(capacities);
  for (const auto index : trace) sim.touch(index);
  for (std::size_t w = 0; w < capacities.size(); ++w) {
    dtse::trace::oracle::ReferenceLru oracle(capacities[w]);
    for (const auto index : trace) oracle.touch(index);
    if (sim.misses(w) != oracle.misses()) std::abort();
  }
  return 0;
}

#ifdef DTSE_FUZZ_STANDALONE
#include "standalone_driver.inc"
#endif
