// libFuzzer target for the hardened BTPC decode path.
//
// Exercises the full untrusted-input surface: container parse
// (`try_deserialize`, "BTPC"/"BTP2") followed by entropy decode
// (`try_decode`) through whichever backend the header names (Huffman, Rice
// or Exp-Golomb; make_fuzz_corpus seeds all three).  The
// contract under test is the robustness trichotomy (see
// tests/harness/fault_injection.hpp): any input must produce a payload or a
// clean Status — never a throw, crash, hang or sanitizer report.
//
// Built with clang this is a real libFuzzer binary (-fsanitize=fuzzer).
// With DTSE_FUZZ_STANDALONE (the gcc fallback) it becomes a file-driven
// replayer: `fuzz_btpc_decode corpus/*` runs every file once — enough for
// the CI smoke job and for replaying crash artifacts locally.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "btpc/codec.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  auto encoded = dtse::btpc::try_deserialize(bytes);
  if (!encoded.ok()) return 0;
  auto decoded = dtse::btpc::Decoder{}.try_decode(encoded.value());
  (void)decoded.ok();
  return 0;
}

#ifdef DTSE_FUZZ_STANDALONE
#include "standalone_driver.inc"
#endif
