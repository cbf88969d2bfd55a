// libFuzzer target for the hardened hyperspectral decode path: "HSC1"/"HSC2"
// container parse, then cube decode through the Rice, Exp-Golomb or rANS
// backend the header names (make_fuzz_corpus seeds all three).  Same
// contract as the BTPC target: payload or clean Status on every input,
// never a throw or a sanitizer report.  On a successful decode the cube is
// re-encoded with the header's options and decoded again: the decode
// tripwires keep every sample inside the declared dynamic range, so the
// re-encode must round-trip bit-exactly.  See fuzz_btpc_decode.cpp for the
// build modes.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "hyperspec/codec.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  auto encoded = dtse::hyperspec::try_deserialize(bytes);
  if (!encoded.ok()) return 0;
  auto decoded = dtse::hyperspec::Decoder{}.try_decode(encoded.value());
  if (!decoded.ok()) return 0;

  const auto& header = encoded.value();
  dtse::hyperspec::HsCodecOptions options;
  options.dynamic_range_bits = header.dynamic_range_bits;
  options.unary_limit = header.unary_limit;
  options.rescale_limit = header.rescale_limit;
  options.backend = header.backend;
  dtse::hyperspec::Encoder encoder(header.shape);
  auto redecoded =
      dtse::hyperspec::Decoder{}.try_decode(encoder.encode(decoded.value(), options));
  if (!redecoded.ok() || !(redecoded.value() == decoded.value())) std::abort();
  return 0;
}

#ifdef DTSE_FUZZ_STANDALONE
#include "standalone_driver.inc"
#endif
