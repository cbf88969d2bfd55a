// Seed-corpus generator for the fuzz targets.
//
// Writes a handful of golden containers — real encoder output across the
// codecs' option space and every entropy backend each codec carries, plus a
// few deterministic mutants from the fault-injection mutators — into
// <outdir>/btpc (BTPC/BTP2: Huffman, Rice, Exp-Golomb) and
// <outdir>/hyperspec (HSC1/HSC2: Rice, Exp-Golomb, rANS).  Starting
// libFuzzer from structurally valid streams lets it reach every backend's
// decode loop immediately instead of spending its budget guessing the
// container magic.  APP1 models go to <outdir>/persist_app, and the
// reuse-simulation fuzzer gets window ladders with read traces in
// <outdir>/reuse_sim.
//
// Usage: make_fuzz_corpus <outdir>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "btpc/codec.hpp"
#include "entropy/entropy_coder.hpp"
#include "harness/fault_injection.hpp"
#include "hyperspec/codec.hpp"
#include "ir/application.hpp"
#include "persist/app_container.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"

namespace {

void write_file(const std::filesystem::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    std::exit(1);
  }
}

/// Golden container plus a few deterministic mutants (mutants seed the
/// interesting half of the search space: near-valid streams).
void emit(const std::filesystem::path& dir, const std::string& stem,
          const std::vector<std::uint8_t>& golden, std::size_t header_bytes) {
  write_file(dir / (stem + ".bin"), golden);
  using dtse::testing::MutationKind;
  int i = 0;
  for (const auto kind : {MutationKind::kBitFlip, MutationKind::kTruncate,
                          MutationKind::kHeaderFuzz}) {
    const auto seed = 8u + static_cast<std::uint64_t>(i);
    write_file(dir / (stem + "_m" + std::to_string(i) + ".bin"),
               dtse::testing::mutate(golden, kind, seed, header_bytes));
    ++i;
  }
}

/// Small handcrafted application models spanning the APP1 feature space
/// (forced locations, deps, co-accesses, reuse profiles).  Handcrafted
/// rather than profiled: the corpus generator must stay fast, and the
/// container does not care where a model came from.
[[nodiscard]] dtse::ir::Application make_seed_model(int variant) {
  using namespace dtse::ir;
  Application app("seed-model-" + std::to_string(variant));
  const auto frame = app.add_group({"frame", 1024u * (1u + variant), 8 + variant, {}, 2});
  const auto line = app.add_group(
      {"line", 64, 16, dtse::memlib::Location::kOnChip, 1});
  LoopBody body;
  body.name = "kernel";
  body.iterations = 256 * (1 + variant);
  body.accesses.push_back({frame, AccessKind::kRead, 4.0, 0.75, 0.9, 1.0});
  body.accesses.push_back({line, AccessKind::kWrite, 1.0, 1.0, 1.0, 1.0});
  if (variant > 0) {
    body.accesses.push_back({line, AccessKind::kRead, 2.0, 0.5, 0.5, 2.0});
    body.deps.emplace_back(0, 2);
    body.co_accesses.push_back({0, 2, 0.25});
  }
  app.add_body(std::move(body));
  ReuseProfile reuse;
  reuse.windows.push_back({16, 900.0});
  reuse.windows.push_back({64, 120.0});
  if (variant > 1) reuse.windows.push_back({256, 10.0});
  app.set_reuse_profile(frame, std::move(reuse));
  return app;
}

/// Reuse-simulation input (layout in fuzz_reuse_sim.cpp): a window ladder
/// and a read trace over `span` indices, one in four reads repeating the
/// previous one.  Traces run past twice the largest capacity, so the seeds
/// reach slot compaction, and eviction where `span` exceeds that capacity.
[[nodiscard]] std::vector<std::uint8_t> make_reuse_input(
    const std::vector<std::uint16_t>& capacities, std::uint32_t span, std::size_t reads,
    std::uint64_t seed) {
  const bool wide = span > 256;
  std::vector<std::uint8_t> bytes{static_cast<std::uint8_t>(capacities.size() - 1),
                                  static_cast<std::uint8_t>(wide ? 1 : 0)};
  for (const auto capacity : capacities) {
    const auto v = static_cast<std::uint16_t>(capacity - 1);
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
  }
  dtse::support::Rng rng(seed);
  std::uint64_t index = 0;
  for (std::size_t i = 0; i < reads; ++i) {
    if (rng.below(4) != 0) index = i % 3 == 0 ? rng.below(span) : (index + 1) % span;
    if (wide) bytes.push_back(static_cast<std::uint8_t>(index >> 8));
    bytes.push_back(static_cast<std::uint8_t>(index & 0xFF));
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_fuzz_corpus <outdir>\n";
    return 1;
  }
  const std::filesystem::path out(argv[1]);
  const auto btpc_dir = out / "btpc";
  const auto hs_dir = out / "hyperspec";
  const auto app_dir = out / "persist_app";
  const auto reuse_dir = out / "reuse_sim";
  std::filesystem::create_directories(btpc_dir);
  std::filesystem::create_directories(hs_dir);
  std::filesystem::create_directories(app_dir);
  std::filesystem::create_directories(reuse_dir);

  using dtse::entropy::Backend;
  using dtse::support::SyntheticKind;
  // BTPC (Huffman): vary content, size, lossiness.
  int n = 0;
  for (const auto& [kind, edge] : {std::pair{SyntheticKind::kCompound, 48},
                                   std::pair{SyntheticKind::kEdges, 32},
                                   std::pair{SyntheticKind::kTexture, 64}}) {
    const auto image = dtse::support::make_synthetic_image(edge, edge, kind, 1999u + n);
    for (const int delta : {1, 4}) {
      dtse::btpc::Encoder encoder(image.width(), image.height());
      dtse::btpc::CodecOptions options;
      options.lossy = delta > 1;
      options.quantizer_delta = delta;
      emit(btpc_dir, "seed" + std::to_string(n++),
           dtse::btpc::serialize(encoder.encode(image, options)), 14);
    }
  }
  // BTP2: the roster backends, lossless and lossy, on the compound image.
  const auto compound =
      dtse::support::make_synthetic_image(48, 48, SyntheticKind::kCompound, 2024);
  for (const auto backend : {Backend::kRice, Backend::kExpGolomb}) {
    for (const int delta : {1, 4}) {
      dtse::btpc::Encoder encoder(compound.width(), compound.height());
      dtse::btpc::CodecOptions options;
      options.lossy = delta > 1;
      options.quantizer_delta = delta;
      options.backend = backend;
      emit(btpc_dir, "seed" + std::to_string(n++),
           dtse::btpc::serialize(encoder.encode(compound, options)), 15);
    }
  }

  // Hyperspec: vary geometry and coder options.
  n = 0;
  for (const auto& shape : {dtse::hyperspec::CubeShape{4, 12, 12},
                            dtse::hyperspec::CubeShape{8, 8, 16}}) {
    for (const int unary : {8, 16}) {
      const auto cube = dtse::hyperspec::make_synthetic_cube(shape, 77u + n);
      dtse::hyperspec::Encoder encoder(shape);
      dtse::hyperspec::HsCodecOptions options;
      options.unary_limit = unary;
      emit(hs_dir, "seed" + std::to_string(n++),
           dtse::hyperspec::serialize(encoder.encode(cube, options)), 18);
    }
  }
  // HSC2: Exp-Golomb and rANS on a smooth cube, and on a 16-bit noise cube
  // whose residuals keep both coders in their escape paths.
  const dtse::hyperspec::CubeShape hs_shape{3, 10, 12};
  dtse::hyperspec::Cube noise(hs_shape);
  dtse::support::Rng rng(3001);
  for (auto& sample : noise.samples()) {
    sample = static_cast<std::uint16_t>(rng.below(65536));
  }
  for (const auto backend : {Backend::kExpGolomb, Backend::kRans}) {
    for (const int bits : {12, 16}) {
      dtse::hyperspec::HsCodecOptions options;
      options.dynamic_range_bits = bits;
      options.backend = backend;
      const auto cube =
          bits == 16 ? noise : dtse::hyperspec::make_synthetic_cube(hs_shape, 91u + n);
      dtse::hyperspec::Encoder encoder(hs_shape);
      emit(hs_dir, "seed" + std::to_string(n++),
           dtse::hyperspec::serialize(encoder.encode(cube, options)), 19);
    }
  }

  // Persisted application models ("APP1") for the persistence fuzzer.
  for (int variant = 0; variant < 3; ++variant) {
    emit(app_dir, "seed" + std::to_string(variant),
         dtse::persist::serialize(make_seed_model(variant)),
         dtse::persist::kAppHeaderBytes);
  }

  // Reuse-simulation ladders: a capacity-1 rung, a working set between two
  // capacities, and the full 8-rung, 2048-word range.
  write_file(reuse_dir / "seed0.bin", make_reuse_input({1, 2, 4, 64}, 70, 600, 1));
  write_file(reuse_dir / "seed1.bin", make_reuse_input({3, 17, 200}, 120, 1500, 2));
  write_file(reuse_dir / "seed2.bin",
             make_reuse_input({1, 8, 40, 128, 300, 700, 1500, 2048}, 3000, 5000, 3));

  std::cout << "corpus written under " << out << '\n';
  return 0;
}
