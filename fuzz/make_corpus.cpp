// Regenerates the checked-in fuzz seed corpus from the living sources of
// truth: every representative wire message (tests/message_corpus.h) and the
// serialized image of every bundled driver.  Run after adding a message type
// or a driver so the fuzzers start from valid inputs:
//
//   make_corpus <repo-root>/fuzz/corpus
//
// writes corpus/message_parse/msg_<type>.bin and
// corpus/image_verify/<driver>.img plus a few hand-rolled edge cases.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/crc.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/dsl/driver_image.h"
#include "tests/message_corpus.h"

namespace {

bool WriteFile(const std::filesystem::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "make_corpus: cannot write %s\n", path.string().c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <corpus-dir>\n");
    return 2;
  }
  const std::filesystem::path root = argv[1];
  const std::filesystem::path msg_dir = root / "message_parse";
  const std::filesystem::path img_dir = root / "image_verify";
  std::filesystem::create_directories(msg_dir);
  std::filesystem::create_directories(img_dir);

  int written = 0;
  for (const micropnp::Message& m : micropnp::RepresentativeMessages()) {
    char name[32];
    std::snprintf(name, sizeof(name), "msg_%02u.bin", static_cast<unsigned>(m.type));
    if (!WriteFile(msg_dir / name, m.Serialize())) return 1;
    ++written;
  }
  // Truncation edge case: a bare header with no payload bytes.
  if (!WriteFile(msg_dir / "msg_header_only.bin", {0x01, 0x00, 0x00})) return 1;
  ++written;

  for (const micropnp::BundledDriver& d : micropnp::BundledDrivers()) {
    micropnp::Result<micropnp::DriverImage> image = micropnp::CompileDriver(d.source);
    if (!image.ok()) {
      std::fprintf(stderr, "make_corpus: %s does not compile: %s\n", d.name,
                   image.status().ToString().c_str());
      return 1;
    }
    if (!WriteFile(img_dir / (std::string(d.name) + ".img"), image->Serialize())) return 1;
    ++written;
    if (std::string(d.name) == "TMP36") {
      // Non-canonical edge case: three bytes between the code section and a
      // re-sealed CRC-16.  Parse must reject it.
      std::vector<uint8_t> padded = image->Serialize();
      padded.resize(padded.size() - 2);
      padded.insert(padded.end(), {0x00, 0x00, 0x00});
      const uint16_t crc = micropnp::Crc16Ccitt(micropnp::ByteSpan(padded.data(), padded.size()));
      padded.push_back(static_cast<uint8_t>(crc >> 8));
      padded.push_back(static_cast<uint8_t>(crc));
      if (!WriteFile(img_dir / "TMP36-padded.img", padded)) return 1;
      ++written;
    }
  }
  // Header-only and empty inputs keep the parser's early-exit paths covered.
  if (!WriteFile(img_dir / "empty.img", {})) return 1;
  ++written;

  std::printf("make_corpus: wrote %d seed(s) under %s\n", written, root.string().c_str());
  return 0;
}
