// Fuzz target: the driver-image deploy pipeline on arbitrary bytes.
// DriverImage::Parse handles the wire format; DecodedImage::Decode runs
// structural verification plus the abstract interpreter
// (src/rt/abstract_interp.h).  A Thing feeds reassembled chunk uploads
// straight into this path, so "reject, never crash" is a safety property.
//
// Built two ways (see fuzz/standalone_main.h): a libFuzzer binary under
// clang -DMICROPNP_FUZZ_LIBFUZZER, a corpus replayer otherwise.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/dsl/driver_image.h"
#include "src/rt/decoded_image.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using micropnp::DriverImage;
  micropnp::Result<DriverImage> image = DriverImage::Parse(micropnp::ByteSpan(data, size));
  if (!image.ok()) {
    return 0;
  }
  // Parse accepts only canonical images: what it accepts re-serializes to
  // the same bytes, so the receiver's CRC-32 equals ImageCrc().
  const std::vector<uint8_t> canonical = image->Serialize();
  if (canonical.size() != size || !std::equal(canonical.begin(), canonical.end(), data)) {
    __builtin_trap();
  }
  // Exercise both decode modes: the deploy gate (rejects unsafe images,
  // specializes proven sites) and the lint mode (keeps every finding).
  (void)micropnp::DecodedImage::Decode(*image);
  (void)micropnp::DecodedImage::Decode(
      *image, std::nullopt, micropnp::DecodeOptions{.elide_proven_traps = false,
                                                    .reject_unsafe = false});
  return 0;
}

#ifndef MICROPNP_FUZZ_LIBFUZZER
#include "fuzz/standalone_main.h"
#endif
