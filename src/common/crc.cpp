#include "src/common/crc.h"

#include <array>

namespace micropnp {
namespace {

constexpr std::array<uint32_t, 256> BuildCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256> kCrc32Table = BuildCrc32Table();

constexpr std::array<uint16_t, 256> BuildCrc16CcittTable() {
  std::array<uint16_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i << 8;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 0x8000u) ? ((c << 1) ^ 0x1021u) : (c << 1);
    }
    table[i] = static_cast<uint16_t>(c);
  }
  return table;
}

const std::array<uint16_t, 256> kCrc16CcittTable = BuildCrc16CcittTable();

}  // namespace

uint16_t Crc16Ccitt(ByteSpan data) {
  uint16_t crc = 0xffff;
  for (uint8_t byte : data) {
    crc = static_cast<uint16_t>((crc << 8) ^ kCrc16CcittTable[((crc >> 8) ^ byte) & 0xffu]);
  }
  return crc;
}

uint32_t Crc32(ByteSpan data) {
  uint32_t crc = 0xffffffffu;
  for (uint8_t byte : data) {
    crc = kCrc32Table[(crc ^ byte) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace micropnp
