#include "src/dsl/driver_image.h"

#include "src/common/crc.h"

namespace micropnp {

const HandlerEntry* DriverImage::FindHandler(EventId event) const {
  for (const HandlerEntry& h : handlers) {
    if (h.event == event) {
      return &h;
    }
  }
  return nullptr;
}

std::vector<uint8_t> DriverImage::Serialize() const {
  ByteWriter w;
  w.WriteU8(kDriverImageMagic0);
  w.WriteU8(kDriverImageMagic1);
  w.WriteU8(kDriverImageVersion);
  w.WriteU32(device_id);
  w.WriteU8(static_cast<uint8_t>(imports.size()));
  for (LibraryId lib : imports) {
    w.WriteU8(lib);
  }
  w.WriteU8(static_cast<uint8_t>(scalar_types.size()));
  for (DslType t : scalar_types) {
    w.WriteU8(static_cast<uint8_t>(t));
  }
  w.WriteU8(static_cast<uint8_t>(array_sizes.size()));
  for (uint8_t s : array_sizes) {
    w.WriteU8(s);
  }
  w.WriteU8(static_cast<uint8_t>(handlers.size()));
  for (const HandlerEntry& h : handlers) {
    w.WriteU8(h.event);
    w.WriteU8(h.argc);
    w.WriteU16(h.offset);
  }
  w.WriteU16(static_cast<uint16_t>(code.size()));
  w.WriteBytes(ByteSpan(code.data(), code.size()));
  const uint16_t crc = Crc16Ccitt(ByteSpan(w.bytes().data(), w.bytes().size()));
  w.WriteU16(crc);
  return w.Take();
}

uint32_t DriverImage::ImageCrc() const {
  const std::vector<uint8_t> bytes = Serialize();
  return Crc32(ByteSpan(bytes.data(), bytes.size()));
}

size_t DriverImage::SerializedSize() const {
  return 3 + 4 + 1 + imports.size() + 1 + scalar_types.size() + 1 + array_sizes.size() + 1 +
         handlers.size() * 4 + 2 + code.size() + 2;
}

Result<DriverImage> DriverImage::Parse(ByteSpan bytes) {
  if (bytes.size() < 14) {
    return CorruptError("driver image too short");
  }
  // Verify CRC over everything but the trailing two bytes.
  const uint16_t stored_crc =
      static_cast<uint16_t>((bytes[bytes.size() - 2] << 8) | bytes[bytes.size() - 1]);
  const uint16_t computed_crc = Crc16Ccitt(bytes.subspan(0, bytes.size() - 2));
  if (stored_crc != computed_crc) {
    return CorruptError("driver image CRC mismatch");
  }

  ByteReader r(bytes);
  DriverImage image;
  const uint8_t m0 = r.ReadU8();
  const uint8_t m1 = r.ReadU8();
  const uint8_t version = r.ReadU8();
  if (m0 != kDriverImageMagic0 || m1 != kDriverImageMagic1) {
    return CorruptError("bad driver image magic");
  }
  if (version != kDriverImageVersion) {
    return CorruptError("unsupported driver image version");
  }
  image.device_id = r.ReadU32();

  const uint8_t import_count = r.ReadU8();
  for (uint8_t i = 0; i < import_count; ++i) {
    image.imports.push_back(r.ReadU8());
  }
  const uint8_t scalar_count = r.ReadU8();
  for (uint8_t i = 0; i < scalar_count; ++i) {
    const uint8_t t = r.ReadU8();
    if (t > static_cast<uint8_t>(DslType::kChar)) {
      return CorruptError("bad global type");
    }
    image.scalar_types.push_back(static_cast<DslType>(t));
  }
  const uint8_t array_count = r.ReadU8();
  for (uint8_t i = 0; i < array_count; ++i) {
    image.array_sizes.push_back(r.ReadU8());
  }
  const uint8_t handler_count = r.ReadU8();
  for (uint8_t i = 0; i < handler_count; ++i) {
    HandlerEntry h;
    h.event = r.ReadU8();
    h.argc = r.ReadU8();
    h.offset = r.ReadU16();
    image.handlers.push_back(h);
  }
  const uint16_t code_len = r.ReadU16();
  image.code = r.ReadBytes(code_len);
  if (!r.ok()) {
    return CorruptError("truncated driver image");
  }
  // The code section must end exactly at the CRC: padding (or a code length
  // reaching into the CRC) would make the received bytes differ from
  // Serialize(), and so their CRC-32 from ImageCrc().
  if (r.position() != bytes.size() - 2) {
    return CorruptError("driver image length mismatch");
  }
  for (const HandlerEntry& h : image.handlers) {
    if (h.offset >= image.code.size() && !image.code.empty()) {
      return CorruptError("handler offset out of range");
    }
  }
  return image;
}

}  // namespace micropnp
