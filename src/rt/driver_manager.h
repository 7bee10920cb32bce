// The μPnP driver manager (Section 4.2).
//
// "The driver manager interfaces with the peripheral controller and keeps
// track of the peripherals and drivers that are available.  This module also
// integrates closely with the µPnP network stack and provides operations
// that enable remote deployment and removal of device drivers."
//
// Images are stored by device type id (DEPLOY/REMOVE/DISCOVER of Figure 8's
// manager API); activation binds an image to a channel as a DriverHost and
// fires init/destroy lifecycle events (Section 4.1).
//
// Installation runs the load-time verifier (src/rt/decoded_image.h): a
// malformed image is rejected with a Status at DEPLOY time — over the air or
// local — never discovered mid-handler.  Decoded images are cached keyed by
// image CRC, so re-plugging the same device type (or re-installing an
// identical image) skips verify+decode entirely and every concurrent host
// for one device type shares a single decoded stream.

#ifndef SRC_RT_DRIVER_MANAGER_H_
#define SRC_RT_DRIVER_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/rt/decoded_image.h"
#include "src/rt/driver_host.h"

namespace micropnp {

// Verify-once store of decoded driver images, shared by every driver
// manager in a deployment.  A fleet of 10k Things installing the same
// driver verifies and decodes it exactly once; everyone else gets the
// shared immutable DecodedImage.
//
// A Deployment calls it from its one scheduler thread.  The mutex guards
// only the CRC -> image map, so one cache can also be shared by
// deployments driven from different threads; a DecodedImage is immutable
// after decode and the shared_ptr control block handles lifetime.  Hits
// byte-compare against the stored image so a CRC collision can never
// bypass verification.
class SharedDecodeCache {
 public:
  // `crc` is image.ImageCrc(), which the caller has already computed or
  // carried over from a verified transfer.
  Result<std::shared_ptr<const DecodedImage>> GetOrDecode(const DriverImage& image, uint32_t crc,
                                                          bool* hit);

  uint64_t hits() const;
  uint64_t misses() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<uint32_t, std::shared_ptr<const DecodedImage>> by_crc_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

class DriverManager {
 public:
  // Decode-cache bound: entries no longer referenced by an installed image
  // are evicted once the cache is full, so driver-version churn on a
  // long-lived node cannot grow memory without bound.
  static constexpr size_t kDecodeCacheCapacity = 32;

  // `shared_cache` (optional) is consulted before the local decode cache;
  // it must outlive the manager.  The Deployment passes one cache to every
  // Thing so identical images decode once per deployment.
  DriverManager(Scheduler& scheduler, EventRouter& router,
                SharedDecodeCache* shared_cache = nullptr);

  // ---- driver image store (remote DEPLOY/REMOVE/DISCOVER) -----------------
  // Verifies + decodes the image; statically invalid images are rejected
  // here with the verifier's Status.  `image_crc`, when given, must equal
  // image.ImageCrc(): a caller holding the verified CRC-32 of the received
  // bytes (which Parse guarantees are canonical) skips re-serializing.
  Status InstallImage(const DriverImage& image, std::optional<uint32_t> image_crc = std::nullopt);
  Status RemoveImage(DeviceTypeId device_id);  // fails while a host uses it
  bool HasDriverFor(DeviceTypeId device_id) const;
  const DriverImage* ImageFor(DeviceTypeId device_id) const;
  std::shared_ptr<const DecodedImage> DecodedFor(DeviceTypeId device_id) const;
  std::vector<DeviceTypeId> InstalledDrivers() const;
  // Handled-event export for the model layer; empty when no image installed.
  std::vector<EventId> HandledEventsFor(DeviceTypeId device_id) const {
    const std::shared_ptr<const DecodedImage> decoded = DecodedFor(device_id);
    return decoded == nullptr ? std::vector<EventId>{} : decoded->HandledEvents();
  }

  // ---- activation ----------------------------------------------------------
  // Binds the stored image for `device_id` to `channel`, fires init.
  Status Activate(ChannelId channel, DeviceTypeId device_id, ChannelBus& bus);
  // Fires destroy, tears down libraries, releases the slot.
  Status Deactivate(ChannelId channel);
  DriverHost* HostForChannel(ChannelId channel);
  DriverHost* HostForDevice(DeviceTypeId device_id);
  size_t active_hosts() const { return hosts_.size(); }

  // Drains the event router into the active hosts, each pump bounded to the
  // number of events pending at entry (newly posted errors may still
  // preempt within that budget); a still-busy router reschedules itself on
  // the scheduler so event storms cannot livelock a pump.  Wired to the
  // scheduler: any Post schedules a pump, so running the scheduler processes
  // events.
  size_t DispatchPending();

  EventRouter& router() { return router_; }

  // Over-the-air installs handled (Table 4's driver installation step).
  uint64_t installs() const { return installs_; }
  // Installs that reused a cached decoded image (verify+decode skipped).
  uint64_t decode_cache_hits() const { return decode_cache_hits_; }

 private:
  void SchedulePump();

  Scheduler& scheduler_;
  EventRouter& router_;
  SharedDecodeCache* shared_cache_;
  std::map<DeviceTypeId, std::shared_ptr<const DecodedImage>> images_;
  // Verified+decoded images by image CRC (hits also byte-compare, so a CRC
  // collision cannot bypass verification).  Survives RemoveImage so a
  // remove/re-deploy cycle of the same bytes is free; bounded by
  // kDecodeCacheCapacity with unused entries evicted first.
  std::map<uint32_t, std::shared_ptr<const DecodedImage>> decode_cache_;
  std::map<ChannelId, std::unique_ptr<DriverHost>> hosts_;
  bool pump_scheduled_ = false;
  uint64_t installs_ = 0;
  uint64_t decode_cache_hits_ = 0;
};

}  // namespace micropnp

#endif  // SRC_RT_DRIVER_MANAGER_H_
