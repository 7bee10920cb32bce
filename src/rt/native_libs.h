// Native interconnect libraries (Section 4.2).
//
// "A set of native interconnect libraries implement all low-level platform
// specific I/O calls ... Every library exposes its API towards drivers as a
// series of standard event handlers."
//
// Each library instance is bound to one driver slot and one channel bus.
// Invocations are split-phase: the call returns immediately; results
// (`newdata`, `tick`) and faults (error events) are posted to the event
// router addressed to the owning driver, arriving after the simulated wire /
// conversion time.
//
// A library owns the scheduler events behind those results: it cancels a
// timer it supersedes (the UART's inter-byte timeout, a restarted periodic
// timer) and Teardown cancels every event still in flight, so no completion
// outlives its library or reaches a driver slot that a later driver reuses.

#ifndef SRC_RT_NATIVE_LIBS_H_
#define SRC_RT_NATIVE_LIBS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/bus/channel_bus.h"
#include "src/common/units.h"
#include "src/dsl/native_interface.h"
#include "src/hw/energy_model.h"
#include "src/rt/event.h"
#include "src/rt/event_router.h"
#include "src/sim/scheduler.h"

namespace micropnp {

// Shared wiring every library needs.
struct NativeLibContext {
  Scheduler* scheduler = nullptr;
  ChannelBus* bus = nullptr;
  EventRouter* router = nullptr;
  int driver_slot = 0;
  // Interconnect energy accounting (feeds the Figure 12 "+bus" curves).
  Joules* energy_accumulator = nullptr;
};

class NativeLibrary {
 public:
  explicit NativeLibrary(const NativeLibContext& ctx) : ctx_(ctx) {}
  virtual ~NativeLibrary() = default;

  virtual LibraryId id() const = 0;
  // Handles a kSignalLib instruction.  Problems surface as error events
  // posted to the driver, not as return values (Section 4.1 error handling).
  virtual void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) = 0;
  // Driver being destroyed: cancel every event the library still owns, then
  // release claimed hardware.
  void Teardown() {
    CancelOwnedEvents();
    ReleaseBus();
  }

 protected:
  // Drops the library's claim on its bus and its configuration.
  virtual void ReleaseBus() {}
  // Schedules a split-phase event `delay` from now and remembers its id, so
  // Teardown can cancel it.  Ids of events that already ran or were cancelled
  // are forgotten on the next call, so the list holds what is in flight.
  Scheduler::EventId ScheduleOwned(SimDuration delay, Scheduler::Action action);
  void CancelOwnedEvents();
  void PostToDriver(const Event& e) { ctx_.router->Post(ctx_.driver_slot, e); }
  void PostErrorToDriver(EventId error) { ctx_.router->PostError(ctx_.driver_slot, Event::Of(error)); }
  void ChargeEnergy(BusKind bus) {
    if (ctx_.energy_accumulator != nullptr) {
      *ctx_.energy_accumulator += InterconnectEnergyPerOperation(bus);
    }
  }

  NativeLibContext ctx_;

 private:
  std::vector<Scheduler::EventId> owned_;
};

// Factory used by the driver host when instantiating a driver's imports.
std::unique_ptr<NativeLibrary> MakeNativeLibrary(LibraryId id, const NativeLibContext& ctx);

// --- concrete libraries (exposed for focused unit tests) --------------------

class AdcNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibAdc; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;

 private:
  void ReleaseBus() override { initialized_ = false; }

  bool initialized_ = false;
};

class UartNativeLibrary : public NativeLibrary {
 public:
  // Inter-byte timeout while a frame is being assembled (Listing 1's
  // `timeOut` error).
  static constexpr double kInterByteTimeoutMs = 200.0;

  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibUart; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;

 private:
  void ReleaseBus() override;
  void OnByte(uint8_t byte);

  bool claimed_ = false;
  bool listening_ = false;
  // The latest inter-byte timeout; pending exactly while a frame is open.
  // Each byte, uart.read and uart.stop cancel it (a no-op once it ran).
  Scheduler::EventId timeout_ = 0;
};

class I2cNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibI2c; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;

 private:
  void Read(int32_t addr, int32_t reg, int bytes);
  bool initialized_ = false;
};

class SpiNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibSpi; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;

 private:
  bool initialized_ = false;
};

// timer.start and timer.stop cancel every outstanding tick, periodic or once.
class TimerNativeLibrary : public NativeLibrary {
 public:
  using NativeLibrary::NativeLibrary;
  LibraryId id() const override { return kLibTimer; }
  void Invoke(LibraryFunctionId fn, std::span<const int32_t> args) override;

 private:
  void Tick(double period_ms);
};

}  // namespace micropnp

#endif  // SRC_RT_NATIVE_LIBS_H_
