#include "src/rt/native_libs.h"

#include <utility>

namespace micropnp {

Scheduler::EventId NativeLibrary::ScheduleOwned(SimDuration delay, Scheduler::Action action) {
  std::erase_if(owned_, [this](Scheduler::EventId id) { return !ctx_.scheduler->IsPending(id); });
  const Scheduler::EventId id = ctx_.scheduler->ScheduleAfter(delay, std::move(action));
  owned_.push_back(id);
  return id;
}

void NativeLibrary::CancelOwnedEvents() {
  for (Scheduler::EventId id : owned_) {
    ctx_.scheduler->Cancel(id);
  }
  owned_.clear();
}

std::unique_ptr<NativeLibrary> MakeNativeLibrary(LibraryId id, const NativeLibContext& ctx) {
  switch (id) {
    case kLibAdc:
      return std::make_unique<AdcNativeLibrary>(ctx);
    case kLibUart:
      return std::make_unique<UartNativeLibrary>(ctx);
    case kLibI2c:
      return std::make_unique<I2cNativeLibrary>(ctx);
    case kLibSpi:
      return std::make_unique<SpiNativeLibrary>(ctx);
    case kLibTimer:
      return std::make_unique<TimerNativeLibrary>(ctx);
    default:
      return nullptr;
  }
}

// ------------------------------------------------------------------- adc ---

void AdcNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  switch (fn) {
    case kAdcInit: {
      if (!ctx_.bus->IsSelected(BusKind::kAdc)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      const int32_t resolution = args.size() > 1 ? args[1] : 10;
      if (resolution != 8 && resolution != 10 && resolution != 12) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      AdcConfig config;
      config.resolution_bits = static_cast<int>(resolution);
      ctx_.bus->adc().Configure(config);
      initialized_ = true;
      return;
    }
    case kAdcReset:
      initialized_ = false;
      return;
    case kAdcRead: {
      if (!initialized_) {
        PostErrorToDriver(kErrorAdcInUse);
        return;
      }
      Result<uint16_t> code = ctx_.bus->adc().Sample();
      if (!code.ok()) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      ChargeEnergy(BusKind::kAdc);
      const int32_t value = *code;
      // Split phase: the conversion result arrives after the ADC's
      // conversion time, as a newdata event.
      ScheduleOwned(ctx_.bus->adc().conversion_time(),
                    [this, value] { PostToDriver(Event::Of(kEventNewData, value)); });
      return;
    }
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

// ------------------------------------------------------------------ uart ---

void UartNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  UartPort& uart = ctx_.bus->uart();
  switch (fn) {
    case kUartInit: {
      if (!ctx_.bus->IsSelected(BusKind::kUart)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      UartConfig config;
      config.baud = args.size() > 0 ? static_cast<uint32_t>(args[0]) : 9600;
      config.parity = static_cast<UartParity>(args.size() > 1 ? args[1] : 0);
      config.stop_bits = static_cast<UartStopBits>(args.size() > 2 ? args[2] : 1);
      config.data_bits = static_cast<uint8_t>(args.size() > 3 ? args[3] : 8);
      Status status = uart.Init(config);
      if (status.code() == StatusCode::kBusy) {
        PostErrorToDriver(kErrorUartInUse);  // Listing 1: error uartInUse()
        return;
      }
      if (!status.ok()) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      claimed_ = true;
      return;
    }
    case kUartReset:
      Teardown();
      return;
    case kUartRead:
      if (!claimed_) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      listening_ = true;
      ctx_.scheduler->Cancel(timeout_);
      uart.set_rx_handler([this](uint8_t byte) { OnByte(byte); });
      return;
    case kUartWrite: {
      if (!claimed_) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      ChargeEnergy(BusKind::kUart);
      Status status = uart.HostSend(static_cast<uint8_t>(args.size() > 0 ? args[0] & 0xff : 0));
      if (!status.ok()) {
        PostErrorToDriver(kErrorInvalidConfiguration);
      }
      return;
    }
    case kUartStop:
      listening_ = false;
      ctx_.scheduler->Cancel(timeout_);
      uart.set_rx_handler(nullptr);
      return;
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

void UartNativeLibrary::OnByte(uint8_t byte) {
  if (!listening_) {
    return;
  }
  ChargeEnergy(BusKind::kUart);
  // This byte supersedes the previous byte's timeout.
  ctx_.scheduler->Cancel(timeout_);
  timeout_ = ScheduleOwned(SimTime::FromMillis(kInterByteTimeoutMs),
                           [this] { PostErrorToDriver(kErrorTimeout); });  // frame stalled
  PostToDriver(Event::Of(kEventNewData, static_cast<int32_t>(byte)));
}

void UartNativeLibrary::ReleaseBus() {
  if (claimed_) {
    ctx_.bus->uart().Reset();
    claimed_ = false;
  }
  listening_ = false;
}

// ------------------------------------------------------------------- i2c ---

void I2cNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  I2cPort& i2c = ctx_.bus->i2c();
  switch (fn) {
    case kI2cInit: {
      if (!ctx_.bus->IsSelected(BusKind::kI2c)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      I2cConfig config;
      config.clock_hz = static_cast<uint32_t>((args.size() > 0 ? args[0] : 100) * 1000);
      i2c.Configure(config);
      initialized_ = true;
      return;
    }
    case kI2cReset:
      initialized_ = false;
      return;
    case kI2cWrite: {
      if (!initialized_) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      ChargeEnergy(BusKind::kI2c);
      const uint8_t payload[2] = {static_cast<uint8_t>(args[1] & 0xff),
                                  static_cast<uint8_t>(args[2] & 0xff)};
      Status status = i2c.Write(static_cast<uint8_t>(args[0] & 0x7f), ByteSpan(payload, 2));
      if (!status.ok()) {
        PostErrorToDriver(kErrorBusError);
      }
      return;
    }
    case kI2cRead8:
      Read(args[0], args[1], 1);
      return;
    case kI2cRead16:
      Read(args[0], args[1], 2);
      return;
    case kI2cRead24:
      Read(args[0], args[1], 3);
      return;
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

void I2cNativeLibrary::Read(int32_t addr, int32_t reg, int bytes) {
  if (!initialized_) {
    PostErrorToDriver(kErrorInvalidConfiguration);
    return;
  }
  ChargeEnergy(BusKind::kI2c);
  I2cPort& i2c = ctx_.bus->i2c();
  const uint8_t pointer = static_cast<uint8_t>(reg & 0xff);
  Result<std::vector<uint8_t>> data =
      i2c.WriteRead(static_cast<uint8_t>(addr & 0x7f), ByteSpan(&pointer, 1),
                    static_cast<size_t>(bytes));
  if (!data.ok()) {
    PostErrorToDriver(kErrorBusError);
    return;
  }
  int32_t value = 0;
  for (uint8_t byte : *data) {
    value = static_cast<int32_t>((static_cast<uint32_t>(value) << 8) | byte);
  }
  // Result arrives after the wire time of the transaction.
  const SimDuration wire = i2c.TransactionTime(static_cast<size_t>(bytes) + 1, 2);
  ScheduleOwned(wire, [this, value] { PostToDriver(Event::Of(kEventNewData, value)); });
}

// ------------------------------------------------------------------- spi ---

void SpiNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  SpiPort& spi = ctx_.bus->spi();
  switch (fn) {
    case kSpiInit: {
      if (!ctx_.bus->IsSelected(BusKind::kSpi)) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      SpiConfig config;
      config.clock_hz = static_cast<uint32_t>((args.size() > 0 ? args[0] : 1000) * 1000);
      config.mode = static_cast<uint8_t>(args.size() > 1 ? args[1] & 3 : 0);
      spi.Configure(config);
      initialized_ = true;
      return;
    }
    case kSpiReset:
      initialized_ = false;
      return;
    case kSpiTransfer2: {
      if (!initialized_) {
        PostErrorToDriver(kErrorSpiInUse);
        return;
      }
      ChargeEnergy(BusKind::kSpi);
      const uint8_t tx[2] = {static_cast<uint8_t>(args[0] & 0xff),
                             static_cast<uint8_t>(args[1] & 0xff)};
      Result<std::vector<uint8_t>> rx = spi.Transfer(ByteSpan(tx, 2));
      if (!rx.ok()) {
        PostErrorToDriver(kErrorBusError);
        return;
      }
      const int32_t value = static_cast<int32_t>(((*rx)[0] << 8) | (*rx)[1]);
      ScheduleOwned(spi.TransferTime(2),
                    [this, value] { PostToDriver(Event::Of(kEventNewData, value)); });
      return;
    }
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

// ----------------------------------------------------------------- timer ---

void TimerNativeLibrary::Invoke(LibraryFunctionId fn, std::span<const int32_t> args) {
  switch (fn) {
    case kTimerStart: {
      const double period_ms = args.size() > 0 ? static_cast<double>(args[0]) : 1000.0;
      if (period_ms <= 0.0) {
        PostErrorToDriver(kErrorInvalidConfiguration);
        return;
      }
      CancelOwnedEvents();
      ScheduleOwned(SimTime::FromMillis(period_ms), [this, period_ms] { Tick(period_ms); });
      return;
    }
    case kTimerStop:
      CancelOwnedEvents();
      return;
    case kTimerOnce: {
      const double delay_ms = args.size() > 0 ? static_cast<double>(args[0]) : 0.0;
      ScheduleOwned(SimTime::FromMillis(delay_ms), [this] { PostToDriver(Event::Of(kEventTick)); });
      return;
    }
    default:
      PostErrorToDriver(kErrorInvalidConfiguration);
  }
}

void TimerNativeLibrary::Tick(double period_ms) {
  PostToDriver(Event::Of(kEventTick));
  ScheduleOwned(SimTime::FromMillis(period_ms), [this, period_ms] { Tick(period_ms); });
}

}  // namespace micropnp
