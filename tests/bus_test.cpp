// Unit tests for the interconnect simulations (ADC, I2C, SPI, UART), the
// per-channel bus mux, and the native libraries' split-phase events over
// them.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/bus/adc.h"
#include "src/bus/channel_bus.h"
#include "src/bus/i2c.h"
#include "src/bus/spi.h"
#include "src/bus/uart.h"
#include "src/rt/native_libs.h"

namespace micropnp {
namespace {

// ------------------------------------------------------------------ adc ----

class FixedSource : public AnalogSource {
 public:
  explicit FixedSource(double volts) : volts_(volts) {}
  Volts VoltageAt(SimTime /*now*/) override { return Volts(volts_); }
  double volts_;
};

TEST(Adc, SampleQuantizesVoltage) {
  Scheduler sched;
  AdcPort adc(sched);
  FixedSource source(1.65);  // half of vref 3.3
  adc.AttachSource(&source);
  Result<uint16_t> code = adc.Sample();
  ASSERT_TRUE(code.ok());
  EXPECT_NEAR(*code, 511.5, 1.0);  // mid-scale of 10 bits
  EXPECT_NEAR(adc.CodeToVoltage(*code).value(), 1.65, 0.01);
}

TEST(Adc, SampleWithoutSourceFails) {
  Scheduler sched;
  AdcPort adc(sched);
  EXPECT_EQ(adc.Sample().status().code(), StatusCode::kUnavailable);
}

TEST(Adc, ClipsOutOfRangeVoltages) {
  Scheduler sched;
  AdcPort adc(sched);
  FixedSource source(5.0);
  adc.AttachSource(&source);
  EXPECT_EQ(*adc.Sample(), 1023);
  source.volts_ = -1.0;
  EXPECT_EQ(*adc.Sample(), 0);
}

TEST(Adc, ResolutionConfigurable) {
  Scheduler sched;
  AdcPort adc(sched);
  AdcConfig config;
  config.resolution_bits = 12;
  adc.Configure(config);
  FixedSource source(3.3);
  adc.AttachSource(&source);
  EXPECT_EQ(*adc.Sample(), 4095);
}

TEST(Adc, CountsConversions) {
  Scheduler sched;
  AdcPort adc(sched);
  FixedSource source(1.0);
  adc.AttachSource(&source);
  (void)adc.Sample();
  (void)adc.Sample();
  EXPECT_EQ(adc.conversions(), 2u);
}

// ------------------------------------------------------------------ i2c ----

// Echo device: stores last write, serves it back on read.
class EchoI2cDevice : public I2cDevice {
 public:
  explicit EchoI2cDevice(uint8_t addr) : addr_(addr) {}
  uint8_t address() const override { return addr_; }
  Status OnWrite(ByteSpan data, SimTime /*now*/) override {
    last_write_.assign(data.begin(), data.end());
    return OkStatus();
  }
  Result<std::vector<uint8_t>> OnRead(size_t count, SimTime /*now*/) override {
    std::vector<uint8_t> out = last_write_;
    out.resize(count, 0xee);
    return out;
  }
  std::vector<uint8_t> last_write_;

 private:
  uint8_t addr_;
};

TEST(I2c, WriteReadRoundTrip) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice dev(0x42);
  ASSERT_TRUE(i2c.Attach(&dev).ok());

  const uint8_t payload[] = {0x10, 0x20};
  ASSERT_TRUE(i2c.Write(0x42, ByteSpan(payload, 2)).ok());
  EXPECT_EQ(dev.last_write_, (std::vector<uint8_t>{0x10, 0x20}));

  Result<std::vector<uint8_t>> read = i2c.Read(0x42, 2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<uint8_t>{0x10, 0x20}));
}

TEST(I2c, AbsentAddressNacks) {
  Scheduler sched;
  I2cPort i2c(sched);
  const uint8_t payload[] = {0x00};
  EXPECT_EQ(i2c.Write(0x50, ByteSpan(payload, 1)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(i2c.Read(0x50, 1).status().code(), StatusCode::kUnavailable);
}

TEST(I2c, AddressCollisionRejected) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice a(0x42), b(0x42);
  ASSERT_TRUE(i2c.Attach(&a).ok());
  EXPECT_EQ(i2c.Attach(&b).code(), StatusCode::kAlreadyExists);
}

TEST(I2c, MultipleDevicesCoexist) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice a(0x42), b(0x43);
  ASSERT_TRUE(i2c.Attach(&a).ok());
  ASSERT_TRUE(i2c.Attach(&b).ok());
  const uint8_t pa[] = {0xaa};
  const uint8_t pb[] = {0xbb};
  ASSERT_TRUE(i2c.Write(0x42, ByteSpan(pa, 1)).ok());
  ASSERT_TRUE(i2c.Write(0x43, ByteSpan(pb, 1)).ok());
  EXPECT_EQ(a.last_write_[0], 0xaa);
  EXPECT_EQ(b.last_write_[0], 0xbb);
  ASSERT_TRUE(i2c.Detach(&a).ok());
  EXPECT_EQ(i2c.Write(0x42, ByteSpan(pa, 1)).code(), StatusCode::kUnavailable);
}

TEST(I2c, WriteReadUsesRepeatedStart) {
  Scheduler sched;
  I2cPort i2c(sched);
  EchoI2cDevice dev(0x10);
  ASSERT_TRUE(i2c.Attach(&dev).ok());
  const uint8_t reg[] = {0xf6};
  Result<std::vector<uint8_t>> out = i2c.WriteRead(0x10, ByteSpan(reg, 1), 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], 0xf6);
}

TEST(I2c, TransactionTimeScalesWithBytes) {
  Scheduler sched;
  I2cPort i2c(sched);
  // 100 kHz: 1 byte + address = 2 * 9 + 2 cycles = 200 us.
  EXPECT_NEAR(i2c.TransactionTime(1).millis(), 0.2, 0.01);
  EXPECT_GT(i2c.TransactionTime(16).nanos(), i2c.TransactionTime(1).nanos());
}

// ------------------------------------------------------------------ spi ----

class AddOneSpiDevice : public SpiDevice {
 public:
  uint8_t Exchange(uint8_t mosi, SimTime /*now*/) override {
    return static_cast<uint8_t>(mosi + 1);
  }
  void OnSelect(SimTime /*now*/) override { ++selects_; }
  void OnDeselect(SimTime /*now*/) override { ++deselects_; }
  int selects_ = 0;
  int deselects_ = 0;
};

TEST(Spi, FullDuplexTransfer) {
  Scheduler sched;
  SpiPort spi(sched);
  AddOneSpiDevice dev;
  spi.AttachDevice(&dev);
  const uint8_t tx[] = {1, 2, 3};
  Result<std::vector<uint8_t>> rx = spi.Transfer(ByteSpan(tx, 3));
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(*rx, (std::vector<uint8_t>{2, 3, 4}));
  EXPECT_EQ(dev.selects_, 1);
  EXPECT_EQ(dev.deselects_, 1);
}

TEST(Spi, TransferWithoutDeviceFails) {
  Scheduler sched;
  SpiPort spi(sched);
  const uint8_t tx[] = {1};
  EXPECT_EQ(spi.Transfer(ByteSpan(tx, 1)).status().code(), StatusCode::kUnavailable);
}

TEST(Spi, TransferTimeFollowsClock) {
  Scheduler sched;
  SpiPort spi(sched);
  // 4 bytes at 1 MHz = 32 us.
  EXPECT_NEAR(spi.TransferTime(4).micros(), 32.0, 0.1);
}

// ----------------------------------------------------------------- uart ----

TEST(UartConfig, ValidityAndByteTime) {
  UartConfig config;  // 9600 8N1
  EXPECT_TRUE(config.Valid());
  // 10 bits at 9600 baud ~ 1.0417 ms.
  EXPECT_NEAR(config.ByteTimeSeconds(), 10.0 / 9600.0, 1e-9);

  config.parity = UartParity::kEven;
  config.stop_bits = UartStopBits::kTwo;
  EXPECT_NEAR(config.ByteTimeSeconds(), 12.0 / 9600.0, 1e-9);

  config.baud = 0;
  EXPECT_FALSE(config.Valid());
  config.baud = 9600;
  config.data_bits = 9;
  EXPECT_FALSE(config.Valid());
}

TEST(Uart, InitClaimsExclusively) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  EXPECT_EQ(uart.Init(UartConfig{}).code(), StatusCode::kBusy);  // `uartInUse`
  uart.Reset();
  EXPECT_TRUE(uart.Init(UartConfig{}).ok());
}

TEST(Uart, InitRejectsInvalidConfig) {
  Scheduler sched;
  UartPort uart(sched);
  UartConfig bad;
  bad.baud = 0;
  EXPECT_EQ(uart.Init(bad).code(), StatusCode::kInvalidArgument);
}

TEST(Uart, DeviceBytesArriveAtWireSpeed) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());

  std::vector<std::pair<uint8_t, double>> received;  // byte, arrival ms
  uart.set_rx_handler([&](uint8_t b) { received.emplace_back(b, sched.now().millis()); });

  uart.DeviceSend('A');
  uart.DeviceSend('B');
  sched.Run();

  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].first, 'A');
  EXPECT_EQ(received[1].first, 'B');
  const double byte_ms = 10.0 / 9600.0 * 1e3;
  EXPECT_NEAR(received[0].second, byte_ms, 0.01);
  EXPECT_NEAR(received[1].second, 2 * byte_ms, 0.01);  // serialized on the wire
}

TEST(Uart, FifoBuffersWhenNoHandler) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  uart.DeviceSend(0x11);
  uart.DeviceSend(0x22);
  sched.Run();
  EXPECT_EQ(uart.rx_available(), 2u);
  EXPECT_EQ(*uart.ReadByte(), 0x11);
  EXPECT_EQ(*uart.ReadByte(), 0x22);
  EXPECT_EQ(uart.ReadByte().status().code(), StatusCode::kUnavailable);
}

TEST(Uart, FifoOverrunDropsAndCounts) {
  Scheduler sched;
  UartPort uart(sched);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  for (size_t i = 0; i < UartPort::kRxFifoDepth + 5; ++i) {
    uart.DeviceSend(static_cast<uint8_t>(i));
  }
  sched.Run();
  EXPECT_EQ(uart.rx_available(), UartPort::kRxFifoDepth);
  EXPECT_EQ(uart.overruns(), 5u);
}

TEST(Uart, BytesLostWhenUninitialized) {
  Scheduler sched;
  UartPort uart(sched);
  uart.DeviceSend(0x7f);  // nobody configured the port
  sched.Run();
  EXPECT_EQ(uart.rx_available(), 0u);
}

class CaptureEndpoint : public UartEndpoint {
 public:
  void OnHostByte(uint8_t byte, SimTime /*now*/) override { bytes_.push_back(byte); }
  std::vector<uint8_t> bytes_;
};

TEST(Uart, HostToDeviceDirection) {
  Scheduler sched;
  UartPort uart(sched);
  CaptureEndpoint device;
  uart.AttachDevice(&device);
  ASSERT_TRUE(uart.Init(UartConfig{}).ok());
  ASSERT_TRUE(uart.HostSend('x').ok());
  sched.Run();
  EXPECT_EQ(device.bytes_, (std::vector<uint8_t>{'x'}));
}

TEST(Uart, HostSendRequiresInit) {
  Scheduler sched;
  UartPort uart(sched);
  EXPECT_EQ(uart.HostSend('x').code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------- channel bus ----

TEST(ChannelBus, MuxSelectsOneKind) {
  Scheduler sched;
  ChannelBus bus(sched);
  EXPECT_EQ(bus.selected(), std::nullopt);
  bus.Select(BusKind::kUart);
  EXPECT_TRUE(bus.IsSelected(BusKind::kUart));
  EXPECT_FALSE(bus.IsSelected(BusKind::kAdc));
  bus.Select(std::nullopt);
  EXPECT_FALSE(bus.IsSelected(BusKind::kUart));
}

// ----------------------------------------------------- native libraries ----

// One library on a bare router; every post is recorded with its sim time.
struct LibraryRig {
  static constexpr int kSlot = 3;

  explicit LibraryRig(BusKind kind) : bus(sched) {
    bus.Select(kind);
    router.set_on_post([this] { post_times.push_back(sched.now()); });
    ctx = NativeLibContext{&sched, &bus, &router, kSlot, nullptr};
  }

  std::vector<Event> Drain() {
    std::vector<Event> events;
    router.ProcessAll([&](int slot, const Event& e) {
      EXPECT_EQ(slot, kSlot);
      events.push_back(e);
    });
    return events;
  }

  Scheduler sched;
  ChannelBus bus;
  EventRouter router;
  NativeLibContext ctx;
  std::vector<SimTime> post_times;
};

TEST(NativeLibraries, UartStalledFramePostsOneTimeoutAfterTheLastByte) {
  LibraryRig rig(BusKind::kUart);
  UartNativeLibrary uart(rig.ctx);
  const int32_t config[] = {9600, 0, 1, 8};
  uart.Invoke(kUartInit, config);
  uart.Invoke(kUartRead, {});
  // STX and four of the twelve payload chars, then silence.
  for (uint8_t byte : {uint8_t{0x02}, uint8_t{'4'}, uint8_t{'A'}, uint8_t{'0'}, uint8_t{'0'}}) {
    rig.bus.uart().DeviceSend(byte);
  }
  rig.sched.RunUntil(SimTime::FromMillis(10.0));  // 5 bytes at 9600 8N1 take ~5.2 ms
  ASSERT_EQ(rig.post_times.size(), 5u);
  EXPECT_EQ(rig.sched.pending(), 1u);  // one timeout armed, not one per byte

  rig.sched.Run();
  ASSERT_EQ(rig.post_times.size(), 6u);
  EXPECT_EQ(rig.post_times[5],
            rig.post_times[4] + SimTime::FromMillis(UartNativeLibrary::kInterByteTimeoutMs));
  int newdata = 0;
  int timeouts = 0;
  for (const Event& e : rig.Drain()) {
    newdata += e.id == kEventNewData ? 1 : 0;
    timeouts += e.id == kErrorTimeout ? 1 : 0;
  }
  EXPECT_EQ(newdata, 5);
  EXPECT_EQ(timeouts, 1);
}

TEST(NativeLibraries, TeardownCancelsEveryEventInFlight) {
  // A library torn down with a split-phase event in flight (the driver was
  // unplugged mid-operation) must leave nothing scheduled: the event would
  // run on a destroyed library and post to a slot a new driver may reuse.
  FixedSource source(1.0);
  EchoI2cDevice i2c_device(0x42);
  AddOneSpiDevice spi_device;
  struct Case {
    const char* name;
    BusKind bus;
    LibraryId lib;
    std::function<void(LibraryRig&, NativeLibrary&)> start;
  };
  const std::vector<Case> cases = {
      {"uart", BusKind::kUart, kLibUart,
       [](LibraryRig& rig, NativeLibrary& lib) {
         const int32_t config[] = {9600, 0, 1, 8};
         lib.Invoke(kUartInit, config);
         lib.Invoke(kUartRead, {});
         rig.bus.uart().DeviceSend(0x02);
         rig.sched.RunUntil(SimTime::FromMillis(5.0));  // byte in, timeout armed
       }},
      {"adc", BusKind::kAdc, kLibAdc,
       [&](LibraryRig& rig, NativeLibrary& lib) {
         rig.bus.adc().AttachSource(&source);
         const int32_t config[] = {0, 10};
         lib.Invoke(kAdcInit, config);
         lib.Invoke(kAdcRead, {});
       }},
      {"i2c", BusKind::kI2c, kLibI2c,
       [&](LibraryRig& rig, NativeLibrary& lib) {
         ASSERT_TRUE(rig.bus.i2c().Attach(&i2c_device).ok());
         const int32_t clock[] = {100};
         lib.Invoke(kI2cInit, clock);
         const int32_t read[] = {0x42, 0x00};
         lib.Invoke(kI2cRead8, read);
       }},
      {"spi", BusKind::kSpi, kLibSpi,
       [&](LibraryRig& rig, NativeLibrary& lib) {
         rig.bus.spi().AttachDevice(&spi_device);
         const int32_t config[] = {1000, 0};
         lib.Invoke(kSpiInit, config);
         const int32_t tx[] = {1, 2};
         lib.Invoke(kSpiTransfer2, tx);
       }},
      {"timer", BusKind::kAdc, kLibTimer,  // the timer touches no bus
       [](LibraryRig&, NativeLibrary& lib) {
         const int32_t period[] = {100};
         lib.Invoke(kTimerStart, period);
         const int32_t delay[] = {50};
         lib.Invoke(kTimerOnce, delay);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    LibraryRig rig(c.bus);
    std::unique_ptr<NativeLibrary> lib = MakeNativeLibrary(c.lib, rig.ctx);
    ASSERT_NE(lib, nullptr);
    c.start(rig, *lib);
    ASSERT_GT(rig.sched.pending(), 0u);
    const size_t posts = rig.post_times.size();
    lib->Teardown();
    EXPECT_EQ(rig.sched.pending(), 0u);
    lib.reset();
    rig.sched.Run();
    EXPECT_EQ(rig.post_times.size(), posts);
  }
}

TEST(NativeLibraries, TimerStopCancelsPeriodicAndOnceTicks) {
  LibraryRig rig(BusKind::kAdc);  // the timer touches no bus
  TimerNativeLibrary timer(rig.ctx);
  const int32_t period[] = {100};
  timer.Invoke(kTimerStart, period);
  const int32_t delay[] = {250};
  timer.Invoke(kTimerOnce, delay);
  rig.sched.RunUntil(SimTime::FromMillis(210.0));
  EXPECT_EQ(rig.post_times.size(), 2u);  // ticks at 100 and 200 ms
  timer.Invoke(kTimerStop, {});
  EXPECT_EQ(rig.sched.pending(), 0u);
  rig.sched.Run();
  EXPECT_EQ(rig.post_times.size(), 2u);
}

}  // namespace
}  // namespace micropnp
