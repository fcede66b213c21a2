// pcap I/O and trace plumbing: writer→reader byte-exact round trips in all
// four header variants, every malformed-capture corner case the reader must
// survive, and the traffic_from_pcap/SwitchRuntime path that runs a switch
// entirely from/to capture files.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "netio/pcap.hpp"
#include "netio/trace_source.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::net;
using test::make_packet;

std::vector<uint8_t> frame_of(uint8_t fill, uint32_t len) {
  std::vector<uint8_t> f(len);
  for (uint32_t i = 0; i < len; ++i) f[i] = static_cast<uint8_t>(fill + i);
  return f;
}

TEST(Pcap, RoundTripAllHeaderVariants) {
  const std::vector<std::vector<uint8_t>> frames = {
      frame_of(1, 60), frame_of(2, 64), frame_of(3, 1514)};
  for (const bool nanos : {false, true}) {
    for (const bool swapped : {false, true}) {
      PcapWriter::Options wo;
      wo.nanosecond = nanos;
      wo.swapped = swapped;
      PcapWriter w(wo);
      uint64_t ts = 1'700'000'000ull * 1'000'000'000ull;
      for (const auto& f : frames) {
        w.add(f.data(), static_cast<uint32_t>(f.size()), ts);
        ts += nanos ? 1 : 1000;  // µs captures can't hold sub-µs steps
      }
      const PcapReader r = PcapReader::from_buffer(w.buffer());
      ASSERT_TRUE(r.ok()) << r.error();
      EXPECT_EQ(r.nanosecond(), nanos);
      EXPECT_EQ(r.swapped(), swapped);
      EXPECT_EQ(r.linktype(), 1u);
      ASSERT_EQ(r.size(), frames.size());
      ts = 1'700'000'000ull * 1'000'000'000ull;
      for (size_t i = 0; i < frames.size(); ++i) {
        const PcapPacket p = r.packet(i);
        EXPECT_EQ(p.ts_ns, ts) << "variant nanos=" << nanos << " swap=" << swapped;
        ASSERT_EQ(p.len, frames[i].size());
        EXPECT_EQ(p.orig_len, frames[i].size());
        EXPECT_EQ(std::vector<uint8_t>(p.data, p.data + p.len), frames[i]);
        ts += nanos ? 1 : 1000;
      }
    }
  }
}

TEST(Pcap, FileRoundTripByteEquality) {
  PcapWriter w;
  const auto f1 = frame_of(7, 100), f2 = frame_of(9, 400);
  w.add(f1.data(), static_cast<uint32_t>(f1.size()), 42'000);
  w.add(f2.data(), static_cast<uint32_t>(f2.size()), 43'000);
  const std::string path = ::testing::TempDir() + "esw_roundtrip.pcap";
  ASSERT_TRUE(w.save(path));
  const PcapReader r = PcapReader::from_file(path);
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(std::vector<uint8_t>(r.packet(0).data, r.packet(0).data + r.packet(0).len),
            f1);
  EXPECT_EQ(std::vector<uint8_t>(r.packet(1).data, r.packet(1).data + r.packet(1).len),
            f2);
  // And the re-serialized capture is byte-identical to what was written.
  PcapWriter w2;
  for (size_t i = 0; i < r.size(); ++i) {
    const PcapPacket p = r.packet(i);
    w2.add(p.data, p.len, p.ts_ns);
  }
  EXPECT_EQ(w.buffer(), w2.buffer());
  std::remove(path.c_str());
}

TEST(Pcap, ZeroPacketFile) {
  const PcapWriter w;
  const PcapReader r = PcapReader::from_buffer(w.buffer());
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.empty());
}

TEST(Pcap, TruncatedGlobalHeader) {
  PcapWriter w;
  std::vector<uint8_t> buf = w.buffer();
  buf.resize(17);
  const PcapReader r = PcapReader::from_buffer(buf);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("global header"), std::string::npos) << r.error();
}

TEST(Pcap, BadMagic) {
  std::vector<uint8_t> buf(24, 0xEE);
  const PcapReader r = PcapReader::from_buffer(buf);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("magic"), std::string::npos) << r.error();
}

TEST(Pcap, TruncatedRecordHeaderKeepsCompleteRecords) {
  PcapWriter w;
  const auto f = frame_of(1, 80);
  w.add(f.data(), static_cast<uint32_t>(f.size()), 1000);
  std::vector<uint8_t> buf = w.buffer();
  buf.resize(buf.size() + 7, 0);  // 7 bytes of a 16-byte record header
  const PcapReader r = PcapReader::from_buffer(buf);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.size(), 1u);  // the complete record survives
  EXPECT_EQ(r.packet(0).len, 80u);
}

TEST(Pcap, TruncatedRecordBody) {
  PcapWriter w;
  const auto f1 = frame_of(1, 80), f2 = frame_of(2, 90);
  w.add(f1.data(), static_cast<uint32_t>(f1.size()), 0);
  w.add(f2.data(), static_cast<uint32_t>(f2.size()), 0);
  std::vector<uint8_t> buf = w.buffer();
  buf.resize(buf.size() - 30);  // chop into the second record's body
  const PcapReader r = PcapReader::from_buffer(buf);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("truncated"), std::string::npos) << r.error();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.packet(0).len, 80u);
}

TEST(Pcap, SnaplenSmallerThanWireLength) {
  PcapWriter::Options wo;
  wo.snaplen = 96;
  PcapWriter w(wo);
  const auto f = frame_of(5, 300);
  w.add(f.data(), static_cast<uint32_t>(f.size()), 0);
  const PcapReader r = PcapReader::from_buffer(w.buffer());
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.packet(0).len, 96u);        // captured bytes
  EXPECT_EQ(r.packet(0).orig_len, 300u);  // wire length preserved
  // The truncated record is not a replayable frame: it is skipped, and a
  // capture with nothing else in it is refused.
  uint64_t skipped = 0;
  EXPECT_THROW(traffic_from_pcap(r, 1, &skipped), CheckError);
  EXPECT_EQ(skipped, 1u);
}

TEST(Pcap, CapturedLengthBeyondSnaplenRejected) {
  PcapWriter w;  // default snaplen 65535
  const auto f = frame_of(5, 60);
  w.add(f.data(), static_cast<uint32_t>(f.size()), 0);
  std::vector<uint8_t> buf = w.buffer();
  // Corrupt the global snaplen below the record's captured length.
  buf[16] = 8;
  buf[17] = buf[18] = buf[19] = 0;
  const PcapReader r = PcapReader::from_buffer(buf);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("snaplen"), std::string::npos) << r.error();
}

TEST(Pcap, TrafficFromPcapKeepsWireFrames) {
  std::vector<std::vector<uint8_t>> frames;
  PcapWriter::Options wo;
  wo.snaplen = 200;
  PcapWriter w(wo);
  for (int i = 0; i < 5; ++i) {
    const net::Packet p = make_packet(test::udp_spec(0x0A000001, 0x0A000002, 1000, 80 + i));
    frames.push_back({p.data(), p.data() + p.len()});
    w.add(p.data(), p.len(), i);
  }
  const auto big = frame_of(7, 300);  // snaplen-truncated on add
  w.add(big.data(), static_cast<uint32_t>(big.size()), 5);
  w.add(big.data(), 0, 6);  // empty record
  const PcapReader r = PcapReader::from_buffer(w.buffer());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.size(), 7u);

  uint64_t skipped = 0;
  const TrafficSet ts = traffic_from_pcap(r, 3, &skipped);
  EXPECT_EQ(skipped, 2u);
  ASSERT_EQ(ts.size(), 5u);
  for (size_t i = 0; i < ts.size(); ++i) {
    net::Packet out;
    ts.load(i, out);
    EXPECT_EQ(out.in_port(), 3u);
    ASSERT_EQ(out.len(), frames[i].size());
    EXPECT_EQ(0, std::memcmp(out.data(), frames[i].data(), out.len()));
  }
}

TEST(PcapPort, SwitchRuntimeRunsEntirelyFromCaptureFiles) {
  // A one-rule forwarder: everything from port 1 goes out port 2.  The whole
  // run is capture-file to capture-file.
  PcapWriter in_writer;
  std::vector<std::vector<uint8_t>> sent;
  for (int i = 0; i < 40; ++i) {
    const net::Packet p =
        make_packet(test::udp_spec(0x0A000001 + i, 0x0A000002, 5000, 53), 1);
    sent.push_back({p.data(), p.data() + p.len()});
    in_writer.add(p.data(), p.len(), static_cast<uint64_t>(i) * 1000);
  }
  const PcapReader in = PcapReader::from_buffer(in_writer.buffer());
  ASSERT_TRUE(in.ok());
  const TrafficSet traffic = traffic_from_pcap(in, 1, nullptr);

  core::SwitchRuntime<core::Eswitch>::Config cfg;
  cfg.sink_tx = false;  // the capture is the wire
  core::SwitchRuntime<core::Eswitch> host(cfg);
  flow::Pipeline pl;
  pl.table(0).add(flow::parse_rule("priority=10, in_port=1, actions=output:2"));
  host.backend().install(pl);

  PcapWriter captured;
  const PcapRunStats st = run_pcap_through_host(host, traffic, &captured);
  EXPECT_EQ(st.injected, 40u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.processed, 40u);
  EXPECT_EQ(st.captured, 40u);
  EXPECT_EQ(host.counters().tx_packets, 40u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());

  const PcapReader out = PcapReader::from_buffer(captured.buffer());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.size(), 40u);
  for (size_t i = 0; i < out.size(); ++i) {
    const PcapPacket p = out.packet(i);
    ASSERT_EQ(p.len, sent[i].size());
    EXPECT_EQ(0, std::memcmp(p.data, sent[i].data(), p.len))
        << "frame " << i << " mutated in a forward-only pipeline";
  }
}

}  // namespace
}  // namespace esw
