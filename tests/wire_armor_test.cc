// Wire-format armor regression tests (hostile-network hardening).
//
// Table-driven over every decoder in the tree: natcheck, rendezvous (both
// address modes), peer-wire, TURN, and the STUN-like probe codec. The
// properties mirror the fuzz harnesses in fuzz/ so a plain gcc+ctest run
// still exercises every rejection path the fuzzer covers:
//
//   - well-formed frames round-trip byte-for-byte;
//   - every truncation length is rejected (no partial reads);
//   - trailing bytes are rejected (exact-length frames only);
//   - out-of-range enum bytes are rejected;
//   - any single-bit flip either fails to decode or yields a frame that
//     re-encodes identically (canonical decode — no tolerated garbage);
//   - no decoder throws on arbitrary bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/peer_wire.h"
#include "src/core/probe_server.h"
#include "src/core/turn.h"
#include "src/natcheck/messages.h"
#include "src/rendezvous/messages.h"
#include "src/util/rng.h"

namespace natpunch {
namespace {

ConstByteSpan Span(const Bytes& b) { return ConstByteSpan(b.data(), b.size()); }

// One decoder under test: a family of valid frames plus type-erased
// decode / decode-then-reencode hooks.
struct CodecCase {
  std::string name;
  std::vector<Bytes> valid;
  std::function<bool(const Bytes&)> decodes;
  std::function<Bytes(const Bytes&)> reencode;  // precondition: decodes(b)
};

std::vector<CodecCase> AllCodecs() {
  std::vector<CodecCase> cases;

  {
    CodecCase c;
    c.name = "nc_message";
    for (uint8_t t = 1; t <= 11; ++t) {
      NcMessage m;
      m.type = static_cast<NcMsgType>(t);
      m.session = 0x1122334455667788;
      m.server_index = 2;
      m.observed = Endpoint(Ipv4Address::FromOctets(10, 0, 0, 1), 4321);
      m.verdict = NcProbeVerdict::kConnected;
      c.valid.push_back(EncodeNcMessage(m));
    }
    c.decodes = [](const Bytes& b) { return DecodeNcMessage(Span(b)).has_value(); };
    c.reencode = [](const Bytes& b) { return EncodeNcMessage(*DecodeNcMessage(Span(b))); };
    cases.push_back(std::move(c));
  }

  for (const bool obfuscate : {false, true}) {
    CodecCase c;
    c.name = obfuscate ? "rendezvous_message/obfuscated" : "rendezvous_message/plain";
    for (uint8_t t = 1; t <= 11; ++t) {
      RendezvousMessage m;
      m.type = static_cast<RvMsgType>(t);
      m.strategy = ConnectStrategy::kRelayOnly;
      m.client_id = 7;
      m.target_id = 9;
      m.nonce = 0xDEADBEEFCAFEF00D;
      m.epoch = 3;
      m.public_ep = Endpoint(Ipv4Address::FromOctets(192, 168, 1, 1), 5000);
      m.private_ep = Endpoint(Ipv4Address::FromOctets(10, 0, 0, 2), 6000);
      m.payload = Bytes{1, 2, 3};
      c.valid.push_back(EncodeRendezvousMessage(m, obfuscate));
    }
    c.decodes = [obfuscate](const Bytes& b) {
      return DecodeRendezvousMessage(Span(b), obfuscate).has_value();
    };
    c.reencode = [obfuscate](const Bytes& b) {
      return EncodeRendezvousMessage(*DecodeRendezvousMessage(Span(b), obfuscate), obfuscate);
    };
    cases.push_back(std::move(c));
  }

  {
    CodecCase c;
    c.name = "peer_message";
    for (uint8_t t = 1; t <= 6; ++t) {
      PeerMessage m;
      m.type = static_cast<PeerMsgType>(t);
      m.nonce = 0xFEEDFACE;
      m.sender_id = 42;
      m.payload = Bytes{9, 8, 7, 6};
      c.valid.push_back(EncodePeerMessage(m));
    }
    c.decodes = [](const Bytes& b) { return DecodePeerMessage(Span(b)).has_value(); };
    c.reencode = [](const Bytes& b) { return EncodePeerMessage(*DecodePeerMessage(Span(b))); };
    cases.push_back(std::move(c));
  }

  {
    CodecCase c;
    c.name = "turn_message";
    for (uint8_t t = 1; t <= 5; ++t) {
      TurnMessage m;
      m.type = static_cast<TurnMsgType>(t);
      m.peer = Endpoint(Ipv4Address::FromOctets(8, 8, 8, 8), 3478);
      m.payload = Bytes{5, 4, 3};
      c.valid.push_back(EncodeTurnMessage(m));
    }
    c.decodes = [](const Bytes& b) { return DecodeTurnMessage(Span(b)).has_value(); };
    c.reencode = [](const Bytes& b) { return EncodeTurnMessage(*DecodeTurnMessage(Span(b))); };
    cases.push_back(std::move(c));
  }

  {
    CodecCase c;
    c.name = "probe_message";
    for (uint8_t t = 1; t <= 5; ++t) {
      ProbeMessage m;
      m.type = static_cast<ProbeMsgType>(t);
      m.txn = 0xABCDEF;
      m.observed = Endpoint(Ipv4Address::FromOctets(1, 2, 3, 4), 9000);
      m.source_tag = ProbeSourceTag::kAlt;
      c.valid.push_back(EncodeProbeMessage(m));
    }
    c.decodes = [](const Bytes& b) { return DecodeProbeMessage(Span(b)).has_value(); };
    c.reencode = [](const Bytes& b) { return EncodeProbeMessage(*DecodeProbeMessage(Span(b))); };
    cases.push_back(std::move(c));
  }

  return cases;
}

TEST(WireArmorTest, ValidFramesRoundTripExactly) {
  for (const auto& c : AllCodecs()) {
    for (const Bytes& frame : c.valid) {
      ASSERT_TRUE(c.decodes(frame)) << c.name;
      EXPECT_EQ(c.reencode(frame), frame) << c.name;
    }
  }
}

TEST(WireArmorTest, EveryTruncationLengthRejected) {
  for (const auto& c : AllCodecs()) {
    const Bytes& frame = c.valid.front();
    for (size_t n = 0; n < frame.size(); ++n) {
      const Bytes cut(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(n));
      EXPECT_FALSE(c.decodes(cut)) << c.name << " accepted a " << n << "-byte prefix of a "
                                   << frame.size() << "-byte frame";
    }
  }
}

TEST(WireArmorTest, TrailingBytesRejected) {
  for (const auto& c : AllCodecs()) {
    for (const Bytes& frame : c.valid) {
      Bytes padded = frame;
      padded.push_back(0);
      EXPECT_FALSE(c.decodes(padded)) << c.name << " accepted one trailing byte";
      padded.insert(padded.end(), 15, 0xFF);
      EXPECT_FALSE(c.decodes(padded)) << c.name << " accepted trailing garbage";
    }
  }
}

TEST(WireArmorTest, SingleBitFlipsFailOrStayCanonical) {
  for (const auto& c : AllCodecs()) {
    const Bytes& frame = c.valid.front();
    for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
      Bytes mutant = frame;
      mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      if (c.decodes(mutant)) {
        // Accepting a flipped frame is fine only if the decode is canonical:
        // the flipped bit landed in a free-form field, not tolerated garbage.
        EXPECT_EQ(c.reencode(mutant), mutant)
            << c.name << " accepted bit flip " << bit << " non-canonically";
      }
    }
  }
}

TEST(WireArmorTest, OutOfRangeEnumBytesRejected) {
  // Type is byte 1 in every codec (byte 2 for rendezvous, after the version).
  struct EnumProbe {
    size_t codec_index;  // into AllCodecs()
    size_t byte;
    std::vector<uint8_t> bad;
  };
  auto codecs = AllCodecs();
  const std::vector<EnumProbe> probes = {
      {0, 1, {0, 12, 0xFF}},   // nc type (valid 1..11)
      {0, 17, {3, 0xFF}},      // nc verdict (valid 0..2)
      {0, 10, {4, 0xFF}},      // nc server_index (valid 0..3)
      {1, 2, {0, 12, 0xFF}},   // rendezvous type (valid 1..11)
      {1, 3, {0, 6, 0xFF}},    // rendezvous strategy (valid 1..5)
      {3, 1, {0, 7, 0xFF}},    // peer type (valid 1..6)
      {4, 1, {0, 6, 0xFF}},    // turn type (valid 1..5)
      {5, 1, {0, 6, 0xFF}},    // probe type (valid 1..5)
      {5, 16, {3, 0xFF}},      // probe source tag (valid 0..2)
  };
  for (const auto& p : probes) {
    const auto& c = codecs[p.codec_index];
    for (uint8_t v : p.bad) {
      Bytes mutant = c.valid.front();
      ASSERT_LT(p.byte, mutant.size()) << c.name;
      mutant[p.byte] = v;
      EXPECT_FALSE(c.decodes(mutant))
          << c.name << " accepted enum byte " << int(v) << " at offset " << p.byte;
    }
  }
}

TEST(WireArmorTest, RandomGarbageNeverThrows) {
  auto codecs = AllCodecs();
  Rng rng(0x41524d4f52);  // "ARMOR"
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.NextBelow(128));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    // Half the samples get a valid magic so they reach deeper into decode.
    if (!garbage.empty() && rng.NextBool(0.5)) {
      static constexpr uint8_t kMagics[] = {0x52, 0x50, 0x4e, 0x54, 0x51};
      garbage[0] = kMagics[rng.NextBelow(5)];
    }
    for (const auto& c : codecs) {
      EXPECT_NO_THROW({
        if (c.decodes(garbage)) {
          EXPECT_EQ(c.reencode(garbage), garbage) << c.name;
        }
      });
    }
  }
}

// ---------------------------------------------------------------------------
// MessageFramer armor
// ---------------------------------------------------------------------------

TEST(WireArmorFramerTest, ReassemblesAcrossArbitraryChunks) {
  const Bytes body1{1, 2, 3, 4, 5};
  const Bytes body2{};
  const Bytes body3(300, 0xAB);
  Bytes stream;
  for (const Bytes* b : {&body1, &body2, &body3}) {
    const Bytes framed = MessageFramer::Frame(*b);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  for (size_t chunk = 1; chunk <= 7; ++chunk) {
    MessageFramer framer;
    std::vector<Bytes> got;
    for (size_t pos = 0; pos < stream.size(); pos += chunk) {
      const size_t n = std::min(chunk, stream.size() - pos);
      auto out = framer.Append(
          Bytes(stream.begin() + static_cast<ptrdiff_t>(pos),
                stream.begin() + static_cast<ptrdiff_t>(pos + n)));
      got.insert(got.end(), out.begin(), out.end());
    }
    ASSERT_EQ(got.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(got[0], body1);
    EXPECT_EQ(got[1], body2);
    EXPECT_EQ(got[2], body3);
    EXPECT_FALSE(framer.poisoned());
  }
}

TEST(WireArmorFramerTest, OversizeLengthPrefixPoisonsTheStream) {
  MessageFramer framer;
  // A hostile 0xFFFF length prefix: no legitimate message is this large,
  // and buffering toward it would hold 64 KiB hostage per connection.
  Bytes hostile{0xFF, 0xFF};
  hostile.insert(hostile.end(), 32, 0x00);
  auto out = framer.Append(hostile);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(framer.poisoned());
  EXPECT_EQ(framer.oversize_frames(), 1u);
  // Once poisoned the buffer was dropped; even a now-valid frame is not
  // trusted, because the stream lost framing alignment for good.
  auto after = framer.Append(MessageFramer::Frame(Bytes{1, 2, 3}));
  EXPECT_EQ(after.size(), 1u);  // mechanically still parses...
  EXPECT_TRUE(framer.poisoned());  // ...but the owner must tear down
}

TEST(WireArmorFramerTest, FrameAtTheCapIsAcceptedOnePastIsNot) {
  {
    MessageFramer framer;
    const Bytes body(MessageFramer::kDefaultMaxFrame, 0x5A);
    auto out = framer.Append(MessageFramer::Frame(body));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].size(), MessageFramer::kDefaultMaxFrame);
    EXPECT_FALSE(framer.poisoned());
  }
  {
    MessageFramer framer;
    const Bytes body(MessageFramer::kDefaultMaxFrame + 1, 0x5A);
    auto out = framer.Append(MessageFramer::Frame(body));
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(framer.poisoned());
  }
}

// Data-bearing boundaries (TcpP2pStream, the relay-carrying rendezvous
// connection) raise the cap to the u16 prefix's ceiling: a 16 KiB bulk
// chunk — well over the control-plane default — must pass un-poisoned.
// Regression guard: the 8 KiB default once poisoned p2p file transfers.
TEST(WireArmorFramerTest, DataTierCapAcceptsBulkChunks) {
  static_assert(MessageFramer::kMaxDataFrame == 65535,
                "data cap must match the u16 length prefix ceiling");
  MessageFramer framer;
  framer.set_max_frame(MessageFramer::kMaxDataFrame);
  const Bytes chunk(16 * 1024 + 64, 0xC3);  // bulk payload + message header room
  auto out = framer.Append(MessageFramer::Frame(chunk));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], chunk);
  EXPECT_FALSE(framer.poisoned());

  const Bytes max_body(MessageFramer::kMaxDataFrame, 0x3C);
  out = framer.Append(MessageFramer::Frame(max_body));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), MessageFramer::kMaxDataFrame);
  EXPECT_FALSE(framer.poisoned());
}

// ---------------------------------------------------------------------------
// Payload encoders: the send paths build rendezvous and natcheck messages
// straight into a packet payload; the bytes must equal the reference
// ByteWriter encoders over every table frame and every committed fuzz
// corpus input that decodes.
// ---------------------------------------------------------------------------

std::vector<Bytes> CorpusInputs(const std::string& target) {
  std::vector<Bytes> inputs;
  const std::filesystem::path dir = std::filesystem::path(NATPUNCH_FUZZ_CORPUS_DIR) / target;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    inputs.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return inputs;
}

TEST(WireArmorPayloadTest, RendezvousPayloadEncoderMatchesByteWriter) {
  std::vector<Bytes> frames = CorpusInputs("rendezvous_message");
  const size_t corpus_size = frames.size();
  for (const auto& c : AllCodecs()) {
    if (c.name.rfind("rendezvous_message", 0) == 0) {
      frames.insert(frames.end(), c.valid.begin(), c.valid.end());
    }
  }
  size_t compared = 0;
  for (const Bytes& frame : frames) {
    for (const bool obfuscate : {false, true}) {
      const auto msg = DecodeRendezvousMessage(Span(frame), obfuscate);
      if (!msg) {
        continue;
      }
      EXPECT_EQ(EncodeRendezvousMessagePayload(*msg, obfuscate),
                EncodeRendezvousMessage(*msg, obfuscate));
      ++compared;
    }
  }
  EXPECT_GT(corpus_size, 0u);
  EXPECT_GT(compared, 2 * (frames.size() - corpus_size)) << "no corpus input decoded";
}

TEST(WireArmorPayloadTest, NatCheckPayloadEncoderMatchesByteWriter) {
  std::vector<Bytes> frames = CorpusInputs("nc_message");
  const size_t corpus_size = frames.size();
  const std::vector<Bytes> table = AllCodecs().front().valid;
  frames.insert(frames.end(), table.begin(), table.end());
  size_t compared = 0;
  for (const Bytes& frame : frames) {
    const auto msg = DecodeNcMessage(Span(frame));
    if (!msg) {
      continue;
    }
    EXPECT_EQ(EncodeNcMessagePayload(*msg), EncodeNcMessage(*msg));
    ++compared;
  }
  EXPECT_GT(corpus_size, 0u);
  EXPECT_GT(compared, table.size()) << "no corpus input decoded";
}

}  // namespace
}  // namespace natpunch
