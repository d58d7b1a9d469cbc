#include "src/natcheck/messages.h"

namespace natpunch {
namespace {
constexpr uint8_t kMagic = 0x4e;  // 'N'
}  // namespace

Payload EncodeNcMessagePayload(const NcMessage& msg) {
  // EncodeNcMessage's fixed 18-byte layout, stored in place: magic(1)
  // type(1) session(8) server_index(1) ip(4) port(2) verdict(1), big-endian.
  Payload out;
  out.resize(18);
  uint8_t* p = out.data();
  p[0] = kMagic;
  p[1] = static_cast<uint8_t>(msg.type);
  for (int i = 0; i < 8; ++i) {
    p[2 + i] = static_cast<uint8_t>(msg.session >> (56 - 8 * i));
  }
  p[10] = msg.server_index;
  // NOTE: plain, unobfuscated address bytes — see header comment.
  const uint32_t ip = msg.observed.ip.bits();
  for (int i = 0; i < 4; ++i) {
    p[11 + i] = static_cast<uint8_t>(ip >> (24 - 8 * i));
  }
  p[15] = static_cast<uint8_t>(msg.observed.port >> 8);
  p[16] = static_cast<uint8_t>(msg.observed.port);
  p[17] = static_cast<uint8_t>(msg.verdict);
  return out;
}

Bytes EncodeNcMessage(const NcMessage& msg) {
  ByteWriter w;
  w.Reserve(18);  // fixed wire size: magic..verdict below
  w.WriteU8(kMagic);
  w.WriteU8(static_cast<uint8_t>(msg.type));
  w.WriteU64(msg.session);
  w.WriteU8(msg.server_index);
  // NOTE: plain, unobfuscated address bytes — see header comment.
  w.WriteU32(msg.observed.ip.bits());
  w.WriteU16(msg.observed.port);
  w.WriteU8(static_cast<uint8_t>(msg.verdict));
  return w.Take();
}

std::optional<NcMessage> DecodeNcMessage(ConstByteSpan data) {
  ByteReader r(data);
  if (r.ReadU8() != kMagic) {
    return std::nullopt;
  }
  NcMessage msg;
  const uint8_t type = r.ReadU8();
  if (type < static_cast<uint8_t>(NcMsgType::kUdpPing) ||
      type > static_cast<uint8_t>(NcMsgType::kTcpHairpinReply)) {
    return std::nullopt;
  }
  msg.type = static_cast<NcMsgType>(type);
  msg.session = r.ReadU64();
  msg.server_index = r.ReadU8();
  msg.observed.ip = Ipv4Address(r.ReadU32());
  msg.observed.port = r.ReadU16();
  const uint8_t verdict = r.ReadU8();
  // Strict armor: every enum byte validated, the frame consumed exactly.
  // Anything else is attacker-controlled garbage and must decode to nullopt
  // (never crash, never round-trip differently than it arrived).
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  if (verdict > static_cast<uint8_t>(NcProbeVerdict::kRefused)) {
    return std::nullopt;
  }
  if (msg.server_index > 3) {
    return std::nullopt;  // servers are 1..3; 0 = unset in client pings
  }
  msg.verdict = static_cast<NcProbeVerdict>(verdict);
  return msg;
}

}  // namespace natpunch
