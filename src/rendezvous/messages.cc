#include "src/rendezvous/messages.h"

#include <cstring>

namespace natpunch {
namespace {

constexpr uint8_t kMagic = 0x52;  // 'R'
constexpr uint8_t kVersion = 2;  // v2 added the server epoch field

void WriteEndpoint(ByteWriter& w, const Endpoint& ep, bool obfuscate) {
  const Ipv4Address ip = obfuscate ? ep.ip.Complement() : ep.ip;
  w.WriteU32(ip.bits());
  w.WriteU16(ep.port);
}

Endpoint ReadEndpoint(ByteReader& r, bool obfuscate) {
  Ipv4Address ip(r.ReadU32());
  if (obfuscate) {
    ip = ip.Complement();
  }
  const uint16_t port = r.ReadU16();
  return Endpoint(ip, port);
}

// Big-endian store of the low `bytes` bytes of `v` at `p`; returns the end.
uint8_t* Put(uint8_t* p, uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    *p++ = static_cast<uint8_t>(v >> (8 * i));
  }
  return p;
}

uint8_t* PutEndpoint(uint8_t* p, const Endpoint& ep, bool obfuscate) {
  const Ipv4Address ip = obfuscate ? ep.ip.Complement() : ep.ip;
  p = Put(p, ip.bits(), 4);
  return Put(p, ep.port, 2);
}

}  // namespace

Payload EncodeRendezvousMessagePayload(const RendezvousMessage& msg, bool obfuscate_addresses,
                                       uint64_t epoch) {
  // The ByteWriter layout of EncodeRendezvousMessage, stored in place: a
  // keepalive or ack (no payload) is 50 bytes and stays inline.
  const auto len = static_cast<uint16_t>(msg.payload.size());
  Payload out;
  out.resize(50 + static_cast<size_t>(len));
  uint8_t* p = out.data();
  p = Put(p, kMagic, 1);
  p = Put(p, kVersion, 1);
  p = Put(p, static_cast<uint8_t>(msg.type), 1);
  p = Put(p, static_cast<uint8_t>(msg.strategy), 1);
  p = Put(p, msg.client_id, 8);
  p = Put(p, msg.target_id, 8);
  p = Put(p, msg.nonce, 8);
  p = Put(p, epoch, 8);
  p = PutEndpoint(p, msg.public_ep, obfuscate_addresses);
  p = PutEndpoint(p, msg.private_ep, obfuscate_addresses);
  p = Put(p, len, 2);
  if (len > 0) {
    std::memcpy(p, msg.payload.data(), len);
  }
  return out;
}

Bytes EncodeRendezvousMessage(const RendezvousMessage& msg, bool obfuscate_addresses) {
  ByteWriter w;
  w.Reserve(50 + msg.payload.size());  // fixed header fields + length-prefixed payload
  w.WriteU8(kMagic);
  w.WriteU8(kVersion);
  w.WriteU8(static_cast<uint8_t>(msg.type));
  w.WriteU8(static_cast<uint8_t>(msg.strategy));
  w.WriteU64(msg.client_id);
  w.WriteU64(msg.target_id);
  w.WriteU64(msg.nonce);
  w.WriteU64(msg.epoch);
  WriteEndpoint(w, msg.public_ep, obfuscate_addresses);
  WriteEndpoint(w, msg.private_ep, obfuscate_addresses);
  w.WriteBytes(msg.payload);
  return w.Take();
}

std::optional<RendezvousMessage> DecodeRendezvousMessage(ConstByteSpan data,
                                                         bool obfuscate_addresses) {
  ByteReader r(data);
  if (r.ReadU8() != kMagic || r.ReadU8() != kVersion) {
    return std::nullopt;
  }
  RendezvousMessage msg;
  const uint8_t type = r.ReadU8();
  if (type < static_cast<uint8_t>(RvMsgType::kRegister) ||
      type > static_cast<uint8_t>(RvMsgType::kKeepAliveAck)) {
    return std::nullopt;
  }
  msg.type = static_cast<RvMsgType>(type);
  const uint8_t strategy = r.ReadU8();
  if (strategy < static_cast<uint8_t>(ConnectStrategy::kHolePunch) ||
      strategy > static_cast<uint8_t>(ConnectStrategy::kPredicted)) {
    return std::nullopt;
  }
  msg.strategy = static_cast<ConnectStrategy>(strategy);
  msg.client_id = r.ReadU64();
  msg.target_id = r.ReadU64();
  msg.nonce = r.ReadU64();
  msg.epoch = r.ReadU64();
  msg.public_ep = ReadEndpoint(r, obfuscate_addresses);
  msg.private_ep = ReadEndpoint(r, obfuscate_addresses);
  msg.payload = r.ReadBytes();
  // Trailing bytes after the payload mean the frame is not ours (or was
  // spliced by an attacker); strict armor rejects rather than guesses.
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return msg;
}

Bytes MessageFramer::Frame(ConstByteSpan body) {
  ByteWriter w;
  w.Reserve(2 + body.size());
  w.WriteU16(static_cast<uint16_t>(body.size()));
  w.WriteRaw(body.data(), body.size());
  return w.Take();
}

std::vector<Bytes> MessageFramer::Append(const Bytes& data) {
  std::vector<Bytes> out;
  Append(ConstByteSpan(data),
         [&out](ConstByteSpan body) { out.emplace_back(body.begin(), body.end()); });
  return out;
}

}  // namespace natpunch
