// Unit tests for src/util: Result/Status, Rng, byte serialization.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/inline_vector.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace natpunch {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kAddressInUse, "port 80");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kAddressInUse);
  EXPECT_EQ(s.ToString(), "ADDRESS_IN_USE: port 80");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kAborted); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.code(), ErrorCode::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status(ErrorCode::kTimedOut, "slow");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimedOut);
  EXPECT_EQ(r.status().message(), "slow");
}

TEST(ResultTest, ImplicitErrorCode) {
  Result<std::string> r = ErrorCode::kClosed;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kClosed);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(BytesTest, RoundTripIntegers) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_EQ(r.ReadU16(), 0x1234);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, BigEndianLayout) {
  ByteWriter w;
  w.WriteU32(0x0a000001);  // 10.0.0.1 — address bytes must appear in wire order
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x0a);
  EXPECT_EQ(w.data()[1], 0x00);
  EXPECT_EQ(w.data()[2], 0x00);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(BytesTest, RoundTripStringsAndBytes) {
  ByteWriter w;
  w.WriteString("hole punching");
  w.WriteBytes(Bytes{1, 2, 3});
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadString(), "hole punching");
  EXPECT_EQ(r.ReadBytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.ok());
}

TEST(BytesTest, ShortReadMarksBad) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.data());
  r.ReadU32();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, TruncatedLengthPrefixMarksBad) {
  ByteWriter w;
  w.WriteU16(100);  // claims 100 bytes follow; none do
  ByteReader r(w.data());
  EXPECT_TRUE(r.ReadBytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, EmptyPayloadRoundTrip) {
  ByteWriter w;
  w.WriteBytes(Bytes{});
  ByteReader r(w.data());
  EXPECT_TRUE(r.ReadBytes().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

// Differential check against std::vector: the same pushes, element for
// element, through the inline range, the spill to the heap and several
// doublings, then clear() and refill on the storage already in use.
TEST(InlineVectorTest, MatchesStdVectorAcrossSpillAndClear) {
  struct Item {
    uint64_t key;
    uint32_t value;
  };
  InlineVector<Item, 3> v;
  std::vector<Item> oracle;
  for (int round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < 40; ++i) {
      const Item item{0x1000u * (round + 1) + i, i * 7};
      v.push_back(item);
      oracle.push_back(item);
      ASSERT_EQ(v.size(), oracle.size());
      for (size_t k = 0; k < oracle.size(); ++k) {
        ASSERT_EQ(v[k].key, oracle[k].key) << "round " << round << " size " << v.size();
        ASSERT_EQ(v[k].value, oracle[k].value);
      }
    }
    size_t seen = 0;
    for (const Item& item : v) {
      EXPECT_EQ(item.key, oracle[seen++].key);
    }
    EXPECT_EQ(seen, oracle.size());
    EXPECT_EQ(v.end() - v.begin(), static_cast<ptrdiff_t>(v.size()));
    v.clear();
    oracle.clear();
    EXPECT_EQ(v.size(), 0u);
  }
}

// push_back of one of the vector's own elements at the moment it spills:
// the value must be read before the old storage is released.
TEST(InlineVectorTest, PushBackOfOwnElementAcrossSpill) {
  InlineVector<uint64_t, 2> v;
  v.push_back(11);
  v.push_back(22);
  v.push_back(v[0]);  // spills: v[0] lives in the inline storage being left
  v.push_back(v[2]);
  v.push_back(v[1]);  // grows again: v[1] lives in the heap block being freed
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], 11u);
  EXPECT_EQ(v[1], 22u);
  EXPECT_EQ(v[2], 11u);
  EXPECT_EQ(v[3], 11u);
  EXPECT_EQ(v[4], 22u);
}

}  // namespace
}  // namespace natpunch
