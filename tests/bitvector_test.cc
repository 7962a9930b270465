#include <gtest/gtest.h>

#include <cstring>

#include "bitvec/bitvector.h"
#include "bitvec/bitvector_set.h"
#include "common/random.h"

namespace ciao {
namespace {

TEST(BitVectorTest, ConstructionAndBasicOps) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_FALSE(v.Any());
  v.Set(0, true);
  v.Set(64, true);
  v.Set(129, true);
  EXPECT_TRUE(v.Get(0));
  EXPECT_FALSE(v.Get(1));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(129));
  EXPECT_EQ(v.CountOnes(), 3u);
  v.Set(64, false);
  EXPECT_EQ(v.CountOnes(), 2u);
}

TEST(BitVectorTest, AllOnesConstruction) {
  BitVector v(70, true);
  EXPECT_EQ(v.CountOnes(), 70u);
  EXPECT_TRUE(v.All());
  EXPECT_TRUE(v.Any());
}

TEST(BitVectorTest, PushBack) {
  BitVector v;
  for (int i = 0; i < 200; ++i) v.PushBack(i % 3 == 0);
  EXPECT_EQ(v.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(v.Get(i), i % 3 == 0);
}

TEST(BitVectorTest, Rank) {
  BitVector v(100);
  for (size_t i = 0; i < 100; i += 2) v.Set(i, true);
  EXPECT_EQ(v.Rank(0), 0u);
  EXPECT_EQ(v.Rank(1), 1u);
  EXPECT_EQ(v.Rank(10), 5u);
  EXPECT_EQ(v.Rank(100), 50u);
  EXPECT_EQ(v.Rank(1000), 50u);  // clamped
}

TEST(BitVectorTest, AndOrNegate) {
  BitVector a(80), b(80);
  a.Set(3, true);
  a.Set(40, true);
  b.Set(40, true);
  b.Set(70, true);

  BitVector and_v = a;
  ASSERT_TRUE(and_v.AndWith(b).ok());
  EXPECT_EQ(and_v.CountOnes(), 1u);
  EXPECT_TRUE(and_v.Get(40));

  BitVector or_v = a;
  ASSERT_TRUE(or_v.OrWith(b).ok());
  EXPECT_EQ(or_v.CountOnes(), 3u);

  BitVector not_v = a;
  not_v.Negate();
  EXPECT_EQ(not_v.CountOnes(), 78u);
  EXPECT_FALSE(not_v.Get(3));
  EXPECT_TRUE(not_v.Get(4));
}

TEST(BitVectorTest, SizeMismatchErrors) {
  BitVector a(10), b(11);
  EXPECT_TRUE(a.AndWith(b).IsInvalidArgument());
  EXPECT_TRUE(a.OrWith(b).IsInvalidArgument());
  EXPECT_TRUE(a.CompactBy(b).status().IsInvalidArgument());
}

TEST(BitVectorTest, SetBits) {
  BitVector v(130);
  v.Set(0, true);
  v.Set(65, true);
  v.Set(129, true);
  const auto bits = v.SetBits();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 0u);
  EXPECT_EQ(bits[1], 65u);
  EXPECT_EQ(bits[2], 129u);
}

TEST(BitVectorTest, CompactBy) {
  BitVector values(6), mask(6);
  // values: 1 0 1 1 0 1 ; mask keeps indices 0, 2, 4.
  values.Set(0, true);
  values.Set(2, true);
  values.Set(3, true);
  values.Set(5, true);
  mask.Set(0, true);
  mask.Set(2, true);
  mask.Set(4, true);
  auto compacted = values.CompactBy(mask);
  ASSERT_TRUE(compacted.ok());
  ASSERT_EQ(compacted->size(), 3u);
  EXPECT_TRUE(compacted->Get(0));   // values[0]
  EXPECT_TRUE(compacted->Get(1));   // values[2]
  EXPECT_FALSE(compacted->Get(2));  // values[4]
}

TEST(BitVectorTest, SerializeRoundTrip) {
  Rng rng(5);
  for (const size_t n : {0u, 1u, 63u, 64u, 65u, 300u}) {
    BitVector v(n);
    for (size_t i = 0; i < n; ++i) v.Set(i, rng.NextBool());
    std::string buf;
    v.SerializeTo(&buf);
    EXPECT_EQ(buf.size(), BitVector::SerializedBytes(n));
    size_t offset = 0;
    auto decoded = BitVector::Deserialize(buf, &offset);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(offset, buf.size());
    EXPECT_EQ(*decoded, v);
  }
}

TEST(BitVectorTest, DeserializeTruncatedFails) {
  BitVector v(100, true);
  std::string buf;
  v.SerializeTo(&buf);
  size_t offset = 0;
  auto r = BitVector::Deserialize(buf.substr(0, buf.size() - 1), &offset);
  EXPECT_TRUE(r.status().IsCorruption());
  offset = 0;
  EXPECT_TRUE(BitVector::Deserialize("abc", &offset).status().IsCorruption());
}

TEST(BitVectorTest, DeserializeRejectsPaddingGarbage) {
  BitVector v(4);  // one word, 4 declared bits
  std::string buf;
  v.SerializeTo(&buf);
  buf[9] = '\xFF';  // set bits beyond the declared size
  size_t offset = 0;
  EXPECT_TRUE(BitVector::Deserialize(buf, &offset).status().IsCorruption());
}

TEST(BitVectorTest, IntersectAll) {
  BitVector a(8, true), b(8, true), c(8, true);
  b.Set(3, false);
  c.Set(5, false);
  auto r = BitVector::IntersectAll({&a, &b, &c});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOnes(), 6u);
  EXPECT_FALSE(r->Get(3));
  EXPECT_FALSE(r->Get(5));
  EXPECT_TRUE(BitVector::IntersectAll({}).status().IsInvalidArgument());
}

// Property: ops agree with a naive bool-vector reference model.
TEST(BitVectorTest, PropertyAgainstReferenceModel) {
  Rng rng(123);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t n = 1 + rng.NextBounded(200);
    std::vector<bool> ref_a(n), ref_b(n);
    BitVector a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      ref_a[i] = rng.NextBool();
      ref_b[i] = rng.NextBool();
      a.Set(i, ref_a[i]);
      b.Set(i, ref_b[i]);
    }
    size_t expected_ones = 0;
    for (size_t i = 0; i < n; ++i) expected_ones += ref_a[i] ? 1 : 0;
    EXPECT_EQ(a.CountOnes(), expected_ones);

    BitVector and_v = a;
    ASSERT_TRUE(and_v.AndWith(b).ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(and_v.Get(i), ref_a[i] && ref_b[i]);
    }
    const size_t prefix = rng.NextBounded(n + 1);
    size_t expected_rank = 0;
    for (size_t i = 0; i < prefix; ++i) expected_rank += ref_a[i] ? 1 : 0;
    EXPECT_EQ(a.Rank(prefix), expected_rank);
  }
}

// ---------- BitVectorSet ----------

TEST(BitVectorSetTest, UnionAndIntersect) {
  BitVectorSet set(3, 10);
  set.mutable_vector(0)->Set(1, true);
  set.mutable_vector(1)->Set(1, true);
  set.mutable_vector(1)->Set(5, true);
  set.mutable_vector(2)->Set(9, true);

  const BitVector u = set.UnionAll();
  EXPECT_EQ(u.CountOnes(), 3u);  // rows 1, 5, 9

  auto both = set.Intersect({0, 1});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->CountOnes(), 1u);
  EXPECT_TRUE(both->Get(1));

  EXPECT_TRUE(set.Intersect({}).status().IsInvalidArgument());
  EXPECT_TRUE(set.Intersect({7}).status().IsOutOfRange());
}

TEST(BitVectorSetTest, EmptySetUnion) {
  BitVectorSet empty;
  EXPECT_EQ(empty.UnionAll().size(), 0u);
  EXPECT_EQ(empty.num_predicates(), 0u);
  EXPECT_EQ(empty.num_records(), 0u);
}

TEST(BitVectorSetTest, CompactBy) {
  BitVectorSet set(2, 4);
  set.mutable_vector(0)->Set(0, true);
  set.mutable_vector(0)->Set(2, true);
  set.mutable_vector(1)->Set(3, true);
  BitVector mask(4);
  mask.Set(0, true);
  mask.Set(3, true);
  auto compacted = set.CompactBy(mask);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->num_records(), 2u);
  EXPECT_TRUE(compacted->vector(0).Get(0));
  EXPECT_FALSE(compacted->vector(0).Get(1));
  EXPECT_FALSE(compacted->vector(1).Get(0));
  EXPECT_TRUE(compacted->vector(1).Get(1));
}

TEST(BitVectorSetTest, SerializeRoundTrip) {
  Rng rng(7);
  BitVectorSet set(4, 77);
  for (size_t p = 0; p < 4; ++p) {
    for (size_t r = 0; r < 77; ++r) {
      set.mutable_vector(p)->Set(r, rng.NextBool());
    }
  }
  std::string buf;
  set.SerializeTo(&buf);
  size_t offset = 0;
  auto decoded = BitVectorSet::Deserialize(buf, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(*decoded, set);
}

std::string U64Bytes(uint64_t v) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &v, 8);
  return out;
}

std::string U32Bytes(uint32_t v) {
  std::string out(4, '\0');
  std::memcpy(out.data(), &v, 4);
  return out;
}

// Sizes whose word count n / 64 (rounded up) wraps or overruns the
// buffer must fail before any allocation, not yield a vector whose size
// claims ~2^64 bits over zero words.
TEST(BitVectorTest, DeserializeRejectsSizeNearTwoToThe64) {
  for (const uint64_t n :
       {~uint64_t{0}, ~uint64_t{0} - 62, uint64_t{1} << 63}) {
    const std::string buf = U64Bytes(n) + std::string(64, '\0');
    size_t offset = 0;
    EXPECT_TRUE(BitVector::Deserialize(buf, &offset).status().IsCorruption())
        << n;
  }
}

TEST(BitVectorSetTest, DeserializeRejectsCountBeyondBytes) {
  // One real empty vector follows a count of 2^32 - 1.
  const std::string buf = U32Bytes(0xFFFFFFFFu) + U64Bytes(0);
  size_t offset = 0;
  EXPECT_TRUE(
      BitVectorSet::Deserialize(buf, &offset).status().IsCorruption());
}

TEST(BitVectorSetTest, DeserializeTruncatedFails) {
  BitVectorSet set(2, 100);
  std::string buf;
  set.SerializeTo(&buf);
  size_t offset = 0;
  EXPECT_TRUE(BitVectorSet::Deserialize(buf.substr(0, 10), &offset)
                  .status()
                  .IsCorruption());
}

// Tail-word and padding edges of the word-at-a-time kernels: sizes
// straddling the 64-bit word boundary, bits in the partial last word, and
// padding that must stay zero through every word-level operation.
TEST(BitVectorWordOpsTest, WordAccessorsAndPadding) {
  for (const size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    BitVector v(n);
    EXPECT_EQ(v.num_words(), (n + 63) / 64);
    v.Set(n - 1, true);
    EXPECT_EQ(v.CountOnes(), 1u);
    // OrWord on the last word with an in-range bit.
    v.OrWord(v.num_words() - 1, 1ULL << ((n - 1) & 63));
    EXPECT_EQ(v.CountOnes(), 1u);
    // Negate must keep padding clean so SetBits never reports a
    // past-the-end index.
    v.Negate();
    const std::vector<uint32_t> bits = v.SetBits();
    EXPECT_EQ(bits.size(), n - 1);
    for (const uint32_t b : bits) EXPECT_LT(b, n);
  }
}

TEST(BitVectorWordOpsTest, UnionAllTailWords) {
  for (const size_t n : {1u, 63u, 64u, 65u, 130u}) {
    BitVectorSet set(3, n);
    // Distinct bits per vector, including the very last record.
    set.mutable_vector(0)->Set(0, true);
    set.mutable_vector(1)->Set(n / 2, true);
    set.mutable_vector(2)->Set(n - 1, true);
    const BitVector u = set.UnionAll();
    EXPECT_EQ(u.size(), n);
    EXPECT_TRUE(u.Get(0));
    EXPECT_TRUE(u.Get(n / 2));
    EXPECT_TRUE(u.Get(n - 1));
    // Union of all-ones stays clean in the padded tail: negating twice
    // round-trips only if no padding bit leaked.
    size_t expected = 3;
    if (n / 2 == 0) --expected;
    if (n - 1 == n / 2) --expected;
    EXPECT_EQ(u.CountOnes(), expected);
  }
}

TEST(BitVectorWordOpsTest, CompactByTailWords) {
  // Mask straddling word boundaries; compaction output lands in a
  // smaller word count and must preserve order.
  for (const size_t n : {64u, 65u, 129u}) {
    BitVector data(n), mask(n);
    for (size_t i = 0; i < n; i += 2) mask.Set(i, true);
    for (size_t i = 0; i < n; i += 4) data.Set(i, true);
    auto compacted = data.CompactBy(mask);
    ASSERT_TRUE(compacted.ok());
    EXPECT_EQ(compacted->size(), mask.CountOnes());
    // Every second surviving position is set (i % 4 == 0 among i % 2 == 0).
    for (size_t j = 0; j < compacted->size(); ++j) {
      EXPECT_EQ(compacted->Get(j), j % 2 == 0) << "n=" << n << " j=" << j;
    }
  }
  // Empty mask -> empty output; full mask -> identity.
  BitVector data(70);
  data.Set(69, true);
  EXPECT_EQ(data.CompactBy(BitVector(70))->size(), 0u);
  EXPECT_EQ(*data.CompactBy(BitVector(70, true)), data);
}

}  // namespace
}  // namespace ciao
