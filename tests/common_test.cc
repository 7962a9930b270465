#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>

#include "common/crc32.h"
#include "common/matrix.h"
#include "common/random.h"
#include "common/simd_gate.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace ciao {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad bytes");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "bad bytes");
  EXPECT_EQ(s.ToString(), "Corruption: bad bytes");
}

TEST(StatusTest, AllFactoriesProduceMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Unsupported("x").IsUnsupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IOError("disk gone").WithContext("loading chunk 3");
  EXPECT_EQ(s.message(), "loading chunk 3: disk gone");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(Status().WithContext("ignored").ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CIAO_ASSIGN_OR_RETURN(int h, Half(x));
  CIAO_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());  // 6/2=3 is odd
  EXPECT_TRUE(Quarter(5).status().IsInvalidArgument());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, GeometricCapped) {
  Rng rng(19);
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextGeometric(0.5, 10);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 10);
  }
  EXPECT_EQ(rng.NextGeometric(1.0, 10), 0);
  EXPECT_EQ(rng.NextGeometric(0.0, 10), 10);
}

TEST(RngTest, IdentifierAlphabet) {
  Rng rng(23);
  const std::string id = rng.NextIdentifier(32);
  EXPECT_EQ(id.size(), 32u);
  for (char c : id) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfSamplerTest, PmfSumsToOneAndDecreases) {
  ZipfSampler zipf(50, 1.5);
  double sum = 0.0;
  for (size_t i = 0; i < 50; ++i) {
    sum += zipf.Pmf(i);
    if (i > 0) EXPECT_LE(zipf.Pmf(i), zipf.Pmf(i - 1));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, EmpiricalMatchesPmf) {
  ZipfSampler zipf(10, 1.2);
  Rng rng(37);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), zipf.Pmf(k), 0.01);
  }
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(4, 0.0);
  for (size_t k = 0; k < 4; ++k) EXPECT_NEAR(zipf.Pmf(k), 0.25, 1e-12);
}

TEST(HashMixTest, DeterministicAndSpread) {
  EXPECT_EQ(HashMix64(42), HashMix64(42));
  EXPECT_NE(HashMix64(42), HashMix64(43));
}

// ---------- Stats ----------

TEST(StatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(StatsTest, SkewnessZeroForUniformCounts) {
  EXPECT_EQ(SkewnessFactor({1, 1, 1, 1}), 0.0);
  EXPECT_EQ(SkewnessFactor({5}), 0.0);
}

TEST(StatsTest, SkewnessMatchesPaperFormulaByHand) {
  // X = [5,1,1,1,1,1]: mean 10/6, sigma via /N, denominator (N-1)*sigma^3.
  const std::vector<double> xs = {5, 1, 1, 1, 1, 1};
  const double mean = 10.0 / 6.0;
  double sigma2 = 0.0, cube = 0.0;
  for (double x : xs) {
    sigma2 += (x - mean) * (x - mean);
    cube += std::pow(x - mean, 3);
  }
  sigma2 /= 6.0;
  const double expected = cube / (5.0 * std::pow(std::sqrt(sigma2), 3));
  EXPECT_NEAR(SkewnessFactor(xs), expected, 1e-12);
  EXPECT_NEAR(SkewnessFactor(xs), 2.14, 0.01);
}

TEST(StatsTest, SkewnessSign) {
  EXPECT_GT(SkewnessFactor({10, 1, 1, 1, 1}), 0.0);   // right-skewed
  EXPECT_LT(SkewnessFactor({10, 10, 10, 10, 1}), 0.0);  // left-skewed
}

TEST(StatsTest, RSquaredPerfectAndPoor) {
  std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RSquared(y, y), 1.0);
  std::vector<double> mean_pred = {2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(RSquared(y, mean_pred), 0.0, 1e-12);
}

TEST(StatsTest, RSquaredDegenerateCases) {
  EXPECT_EQ(RSquared({}, {}), 0.0);
  EXPECT_EQ(RSquared({1, 2}, {1}), 0.0);
  EXPECT_EQ(RSquared({3, 3, 3}, {3, 3, 3}), 1.0);  // constant, perfect
  EXPECT_EQ(RSquared({3, 3, 3}, {3, 3, 4}), 0.0);  // constant, imperfect
}

TEST(StatsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(RunningStatsTest, MatchesBatchStats) {
  std::vector<double> xs = {3.5, -1.0, 7.25, 0.0, 2.5};
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), Variance(xs), 1e-12);
  EXPECT_EQ(rs.min(), -1.0);
  EXPECT_EQ(rs.max(), 7.25);
  EXPECT_NEAR(rs.sum(), 12.25, 1e-12);
}

// ---------- Matrix / least squares ----------

TEST(MatrixTest, SolveLinearSystem) {
  Matrix a(2, 2);
  a.At(0, 0) = 2;
  a.At(0, 1) = 1;
  a.At(1, 0) = 1;
  a.At(1, 1) = 3;
  auto x = SolveLinearSystem(a, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-9);
  EXPECT_NEAR((*x)[1], 3.0, 1e-9);
}

TEST(MatrixTest, SingularMatrixFails) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 4;
  EXPECT_TRUE(SolveLinearSystem(a, {1, 2}).status().IsInternal());
}

TEST(MatrixTest, ShapeMismatchFails) {
  Matrix a(2, 3);
  EXPECT_TRUE(SolveLinearSystem(a, {1, 2}).status().IsInvalidArgument());
}

TEST(MatrixTest, LeastSquaresRecoversCoefficients) {
  // y = 3*x0 - 2*x1 + 0.5, exactly.
  Rng rng(41);
  Matrix x(50, 3);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    const double x0 = rng.NextDouble() * 10;
    const double x1 = rng.NextDouble() * 5;
    x.At(i, 0) = x0;
    x.At(i, 1) = x1;
    x.At(i, 2) = 1.0;
    y[i] = 3 * x0 - 2 * x1 + 0.5;
  }
  auto beta = LeastSquares(x, y);
  ASSERT_TRUE(beta.ok());
  EXPECT_NEAR((*beta)[0], 3.0, 1e-6);
  EXPECT_NEAR((*beta)[1], -2.0, 1e-6);
  EXPECT_NEAR((*beta)[2], 0.5, 1e-6);
}

TEST(MatrixTest, LeastSquaresUnderdeterminedFails) {
  Matrix x(2, 3);
  EXPECT_FALSE(LeastSquares(x, {1, 2}).ok());
}

// ---------- CRC32 ----------

TEST(Crc32Test, KnownVector) {
  // The canonical IEEE test vector.
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, SeedChaining) {
  const std::string a = "hello ", b = "world";
  const uint32_t whole = Crc32(a + b);
  const uint32_t chained = Crc32(b.data(), b.size(), Crc32(a));
  EXPECT_EQ(whole, chained);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const uint32_t before = Crc32(data);
  data[3] ^= 1;
  EXPECT_NE(before, Crc32(data));
}

/// Sets CIAO_DISABLE_SIMD for the scope and restores the previous value
/// (the forced-fallback CI leg runs this suite with the variable set).
class ScopedSimdMask {
 public:
  explicit ScopedSimdMask(const char* list) {
    if (const char* old = std::getenv("CIAO_DISABLE_SIMD")) old_ = old;
    setenv("CIAO_DISABLE_SIMD", list, 1);
    ReloadSimdDisableMaskForTest();
  }
  ~ScopedSimdMask() {
    if (old_) {
      setenv("CIAO_DISABLE_SIMD", old_->c_str(), 1);
    } else {
      unsetenv("CIAO_DISABLE_SIMD");
    }
    ReloadSimdDisableMaskForTest();
  }
  ScopedSimdMask(const ScopedSimdMask&) = delete;
  ScopedSimdMask& operator=(const ScopedSimdMask&) = delete;

 private:
  std::optional<std::string> old_;
};

/// Crc32 with the carry-less-multiply kernel masked: slicing-by-8 only.
uint32_t ScalarCrc32(const void* data, size_t len, uint32_t seed) {
  ScopedSimdMask mask("pclmul");
  return Crc32(data, len, seed);
}

/// Deterministic test bytes (splitmix64), independent of the library RNG
/// so the known answers below stay fixed.
std::string PatternBytes(size_t n, uint64_t state) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    out[i] = static_cast<char>((z ^ (z >> 31)) & 0xFF);
  }
  return out;
}

// The kernel takes inputs of 64 bytes and more in 16-byte blocks; every
// length across those boundaries, at every alignment, must agree with
// slicing-by-8.
TEST(Crc32Test, DispatchedMatchesScalarAtEveryLengthAndAlignment) {
  const std::string buf = PatternBytes(300 + 16, 3);
  Rng rng(17);
  for (size_t align = 0; align < 16; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      const char* p = buf.data() + align;
      ASSERT_EQ(Crc32(p, len, seed), ScalarCrc32(p, len, seed))
          << "len " << len << " align " << align << " seed " << seed;
    }
  }
}

TEST(Crc32Test, ChainedSplitAtEveryOffset) {
  const std::string buf = PatternBytes(300, 5);
  const uint32_t whole = Crc32(buf);
  ASSERT_EQ(whole, ScalarCrc32(buf.data(), buf.size(), 0));
  for (size_t k = 0; k <= buf.size(); ++k) {
    const uint32_t head = Crc32(buf.data(), k, 0);
    EXPECT_EQ(Crc32(buf.data() + k, buf.size() - k, head), whole) << k;
    const uint32_t scalar_head = ScalarCrc32(buf.data(), k, 0);
    EXPECT_EQ(ScalarCrc32(buf.data() + k, buf.size() - k, scalar_head), whole)
        << k;
  }
}

TEST(Crc32Test, DispatchedMatchesScalarOnOneMebibyte) {
  const std::string buf = PatternBytes(1 << 20, 7);
  EXPECT_EQ(Crc32(buf), ScalarCrc32(buf.data(), buf.size(), 0));
  EXPECT_EQ(Crc32(buf.data() + 1, buf.size() - 9, 0xDEADBEEFu),
            ScalarCrc32(buf.data() + 1, buf.size() - 9, 0xDEADBEEFu));
}

// Known answers computed with the slicing-by-8 implementation that wrote
// every existing file and frame, so a kernel wrong in both dispatch modes
// still fails here.
TEST(Crc32Test, KnownAnswersOnLargeBuffers) {
  const std::string mib = PatternBytes(1 << 20, 1);
  std::string text;
  while (text.size() < 1000) text += "client-assisted data loading ";
  text.resize(1000);
  const std::string zeros(64 << 10, '\0');
  const std::string ones(4096, '\xFF');
  for (const char* mask : {"", "pclmul"}) {
    ScopedSimdMask scope(mask);
    EXPECT_EQ(Crc32(mib), 0x7A1C8E46u) << mask;
    EXPECT_EQ(Crc32(mib.data() + 3, (128 << 10) + 7, 0x12345678u),
              0xE37F7933u)
        << mask;
    EXPECT_EQ(Crc32(zeros), 0xD7978EEBu) << mask;
    EXPECT_EQ(Crc32(ones), 0xF154670Au) << mask;
    EXPECT_EQ(Crc32(text), 0x673CFC7Eu) << mask;
  }
}

// ---------- string_util ----------

TEST(StringUtilTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, JoinAndContains) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_TRUE(Contains("hello world", "lo wo"));
  EXPECT_FALSE(Contains("hello", "world"));
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(ZeroPad2(3), "03");
  EXPECT_EQ(ZeroPad2(42), "42");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(10), "10.0 B");
}

TEST(StringUtilTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
}

// ---------- Timer ----------

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(w.ElapsedNanos(), 0u);
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double total = 0.0;
  {
    ScopedTimer t(&total);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  const double after_first = total;
  EXPECT_GT(after_first, 0.0);
  {
    ScopedTimer t(&total);
  }
  EXPECT_GE(total, after_first);
}

}  // namespace
}  // namespace ciao
