// Hardware-profile autotuning: versioned JSON round-trip (unknown-field
// tolerance, corrupt-file fallback), crossover derivation (never picks a
// kernel the matrix measured as dominated), the CIAO_DISABLE_SIMD
// forced-fallback knob, the profile-seeded relayout seed, a quick
// calibration smoke pass, and per-client profile re-pricing in the fleet
// allocator.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "client/fleet.h"
#include "common/simd_gate.h"
#include "costmodel/autotune.h"
#include "costmodel/hardware_profile.h"
#include "json/parser.h"
#include "json/writer.h"
#include "matcher/kernels.h"
#include "matcher/multi_pattern.h"
#include "predicate/registry.h"
#include "workload/templates.h"

namespace ciao {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// A fully-populated calibrated profile with distinctive values in every
/// persisted field.
HardwareProfile MakeCalibratedProfile() {
  HardwareProfile p;
  p.name = "unit-test-host";
  p.description = "synthetic calibrated profile";
  p.true_coeffs = {0.001, 0.0002, 0.0003, 0.00004, 0.05};
  p.noise_sigma = 0.01;
  p.stall_probability = 0.002;
  p.stall_factor = 3.0;
  p.calibrated = true;
  p.fit_r_squared = 0.923;
  p.kernel_bench = {
      {"teddy", 8, 4, 0.25, 2400.0},
      {"aho_corasick", 8, 4, 0.25, 350.0},
      {"teddy", 96, 4, 0.25, 90.0},
      {"aho_corasick", 96, 4, 0.25, 340.0},
  };
  p.crossover = {8, 4};
  p.search_kernel_bench = {
      {"std_find", 900.0},
      {"memchr", 1800.0},
      {"horspool", 1200.0},
      {"swar", 2600.0},
  };
  p.tape_parse_mbps = 512.0;
  p.columnar_decode_mbps = 300.0;
  p.bitvector_mbits_per_second = 30000.0;
  p.rewrite_rows_per_second = 750000.0;
  p.cache_probe = {{32, 21000.0}, {4096, 18000.0}};
  return p;
}

void ExpectProfilesEqual(const HardwareProfile& a, const HardwareProfile& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.description, b.description);
  EXPECT_DOUBLE_EQ(a.true_coeffs.k1, b.true_coeffs.k1);
  EXPECT_DOUBLE_EQ(a.true_coeffs.k2, b.true_coeffs.k2);
  EXPECT_DOUBLE_EQ(a.true_coeffs.k3, b.true_coeffs.k3);
  EXPECT_DOUBLE_EQ(a.true_coeffs.k4, b.true_coeffs.k4);
  EXPECT_DOUBLE_EQ(a.true_coeffs.c, b.true_coeffs.c);
  EXPECT_DOUBLE_EQ(a.noise_sigma, b.noise_sigma);
  EXPECT_DOUBLE_EQ(a.stall_probability, b.stall_probability);
  EXPECT_DOUBLE_EQ(a.stall_factor, b.stall_factor);
  EXPECT_EQ(a.calibrated, b.calibrated);
  EXPECT_DOUBLE_EQ(a.fit_r_squared, b.fit_r_squared);
  ASSERT_EQ(a.kernel_bench.size(), b.kernel_bench.size());
  for (size_t i = 0; i < a.kernel_bench.size(); ++i) {
    EXPECT_EQ(a.kernel_bench[i].engine, b.kernel_bench[i].engine);
    EXPECT_EQ(a.kernel_bench[i].num_patterns, b.kernel_bench[i].num_patterns);
    EXPECT_EQ(a.kernel_bench[i].pattern_len, b.kernel_bench[i].pattern_len);
    EXPECT_DOUBLE_EQ(a.kernel_bench[i].selectivity,
                     b.kernel_bench[i].selectivity);
    EXPECT_DOUBLE_EQ(a.kernel_bench[i].mbps, b.kernel_bench[i].mbps);
  }
  EXPECT_EQ(a.crossover.teddy_max_patterns, b.crossover.teddy_max_patterns);
  EXPECT_EQ(a.crossover.teddy_min_len, b.crossover.teddy_min_len);
  ASSERT_EQ(a.search_kernel_bench.size(), b.search_kernel_bench.size());
  for (size_t i = 0; i < a.search_kernel_bench.size(); ++i) {
    EXPECT_EQ(a.search_kernel_bench[i].kernel, b.search_kernel_bench[i].kernel);
    EXPECT_DOUBLE_EQ(a.search_kernel_bench[i].mbps,
                     b.search_kernel_bench[i].mbps);
  }
  EXPECT_DOUBLE_EQ(a.tape_parse_mbps, b.tape_parse_mbps);
  EXPECT_DOUBLE_EQ(a.columnar_decode_mbps, b.columnar_decode_mbps);
  EXPECT_DOUBLE_EQ(a.bitvector_mbits_per_second, b.bitvector_mbits_per_second);
  EXPECT_DOUBLE_EQ(a.rewrite_rows_per_second, b.rewrite_rows_per_second);
  ASSERT_EQ(a.cache_probe.size(), b.cache_probe.size());
  for (size_t i = 0; i < a.cache_probe.size(); ++i) {
    EXPECT_EQ(a.cache_probe[i].size_kb, b.cache_probe[i].size_kb);
    EXPECT_DOUBLE_EQ(a.cache_probe[i].mbps, b.cache_probe[i].mbps);
  }
}

/// Overwrites `key` in place (json::Object is a pair vector and Add
/// appends, so a duplicate key would be shadowed by the original).
void SetField(json::Value* doc, std::string_view key, json::Value v) {
  for (auto& [k, val] : doc->as_object()) {
    if (k == key) {
      val = std::move(v);
      return;
    }
  }
  doc->Add(std::string(key), std::move(v));
}

// ---------- JSON schema round-trip ----------

TEST(ProfileJsonTest, InMemoryRoundTripPreservesEveryField) {
  const HardwareProfile p = MakeCalibratedProfile();
  auto back = ProfileFromJson(ProfileToJson(p));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectProfilesEqual(p, *back);
}

TEST(ProfileJsonTest, SaveLoadRoundTripThroughDisk) {
  const HardwareProfile p = MakeCalibratedProfile();
  const std::string path = TempPath("autotune_roundtrip.json");
  ASSERT_TRUE(SaveProfile(p, path).ok());
  auto back = LoadProfile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectProfilesEqual(p, *back);
  std::remove(path.c_str());
}

TEST(ProfileJsonTest, UnknownFieldsAreTolerated) {
  json::Value doc = ProfileToJson(MakeCalibratedProfile());
  // A future writer may add fields; today's reader must skip them.
  doc.Add("future_extension", json::Value("ignore me"));
  doc.Add("future_number", json::Value(3.14));
  auto back = ProfileFromJson(doc);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name, "unit-test-host");
}

TEST(ProfileJsonTest, OlderSchemaVersionStillParses) {
  json::Value doc = ProfileToJson(MakeCalibratedProfile());
  SetField(&doc, "version", json::Value(1.0));
  EXPECT_TRUE(ProfileFromJson(doc).ok());
}

TEST(ProfileJsonTest, NewerSchemaVersionRejected) {
  json::Value doc = ProfileToJson(MakeCalibratedProfile());
  SetField(&doc, "version", json::Value(99.0));
  EXPECT_FALSE(ProfileFromJson(doc).ok());
}

TEST(ProfileJsonTest, ForeignSchemaRejected) {
  json::Value doc = ProfileToJson(MakeCalibratedProfile());
  SetField(&doc, "schema", json::Value("somebody-elses-format"));
  EXPECT_FALSE(ProfileFromJson(doc).ok());
}

TEST(ProfileJsonTest, CorruptFileFailsCleanly) {
  const std::string path = TempPath("autotune_corrupt.json");
  {
    std::ofstream out(path);
    out << "{\"schema\": \"ciao-hardware-profile\", truncated...";
  }
  EXPECT_FALSE(LoadProfile(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadProfile(path).ok());  // missing file: clean error too
}

// ---------- Crossover derivation ----------

std::vector<KernelBenchPoint> MatrixCell(uint32_t count, uint32_t len,
                                         double teddy_mbps, double ac_mbps) {
  return {{"teddy", count, len, 0.2, teddy_mbps},
          {"aho_corasick", count, len, 0.2, ac_mbps}};
}

void Append(std::vector<KernelBenchPoint>* out,
            std::vector<KernelBenchPoint> cell) {
  out->insert(out->end(), cell.begin(), cell.end());
}

TEST(DeriveKernelCrossoverTest, CleanMonotoneTableNeverPicksDominated) {
  // Teddy wins through 48 patterns, AC from 96 up, at every length.
  std::vector<KernelBenchPoint> bench;
  for (const uint32_t len : {2u, 4u, 8u}) {
    Append(&bench, MatrixCell(4, len, 3000.0, 300.0));
    Append(&bench, MatrixCell(16, len, 2000.0, 310.0));
    Append(&bench, MatrixCell(48, len, 900.0, 320.0));
    Append(&bench, MatrixCell(96, len, 100.0, 330.0));
    Append(&bench, MatrixCell(192, len, 50.0, 340.0));
  }
  const KernelCrossover cx = DeriveKernelCrossover(bench);
  EXPECT_GE(cx.teddy_max_patterns, 48u);
  EXPECT_LT(cx.teddy_max_patterns, 96u);
  EXPECT_EQ(cx.teddy_min_len, 2u);
  // The derived dispatch must pick the measured winner in every cell.
  for (const uint32_t len : {2u, 4u, 8u}) {
    for (const uint32_t count : {4u, 16u, 48u, 96u, 192u}) {
      const bool picks_teddy =
          count <= cx.teddy_max_patterns && len >= cx.teddy_min_len;
      EXPECT_EQ(picks_teddy, count <= 48) << count << "x" << len;
    }
  }
}

TEST(DeriveKernelCrossoverTest, AcDominantTableDisablesTeddy) {
  std::vector<KernelBenchPoint> bench;
  Append(&bench, MatrixCell(8, 4, 100.0, 400.0));
  Append(&bench, MatrixCell(96, 4, 50.0, 400.0));
  EXPECT_EQ(DeriveKernelCrossover(bench).teddy_max_patterns, 0u);
}

TEST(DeriveKernelCrossoverTest, TeddyDominantTableKeepsTeddyEverywhere) {
  std::vector<KernelBenchPoint> bench;
  Append(&bench, MatrixCell(8, 4, 3000.0, 300.0));
  Append(&bench, MatrixCell(192, 4, 800.0, 300.0));
  EXPECT_GE(DeriveKernelCrossover(bench).teddy_max_patterns, 192u);
}

TEST(DeriveKernelCrossoverTest, EmptyOrUncomparableTableKeepsDefaults) {
  EXPECT_EQ(DeriveKernelCrossover({}).teddy_max_patterns,
            KernelCrossover{}.teddy_max_patterns);
  // 1-byte-pattern cells are structurally excluded (never Teddy).
  std::vector<KernelBenchPoint> bench = MatrixCell(8, 1, 9999.0, 1.0);
  EXPECT_EQ(DeriveKernelCrossover(bench).teddy_max_patterns,
            KernelCrossover{}.teddy_max_patterns);
}

TEST(DeriveKernelCrossoverTest, ShortLengthsLosingRaiseMinLen) {
  // Teddy wins at len >= 4 but loses the len-2 cells: the crossover must
  // keep small sets on Teddy while routing short-pattern sets to the DFA.
  std::vector<KernelBenchPoint> bench;
  Append(&bench, MatrixCell(8, 2, 200.0, 400.0));
  Append(&bench, MatrixCell(8, 4, 2500.0, 400.0));
  Append(&bench, MatrixCell(8, 8, 3000.0, 400.0));
  const KernelCrossover cx = DeriveKernelCrossover(bench);
  EXPECT_GE(cx.teddy_max_patterns, 8u);
  EXPECT_EQ(cx.teddy_min_len, 4u);
}

TEST(CrossoverDispatchTest, BuildRespectsExplicitCrossover) {
  std::vector<std::string> patterns = {"alpha", "bravo", "charl"};
  MultiPatternOptions opt;
  opt.has_crossover = true;
  opt.crossover = {0, 2};  // always DFA
  const auto ac = MultiPatternMatcher::Build(patterns, {}, opt);
  EXPECT_EQ(ac.engine(), MultiPatternMatcher::Engine::kAhoCorasick);
  opt.crossover = {64, 2};
  const auto teddy = MultiPatternMatcher::Build(patterns, {}, opt);
  EXPECT_EQ(teddy.engine(), MultiPatternMatcher::Engine::kTeddy);
}

TEST(CrossoverDispatchTest, InstalledProfileDrivesAutoDispatch) {
  auto profile = std::make_shared<HardwareProfile>(MakeCalibratedProfile());
  profile->crossover = {2, 2};  // tiny cutoff: 3 patterns -> DFA
  SetActiveHardwareProfile(profile);
  const auto m =
      MultiPatternMatcher::Build({"alpha", "bravo", "charl"});
  EXPECT_EQ(m.engine(), MultiPatternMatcher::Engine::kAhoCorasick);
  SetActiveHardwareProfile(nullptr);  // restore defaults for other tests
  const auto back = MultiPatternMatcher::Build({"alpha", "bravo", "charl"});
  EXPECT_EQ(back.engine(), MultiPatternMatcher::Engine::kTeddy);
}

// ---------- CIAO_DISABLE_SIMD ----------

TEST(SimdGateTest, ParsesFeatureLists) {
  EXPECT_EQ(ParseSimdDisableList(""), 0u);
  EXPECT_EQ(ParseSimdDisableList("avx2"),
            1u << static_cast<int>(SimdFeature::kAvx2));
  EXPECT_EQ(ParseSimdDisableList("AVX2, ssse3"),
            (1u << static_cast<int>(SimdFeature::kAvx2)) |
                (1u << static_cast<int>(SimdFeature::kSsse3)));
  EXPECT_EQ(ParseSimdDisableList(" sse2 "),
            1u << static_cast<int>(SimdFeature::kSse2));
  EXPECT_EQ(ParseSimdDisableList("pclmul"),
            1u << static_cast<int>(SimdFeature::kPclmul));
  EXPECT_EQ(ParseSimdDisableList("bogus,unknown"), 0u);
  EXPECT_EQ(ParseSimdDisableList("all"),
            ParseSimdDisableList("sse2,ssse3,avx2,pclmul"));
}

TEST(SimdGateTest, MaskForcesScalarKernels) {
  ASSERT_EQ(setenv("CIAO_DISABLE_SIMD", "all", 1), 0);
  ReloadSimdDisableMaskForTest();
  EXPECT_TRUE(SimdFeatureDisabled(SimdFeature::kSse2));
  EXPECT_TRUE(SimdFeatureDisabled(SimdFeature::kSsse3));
  EXPECT_TRUE(SimdFeatureDisabled(SimdFeature::kAvx2));
  EXPECT_TRUE(SimdFeatureDisabled(SimdFeature::kPclmul));

  // Teddy must resolve to its scalar kernel under the mask.
  const auto m = MultiPatternMatcher::Build({"needle", "haystack"});
  ASSERT_EQ(m.engine(), MultiPatternMatcher::Engine::kTeddy);
  EXPECT_EQ(m.engine_name(), "teddy_scalar");
  EXPECT_FALSE(m.simd_active());

  // FindSwar must agree with its portable fallback byte-for-byte.
  const std::string hay =
      "the quick brown fox jumps over the lazy dog and then some";
  for (const std::string needle :
       {"quick", "dog", "zebra", "t", "some", "the"}) {
    for (size_t from = 0; from < 8; ++from) {
      EXPECT_EQ(FindSwar(hay, needle, from),
                FindSwarFallback(hay, needle, from))
          << needle << "@" << from;
    }
  }

  ASSERT_EQ(unsetenv("CIAO_DISABLE_SIMD"), 0);
  ReloadSimdDisableMaskForTest();
  EXPECT_FALSE(SimdFeatureDisabled(SimdFeature::kSse2));
}

// ---------- Substring kernel dispatch ----------

TEST(ResolveSearchKernelTest, MeasuredWinnerOverridesConfigured) {
  HardwareProfile p = MakeCalibratedProfile();
  // MakeCalibratedProfile measures swar fastest (2600 MB/s).
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kStdFind, &p),
            SearchKernel::kSwar);
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kSwar, &p),
            SearchKernel::kSwar);

  // Re-rank: memchr measured fastest -> memchr wins regardless of config.
  for (auto& point : p.search_kernel_bench) {
    if (point.kernel == "memchr") point.mbps = 9000.0;
  }
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kHorspool, &p),
            SearchKernel::kMemchr);
}

TEST(ResolveSearchKernelTest, FallsBackToConfiguredWithoutSignal) {
  // No profile at all.
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kHorspool, nullptr),
            SearchKernel::kHorspool);
  // Uncalibrated profile.
  HardwareProfile p = MakeCalibratedProfile();
  p.calibrated = false;
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kMemchr, &p),
            SearchKernel::kMemchr);
  // Calibrated but no substring sweep (an older profile file).
  p = MakeCalibratedProfile();
  p.search_kernel_bench.clear();
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kStdFind, &p),
            SearchKernel::kStdFind);
  // Foreign kernel names only (a newer profile): skipped, not trusted.
  p.search_kernel_bench = {{"quantum_find", 99999.0}};
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kStdFind, &p),
            SearchKernel::kStdFind);
  // Zero-rate measurements carry no signal either.
  p.search_kernel_bench = {{"swar", 0.0}};
  EXPECT_EQ(ResolveSearchKernel(SearchKernel::kMemchr, &p),
            SearchKernel::kMemchr);
}

// ---------- Relayout seed ----------

TEST(ResolveRewriteSeedTest, ProfilePresentWinsElseConfigured) {
  HardwareProfile p = MakeCalibratedProfile();
  EXPECT_DOUBLE_EQ(ResolveRewriteSeedRps(2.5e5, &p), 750000.0);
  EXPECT_DOUBLE_EQ(ResolveRewriteSeedRps(2.5e5, nullptr), 2.5e5);
  p.rewrite_rows_per_second = 0.0;  // uncalibrated field -> configured
  EXPECT_DOUBLE_EQ(ResolveRewriteSeedRps(2.5e5, &p), 2.5e5);
  EXPECT_DOUBLE_EQ(ResolveRewriteSeedRps(0.0, nullptr), 1.0);  // floor
}

// ---------- Calibration smoke ----------

TEST(CalibrateHostTest, QuickPassProducesConsistentProfile) {
  AutotuneOptions options;
  options.quick = true;
  options.scale = 0.05;  // sub-second smoke pass
  options.name = "smoke";
  auto profile = CalibrateHost(options);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_TRUE(profile->calibrated);
  EXPECT_EQ(profile->name, "smoke");
  EXPECT_FALSE(profile->kernel_bench.empty());
  for (const KernelBenchPoint& p : profile->kernel_bench) {
    EXPECT_GT(p.mbps, 0.0) << p.engine;
  }
  // The substring-kernel sweep covers every dispatchable kernel, so the
  // resolved kernel is always backed by a measurement.
  EXPECT_EQ(profile->search_kernel_bench.size(), AllSearchKernels().size());
  for (const SearchKernelBenchPoint& p : profile->search_kernel_bench) {
    EXPECT_GT(p.mbps, 0.0) << p.kernel;
  }
  EXPECT_GT(profile->tape_parse_mbps, 0.0);
  EXPECT_GT(profile->columnar_decode_mbps, 0.0);
  EXPECT_GT(profile->bitvector_mbits_per_second, 0.0);
  EXPECT_GT(profile->rewrite_rows_per_second, 0.0);
  EXPECT_FALSE(profile->cache_probe.empty());
  // The persisted form round-trips (SaveProfile re-validates internally).
  const std::string path = TempPath("autotune_smoke.json");
  ASSERT_TRUE(SaveProfile(*profile, path).ok());
  auto back = LoadProfile(path);
  ASSERT_TRUE(back.ok());
  ExpectProfilesEqual(*profile, *back);
  std::remove(path.c_str());
}

// ---------- Per-client profile re-pricing ----------

TEST(FleetProfileTest, ClientProfileChangesAffordableSet) {
  // Planned costs price both predicates at 5 µs: a 6 µs budget affords
  // only one. A client whose measured surface is ~100x cheaper affords
  // both — same registry, same budget, different hardware.
  auto pushed = workload::MicroTierPredicates(0.15);
  PredicateRegistry registry;
  ASSERT_TRUE(registry.Register(pushed[0], 0.2, 5.0).ok());
  ASSERT_TRUE(registry.Register(pushed[1], 0.3, 5.0).ok());
  registry.set_matcher_mode(ClientMatcherMode::kPerPattern);
  registry.set_mean_record_len(200.0);

  const BudgetAllocation planned = AllocateForBudget(registry, 6.0);
  EXPECT_EQ(planned.ids.size(), 1u);

  auto fast = std::make_shared<HardwareProfile>(MakeCalibratedProfile());
  fast->true_coeffs = {1e-4, 1e-5, 1e-4, 1e-5, 1e-3};
  const BudgetAllocation repriced =
      AllocateForBudget(registry, 6.0, fast.get());
  EXPECT_EQ(repriced.ids.size(), 2u);

  // An uncalibrated profile must be byte-identical to the planned path.
  auto preset = std::make_shared<HardwareProfile>(LocalServerProfile());
  ASSERT_FALSE(preset->calibrated);
  const BudgetAllocation unchanged =
      AllocateForBudget(registry, 6.0, preset.get());
  EXPECT_EQ(unchanged.ids, planned.ids);
  EXPECT_DOUBLE_EQ(unchanged.cost_us, planned.cost_us);
}

TEST(FleetProfileTest, ProfiledCostModelFallsBackWithoutProfile) {
  SetActiveHardwareProfile(nullptr);
  const CostModel fallback = CostModel::Default();
  const CostModel got = ProfiledCostModel(fallback);
  EXPECT_DOUBLE_EQ(got.PredictUs(0.5, 8.0, 200.0),
                   fallback.PredictUs(0.5, 8.0, 200.0));

  auto profile = std::make_shared<HardwareProfile>(MakeCalibratedProfile());
  SetActiveHardwareProfile(profile);
  const CostModel seeded = ProfiledCostModel(fallback);
  CostModel expect(profile->true_coeffs, profile->fit_r_squared);
  EXPECT_DOUBLE_EQ(seeded.PredictUs(0.5, 8.0, 200.0),
                   expect.PredictUs(0.5, 8.0, 200.0));
  SetActiveHardwareProfile(nullptr);
}

}  // namespace
}  // namespace ciao
