// The bench report harness (bench/bench_report.h) is header-only. This
// file compiles it with assertions enabled whatever the build type, to
// check what an assertion-enabled build of a bench does with its report.
#undef NDEBUG

#include "../bench/bench_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace ciao::bench {
namespace {

TEST(BenchReportTest, AssertionEnabledBuildPrintsCellsAndWritesNoFile) {
  const std::string path =
      ::testing::TempDir() + "bench_report_test_BENCH_hotpath.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("CIAO_BENCH_JSON", path.c_str(), /*overwrite=*/1), 0);

  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  MergeIntoReportFile({{"bench_micro_columnar/BM_Decode/int64",
                        {{"items_per_second", 1.5e9}}}});
  const std::string out = ::testing::internal::GetCapturedStdout();
  const std::string err = ::testing::internal::GetCapturedStderr();
  unsetenv("CIAO_BENCH_JSON");

  EXPECT_FALSE(std::filesystem::exists(path)) << path;
  EXPECT_NE(out.find("bench_micro_columnar/BM_Decode/int64"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("items_per_second=1.5e+09"), std::string::npos) << out;
  EXPECT_NE(err.find("NDEBUG"), std::string::npos) << err;
  EXPECT_NE(err.find(path), std::string::npos) << err;
}

// Without CIAO_BENCH_JSON the report sits beside the running
// executable, so a bench run from the repository root leaves the
// checked-in BENCH_hotpath.json alone.
TEST(BenchReportTest, DefaultReportSitsBesideTheExecutable) {
  unsetenv("CIAO_BENCH_JSON");
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe");
  EXPECT_EQ(ReportPath(), (exe.parent_path() / "BENCH_hotpath.json").string());
  EXPECT_TRUE(std::filesystem::path(ReportPath()).is_absolute());

  ASSERT_EQ(setenv("CIAO_BENCH_JSON", "some/dir/report.json", 1), 0);
  EXPECT_EQ(ReportPath(), "some/dir/report.json");
  unsetenv("CIAO_BENCH_JSON");
}

}  // namespace
}  // namespace ciao::bench
