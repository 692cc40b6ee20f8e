/// Benchmark reporting subsystem: the JSON writer's text (golden dumps,
/// bit-exact doubles) and a BenchReport's layout, geomean rollup golden
/// values, the shared --quick/--json/--only flags, and determinism of
/// sampled simulator records (the property that makes recorded baselines
/// exactly reproducible).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bench_common/json.hpp"
#include "bench_common/registry.hpp"
#include "bench_common/report.hpp"
#include "bench_common/reporter.hpp"
#include "kernels/registry.hpp"
#include "sparse/datasets.hpp"

namespace gespmm::bench {
namespace {

BenchRecord make_record(const std::string& bench, const std::string& matrix,
                        double time_ms, double speedup) {
  BenchRecord r;
  r.bench = bench;
  r.device = "gtx1080ti";
  r.matrix = matrix;
  r.algo = "crc";
  r.n = 512;
  r.time_ms = time_ms;
  r.speedup = speedup;
  return r;
}

TEST(Json, DumpMatchesGoldenText) {
  Json inner = Json::array();
  inner.push_back(Json::boolean(true));
  inner.push_back(Json::null());
  inner.push_back(Json::number(-2e3));
  inner.push_back(Json::object());
  Json j = Json::object();
  j.set("b", Json::string("x\n\"y\\\t\x01"));
  j.set("a", Json::number(1.5));
  j.set("c", std::move(inner));
  j.set("b", Json::string("first key stays first"));  // overwrite keeps order
  j.set("e", Json::array());
  EXPECT_EQ(j.dump(),
            R"({"b":"first key stays first","a":1.5,"c":[true,null,-2000,{}],"e":[]})");
  Json esc = Json::object();
  esc.set("k\"ey", Json::string("x\n\"y\\\t\r\x01"));
  EXPECT_EQ(esc.dump(), R"({"k\"ey":"x\n\"y\\\t\r\u0001"})");
  EXPECT_EQ(j.dump(2), R"({
  "b": "first key stays first",
  "a": 1.5,
  "c": [
    true,
    null,
    -2000,
    {}
  ],
  "e": []
})");
}

TEST(Json, EmittedDoublesParseBackToIdenticalBits) {
  // Not exactly representable, tiny, huge, negative, and integral values
  // (integers print without a fraction).
  for (const double v : {0.1234567890123456789, 1.0 / 3.0, -2e-300, 6.02214076e23, 1e15,
                         123456789.0, -0.5, 0.0}) {
    const std::string text = Json::number(v).dump();
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    EXPECT_EQ(end, text.c_str() + text.size()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v)) << text;
  }
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(BenchReport, JsonLayout) {
  BenchReport rep;
  rep.snap_scale = 0.25;
  rep.max_graphs = 64;
  rep.sample_blocks = 1024;
  rep.quick = false;
  rep.records.push_back(make_record("fig8_crc_speedup", "snap-a", 1.25, 1.3));
  BenchRecord wall = make_record("micro_kernels", "cora", 3.5, 0.0);
  wall.device = "host";
  wall.wallclock = true;
  rep.records.push_back(wall);

  const Json j = rep.to_json();
  EXPECT_EQ(j.keys(), (std::vector<std::string>{"schema_version", "options", "records",
                                                "rollups"}));
  EXPECT_EQ(j.get("schema_version").as_number(), BenchReport::kSchemaVersion);
  EXPECT_EQ(j.get("options").dump(),
            R"({"snap_scale":0.25,"max_graphs":64,"sample_blocks":1024,"quick":false})");
  const auto& recs = j.get("records").items();
  ASSERT_EQ(recs.size(), 2u);
  // A zero speedup and a false wallclock are omitted, not written.
  EXPECT_EQ(recs[0].dump(), R"({"bench":"fig8_crc_speedup","device":"gtx1080ti",)"
                            R"("matrix":"snap-a","algo":"crc","n":512,"time_ms":1.25,)"
                            R"("speedup":1.3})");
  EXPECT_EQ(recs[1].dump(), R"({"bench":"micro_kernels","device":"host","matrix":"cora",)"
                            R"("algo":"crc","n":512,"time_ms":3.5,"wallclock":true})");
  EXPECT_EQ(j.get("rollups").items().size(), 2u);
}

TEST(BenchReport, WriteFileWritesTheDump) {
  BenchReport rep;
  rep.snap_scale = 0.05;
  rep.quick = true;
  rep.records.push_back(make_record("fig8_crc_speedup", "snap-a", 2.0, 1.5));
  const std::string path = ::testing::TempDir() + "gespmm_report_write.json";
  ASSERT_TRUE(rep.write_file(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(text, rep.to_json().dump(2) + "\n");
  std::remove(path.c_str());
  EXPECT_FALSE(rep.write_file(::testing::TempDir() + "no-such-dir/report.json"));
}

TEST(BenchReport, GeomeanRollupGoldenValues) {
  BenchReport rep;
  // Times 1, 4 -> geomean 2; speedups 2, 8 -> geomean 4.
  rep.records.push_back(make_record("fig8_crc_speedup", "a", 1.0, 2.0));
  rep.records.push_back(make_record("fig8_crc_speedup", "b", 4.0, 8.0));
  // Baseline-only row (speedup absent) in another group.
  BenchRecord other = make_record("table5_crc_effects", "m65k", 3.0, 0.0);
  other.device = "rtx2080";
  rep.records.push_back(other);

  const auto rolls = rep.rollups();
  ASSERT_EQ(rolls.size(), 2u);  // sorted by (bench, device)
  EXPECT_EQ(rolls[0].bench, "fig8_crc_speedup");
  EXPECT_EQ(rolls[0].device, "gtx1080ti");
  EXPECT_EQ(rolls[0].count, 2);
  EXPECT_NEAR(rolls[0].geomean_time_ms, 2.0, 1e-12);
  EXPECT_NEAR(rolls[0].geomean_speedup, 4.0, 1e-12);
  EXPECT_FALSE(rolls[0].wallclock);
  EXPECT_EQ(rolls[1].bench, "table5_crc_effects");
  EXPECT_EQ(rolls[1].count, 1);
  EXPECT_NEAR(rolls[1].geomean_time_ms, 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(rolls[1].geomean_speedup, 0.0);  // no speedup rows
}

TEST(Options, QuickPreset) {
  char prog[] = "bench";
  char quick[] = "--quick";
  char* argv[] = {prog, quick};
  const auto opt = Options::parse(2, argv);
  EXPECT_TRUE(opt.quick);
  EXPECT_DOUBLE_EQ(opt.snap_scale, 0.05);
  EXPECT_EQ(opt.max_graphs, 4);
  EXPECT_EQ(opt.sample_blocks, 256u);
}

TEST(Options, QuickComposesLeftToRight) {
  char prog[] = "bench";
  char quick[] = "--quick";
  char maxg[] = "--max-graphs=8";
  char* argv[] = {prog, quick, maxg};
  const auto opt = Options::parse(3, argv);
  EXPECT_TRUE(opt.quick);
  EXPECT_EQ(opt.max_graphs, 8);  // later flag widens the preset
}

TEST(Options, JsonAndOnlyFlags) {
  char prog[] = "bench";
  char json[] = "--json=/tmp/out.json";
  char only[] = "--only=fig8_crc_speedup,micro_kernels";
  char* argv[] = {prog, json, only};
  const auto opt = Options::parse(3, argv);
  EXPECT_EQ(opt.json_path, "/tmp/out.json");
  ASSERT_EQ(opt.only.size(), 2u);
  EXPECT_EQ(opt.only[0], "fig8_crc_speedup");
  EXPECT_EQ(opt.only[1], "micro_kernels");
}

TEST(Options, RejectsEmptyJsonPathAndMalformedValues) {
  char prog[] = "bench";
  {
    char bad[] = "--json=";
    char* argv[] = {prog, bad};
    EXPECT_THROW(Options::parse(2, argv), std::invalid_argument);
  }
  {
    char bad[] = "--snap-scale=0.5x";
    char* argv[] = {prog, bad};
    EXPECT_THROW(Options::parse(2, argv), std::invalid_argument);
  }
  {
    char bad[] = "--max-graphs=lots";
    char* argv[] = {prog, bad};
    EXPECT_THROW(Options::parse(2, argv), std::invalid_argument);
  }
  // Negative/zero values would silently record a nonsense protocol
  // (e.g. -1 wrapping to a 2^64-1 sampling budget).
  {
    char bad[] = "--sample-blocks=-256";
    char* argv[] = {prog, bad};
    EXPECT_THROW(Options::parse(2, argv), std::invalid_argument);
  }
  {
    char bad[] = "--snap-scale=0";
    char* argv[] = {prog, bad};
    EXPECT_THROW(Options::parse(2, argv), std::invalid_argument);
  }
}

TEST(Reporter, StampsCurrentBenchId) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const auto opt = Options::parse(1, argv);
  Reporter rep(opt);
  rep.begin_bench("fig8_crc_speedup");
  rep.add("gtx1080ti", "snap-a", "crc", 512, 1.0, 1.2);
  rep.begin_bench("table5_crc_effects");
  rep.add("gtx1080ti", "m65k", "naive", 512, 2.0);
  ASSERT_EQ(rep.report().records.size(), 2u);
  EXPECT_EQ(rep.report().records[0].bench, "fig8_crc_speedup");
  EXPECT_EQ(rep.report().records[1].bench, "table5_crc_effects");
  EXPECT_DOUBLE_EQ(rep.report().snap_scale, opt.snap_scale);
}

/// Two sampled simulator runs with the same seed/policy must produce
/// byte-identical records — the property that makes the committed JSON
/// baseline a meaningful regression reference.
TEST(Determinism, SampledRunsProduceIdenticalRecords) {
  const auto g = sparse::cora().adj;
  auto run_once = [&] {
    char prog[] = "bench";
    char* argv[] = {prog};
    Reporter rep(Options::parse(1, argv));
    rep.begin_bench("determinism_probe");
    for (auto algo : {kernels::SpmmAlgo::Naive, kernels::SpmmAlgo::GeSpMM}) {
      kernels::SpmmRunOptions ro;
      ro.sample = gpusim::SamplePolicy::sampled(64);
      kernels::SpmmProblem p(g, 128);
      const auto res = kernels::run_spmm(algo, p, ro);
      rep.add("gtx1080ti", "cora", kernels::algo_name(algo), 128, res.time_ms());
    }
    return rep.report().to_json().dump(2);
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"determinism_probe\""), std::string::npos);
}

}  // namespace
}  // namespace gespmm::bench
