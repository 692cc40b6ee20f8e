/// ASpT and MatrixMarket format tests.

#include <gtest/gtest.h>

#include <sstream>

#include "sparse/aspt.hpp"
#include "sparse/generators.hpp"
#include "sparse/mm_io.hpp"

namespace gespmm::sparse {
namespace {

TEST(Aspt, RoundTripPreservesMatrix) {
  const Csr a = rmat(10, 10.0, 0.5, 0.22, 0.22, 24);
  const auto build = build_aspt(a);
  Csr back = aspt_to_csr(build.matrix);
  Csr sorted = a;
  sorted.sort_rows();
  back.sort_rows();
  EXPECT_EQ(back, sorted);
}

TEST(Aspt, HeavyPlusLightEqualsNnz) {
  const Csr a = rmat(11, 8.0, 0.5, 0.22, 0.22, 25);
  const auto build = build_aspt(a);
  EXPECT_EQ(build.matrix.heavy_nnz + build.matrix.light_nnz, a.nnz());
  EXPECT_GE(build.matrix.heavy_fraction(), 0.0);
  EXPECT_LE(build.matrix.heavy_fraction(), 1.0);
}

TEST(Aspt, ClusteredMatrixYieldsMoreHeavyTilesThanUniform) {
  const Csr clustered = rmat(11, 10.0, 0.6, 0.18, 0.18, 26);
  const Csr uniform = uniform_random(2048, 2048, 20480, 27);
  const double hc = build_aspt(clustered).matrix.heavy_fraction();
  const double hu = build_aspt(uniform).matrix.heavy_fraction();
  EXPECT_GT(hc, hu) << "ASpT reuse only materializes on clustered sparsity";
}

TEST(Aspt, PanelBoundsCoverAllRows) {
  const Csr a = uniform_random(1000, 1000, 5000, 28);
  const auto m = build_aspt(a, {.panel_rows = 64, .heavy_threshold = 4}).matrix;
  index_t covered = 0;
  for (const auto& p : m.panels) {
    EXPECT_EQ(p.row_begin, covered);
    EXPECT_GT(p.row_end, p.row_begin);
    covered = p.row_end;
    EXPECT_EQ(p.heavy_rowptr.size(),
              static_cast<std::size_t>(p.row_end - p.row_begin) + 1);
    EXPECT_EQ(p.light_rowptr.size(), p.heavy_rowptr.size());
    // Heavy column positions reference real tile-local columns.
    for (index_t pos : p.heavy_colpos) {
      EXPECT_LT(static_cast<std::size_t>(pos), p.heavy_cols.size());
    }
  }
  EXPECT_EQ(covered, a.rows);
}

TEST(Aspt, PreprocessTrafficScalesWithNnz) {
  const Csr small = uniform_random(512, 512, 2048, 29);
  const Csr big = uniform_random(512, 512, 8192, 30);
  const auto ts = build_aspt(small).preprocess_traffic_bytes;
  const auto tb = build_aspt(big).preprocess_traffic_bytes;
  EXPECT_GT(tb, ts);
  EXPECT_GT(ts, static_cast<std::uint64_t>(small.nnz()) * 8);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const Csr a = uniform_random(60, 45, 300, 31);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const Csr b = read_matrix_market(ss);
  ASSERT_EQ(b.rows, a.rows);
  ASSERT_EQ(b.cols, a.cols);
  ASSERT_EQ(b.nnz(), a.nnz());
  for (std::size_t p = 0; p < a.val.size(); ++p) {
    EXPECT_EQ(a.colind[p], b.colind[p]);
    EXPECT_NEAR(a.val[p], b.val[p], 1e-5f);
  }
}

TEST(MatrixMarket, ParsesPatternAndSymmetric) {
  const std::string text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n";
  std::istringstream in(text);
  const Csr a = read_matrix_market(in);
  EXPECT_EQ(a.rows, 3);
  EXPECT_EQ(a.nnz(), 3);  // (1,0), (0,1) mirrored, (2,2) diagonal once
}

TEST(MatrixMarket, RejectsMalformedInputs) {
  {
    std::istringstream in("not a matrix\n");
    EXPECT_THROW(read_matrix_market(in), std::runtime_error);
  }
  {
    std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
    EXPECT_THROW(read_matrix_market(in), std::runtime_error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n");
    EXPECT_THROW(read_matrix_market(in), std::runtime_error);  // truncated
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
    EXPECT_THROW(read_matrix_market(in), std::runtime_error);  // field
  }
}

TEST(MatrixMarket, FileRoundTrip) {
  const Csr a = uniform_random(30, 30, 120, 33);
  const std::string path = ::testing::TempDir() + "/gespmm_mm_test.mtx";
  write_matrix_market_file(path, a);
  const Csr b = read_matrix_market_file(path);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"), std::runtime_error);
}

}  // namespace
}  // namespace gespmm::sparse
