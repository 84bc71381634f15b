#include <gtest/gtest.h>

#include "data/csv_loader.h"
#include "data/libsvm_loader.h"

namespace vfps::data {
namespace {

TEST(CsvLoaderTest, ParsesWithHeaderAndLastColumnLabel) {
  const std::string csv =
      "f1,f2,label\n"
      "1.5,2.5,0\n"
      "3.0,4.0,1\n"
      "5.0,6.0,0\n";
  auto ds = ParseCsv(csv, CsvOptions{});
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_samples(), 3u);
  EXPECT_EQ(ds->num_features(), 2u);
  EXPECT_EQ(ds->num_classes(), 2);
  EXPECT_DOUBLE_EQ(ds->At(1, 1), 4.0);
  EXPECT_EQ(ds->Label(1), 1);
}

TEST(CsvLoaderTest, ExplicitLabelColumn) {
  CsvOptions options;
  options.has_header = false;
  options.label_column = 0;
  auto ds = ParseCsv("1,10.0,20.0\n0,30.0,40.0\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->Label(0), 1);
  EXPECT_DOUBLE_EQ(ds->At(0, 0), 10.0);
}

TEST(CsvLoaderTest, LabelsRemappedDense) {
  CsvOptions options;
  options.has_header = false;
  // Labels -1/+1 must become 0/1.
  auto ds = ParseCsv("1.0,-1\n2.0,1\n3.0,-1\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_classes(), 2);
  EXPECT_EQ(ds->Label(0), 0);
  EXPECT_EQ(ds->Label(1), 1);
}

TEST(CsvLoaderTest, SkipsBlankLines) {
  CsvOptions options;
  options.has_header = false;
  auto ds = ParseCsv("1.0,0\n\n2.0,1\n\n", options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_samples(), 2u);
}

TEST(CsvLoaderTest, RejectsRaggedRows) {
  CsvOptions options;
  options.has_header = false;
  EXPECT_FALSE(ParseCsv("1,2,0\n1,0\n", options).ok());
}

TEST(CsvLoaderTest, RejectsNonNumeric) {
  CsvOptions options;
  options.has_header = false;
  EXPECT_FALSE(ParseCsv("1,abc,0\n", options).ok());
}

TEST(CsvLoaderTest, RejectsNonFiniteValues) {
  CsvOptions options;
  options.has_header = false;
  // Feature cells.
  for (const char* csv : {"1.0,nan,0\n2.0,3.0,1\n", "1.0,2.0,0\n2.0,inf,1\n",
                          "1.0,2.0,0\n-INF,3.0,1\n", "NaN,2.0,0\n"}) {
    auto ds = ParseCsv(csv, options);
    ASSERT_FALSE(ds.ok()) << csv;
    EXPECT_TRUE(ds.status().IsInvalidArgument()) << ds.status().ToString();
    EXPECT_NE(ds.status().message().find("non-finite"), std::string::npos)
        << ds.status().ToString();
  }
  // The message names the line and the column.
  auto bad = ParseCsv("1.0,2.0,0\n2.0,inf,1\n", options);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2 column 1"), std::string::npos)
      << bad.status().ToString();
  // Label cells (last column by default, or an explicit one).
  auto nan_label = ParseCsv("1.0,2.0,nan\n", options);
  ASSERT_FALSE(nan_label.ok());
  EXPECT_NE(nan_label.status().message().find("line 1 column 2"), std::string::npos)
      << nan_label.status().ToString();
  options.label_column = 0;
  EXPECT_FALSE(ParseCsv("inf,1.0,2.0\n", options).ok());
}

TEST(CsvLoaderTest, RejectsEmptyAndMissingFile) {
  EXPECT_FALSE(ParseCsv("", CsvOptions{}).ok());
  EXPECT_TRUE(LoadCsv("/nonexistent/file.csv", CsvOptions{}).status().IsIOError());
}

TEST(LibsvmLoaderTest, ParsesSparseRows) {
  const std::string content =
      "+1 1:0.5 3:1.5\n"
      "-1 2:2.0\n";
  auto ds = ParseLibsvm(content);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_samples(), 2u);
  EXPECT_EQ(ds->num_features(), 3u);  // inferred from max index
  EXPECT_DOUBLE_EQ(ds->At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ds->At(0, 1), 0.0);  // missing -> 0
  EXPECT_DOUBLE_EQ(ds->At(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(ds->At(1, 1), 2.0);
  // -1/+1 remapped to 0/1.
  EXPECT_EQ(ds->Label(0), 1);
  EXPECT_EQ(ds->Label(1), 0);
}

TEST(LibsvmLoaderTest, ExplicitWidthAndComments) {
  auto ds = ParseLibsvm("# comment\n1 1:1.0\n0 1:2.0\n", 5);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_features(), 5u);
}

TEST(LibsvmLoaderTest, RejectsWidthBelowMaxIndex) {
  EXPECT_FALSE(ParseLibsvm("1 7:1.0\n", 3).ok());
}

TEST(LibsvmLoaderTest, RejectsMalformedEntries) {
  EXPECT_FALSE(ParseLibsvm("1 broken\n").ok());
  EXPECT_FALSE(ParseLibsvm("1 0:2.0\n").ok());   // 1-based indices
  EXPECT_FALSE(ParseLibsvm("1 2:abc\n").ok());
  EXPECT_FALSE(ParseLibsvm("\n").ok());          // no rows
}

TEST(LibsvmLoaderTest, RejectsNonFiniteValues) {
  for (const char* content : {"0 1:nan 2:1.0\n1 1:2.0\n", "0 1:1.0\n1 1:inf 2:3.0\n",
                              "0 2:-inf\n", "nan 1:1.0\n", "inf 1:1.0\n"}) {
    auto ds = ParseLibsvm(content);
    ASSERT_FALSE(ds.ok()) << content;
    EXPECT_TRUE(ds.status().IsInvalidArgument()) << ds.status().ToString();
    EXPECT_NE(ds.status().message().find("non-finite"), std::string::npos)
        << ds.status().ToString();
  }
  auto bad = ParseLibsvm("0 1:1.0\n1 1:2.0 4:inf\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2 column 4"), std::string::npos)
      << bad.status().ToString();
  auto bad_label = ParseLibsvm("1 1:1.0\nnan 1:2.0\n");
  ASSERT_FALSE(bad_label.ok());
  EXPECT_NE(bad_label.status().message().find("line 2 label"), std::string::npos)
      << bad_label.status().ToString();
}

TEST(LibsvmLoaderTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadLibsvm("/nonexistent/file.svm").status().IsIOError());
}

}  // namespace
}  // namespace vfps::data
