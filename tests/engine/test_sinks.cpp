// The sink layer: CSV escaping and NaN formatting as rows pass through
// CsvSink, and the OrderedFlush contract -- cells may complete in any
// order, sinks always observe rows in cell order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/engine/sinks.h"
#include "src/support/assert.h"

namespace opindyn {
namespace engine {
namespace {

/// One block holding `rows`, each cell encoded as a text cell.
RowBlock block_of(const std::vector<std::vector<std::string>>& rows) {
  RowEmitter emitter;
  for (const std::vector<std::string>& row : rows) {
    emitter.row();
    for (const std::string& cell : row) {
      emitter.text(cell);
    }
  }
  return emitter.take();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Sinks, CsvSinkQuotesSeparatorsAndFormatsNan) {
  const std::string path = ::testing::TempDir() + "opindyn_sink_quote.csv";
  CsvSink csv(path);
  csv.begin({"label", "value"});
  csv.row({"plain", "1.5"});
  csv.row({"comma, inside", "2"});
  csv.row({"quote \" inside", "3"});
  csv.row({"newline\ninside", "4"});
  // Scenario number formatting passes NaN through as "nan" (and the
  // engine's fold layer uses NaN only as the no-sample marker, so a
  // "nan" cell in a CSV is always an intentional value).
  std::ostringstream nan_text;
  nan_text << std::nan("");
  csv.row({"missing", nan_text.str()});
  csv.finish();

  const std::string contents = read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(contents,
            "label,value\n"
            "plain,1.5\n"
            "\"comma, inside\",2\n"
            "\"quote \"\" inside\",3\n"
            "\"newline\ninside\",4\n"
            "missing,nan\n");
}

// The silent-failure bugfix: file sinks open their paths at
// construction, so an unopenable --csv / --hist-csv path fails
// immediately with the path in the message -- never a full batch run
// followed by no output and exit 0.
TEST(Sinks, CsvSinkFailsAtConstructionForUnopenablePath) {
  const std::string path =
      ::testing::TempDir() + "missing_dir/out.csv";
  try {
    CsvSink sink(path);
    FAIL() << "construction must throw for an unopenable path";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
}

TEST(Sinks, HistogramSinkFailsAtConstructionForUnopenablePath) {
  HistogramSink::Options options;
  options.csv_path = ::testing::TempDir() + "missing_dir/hist.csv";
  try {
    HistogramSink sink(std::move(options));
    FAIL() << "construction must throw for an unopenable path";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("missing_dir/hist.csv"),
              std::string::npos)
        << error.what();
  }
}

// The construction-time check must be a PROBE, not a truncating open:
// when a run fails after validation (a scenario contract throw
// mid-batch), the previous run's bins must survive -- the file is only
// rewritten inside finish().
TEST(Sinks, HistogramSinkPreservesExistingFileUntilFinish) {
  const std::string path =
      ::testing::TempDir() + "opindyn_hist_keep.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "bin_lo,bin_hi,count\n0,1,7\n";
  }
  {
    HistogramSink::Options options;
    options.csv_path = path;
    HistogramSink sink(std::move(options));
    sink.begin({"value"});
    sink.row({"1.5"});
    // No finish(): the batch "failed" -- the old bins must remain.
  }
  EXPECT_EQ(read_file(path), "bin_lo,bin_hi,count\n0,1,7\n");
  std::remove(path.c_str());
}

TEST(Sinks, HistogramSinkRejectsNonFiniteCells) {
  HistogramSink::Options options;
  options.column = "value";
  HistogramSink sink(std::move(options));
  sink.begin({"replica", "value"});
  sink.row({"0", "1.5"});
  EXPECT_THROW(sink.row({"1", "nan"}), std::runtime_error);
  EXPECT_THROW(sink.row({"2", "inf"}), std::runtime_error);
  try {
    sink.row({"3", "-nan"});
    FAIL() << "a NaN cell must be rejected, not binned";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("value"), std::string::npos)
        << "the diagnostic must name the column: " << error.what();
  }
}

TEST(Sinks, OrderedFlushReleasesRowsInCellOrder) {
  MemorySink memory;
  OrderedFlush flush({&memory}, 4);
  flush.begin({"c"});

  // Cells arrive out of order: 2, 0, 3, 1.
  flush.cell_done(2, block_of({{"cell2"}}));
  EXPECT_EQ(flush.flushed_cells(), 0u);
  EXPECT_TRUE(memory.rows().empty());

  flush.cell_done(0, block_of({{"cell0a"}, {"cell0b"}}));
  EXPECT_EQ(flush.flushed_cells(), 1u);  // 1 flushed, 2 still waits on 1
  ASSERT_EQ(memory.rows().size(), 2u);
  EXPECT_EQ(memory.rows()[0][0], "cell0a");

  flush.cell_done(3, {});  // empty row blocks are fine
  EXPECT_EQ(flush.flushed_cells(), 1u);

  // Releases 1, 2 and the empty 3.
  flush.cell_done(1, block_of({{"cell1"}}));
  EXPECT_EQ(flush.flushed_cells(), 4u);
  flush.finish();

  ASSERT_EQ(memory.rows().size(), 4u);
  EXPECT_EQ(memory.rows()[1][0], "cell0b");
  EXPECT_EQ(memory.rows()[2][0], "cell1");
  EXPECT_EQ(memory.rows()[3][0], "cell2");
  EXPECT_EQ(flush.flushed_rows(), 4);
}

TEST(Sinks, OrderedFlushSurvivesConcurrentCompletion) {
  // Hammer the flush from many threads delivering disjoint cells; the
  // sink must still observe rows in exact cell order.
  constexpr std::size_t kCells = 64;
  MemorySink memory;
  OrderedFlush flush({&memory}, kCells);
  flush.begin({"c"});

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 8; ++w) {
    workers.emplace_back([&flush, w] {
      // Worker w delivers cells w, w+8, w+16, ... in reverse.
      for (std::size_t cell = kCells - 8 + w; cell < kCells; cell -= 8) {
        flush.cell_done(cell, block_of({{std::to_string(cell)}}));
        if (cell < 8) {
          break;
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  flush.finish();

  ASSERT_EQ(memory.rows().size(), kCells);
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    EXPECT_EQ(memory.rows()[cell][0], std::to_string(cell));
  }
}

TEST(Sinks, OrderedFlushRejectsContractViolations) {
  MemorySink memory;
  OrderedFlush flush({&memory}, 2);
  flush.begin({"c"});
  flush.cell_done(0, block_of({{"x"}}));
  EXPECT_THROW(flush.cell_done(0, block_of({{"again"}})), ContractError);
  EXPECT_THROW(flush.cell_done(2, block_of({{"range"}})), ContractError);
  EXPECT_THROW(flush.finish(), ContractError);  // cell 1 never arrived
  flush.cell_done(1, {});
  flush.finish();
  EXPECT_EQ(memory.rows().size(), 1u);
}

TEST(Sinks, OrderedFlushReleasesEachBlockOnceItsPrefixIsDone) {
  MemorySink memory;
  OrderedFlush flush({&memory}, 2);
  flush.begin({"c"});

  flush.deliver(0, 1, block_of({{"0/1"}}));
  EXPECT_TRUE(memory.rows().empty());  // block 0 of cell 0 still runs
  flush.deliver(0, 0, block_of({{"0/0"}}));
  ASSERT_EQ(memory.rows().size(), 2u);  // released before cell 0 closes
  EXPECT_EQ(memory.rows()[0][0], "0/0");
  EXPECT_EQ(memory.rows()[1][0], "0/1");

  // Cell 1's blocks wait until cell 0 is closed: only then is it known
  // that no block 2 of cell 0 will follow.
  flush.deliver(1, 0, block_of({{"1/0"}}));
  EXPECT_EQ(memory.rows().size(), 2u);
  flush.close(0);
  ASSERT_EQ(memory.rows().size(), 3u);
  EXPECT_EQ(memory.rows()[2][0], "1/0");
  EXPECT_EQ(flush.flushed_cells(), 1u);

  // A fold's block follows the cell's streamed blocks and closes it.
  flush.cell_done(1, block_of({{"1/fold"}}));
  flush.finish();
  ASSERT_EQ(memory.rows().size(), 4u);
  EXPECT_EQ(memory.rows()[3][0], "1/fold");
  EXPECT_EQ(flush.flushed_rows(), 4);
}

TEST(Sinks, OrderedFlushRejectsBlockContractViolations) {
  MemorySink memory;
  OrderedFlush flush({&memory}, 2);
  flush.begin({"c"});
  flush.deliver(0, 0, block_of({{"a"}}));
  // Released blocks and pending ones are both "delivered".
  EXPECT_THROW(flush.deliver(0, 0, block_of({{"a"}})), ContractError);
  flush.deliver(0, 2, block_of({{"c"}}));
  EXPECT_THROW(flush.deliver(0, 2, block_of({{"c"}})), ContractError);
  EXPECT_THROW(flush.close(0), ContractError);  // block 1 is missing
  flush.deliver(0, 1, block_of({{"b"}}));
  flush.close(0);
  EXPECT_THROW(flush.close(0), ContractError);
  EXPECT_THROW(flush.deliver(0, 3, block_of({{"d"}})), ContractError);
  EXPECT_THROW(flush.deliver(2, 0, block_of({{"range"}})), ContractError);
  flush.close(1);
  flush.finish();
  EXPECT_EQ(memory.rows().size(), 3u);
}

TEST(Sinks, OrderedFlushRetainsReleasedBlocksInOrder) {
  RowTable table;
  OrderedFlush flush({}, 2, &table);
  flush.begin({"a", "b"});
  flush.cell_done(1, block_of({{"x, y", "2"}}));
  flush.cell_done(0, block_of({{"plain", "1"}, {"q\"uote", ""}}));
  flush.finish();

  ASSERT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.empty());
  std::vector<std::vector<std::string>> rows(table.begin(), table.end());
  EXPECT_EQ(rows, (std::vector<std::vector<std::string>>{
                      {"plain", "1"}, {"q\"uote", ""}, {"x, y", "2"}}));
}

TEST(Sinks, RowTableSkipsEmptyBlocks) {
  RowTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.begin() == table.end());
  table.append(RowBlock{});
  table.append(block_of({{"only"}}));
  table.append(RowBlock{});
  EXPECT_EQ(table.size(), 1u);
  std::size_t seen = 0;
  for (const auto& row : table) {
    EXPECT_EQ(row, std::vector<std::string>{"only"});
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
}

// CsvSink's two entry points share one write path: a block holding
// rows encoded by a RowEmitter and the same rows passed cell by cell to
// row() give identical bytes, quoting included.
TEST(Sinks, CsvSinkWritesBlocksAndRowsIdentically) {
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "1.5"}, {"comma, inside", "2"}, {"quote \" inside", "3"},
      {"newline\ninside", ""}};
  const std::string by_row = ::testing::TempDir() + "opindyn_sink_row.csv";
  const std::string by_block =
      ::testing::TempDir() + "opindyn_sink_block.csv";
  {
    CsvSink csv(by_row);
    csv.begin({"label", "value"});
    for (const auto& row : rows) {
      csv.row(row);
    }
    csv.finish();
  }
  {
    CsvSink csv(by_block);
    csv.begin({"label", "value"});
    csv.block(block_of(rows));
    csv.finish();
  }
  EXPECT_EQ(read_file(by_row), read_file(by_block));
  std::remove(by_row.c_str());
  std::remove(by_block.c_str());
}

// The default RowSink::block parses a block back into exactly the cells
// that were encoded, so table / histogram / memory sinks see the same
// cells the CSV carries.
TEST(Sinks, DefaultBlockPathParsesRowsBackExactly) {
  const std::vector<std::vector<std::string>> rows = {
      {"a", "b,c", "\"d\""}, {"", "", ""}, {"multi\nline", "x", "\"\""}};
  MemorySink memory;
  memory.begin({"1", "2", "3"});
  memory.block(block_of(rows));
  EXPECT_EQ(memory.rows(), rows);
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
