// FdLineSource framing over a real pipe: many lines arriving in one
// read(), a 1 MB line split across many reads, and a final unterminated
// line -- each returned exactly once, in order, then eof.  Lines longer
// than kMaxLineBytes are reported once as too_long by both sources, and
// reading resumes at the next line.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/service/line_source.h"

namespace opindyn {
namespace service {
namespace {

/// Writes `data` into a fresh pipe in `chunk`-byte writes from a helper
/// thread (a 1 MB payload outgrows the pipe buffer), closes it, and
/// returns every line FdLineSource yields before eof.
std::vector<std::string> lines_through_pipe(const std::string& data,
                                            std::size_t chunk) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    for (std::size_t at = 0; at < data.size(); at += chunk) {
      const std::size_t size = std::min(chunk, data.size() - at);
      std::size_t put = 0;
      while (put < size) {
        const ssize_t n = ::write(fds[1], data.data() + at + put, size - put);
        ASSERT_GT(n, 0);
        put += static_cast<std::size_t>(n);
      }
    }
    ::close(fds[1]);
  });
  FdLineSource source(fds[0]);
  std::vector<std::string> lines;
  std::string line;
  for (;;) {
    const LineStatus status = source.next(&line);
    if (status == LineStatus::eof) {
      break;
    }
    if (status == LineStatus::line) {
      lines.push_back(line);
    }
  }
  writer.join();
  ::close(fds[0]);
  return lines;
}

TEST(FdLineSource, ManyLinesInOneRead) {
  std::vector<std::string> expected;
  std::string data;
  for (int i = 0; i < 300; ++i) {
    expected.push_back(i % 7 == 0 ? "" : "job " + std::to_string(i));
    data += expected.back() + "\n";
  }
  ASSERT_LT(data.size(), 4096u);  // one write, one read
  EXPECT_EQ(lines_through_pipe(data, data.size()), expected);
}

TEST(FdLineSource, MegabyteLineSplitAcrossReads) {
  const std::string big(1 << 20, 'x');
  const std::string data = "first\n" + big + "\nlast\n";
  // 1000-byte writes: the big line straddles hundreds of reads, and
  // its first and last bytes share reads with neighbouring lines.
  const std::vector<std::string> lines = lines_through_pipe(data, 1000);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_EQ(lines[1], big);
  EXPECT_EQ(lines[2], "last");
}

TEST(FdLineSource, FinalUnterminatedLine) {
  EXPECT_EQ(lines_through_pipe("a\nbb\ntail", 3),
            (std::vector<std::string>{"a", "bb", "tail"}));
  EXPECT_EQ(lines_through_pipe("only", 4096),
            (std::vector<std::string>{"only"}));
  EXPECT_TRUE(lines_through_pipe("", 1).empty());
}

/// What a source yields until eof: each line, or "<too long>".
template <typename Source>
std::vector<std::string> outcomes(Source& source) {
  std::vector<std::string> seen;
  std::string line;
  for (;;) {
    const LineStatus status = source.next(&line);
    if (status == LineStatus::eof) {
      return seen;
    }
    if (status == LineStatus::too_long) {
      seen.push_back("<too long>");
    } else if (status == LineStatus::line) {
      seen.push_back(line);
    }
  }
}

std::vector<std::string> fd_outcomes(const std::string& data,
                                     std::size_t chunk) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    for (std::size_t at = 0; at < data.size(); at += chunk) {
      const std::size_t size = std::min(chunk, data.size() - at);
      std::size_t put = 0;
      while (put < size) {
        const ssize_t n = ::write(fds[1], data.data() + at + put, size - put);
        ASSERT_GT(n, 0);
        put += static_cast<std::size_t>(n);
      }
    }
    ::close(fds[1]);
  });
  FdLineSource source(fds[0]);
  std::vector<std::string> seen = outcomes(source);
  writer.join();
  ::close(fds[0]);
  return seen;
}

std::vector<std::string> stream_outcomes(const std::string& data) {
  std::istringstream in(data);
  StreamLineSource source(in);
  return outcomes(source);
}

// A multi-MB run of bytes with no newline, then a valid job: the long
// line costs one too_long and at most kMaxLineBytes of buffer, and the
// job after it is read intact.
TEST(LineSources, OverLongLineIsDroppedOnceAndReadingResumes) {
  const std::string huge(3 * kMaxLineBytes / 2, 'x');
  const std::string job = "scenario=node n=16";
  const std::string data = "first\n" + huge + "\n" + job + "\n";
  const std::vector<std::string> expected = {"first", "<too long>", job};
  EXPECT_EQ(fd_outcomes(data, 65536), expected);
  EXPECT_EQ(fd_outcomes(data, 4096 * 3 + 7), expected);
  EXPECT_EQ(stream_outcomes(data), expected);
}

TEST(LineSources, UnterminatedOverLongTailEndsWithOneTooLong) {
  const std::string data = "a\n" + std::string(kMaxLineBytes + 1, 'y');
  const std::vector<std::string> expected = {"a", "<too long>"};
  EXPECT_EQ(fd_outcomes(data, 65536), expected);
  EXPECT_EQ(stream_outcomes(data), expected);
}

TEST(LineSources, LineAtTheCapIsStillReturned) {
  const std::string longest(kMaxLineBytes, 'z');
  const std::string data = longest + "\nnext\n";
  const std::vector<std::string> expected = {longest, "next"};
  EXPECT_EQ(fd_outcomes(data, 65536), expected);
  EXPECT_EQ(stream_outcomes(data), expected);
}

TEST(StreamLineSource, FramesLinesLikeGetline) {
  EXPECT_EQ(stream_outcomes("a\n\nbb\ntail"),
            (std::vector<std::string>{"a", "", "bb", "tail"}));
  EXPECT_TRUE(stream_outcomes("").empty());
  EXPECT_EQ(stream_outcomes("\n"), (std::vector<std::string>{""}));
}

}  // namespace
}  // namespace service
}  // namespace opindyn
