// Line sources for the serve session loop: one job per line.
//
// StreamLineSource blocks on a std::istream (tests, pipes driven through
// serve_stream).  FdLineSource poll()s a file descriptor and returns
// `tick` every ~100 ms of idleness, so the session loop can notice a
// signal between lines instead of blocking in read().
//
// Both hold at most kMaxLineBytes of one line.  A longer line is
// dropped: the source returns `too_long` once for it, discards its
// bytes as they arrive, and resumes at the line after its newline -- so
// a single huge or unterminated line can neither exhaust memory nor
// wedge the session.
#ifndef OPINDYN_SERVICE_LINE_SOURCE_H
#define OPINDYN_SERVICE_LINE_SOURCE_H

#include <cstddef>
#include <istream>
#include <string>

namespace opindyn {
namespace service {

enum class LineStatus { line, eof, tick, too_long };

/// The longest line (without its '\n') a line source returns; job lines
/// are a few hundred bytes.
inline constexpr std::size_t kMaxLineBytes = std::size_t{2} << 20;

/// Blocking line source for serve_stream (tests, pipes).
class StreamLineSource {
 public:
  explicit StreamLineSource(std::istream& in) : in_(in) {}

  LineStatus next(std::string* line);

 private:
  std::istream& in_;
};

/// poll()-driven line source over a file descriptor.  Linear in the
/// bytes read: each byte is scanned for '\n' once (scanning resumes at
/// `scanned_`), lines are consumed by advancing `start_`, and the
/// consumed prefix is dropped once per read() rather than once per line.
/// A final unterminated line is returned before eof.
class FdLineSource {
 public:
  explicit FdLineSource(int fd) : fd_(fd) {}

  LineStatus next(std::string* line);

 private:
  int fd_;
  std::string buffer_;
  std::size_t start_ = 0;    // first byte of the unconsumed data
  std::size_t scanned_ = 0;  // [start_, scanned_) holds no '\n'
  bool skipping_ = false;    // inside a dropped over-long line
  bool saw_eof_ = false;
};

}  // namespace service
}  // namespace opindyn

#endif  // OPINDYN_SERVICE_LINE_SOURCE_H
