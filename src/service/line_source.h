// Line sources for the serve session loop: one job per line.
//
// StreamLineSource blocks on a std::istream (tests, pipes driven through
// serve_stream).  FdLineSource poll()s a file descriptor and returns
// `tick` every ~100 ms of idleness, so the session loop can notice a
// signal between lines instead of blocking in read().
#ifndef OPINDYN_SERVICE_LINE_SOURCE_H
#define OPINDYN_SERVICE_LINE_SOURCE_H

#include <cstddef>
#include <istream>
#include <string>

namespace opindyn {
namespace service {

enum class LineStatus { line, eof, tick };

/// Blocking line source for serve_stream (tests, pipes).
class StreamLineSource {
 public:
  explicit StreamLineSource(std::istream& in) : in_(in) {}

  LineStatus next(std::string* line) {
    if (std::getline(in_, *line)) {
      return LineStatus::line;
    }
    return LineStatus::eof;
  }

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
  bool saw_eof_ = false;
};

}  // namespace service
}  // namespace opindyn

#endif  // OPINDYN_SERVICE_LINE_SOURCE_H
