#include "src/service/line_source.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <streambuf>

namespace opindyn {
namespace service {

LineStatus StreamLineSource::next(std::string* line) {
  using traits = std::istream::traits_type;
  line->clear();
  std::streambuf* const in = in_.rdbuf();
  bool any = false;
  bool too_long = false;
  for (;;) {
    const traits::int_type c = in->sbumpc();
    if (traits::eq_int_type(c, traits::eof())) {
      if (!any) {
        return LineStatus::eof;
      }
      break;  // a final unterminated line
    }
    any = true;
    if (traits::to_char_type(c) == '\n') {
      break;
    }
    if (too_long) {
      continue;
    }
    if (line->size() == kMaxLineBytes) {
      too_long = true;
      std::string().swap(*line);
      continue;
    }
    line->push_back(traits::to_char_type(c));
  }
  return too_long ? LineStatus::too_long : LineStatus::line;
}

LineStatus FdLineSource::next(std::string* line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      const std::size_t begin = start_;
      start_ = newline + 1;
      scanned_ = start_;
      if (skipping_) {
        skipping_ = false;  // the dropped line ends here
        continue;
      }
      if (newline - begin > kMaxLineBytes) {
        return LineStatus::too_long;
      }
      line->assign(buffer_, begin, newline - begin);
      return LineStatus::line;
    }
    if (skipping_) {
      // More of a dropped line: discard it as it arrives.
      buffer_.clear();
      start_ = 0;
    } else if (buffer_.size() - start_ > kMaxLineBytes) {
      buffer_.clear();
      start_ = 0;
      skipping_ = true;
      scanned_ = 0;
      return LineStatus::too_long;
    }
    scanned_ = buffer_.size();
    if (saw_eof_) {
      if (start_ < buffer_.size()) {
        // Final unterminated line.
        line->assign(buffer_, start_);
        buffer_.clear();
        start_ = 0;
        scanned_ = 0;
        return LineStatus::line;
      }
      return LineStatus::eof;
    }
    pollfd poller{};
    poller.fd = fd_;
    poller.events = POLLIN;
    const int ready = ::poll(&poller, 1, 100);
    if (ready == 0) {
      return LineStatus::tick;
    }
    if (ready < 0) {
      if (errno == EINTR) {
        return LineStatus::tick;
      }
      throw std::runtime_error(std::string("poll(): ") +
                               std::strerror(errno));
    }
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("read(): ") +
                               std::strerror(errno));
    }
    if (got == 0) {
      saw_eof_ = true;
      continue;
    }
    // Drop the consumed lines before growing the buffer: what moves is
    // only the partial line after them, and it moves at most once
    // before its own '\n' arrives.
    if (start_ > 0) {
      buffer_.erase(0, start_);
      scanned_ -= start_;
      start_ = 0;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

}  // namespace service
}  // namespace opindyn
