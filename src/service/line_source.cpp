#include "src/service/line_source.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace opindyn {
namespace service {

LineStatus FdLineSource::next(std::string* line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      line->assign(buffer_, start_, newline - start_);
      start_ = newline + 1;
      scanned_ = start_;
      return LineStatus::line;
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
