// Buffered line-at-a-time IO over a file descriptor. The NDJSON wire
// protocol (tools/serve_wire.h) speaks through this on both sides —
// stdin/stdout streams and connected TCP sockets alike — and the
// cluster router (src/cluster) reuses it for its backend channels, so
// it lives here rather than in tools/.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <string>
#include <string_view>

namespace iph::support {

class LineChannel {
 public:
  explicit LineChannel(int in_fd, int out_fd) : in_(in_fd), out_(out_fd) {}

  /// Next '\n'-terminated line (terminator stripped). At EOF a final
  /// unterminated line is yielded once. False on EOF/error. Each byte is
  /// searched once: a scan resumes where the last one stopped, so a line
  /// that arrives over many reads costs time linear in its length.
  bool read_line(std::string* line) {
    for (;;) {
      if (const auto nl = buf_.find('\n', scanned_); nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buf_.size();
      char chunk[4096];
      ssize_t got;
      do {
        got = ::read(in_, chunk, sizeof chunk);
      } while (got < 0 && errno == EINTR);
      if (got <= 0) {
        if (buf_.empty()) return false;
        line->swap(buf_);
        buf_.clear();
        scanned_ = 0;
        return true;
      }
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Write `s` plus '\n', riding out partial writes. False on error.
  bool write_line(std::string_view s) {
    std::string msg(s);
    msg.push_back('\n');
    std::size_t off = 0;
    while (off < msg.size()) {
      ssize_t put;
      do {
        put = ::write(out_, msg.data() + off, msg.size() - off);
      } while (put < 0 && errno == EINTR);
      if (put <= 0) return false;
      off += static_cast<std::size_t>(put);
    }
    return true;
  }

 private:
  int in_;
  int out_;
  std::string buf_;
  /// buf_[0, scanned_) holds no '\n'.
  std::size_t scanned_ = 0;
};

}  // namespace iph::support
