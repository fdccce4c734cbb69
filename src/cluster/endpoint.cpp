#include "cluster/endpoint.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <thread>

#include "cluster/protocol.h"
#include "support/linechan.h"

namespace iph::cluster {

namespace {

// Signal handling: flip a flag and shut the listening socket down so the
// blocking accept() returns (both are async-signal-safe). The signal may
// land on any of the server's threads; closing the socket there would
// not wake an accept() blocked on the main thread, shutting it down does.
std::atomic<bool> g_stop{false};
int g_listen_fd = -1;

void on_signal(int) {
  g_stop.store(true);
  if (g_listen_fd >= 0) ::shutdown(g_listen_fd, SHUT_RDWR);
}

void report_errno(const char* tool, const char* what) {
  std::fprintf(stderr, "%s: %s: %s\n", tool, what, std::strerror(errno));
}

}  // namespace

bool parse_endpoint(const std::string& s, Endpoint* out) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  int port = 0;
  if (!parse_number(std::string_view(s).substr(colon + 1), 1, 65535, &port)) {
    return false;
  }
  out->host = s.substr(0, colon);
  out->port = port;
  return true;
}

bool parse_endpoint_list(const std::string& csv,
                         std::vector<Endpoint>* out) {
  out->clear();
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const auto comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    Endpoint ep;
    if (!parse_endpoint(item, &ep)) return false;
    out->push_back(ep);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

int dial(const Endpoint& ep) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  if (::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

bool round_trip(const Endpoint& ep, const std::string& line,
                std::string* reply) {
  const int fd = dial(ep);
  if (fd < 0) return false;
  support::LineChannel ch(fd, fd);
  const bool ok = ch.write_line(line) && ch.read_line(reply);
  ::close(fd);
  return ok;
}

bool scrape_statz(const Endpoint& ep, stats::RegistrySnapshot* out,
                  std::string* err) {
  std::string reply;
  if (!round_trip(ep, R"({"cmd":"statz"})", &reply)) {
    if (err != nullptr) *err = "statz round trip failed";
    return false;
  }
  trace::Json j;
  return trace::Json::parse(reply, &j, err) && statz_from_json(j, out, err);
}

int serve_tcp(int port, const char* tool, bool quiet,
              const ConnHandler& handle) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    report_errno(tool, "socket");
    return 3;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    report_errno(tool, "bind/listen");
    ::close(fd);
    return 3;
  }
  socklen_t alen = sizeof addr;  // report the real port when P was 0
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen);
  std::printf("listening %d\n", ntohs(addr.sin_port));
  std::fflush(stdout);
  if (!quiet) {
    std::fprintf(stderr, "%s: listening on 127.0.0.1:%d\n", tool,
                 ntohs(addr.sin_port));
  }
  g_listen_fd = fd;
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  // A client that hangs up before its answers are written must end only
  // its own connection: the write fails with EPIPE instead of raising
  // SIGPIPE, whose default action kills the whole server.
  ::signal(SIGPIPE, SIG_IGN);

  // A connection's thread raises `done` as its last act. Each accept
  // first joins the threads that have, so a finished connection keeps
  // no stack while the server runs.
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Conn> conns;
  std::uint64_t next_conn = 2;
  while (!g_stop.load()) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (g_stop.load()) break;
      if (errno == EINTR) continue;
      report_errno(tool, "accept");
      break;
    }
    conns.remove_if([](Conn& c) {
      if (!c.done.load()) return false;
      c.thread.join();
      return true;
    });
    const std::uint64_t conn_id = next_conn++;
    Conn& c = conns.emplace_back();
    c.thread = std::thread([&handle, &c, conn, conn_id] {
      handle(conn, conn_id);
      ::close(conn);
      c.done.store(true);
    });
  }
  ::close(fd);
  for (Conn& c : conns) c.thread.join();
  return 0;
}

bool write_doc(const std::string& path, const trace::Json& doc,
               const char* tool) {
  const std::string text = doc.dump(1) + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
  return ok;
}

}  // namespace iph::cluster
