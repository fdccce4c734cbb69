#include "support/env.h"

#include <cstdlib>
#include <cstring>
#include <thread>

namespace iph::support {

bool env_flag(const char* name, bool fallback) noexcept {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strcmp(s, "1") == 0 || std::strcmp(s, "true") == 0 ||
         std::strcmp(s, "on") == 0 || std::strcmp(s, "yes") == 0;
}

unsigned env_threads() noexcept {
  if (const char* s = std::getenv("IPH_THREADS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v >= 1 && v <= kMaxThreads) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint64_t env_seed() noexcept {
  if (const char* s = std::getenv("IPH_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0x19910722ULL;  // SPAA'91
}

std::uint64_t env_pram_grain() noexcept {
  const std::uint64_t g = env_u64("IPH_PRAM_GRAIN", 2048);
  return g < 1 ? 1 : g;
}

std::string env_string(const char* name, std::string fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return s;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) noexcept {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s, &end, 0);
  return end == s ? fallback : v;
}

double env_double(const char* name, double fallback) noexcept {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return end == s ? fallback : v;
}

}  // namespace iph::support
