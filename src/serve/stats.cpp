#include "serve/stats.h"

namespace iph::serve {

namespace {

using stats::labeled;

}  // namespace

ServeStats::ServeStats(stats::Registry& registry, std::size_t shards)
    : submitted(registry.counter(statnames::kSubmitted)),
      accepted(registry.counter(statnames::kAccepted)),
      rejected_full(registry.counter(
          labeled(statnames::kRejectedBase, "reason", "full"))),
      rejected_shutdown(registry.counter(
          labeled(statnames::kRejectedBase, "reason", "shutdown"))),
      expired(registry.counter(statnames::kExpired)),
      completed(registry.counter(statnames::kCompleted)),
      large_requests(registry.counter(statnames::kLargeRequests)),
      backend_pram(registry.counter(
          labeled(statnames::kBackendBase, "backend", "pram"))),
      backend_native(registry.counter(
          labeled(statnames::kBackendBase, "backend", "native"))),
      small_depth(registry.gauge(
          labeled(statnames::kQueueDepthBase, "queue", "small"))),
      large_depth(registry.gauge(
          labeled(statnames::kQueueDepthBase, "queue", "large"))),
      shards_leased(registry.gauge(statnames::kShardsLeased)),
      queue_wait_ms(registry.histogram(statnames::kQueueWaitMs,
                                       stats::latency_bounds_ms())),
      exec_ms(registry.histogram(statnames::kExecMs,
                                 stats::latency_bounds_ms())),
      e2e_ms(registry.histogram(statnames::kE2eMs,
                                stats::latency_bounds_ms())) {
  shard_busy_us.reserve(shards + 1);
  for (std::size_t i = 0; i < shards; ++i) {
    shard_busy_us.push_back(&registry.counter(
        labeled(statnames::kShardBusyBase, "shard", std::to_string(i))));
  }
  shard_busy_us.push_back(&registry.counter(
      labeled(statnames::kShardBusyBase, "shard", "large")));
  // Register one counter per summable pram::Metrics counter, in the
  // visitor's fixed order; fold_pram walks the same order by index.
  pram::for_each_summable_counter(
      pram::Metrics{}, [&](const char* name, std::uint64_t) {
        pram_counters_.push_back(&registry.counter(
            std::string(statnames::kPramPrefix) + name + "_total"));
      });
}

void ServeStats::fold_pram(const pram::Metrics& m) noexcept {
  std::size_t i = 0;
  pram::for_each_summable_counter(m, [&](const char*, std::uint64_t v) {
    pram_counters_[i++]->inc(v);
  });
}

}  // namespace iph::serve
