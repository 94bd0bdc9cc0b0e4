// Live proof of the evidence-driven recovery policy engine (DESIGN.md §14):
// a multi-threaded load generator drives the ServerDemo request loop in
// production Mask mode while the wrapper-level fault injector
// (Runtime::fault_period) raises transient faults inside the protected
// region, and a policy table recovers them in place.
//
// Protocol:
//   1. Derive the base policy table from the static report (Passes 1-5),
//      then overlay the operator policy for the served method:
//      Server::handle retries transient faults (budget kRetryBudget, entry
//      rollback first) and early-returns the organically invalid requests
//      (NetError) after rollback.  The overlay round-trips through the
//      --policy-file JSON codec as a self-check.
//   2. N threads each own a Server and a thread-local Runtime configured
//      like a deployment: Mask mode, wrap-server predicate, write-set
//      checkpoint plans, the policy table and a fault every
//      kFaultPeriod-th wrapped attempt.  The completeness validator (a
//      debug shadow, not part of the deployed wrapper) stays off here.
//   3. Each thread serves kRequests requests (every kOrganicEvery-th one
//      deliberately empty — the organic failure).  Latency is sampled per
//      request; per-policy recovery latency comes from the Recovery trace
//      spans.
//   4. One untimed pass serves the same load on one thread with the
//      completeness validator on, so a checkpoint divergence still fails the
//      bench without the shadow captures skewing the timed storm.
//
// Gates (exit 1 when any fails):
//   - zero state corruption: every Server's uninstrumented invariants_hold()
//     validator passes after the storm and the validator pass, zero
//     checkpoint-validator divergences, zero mid-replay restore errors;
//   - bounded error rate: no request fails with an exception (every
//     transient fault is healed or neutralized) and degraded responses stay
//     under kMaxErrorRate;
//   - the storm actually recovered: retry successes observed, recovery rate
//     over the retry policy >= kMinRecoveryRate, sustained throughput > 0.
//
// Artifact: BENCH_recovery.json (schema_version 2) with the config, totals,
// per-policy recovery counters and latency percentiles, and gate verdicts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fatomic/analyze/static_report.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/recovery/derive.hpp"
#include "fatomic/recovery/policy_io.hpp"
#include "fatomic/weave/runtime.hpp"
#include "subjects/net/server.hpp"

namespace analyze = fatomic::analyze;
namespace mask = fatomic::mask;
namespace recovery = fatomic::recovery;
namespace trace = fatomic::trace;
namespace weave = fatomic::weave;

#ifndef FATOMIC_SOURCE_DIR
#error "FATOMIC_SOURCE_DIR must point at the repository's src/ tree"
#endif

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kThreads = 4;
constexpr int kDefaultRequests = 3000;  ///< per thread; argv[1] overrides
constexpr std::uint64_t kFaultPeriod = 7;
constexpr unsigned kRetryBudget = 3;
constexpr int kOrganicEvery = 50;  ///< every k-th request is invalid (empty)
constexpr double kMaxErrorRate = 0.03;
constexpr double kMinRecoveryRate = 0.9;

/// One load-generator thread's outcome.
struct ThreadResult {
  std::uint64_t ok = 0;        ///< full replies ("ok:...")
  std::uint64_t neutral = 0;   ///< early-returned (empty) replies
  std::uint64_t failed = 0;    ///< escaped exceptions — gate demands zero
  bool invariants = false;     ///< Server::invariants_hold() after the storm
  weave::RuntimeStats stats;
  std::vector<std::uint64_t> latency_ns;  ///< one sample per request
  /// Recovery span durations by action tag ("retry", "early_return", ...).
  std::map<std::string, std::vector<std::uint64_t>> recovery_ns;
};

/// Nearest-rank percentile in microseconds over a sorted sample vector.
double percentile_us(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(p * (sorted.size() - 1));
  return static_cast<double>(sorted[rank]) / 1000.0;
}

ThreadResult serve_storm(unsigned ordinal, int requests,
                         std::shared_ptr<const weave::PlanMap> plans,
                         std::shared_ptr<const recovery::PolicyTable> table,
                         bool validate) {
  ThreadResult out;
  // Each load-generator thread gets its own thread-local Runtime —
  // configure it like a deployment, not a campaign.
  auto& rt = weave::Runtime::instance();
  rt.set_mode(weave::Mode::Mask);
  rt.set_wrap_predicate([](const weave::MethodInfo& mi) {
    return mi.qualified_name().rfind("subjects::net::Server::", 0) == 0;
  });
  rt.set_checkpoint_plans(std::move(plans));
  rt.set_recovery_policies(std::move(table));
  rt.validate_checkpoints = validate;
  rt.trace.enable(0);
  rt.trace.set_worker(static_cast<std::uint16_t>(ordinal));

  subjects::net::Server server;
  server.provision(3);
  rt.stats = {};
  rt.fault_period = kFaultPeriod;  // armed only after provisioning

  out.latency_ns.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const std::string request =
        (i + 1) % kOrganicEvery == 0
            ? std::string()
            : "req-" + std::to_string(ordinal) + "-" + std::to_string(i);
    const auto t0 = Clock::now();
    try {
      const std::string reply = server.handle(request);
      if (reply.rfind("ok:", 0) == 0)
        ++out.ok;
      else
        ++out.neutral;
    } catch (...) {
      ++out.failed;
    }
    out.latency_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
  }

  rt.fault_period = 0;
  out.invariants = server.invariants_hold();
  out.stats = rt.stats;
  for (const auto& e : rt.trace.take(0))
    if (e.kind == trace::EventKind::Recovery)
      out.recovery_ns[e.detail].push_back(e.dur_ns);
  rt.trace.disable();
  rt.set_recovery_policies(nullptr);
  rt.set_checkpoint_plans(nullptr);
  rt.set_wrap_predicate(nullptr);
  rt.validate_checkpoints = false;
  rt.set_mode(weave::Mode::Direct);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = argc > 1 ? std::atoi(argv[1]) : kDefaultRequests;
  if (requests <= 0) {
    std::fprintf(stderr, "usage: bench_recovery [requests-per-thread]\n");
    return 1;
  }

  // 1. Evidence: static report -> derived base table -> operator overlay.
  const analyze::StaticReport sreport =
      analyze::analyze_sources(std::string(FATOMIC_SOURCE_DIR) + "/subjects");
  const auto derived = recovery::derive_policy_table(sreport, nullptr);
  recovery::PolicyTable table = *derived.table;
  {
    recovery::RecoveryPolicy serve;
    serve.action = recovery::Action::Retry;
    serve.retry_budget = kRetryBudget;
    serve.rollback_before_retry = true;
    // Organically invalid requests are not transient: neutralize them after
    // rollback instead of burning the retry budget.
    serve.exception_overrides["subjects::net::NetError"] =
        recovery::Action::EarlyReturn;
    table.set("subjects::net::Server::handle", serve);
  }
  // Self-check: the deployed table must survive the --policy-file codec.
  const bool roundtrip =
      recovery::parse_policy_table(recovery::policy_table_json(table)) == table;
  const auto shared_table =
      std::make_shared<const recovery::PolicyTable>(std::move(table));
  const auto plans = mask::make_plans(sreport);

  std::printf(
      "recovery storm: %u threads x %d requests, fault period %llu, "
      "retry budget %u (%zu derived + 1 overlay policies)\n",
      kThreads, requests, static_cast<unsigned long long>(kFaultPeriod),
      kRetryBudget, derived.table->size());

  // 2-3. The storm.
  std::vector<ThreadResult> results(kThreads);
  const auto storm0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        results[t] = serve_storm(t, requests, plans, shared_table,
                                 /*validate=*/false);
      });
    for (auto& th : threads) th.join();
  }
  const double storm_s =
      std::chrono::duration<double>(Clock::now() - storm0).count();

  // 4. The untimed validator pass.
  const ThreadResult validated =
      serve_storm(0, requests, plans, shared_table, /*validate=*/true);

  // Aggregate.
  ThreadResult total;
  total.invariants = true;
  std::map<std::string, std::vector<std::uint64_t>> recovery_ns;
  for (auto& r : results) {
    total.ok += r.ok;
    total.neutral += r.neutral;
    total.failed += r.failed;
    total.invariants = total.invariants && r.invariants;
    total.stats += r.stats;
    total.latency_ns.insert(total.latency_ns.end(), r.latency_ns.begin(),
                            r.latency_ns.end());
    for (auto& [tag, ns] : r.recovery_ns) {
      auto& sink = recovery_ns[tag];
      sink.insert(sink.end(), ns.begin(), ns.end());
    }
  }
  std::sort(total.latency_ns.begin(), total.latency_ns.end());
  const std::uint64_t total_requests = total.ok + total.neutral + total.failed;
  const double error_rate =
      total_requests == 0
          ? 1.0
          : static_cast<double>(total.failed + total.neutral) /
                static_cast<double>(total_requests);
  const std::uint64_t retry_decided =
      total.stats.retry_successes + total.stats.retry_exhaustions;
  const double recovery_rate =
      retry_decided == 0 ? 0.0
                         : static_cast<double>(total.stats.retry_successes) /
                               static_cast<double>(retry_decided);
  const double throughput_rps =
      storm_s > 0 ? static_cast<double>(total_requests) / storm_s : 0.0;

  // Gates.
  const bool no_corruption = total.invariants && validated.invariants &&
                             validated.stats.validator_divergences == 0 &&
                             validated.stats.restore_errors == 0 &&
                             total.stats.restore_errors == 0;
  const bool bounded_errors = total.failed == 0 && error_rate <= kMaxErrorRate;
  const bool recovered = total.stats.retry_successes > 0 &&
                         total.stats.faults_injected > 0 &&
                         recovery_rate >= kMinRecoveryRate &&
                         throughput_rps > 0;
  const bool ok = roundtrip && no_corruption && bounded_errors && recovered;

  std::printf(
      "served %llu requests in %.2fs (%.0f req/s): %llu ok, %llu "
      "neutralized, %llu failed\n",
      static_cast<unsigned long long>(total_requests), storm_s, throughput_rps,
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.neutral),
      static_cast<unsigned long long>(total.failed));
  std::printf(
      "faults: %llu injected, %llu retries, %llu healed, %llu exhausted "
      "(recovery rate %.3f), %llu early returns\n",
      static_cast<unsigned long long>(total.stats.faults_injected),
      static_cast<unsigned long long>(total.stats.retry_attempts),
      static_cast<unsigned long long>(total.stats.retry_successes),
      static_cast<unsigned long long>(total.stats.retry_exhaustions),
      recovery_rate,
      static_cast<unsigned long long>(total.stats.early_returns));
  std::printf(
      "state: invariants %s, %llu restore errors; validator pass: %llu "
      "divergences, %llu restore errors; latency p50 %.1fus p99 %.1fus; "
      "policy codec roundtrip %s\n",
      total.invariants && validated.invariants ? "held" : "VIOLATED",
      static_cast<unsigned long long>(total.stats.restore_errors),
      static_cast<unsigned long long>(validated.stats.validator_divergences),
      static_cast<unsigned long long>(validated.stats.restore_errors),
      percentile_us(total.latency_ns, 0.50),
      percentile_us(total.latency_ns, 0.99), roundtrip ? "ok" : "FAILED");
  if (!ok) std::printf("GATE FAILED\n");

  // Artifact.
  bench_common::JsonObject policies_json;
  for (auto& [tag, ns] : recovery_ns) {
    std::sort(ns.begin(), ns.end());
    policies_json.put_raw(tag, bench_common::JsonObject{}
                                   .put("recoveries", ns.size())
                                   .put("p50_us", percentile_us(ns, 0.50))
                                   .put("p99_us", percentile_us(ns, 0.99))
                                   .dump());
  }
  bench_common::write_bench_json(
      "recovery",
      bench_common::JsonObject{}
          .put_raw("config", bench_common::JsonObject{}
                                 .put("threads", kThreads)
                                 .put("requests_per_thread", requests)
                                 .put("fault_period", kFaultPeriod)
                                 .put("retry_budget", kRetryBudget)
                                 .put("organic_every", kOrganicEvery)
                                 .put("derived_policies", derived.table->size())
                                 .dump())
          .put("requests", total_requests)
          .put("ok", total.ok)
          .put("neutralized", total.neutral)
          .put("failed", total.failed)
          .put("throughput_rps", throughput_rps)
          .put("error_rate", error_rate)
          .put("latency_p50_us", percentile_us(total.latency_ns, 0.50))
          .put("latency_p99_us", percentile_us(total.latency_ns, 0.99))
          .put_raw("recovery",
                   bench_common::JsonObject{}
                       .put("faults_injected", total.stats.faults_injected)
                       .put("retry_attempts", total.stats.retry_attempts)
                       .put("retry_successes", total.stats.retry_successes)
                       .put("retry_exhaustions", total.stats.retry_exhaustions)
                       .put("degraded_calls", total.stats.degraded_calls)
                       .put("degrade_refusals", total.stats.degrade_refusals)
                       .put("early_returns", total.stats.early_returns)
                       .put("transformed_rethrows",
                            total.stats.transformed_rethrows)
                       .put("policy_rollbacks", total.stats.policy_rollbacks)
                       .put("recovery_rate", recovery_rate)
                       .dump())
          .put_raw("recovery_latency_by_policy", policies_json.dump())
          .put_raw("gates", bench_common::JsonObject{}
                                .put("zero_corruption", no_corruption)
                                .put("bounded_error_rate", bounded_errors)
                                .put("recovered_under_load", recovered)
                                .put("policy_roundtrip", roundtrip)
                                .dump())
          .put("gates_ok", ok)
          .dump());
  return ok ? 0 : 1;
}
