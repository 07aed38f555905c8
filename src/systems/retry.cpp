#include "systems/retry.hpp"

#include <memory>

#include "obs/metrics.hpp"

namespace dcpl::systems {

std::string RetryError::message() const {
  const char* what = kind == RetryErrorKind::kAttemptsExhausted
                         ? "attempts exhausted"
                         : "deadline exceeded";
  return std::string("retry: ") + what + " after " +
         std::to_string(attempts) + " attempt(s), " +
         std::to_string(elapsed_us) + "us elapsed";
}

net::Time backoff_timeout(const RetryPolicy& policy, unsigned attempt,
                          Rng& rng) {
  const double max_t = static_cast<double>(policy.max_timeout_us);
  double t = static_cast<double>(policy.initial_timeout_us);
  for (unsigned i = 0; i < attempt && t < max_t; ++i) t *= policy.backoff;
  if (t > max_t) t = max_t;
  if (policy.jitter > 0) {
    t *= 1.0 + policy.jitter * (2.0 * rng.unit() - 1.0);
    // Clamp again *after* the jitter multiply: max_timeout_us bounds the
    // effective timeout, not just the pre-jitter base — otherwise a flow at
    // the cap could wait up to jitter x longer than configured.
    if (t > max_t) t = max_t;
  }
  if (t < 1.0) t = 1.0;
  return static_cast<net::Time>(t);
}

void retry_run(net::Simulator& sim, const RetryPolicy& policy, Rng& rng,
               std::function<void(unsigned attempt)> send,
               std::function<bool()> done,
               std::function<void(const RetryError&)> fail) {
  // Counters live in the "retry" scope of the simulator's *current* metrics
  // registry, resolved through rebindable counters at each increment —
  // never through a static reference bound at first call. A bench that
  // redirects metrics via Simulator::set_metrics (even mid-flow) gets retry
  // counts in its scoped registry instead of a stale one, and shard workers
  // may rebind them concurrently.
  static obs::OpCounter sends_h("retry", "sends");
  static obs::OpCounter resends_h("retry", "resends");
  static obs::OpCounter successes_h("retry", "successes");
  static obs::OpCounter failures_h("retry", "failures");

  struct State {
    unsigned attempt = 0;
    net::Time start = 0;
    std::function<void(unsigned)> send;
    std::function<bool()> done;
    std::function<void(const RetryError&)> fail;
  };
  auto state = std::make_shared<State>();
  state->start = sim.now();
  state->send = std::move(send);
  state->done = std::move(done);
  state->fail = std::move(fail);

  // The step closure captures itself weakly; each scheduled event holds the
  // strong reference. Once the loop stops scheduling (done/failed), the last
  // event's destruction frees the state — no shared_ptr cycle.
  auto step = std::make_shared<std::function<void()>>();
  *step = [state, weak = std::weak_ptr<std::function<void()>>(step), &sim,
           &rng, policy] {
    if (state->done && state->done()) {
      successes_h.in(sim.metrics_registry()).inc();
      return;
    }
    const net::Time elapsed = sim.now() - state->start;
    const bool past_deadline = policy.deadline_us != 0 &&
                               state->attempt > 0 &&
                               elapsed >= policy.deadline_us;
    if (past_deadline || state->attempt >= policy.max_attempts) {
      // Blind-redundancy flows (no done predicate) just stop resending.
      if (state->done) {
        failures_h.in(sim.metrics_registry()).inc();
        if (state->fail) {
          state->fail(RetryError{past_deadline
                                     ? RetryErrorKind::kDeadlineExceeded
                                     : RetryErrorKind::kAttemptsExhausted,
                                 state->attempt, elapsed});
        }
      }
      return;
    }
    sends_h.in(sim.metrics_registry()).inc();
    if (state->attempt > 0) resends_h.in(sim.metrics_registry()).inc();
    state->send(state->attempt);
    ++state->attempt;
    const net::Time wait = backoff_timeout(policy, state->attempt - 1, rng);
    sim.at(sim.now() + wait, [s = weak.lock()] { (*s)(); });
  };
  (*step)();
}

const Bytes* ReplayCache::find(std::uint64_t ctx) const {
  auto it = responses_.find(ctx);
  return it == responses_.end() ? nullptr : &it->second;
}

void ReplayCache::store(std::uint64_t ctx, Bytes response) {
  responses_[ctx] = std::move(response);
}

}  // namespace dcpl::systems
