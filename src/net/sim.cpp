#include "net/sim.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/partition.hpp"
#include "net/profile.hpp"
#include "net/tracing.hpp"
#include "obs/flow.hpp"
#include "obs/sampler.hpp"

namespace dcpl::net {

thread_local Simulator::Shard* Simulator::tls_shard_ = nullptr;

namespace {

/// Brackets one Node::on_packet with the ledger's delivery scope so every
/// exposure logged while the packet is in scope carries its protocol tag —
/// exception-safe, since systems may throw out of on_packet.
class FlowDeliveryScope {
 public:
  FlowDeliveryScope(obs::FlowLedger* flow, const std::string& protocol)
      : flow_(flow) {
    if (flow_) flow_->begin_delivery(protocol);
  }
  ~FlowDeliveryScope() {
    if (flow_) flow_->end_delivery();
  }
  FlowDeliveryScope(const FlowDeliveryScope&) = delete;
  FlowDeliveryScope& operator=(const FlowDeliveryScope&) = delete;

 private:
  obs::FlowLedger* flow_;
};

/// Loans a pooled payload to one delivery. The buffer is swapped *out* of
/// the pool slot for the duration of on_packet (handlers may acquire new
/// slots, which can reallocate the pool's slot table, so holding a
/// reference into it would dangle), swapped back in the destructor, and the
/// delivery's reference is dropped — exception-safe, and a refcount-2
/// duplicate sees the identical bytes on its own delivery.
class PayloadGuard {
 public:
  PayloadGuard(BufferPool& pool, PayloadHandle h, Bytes& borrow)
      : pool_(pool), h_(h), borrow_(borrow) {
    borrow_.swap(pool_.at(h_));
  }
  ~PayloadGuard() {
    borrow_.swap(pool_.at(h_));
    pool_.release(h_);
  }
  PayloadGuard(const PayloadGuard&) = delete;
  PayloadGuard& operator=(const PayloadGuard&) = delete;

 private:
  BufferPool& pool_;
  PayloadHandle h_;
  Bytes& borrow_;
};

/// Marks the delivery whose handler is currently running so
/// Simulator::detach_payload can find (and possibly steal) its buffer.
class CurrentDeliveryScope {
 public:
  CurrentDeliveryScope(PayloadHandle& slot, PayloadHandle h) : slot_(slot) {
    slot_ = h;
  }
  ~CurrentDeliveryScope() { slot_ = BufferPool::kInvalid; }
  CurrentDeliveryScope(const CurrentDeliveryScope&) = delete;
  CurrentDeliveryScope& operator=(const CurrentDeliveryScope&) = delete;

 private:
  PayloadHandle& slot_;
};

/// The CPUs a threaded run pins its workers to, worker i on cpus[i], one
/// each and starting at the caller's CPU (so concurrent processes spread
/// out); none when the process may use fewer CPUs than there are workers.
/// Workers wait at two barriers every window, and unpinned, the scheduler
/// has been seen to keep all of them on one CPU for a whole run, which then
/// runs serially at under half its parallel speed.
std::vector<int> worker_cpus(std::uint32_t workers) {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < workers) return {};
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
  cpus.resize(workers);
#else
  (void)workers;
#endif
  return cpus;
}

/// Restricts the calling thread to `cpu`. Best effort: on failure the
/// thread keeps running wherever the scheduler puts it.
void pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
#else
  (void)cpu;
#endif
}

/// How long a pinned worker yields at a window barrier before it sleeps:
/// a few times the mean wait of a wire-s4 run on an idle host.
constexpr std::chrono::microseconds kBarrierSpin{500};

/// The barrier that ends each half of a threaded run's window: the last of
/// `n` arrivals runs `completion` while every other worker is parked, then
/// releases them. A waiter yields for up to `spin` before it sleeps: on a
/// VM a sleeping worker halts its vCPU, and the wake-up then waits for the
/// host to run that vCPU again. A yielding waiter only holds its own CPU
/// when each worker has one (worker_cpus()); otherwise it would hold up
/// the worker it waits for, so the spin is zero then.
class WindowBarrier {
 public:
  WindowBarrier(std::uint32_t n, std::chrono::nanoseconds spin,
                std::function<void()> completion = {})
      : n_(n), spin_(spin), completion_(std::move(completion)) {}

  void arrive_and_wait() {
    const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      if (completion_) completion_();
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      phase_.notify_all();
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + spin_;
    while (phase_.load(std::memory_order_acquire) == phase) {
      if (std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      } else {
        phase_.wait(phase, std::memory_order_acquire);
      }
    }
  }

 private:
  const std::uint32_t n_;
  const std::chrono::nanoseconds spin_;
  std::function<void()> completion_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
};

/// Decorrelates per-shard fault RNG streams while leaving the main shard
/// and worker 0 on the plan's own seed (stream = seed + stride * shard).
constexpr std::uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ull;

/// The FaultStats fields in Simulator::faults_m_ order, with the registry
/// counter each one folds into.
constexpr std::pair<std::uint64_t FaultStats::*, const char*>
    kFaultCounters[] = {
        {&FaultStats::lost, "faults_lost"},
        {&FaultStats::duplicated, "faults_duplicated"},
        {&FaultStats::jittered, "faults_jittered"},
        {&FaultStats::partition_dropped, "faults_partition_dropped"},
        {&FaultStats::offline_dropped, "faults_offline_dropped"},
        {&FaultStats::breaches_fired, "faults_breaches_fired"},
};

}  // namespace

Simulator::Simulator()
    : metrics_(&obs::global_registry().scope("sim")),
      tracer_(&obs::global_tracer()) {
  main_.sim = this;
  main_.traffic.assign(1, 0);  // its own diagonal cell; never reported
  bind_metrics();
}

// Out of line: LatencyLane is an incomplete type in the header.
Simulator::~Simulator() = default;

void Simulator::bind_metrics() {
  events_processed_m_ = &metrics_->counter("events_processed");
  packets_m_ = &metrics_->counter("packets_delivered");
  bytes_m_ = &metrics_->counter("bytes_delivered");
  queue_depth_m_ = &metrics_->gauge("queue_depth");
  queue_depth_peak_m_ = &metrics_->gauge("queue_depth_peak");
  pool_live_m_ = &metrics_->gauge("pool_live");
  pool_slots_m_ = &metrics_->gauge("pool_slots");
  delivery_latency_m_ = &metrics_->histogram("delivery_latency_us");
}

void Simulator::bind_fault_metrics() {
  for (std::size_t i = 0; i < faults_m_.size(); ++i) {
    faults_m_[i] = &metrics_->counter(kFaultCounters[i].second);
  }
}

void Simulator::set_trace_recording(bool on) {
  reject_if_threaded("set_trace_recording");
  record_trace_ = on;
}

void Simulator::set_link_byte_accounting(bool on) {
  reject_if_threaded("set_link_byte_accounting");
  link_byte_accounting_ = on;
}

void Simulator::set_metrics(obs::Registry& registry) {
  reject_if_threaded("set_metrics");
  fold(main_);  // what was counted so far belongs to the old registry
  metrics_ = &registry;
  link_bytes_m_.clear();
  bind_metrics();
  if (fault_plan_) bind_fault_metrics();
}

obs::Counter& Simulator::link_bytes_counter(std::uint64_t link_key,
                                            const Address& src,
                                            const Address& dst) {
  auto [it, inserted] = link_bytes_m_.try_emplace(link_key, nullptr);
  if (inserted) {
    it->second = &metrics_->counter("link_bytes", {{"link", src + "->" + dst}});
  }
  return *it->second;
}

void Simulator::add_node(Node& node) {
  reject_if_threaded("add_node");
  const AddressId id = interner_.intern(node.address());
  if (id >= nodes_.size()) nodes_.resize(id + 1, nullptr);
  if (nodes_[id] != nullptr) {
    throw std::invalid_argument("Simulator: duplicate address " +
                                node.address());
  }
  nodes_[id] = &node;
  for (const Address& src : node.also_sends_from()) interner_.intern(src);
}

Simulator::LinkState& Simulator::ensure_link(AddressId a, AddressId b) {
  auto [it, inserted] = links_.try_emplace(pack_link(a, b));
  if (inserted && fault_plan_) {
    // A pair first seen after plan install still gets its per-link
    // impairment override; the string lookup happens once per pair.
    const auto& per_link = fault_plan_->per_link();
    auto imp = per_link.find({interner_.name(a), interner_.name(b)});
    if (imp != per_link.end()) it->second.impairment = &imp->second;
  }
  return it->second;
}

void Simulator::connect(const Address& a, const Address& b, Time latency_us) {
  reject_if_threaded("connect");
  const AddressId ia = interner_.intern(a);
  const AddressId ib = interner_.intern(b);
  for (LinkState* ls : {&ensure_link(ia, ib), &ensure_link(ib, ia)}) {
    ls->latency = latency_us;
    ls->has_latency = true;
  }
}

bool Simulator::has_link(const Address& a, const Address& b) const {
  return link_latency(a, b).has_value();
}

std::optional<Time> Simulator::link_latency(const Address& a,
                                            const Address& b) const {
  const auto ia = interner_.lookup(a);
  const auto ib = interner_.lookup(b);
  if (!ia || !ib) return std::nullopt;
  auto it = links_.find(pack_link(*ia, *ib));
  if (it == links_.end() || !it->second.has_latency) return std::nullopt;
  return it->second.latency;
}

void Simulator::set_bandwidth(const Address& a, const Address& b,
                              std::uint64_t bytes_per_ms) {
  reject_if_threaded("set_bandwidth");
  const AddressId ia = interner_.intern(a);
  const AddressId ib = interner_.intern(b);
  ensure_link(ia, ib).bandwidth = bytes_per_ms;
  ensure_link(ib, ia).bandwidth = bytes_per_ms;
}

void Simulator::set_default_latency(Time latency_us) {
  reject_if_threaded("set_default_latency");
  default_latency_ = latency_us;
}

bool Simulator::partitioned_at(std::uint64_t link_key, Time t) const {
  auto it = partitions_m_.find(link_key);
  if (it == partitions_m_.end()) return false;
  for (const Window& w : *it->second) {
    if (w.contains(t)) return true;
  }
  return false;
}

bool Simulator::offline_at_id(AddressId id, Time t) const {
  auto it = offline_m_.find(id);
  if (it == offline_m_.end()) return false;
  for (const Window& w : *it->second) {
    if (w.contains(t)) return true;
  }
  return false;
}

Simulator::Shard& Simulator::current() {
  Shard* sh = tls_shard_;
  return sh != nullptr && sh->sim == this ? *sh : main_;
}

const Simulator::Shard& Simulator::current() const {
  const Shard* sh = tls_shard_;
  return sh != nullptr && sh->sim == this ? *sh : main_;
}

bool Simulator::spans_on(const Shard& sh) const {
  return &sh == &main_ && tracer_->enabled();
}

std::uint32_t Simulator::owner(const Shard& sh, AddressId dst_id) const {
  return &sh == &main_ ? sh.id : shard_of_id(dst_id);
}

void Simulator::reject_if_threaded(const char* op) const {
  if (sharded_running_) {
    throw std::logic_error(std::string("Simulator::") + op +
                           ": run in progress");
  }
}

std::function<void()> Simulator::Shard::take_callback(std::uint32_t slot) {
  // Move the callback out before running it: the slot is free for reuse by
  // anything the callback itself schedules.
  std::function<void()> fn = std::move(callbacks[slot]);
  callbacks[slot] = nullptr;
  callback_free.push_back(slot);
  return fn;
}

AddressId Simulator::intern(const Shard& sh, const Address& name) {
  if (const auto id = interner_.lookup(name)) return *id;
  if (&sh != &main_) {
    throw std::out_of_range("Simulator: unknown source " + name);
  }
  return interner_.intern(name);
}

ProtocolId Simulator::intern_protocol(Shard& sh, const std::string& name) {
  if (auto it = sh.protocol_ids.find(name); it != sh.protocol_ids.end()) {
    return it->second;
  }
  const std::lock_guard<std::mutex> lk(protocol_mu_);
  auto [it, inserted] = protocol_ids_.try_emplace(
      name, static_cast<ProtocolId>(protocols_.size()));
  if (inserted) {
    protocols_.push_back(
        std::make_unique<ProtocolInfo>(ProtocolInfo{name, "deliver:" + name}));
  }
  sh.protocol_ids.emplace(name, it->second);
  return it->second;
}

const Simulator::ProtocolInfo& Simulator::protocol_info(Shard& sh,
                                                        ProtocolId id) {
  if (id >= sh.protocols.size()) {
    const std::lock_guard<std::mutex> lk(protocol_mu_);
    for (std::size_t i = sh.protocols.size(); i < protocols_.size(); ++i) {
      sh.protocols.push_back(protocols_[i].get());
    }
  }
  return *sh.protocols[id];
}

AddressId Simulator::destination(const Address& dst) const {
  const std::optional<AddressId> id = interner_.lookup(dst);
  if (!id || *id >= nodes_.size() || nodes_[*id] == nullptr) {
    throw std::out_of_range("Simulator: unknown destination " + dst);
  }
  return *id;
}

// ---------------------------------------------------------------------------
// Engine operations. Each runs against the Shard executing it: main_ for
// serial runs and everything outside a threaded run, a worker otherwise.

void Simulator::fault_span(const Shard& sh, const char* what,
                           std::uint64_t link_key) {
  if (!spans_on(sh)) return;
  obs::Span span(*tracer_, what, "net");
  span.arg("src", interner_.name(link_src(link_key)));
  span.arg("dst", interner_.name(link_dst(link_key)));
}

Simulator::SendPlan Simulator::plan_send(Shard& sh, std::uint64_t link_key,
                                         AddressId src_id,
                                         std::size_t payload_size,
                                         Time extra_delay) {
  // One flat lookup resolves latency, bandwidth, and per-link impairment.
  // Pairs that were never connect()ed / impaired have no entry at all and
  // fall through to the defaults.
  const LinkState* link = nullptr;
  if (auto it = links_.find(link_key); it != links_.end()) {
    link = &it->second;
  }

  // Fault rolls happen in send order from the shard's seeded stream, so a
  // fixed (workload, plan) pair replays the exact same fault sequence. A
  // lost packet consumes exactly one roll; a surviving one consumes the
  // duplicate roll, the jitter roll, and (only when duplicated) the
  // duplicate's own jitter roll.
  SendPlan plan;
  Time fault_delay = 0;
  Time dup_delay = 0;
  if (fault_plan_) {
    if (partitioned_at(link_key, sh.now)) {
      ++sh.stats.partition_dropped;
      fault_span(sh, "fault.partition", link_key);
      plan.dropped = true;
      return plan;
    }
    if (offline_at_id(src_id, sh.now)) {
      ++sh.stats.offline_dropped;
      plan.dropped = true;
      return plan;
    }
    const Impairment& imp = link && link->impairment
                                ? *link->impairment
                                : fault_plan_->global_impairment();
    if (imp.active()) {
      XoshiroRng& rng = *sh.fault_rng;
      if (imp.loss > 0 && rng.unit() < imp.loss) {
        ++sh.stats.lost;
        fault_span(sh, "fault.loss", link_key);
        plan.dropped = true;
        return plan;
      }
      if (imp.duplicate > 0 && rng.unit() < imp.duplicate) {
        plan.duplicated = true;
      }
      if (imp.jitter > 0 && rng.unit() < imp.jitter) {
        fault_delay = imp.jitter_max_us ? rng.below(imp.jitter_max_us + 1) : 0;
        ++sh.stats.jittered;
      }
      if (plan.duplicated && imp.jitter > 0 && rng.unit() < imp.jitter) {
        dup_delay = imp.jitter_max_us ? rng.below(imp.jitter_max_us + 1) : 0;
      }
    }
  }

  Time serialization = 0;
  if (link && link->bandwidth > 0) {
    serialization = payload_size * 1000 / link->bandwidth;  // us
  }
  const Time latency =
      link && link->has_latency ? link->latency : default_latency_;
  const Time base = sh.now + latency + serialization + extra_delay;
  plan.deliver_at = base + fault_delay;
  if (plan.duplicated) {
    ++sh.stats.duplicated;
    fault_span(sh, "fault.duplicate", link_key);
    plan.dup_at = base + dup_delay;
  }
  if (latency_ != nullptr) {
    // Per-hop stage attribution, stamped once per surviving send (the
    // fault-duplicate shares the primary's stages): the link flight time,
    // and everything else the hop waited on (serialization + caller delay
    // + jitter) — fired − scheduled minus the link component.
    LatencyLane* lane = sh.lane.get();
    (lane ? lane->link : latency_->stage_link()).record(latency);
    (lane ? lane->queue_wait : latency_->stage_queue_wait())
        .record(serialization + extra_delay + fault_delay);
  }
  return plan;
}

obs::TraceContext Simulator::next_trace(Shard& sh) {
  if (latency_ == nullptr) return {};
  if (sh.cur_trace.active()) {
    // A send issued while a delivery is in flight continues that packet's
    // trace one hop further (the relay/forward idiom).
    sh.trace_continued = true;
    obs::TraceContext tc = sh.cur_trace;
    ++tc.hop;
    return tc;
  }
  // Namespaced like new_context(): ids depend only on the shard's own
  // deterministic schedule, never the wall clock or thread interleaving.
  obs::TraceContext tc;
  const std::uint64_t seq = ++sh.trace_seq;
  tc.trace_id = sh.id_base | seq;
  if (latency_->waterfall_trace(seq)) tc.trace_id |= obs::kTraceWaterfallBit;
  tc.origin_us = sh.now;
  tc.hop = 0;
  return tc;
}

void Simulator::send(Packet packet, Time extra_delay) {
  Shard& sh = current();
  const AddressId dst_id = destination(packet.dst);
  transmit(sh, intern(sh, packet.src), dst_id, std::move(packet.payload),
           BufferPool::kInvalid, packet.context, packet.protocol, extra_delay);
}

void Simulator::transmit(Shard& sh, AddressId src_id, AddressId dst_id,
                         Bytes payload, PayloadHandle shared,
                         std::uint64_t context, const std::string& protocol,
                         Time extra_delay) {
  const bool by_ref = shared != BufferPool::kInvalid;
  const std::size_t size = by_ref ? sh.pool.at(shared).size() : payload.size();
  const std::uint64_t link_key = pack_link(src_id, dst_id);
  const SendPlan plan = plan_send(sh, link_key, src_id, size, extra_delay);
  if (plan.dropped) return;
  const ProtocolId proto = intern_protocol(sh, protocol);
  const obs::TraceContext tc = next_trace(sh);
  const std::uint32_t dst_shard = owner(sh, dst_id);
  // The delivery event for both the local push and the mailbox hand-off;
  // the enqueuing shard assigns its seq and payload handle. The latency
  // sample is computed now but recorded only at delivery time: a packet
  // later dropped by a crash window must not contribute to the
  // delivery-latency histogram.
  const auto delivery = [&](Time deliver_at) {
    EngineEvent ev;
    ev.time = deliver_at;
    ev.link_key = link_key;
    ev.context = context;
    ev.latency_sample = deliver_at - sh.now;
    ev.trace_id = tc.trace_id;
    ev.trace_origin = tc.origin_us;
    ev.trace_hop = tc.hop;
    ev.protocol = proto;
    return ev;
  };
  if (dst_shard == sh.id) {
    const PayloadHandle h =
        by_ref ? shared : sh.pool.acquire(std::move(payload));
    if (by_ref) sh.pool.add_ref(h);
    if (plan.duplicated) {
      // The duplicate shares the original's buffer and is pushed first, so
      // it takes the lower sequence number — exactly the seed engine's
      // order.
      sh.pool.add_ref(h);
      push_delivery(sh, delivery(plan.dup_at), h);
    }
    push_delivery(sh, delivery(plan.deliver_at), h);
    return;
  }
  if (plan.duplicated) {
    // Lower merge key: the duplicate first. Shares degrade to a copy
    // across shards.
    push_remote(sh, dst_shard,
                {delivery(plan.dup_at), sh.id, ++sh.xfer_seq, payload});
  }
  push_remote(sh, dst_shard, {delivery(plan.deliver_at), sh.id,
                              ++sh.xfer_seq, std::move(payload)});
}

PayloadRef Simulator::make_payload(Bytes bytes) {
  Shard& sh = current();
  return PayloadRef(&sh.pool, sh.pool.acquire(std::move(bytes)));
}

void Simulator::send_shared(const Address& src, const Address& dst,
                            const PayloadRef& payload, std::uint64_t context,
                            const std::string& protocol, Time extra_delay) {
  Shard& sh = current();
  // A worker may also share main_'s buffers: main_'s pool stays frozen
  // while workers run.
  if (!payload ||
      (payload.pool() != &sh.pool && payload.pool() != &main_.pool)) {
    throw std::invalid_argument(
        "Simulator::send_shared: payload not from this simulator's pool");
  }
  const AddressId dst_id = destination(dst);
  const AddressId src_id = intern(sh, src);
  // Crossing a shard boundary (or sharing main_'s frozen buffer from a
  // worker), ownership must change pools, so the share degrades to one
  // copy. Fault rolls and ordering match send() either way.
  if (payload.pool() == &sh.pool && owner(sh, dst_id) == sh.id) {
    transmit(sh, src_id, dst_id, Bytes(), payload.handle(), context, protocol,
             extra_delay);
  } else {
    transmit(sh, src_id, dst_id, payload.bytes(), BufferPool::kInvalid,
             context, protocol, extra_delay);
  }
}

void Simulator::push_delivery(Shard& sh, EngineEvent ev, PayloadHandle h) {
  ev.seq = ++sh.event_seq;
  ev.handle = h;
  ++sh.traffic[sh.id];  // diagonal: same-shard sends
  enqueue(sh, ev);
}

void Simulator::push_remote(Shard& sh, std::uint32_t dst_shard,
                            ShardEvent ev) {
  ++sh.traffic[dst_shard];
  ShardMailbox& box = shard_v_[dst_shard]->inbox;
  while (!box.try_push(std::move(ev))) {
    if (run_abort_ != nullptr &&
        run_abort_->load(std::memory_order_relaxed)) {
      return;  // another shard failed; the run is unwinding — drop
    }
    // Full: make progress instead of spinning a potential producer cycle —
    // drain our *own* inbox into the staging buffer (freeing space someone
    // may be blocked on) and yield to the mailbox owner. Staged events are
    // enqueued only at the barrier, so drain timing can't affect the merge
    // order.
    ++sh.mailbox_full_stalls;
    sh.inbox.drain(sh.staged);
    std::this_thread::yield();
  }
}

void Simulator::enqueue(Shard& sh, const EngineEvent& ev) {
  sh.queue.push(ev);
  sh.queue_peak = std::max(sh.queue_peak, sh.queue.size());
  if (&sh == &main_) note_queue_op();
}

void Simulator::note_queue_op() {
  if ((++queue_ops_ & kQueueSampleMask) != 0) return;
  queue_depth_m_->set(static_cast<double>(main_.queue.size()));
  pool_live_m_->set(static_cast<double>(main_.pool.live()));
  pool_slots_m_->set(static_cast<double>(main_.pool.slots()));
}

void Simulator::schedule(Shard& sh, Time t, std::uint64_t tag,
                         std::function<void()> fn) {
  if (t < sh.now) {
    throw std::invalid_argument("Simulator::at: time in the past");
  }
  std::uint32_t slot;
  if (!sh.callback_free.empty()) {
    slot = sh.callback_free.back();
    sh.callback_free.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(sh.callbacks.size());
    sh.callbacks.emplace_back();
  }
  sh.callbacks[slot] = std::move(fn);
  EngineEvent ev;
  ev.time = t;
  ev.seq = ++sh.event_seq;
  ev.context = tag;
  ev.handle = slot;
  ev.kind = EngineEvent::kCallback;
  enqueue(sh, ev);
}

void Simulator::at(Time t, std::function<void()> fn) {
  schedule(current(), t, 0, std::move(fn));
}

void Simulator::at_node(const Address& affine, Time t,
                        std::function<void()> fn) {
  Shard& sh = current();
  // Validate before interning: a rejected call must not shift AddressIds.
  if (t < sh.now) {
    throw std::invalid_argument("Simulator::at: time in the past");
  }
  // main_ stashes the affinity in the callback's unused context as id + 1
  // (0 = untagged) for redistribute_initial_events to route on. A worker's
  // handler already runs on a deterministic shard: it schedules like at().
  const std::uint64_t tag =
      &sh == &main_ ? std::uint64_t{intern(sh, affine)} + 1 : 0;
  schedule(sh, t, tag, std::move(fn));
}

void Simulator::deliver(Shard& sh, const EngineEvent& ev) {
  const AddressId dst_id = link_dst(ev.link_key);
  if (fault_plan_ && offline_at_id(dst_id, sh.now)) {
    ++sh.stats.offline_dropped;
    sh.pool.release(ev.handle);
    return;
  }
  sh.latency_hist.record(ev.latency_sample);
  const ProtocolInfo& proto = protocol_info(sh, ev.protocol);
  const Address& src = interner_.name(link_src(ev.link_key));
  const Address& dst = interner_.name(dst_id);
  std::optional<obs::Span> span;
  if (spans_on(sh)) {
    span.emplace(*tracer_, proto.deliver_label, "net");
    span->arg("src", src);
    span->arg("dst", dst);
  }
  // Re-materialize the packet into the recycled scratch struct (string
  // capacity survives across deliveries) and borrow the pooled bytes for
  // the duration of the handler.
  PayloadGuard payload(sh.pool, ev.handle, sh.scratch.payload);
  sh.scratch.src = src;
  sh.scratch.dst = dst;
  sh.scratch.context = ev.context;
  sh.scratch.protocol = proto.name;
  ++sh.deliveries;
  sh.delivered_bytes += sh.scratch.payload.size();
  // On a worker the delivery scope is staged on the shard's ledger lane, so
  // exposures the handler records land inside it when the batch commits.
  FlowDeliveryScope flow_scope(flow_, proto.name);
  if (record_trace_ || link_byte_accounting_ || !wiretaps_.empty()) {
    const DeliveryRecord rec{sh.now, ev.link_key, sh.scratch.payload.size(),
                             ev.context, ev.protocol};
    if (&sh == &main_) {
      emit(rec);
    } else {
      deferred_.push(sh.id, rec);
    }
  }
  CurrentDeliveryScope current(sh.current_handle, ev.handle);
  sh.cur_trace.trace_id = ev.trace_id;
  sh.cur_trace.origin_us = ev.trace_origin;
  sh.cur_trace.hop = ev.trace_hop;
  sh.trace_continued = false;
  nodes_[dst_id]->on_packet(sh.scratch, *this);
  if (latency_ != nullptr && ev.trace_id != 0) {
    if (!sh.trace_continued) {
      // Terminal hop: nothing inside the handler carried the trace on, so
      // the request ends here — stamp its end-to-end virtual latency under
      // the terminal protocol.
      const std::size_t p =
          std::min<std::size_t>(ev.protocol, LatencyTracer::kMaxProtocols - 1);
      (sh.lane ? sh.lane->e2e[p] : latency_->e2e(ev.protocol))
          .record(sh.now - ev.trace_origin);
    }
    if ((ev.trace_id & obs::kTraceWaterfallBit) != 0) {
      // Rare (sampled traces only), so the tracer's span mutex is fine.
      latency_->add_span({ev.trace_id, ev.trace_hop, ev.protocol,
                          ev.time - ev.latency_sample, ev.time});
    }
  }
  sh.cur_trace.trace_id = 0;
}

void Simulator::emit(const DeliveryRecord& rec) {
  const Address& src = interner_.name(link_src(rec.link_key));
  const Address& dst = interner_.name(link_dst(rec.link_key));
  if (link_byte_accounting_) {
    link_bytes_counter(rec.link_key, src, dst).inc(rec.size);
  }
  if (record_trace_ || !wiretaps_.empty()) {
    TraceEntry entry{rec.time, src, dst, rec.size, rec.context,
                     protocol_info(main_, rec.protocol).name};
    for (auto& tap : wiretaps_) tap(entry);
    if (record_trace_) trace_.push_back(std::move(entry));
  }
}

void Simulator::forward(const Address& src, const Address& dst,
                        std::uint64_t context, const std::string& protocol,
                        Time extra_delay, std::size_t prefix_len) {
  Shard& sh = current();
  // Validate before detaching or interning: a rejected forward leaves the
  // delivered payload and the interner untouched.
  const AddressId dst_id = destination(dst);
  const AddressId src_id = intern(sh, src);
  Bytes payload = detach_payload(prefix_len);
  transmit(sh, src_id, dst_id, std::move(payload), BufferPool::kInvalid,
           context, protocol, extra_delay);
}

Bytes Simulator::detach_payload(std::size_t prefix_len) {
  Shard& sh = current();
  const PayloadHandle h = sh.current_handle;
  if (h == BufferPool::kInvalid) {
    throw std::logic_error(
        "Simulator::detach_payload: no delivery in progress");
  }
  Bytes& borrowed = sh.scratch.payload;
  const std::size_t size = std::min(prefix_len, borrowed.size());
  Bytes bytes;
  if (sh.pool.refs(h) == 1) {
    // Sole reference: the slot dies when this delivery ends, so the buffer
    // can leave the pool by move. The guard swaps an empty Bytes back.
    bytes = std::move(borrowed);
    bytes.resize(size);
  } else {
    // A pending fault-duplicate still needs these bytes: copy the prefix.
    bytes.assign(borrowed.begin(),
                 borrowed.begin() + static_cast<std::ptrdiff_t>(size));
  }
  return bytes;
}

void Simulator::step(Shard& sh) {
  const EngineEvent ev = sh.queue.pop();
  sh.now = ev.time;
  ++sh.events;
  if (&sh != &main_) return dispatch(sh, ev);
  note_queue_op();
  if (sh.now >= sampler_next_) {
    // Sample *before* dispatching: the probes see the state the event is
    // about to act on, timestamped at its virtual time.
    sample(sh.now);
  }
  if (profiler_ == nullptr) return dispatch(sh, ev);
  const bool sampled = profiler_->arm();
  dispatch(sh, ev);
  profiler_->account(ev.kind, ev.protocol, sampled);
}

void Simulator::dispatch(Shard& sh, const EngineEvent& ev) {
  if (ev.kind == EngineEvent::kDelivery) {
    deliver(sh, ev);
  } else {
    sh.take_callback(ev.handle)();
  }
}

void Simulator::fire_breach(Shard& sh, const BreachEvent& ev) {
  // install_plan interned the party and sized breached_ to cover it.
  const AddressId id = interner_.lookup(ev.party).value();
  if (breached_[id] != kNotBreached) return;  // first breach wins
  breached_[id] = sh.now;
  ++sh.stats.breaches_fired;
  std::optional<obs::Span> span;
  if (spans_on(sh)) {
    span.emplace(*tracer_, "fault.breach", "net");
    span->arg("party", ev.party);
  }
  // Record the implant before the handler runs: everything the handler
  // marks (and everything the implant subsequently sees) is causally
  // downstream of this event. The ledger dedups per party, so the
  // handler's mark_compromised flowing back through an ObservationSink
  // is a no-op. On a worker the ledger stages the record on the shard's
  // lane and commits it at the next barrier in (time, shard, seq) order.
  if (flow_) flow_->record_compromise(ev.party, obs::FlowCause::kBreachImplant);
  if (breach_handler_) breach_handler_(ev);
}

void Simulator::fold(Shard& sh) {
  events_processed_m_->inc(sh.events);
  packets_m_->inc(sh.deliveries);
  bytes_m_->inc(sh.delivered_bytes);
  delivery_latency_m_->merge(sh.latency_hist);
  sh.latency_hist.reset();
  packets_delivered_ += sh.deliveries;
  bytes_delivered_ += sh.delivered_bytes;
  for (std::size_t i = 0; i < faults_m_.size(); ++i) {
    const std::uint64_t n = sh.stats.*kFaultCounters[i].first;
    fault_stats_.*kFaultCounters[i].first += n;
    if (faults_m_[i] != nullptr) faults_m_[i]->inc(n);
  }
  if (&sh != &main_) {
    shard_stats_.events[sh.id] += sh.events;
    shard_stats_.deliveries[sh.id] += sh.deliveries;
  }
  sh.events = 0;
  sh.deliveries = 0;
  sh.delivered_bytes = 0;
  sh.stats = FaultStats{};
}

void Simulator::sample(Time t) {
  fold(main_);  // probes read registry counters and the folded totals
  sampler_->sample_now(t);
  sampler_next_ = sampler_->next_due();
}

void Simulator::finish_run(bool threaded, std::uint64_t windows) {
  fold(main_);
  std::size_t peak = threaded ? 0 : main_.queue_peak;
  std::size_t pool_live = main_.pool.live();
  std::size_t pool_slots = main_.pool.slots();
  if (threaded) {
    replay_deferred(~Time{0});  // full drain; covers an abandoned final window
    shard_stats_.windows = windows;
    // Peak queue depth is the sum of per-worker peaks — an upper bound on
    // the true global instantaneous peak, deterministic and
    // shard-attributable.
    for (const auto& shp : shard_v_) {
      Shard& sh = *shp;
      fold(sh);
      main_.now = std::max(main_.now, sh.now);
      peak += sh.queue_peak;
      pool_live += sh.pool.live();
      pool_slots += sh.pool.slots();
      if (latency_ != nullptr) latency_->merge_lane(*sh.lane);
      // The send split derives from the traffic matrix — row sum minus
      // diagonal and the diagonal itself — so the three views can never
      // disagree (what report_check --require-shards asserts structurally).
      std::uint64_t cross = 0;
      for (std::uint32_t d = 0; d < shards_; ++d) {
        if (d != sh.id) cross += sh.traffic[d];
      }
      shard_stats_.cross_sends[sh.id] = cross;
      shard_stats_.local_sends[sh.id] = sh.traffic[sh.id];
      shard_stats_.busy_ns[sh.id] = sh.busy_ns;
      shard_stats_.barrier_wait_ns[sh.id] = sh.barrier_ns;
      shard_stats_.mailbox_full_stalls[sh.id] = sh.mailbox_full_stalls;
      shard_stats_.traffic[sh.id] = sh.traffic;
    }
  }
  // Publish the exact high-watermark on its own gauge: samplers polling
  // queue_depth at run end never observe a phantom peak-then-zero spike.
  queue_depth_peak_m_->set(static_cast<double>(peak));
  queue_depth_m_->set(0.0);
  pool_live_m_->set(static_cast<double>(pool_live));
  pool_slots_m_->set(static_cast<double>(pool_slots));
  // One final sample at drain so the series always covers the run's end.
  if (sampler_ != nullptr) sample(main_.now);
}

Time Simulator::run() {
  if (sharded_running_) {
    throw std::logic_error("Simulator::run: sharded run already in progress");
  }
  // Attach this simulator's virtual clock so any span opened while an event
  // handler runs carries simulated time alongside wall time. The guard
  // undoes what a run leaves behind however it ends — drained, or unwound
  // by a throwing handler: the clock (it points into this simulator),
  // main_'s in-flight trace (the next top-level send would continue it),
  // and main_'s unfolded counters.
  struct RunGuard {
    Simulator& sim;
    obs::Tracer& tracer;
    ~RunGuard() {
      tracer.clear_virtual_clock();
      sim.main_.cur_trace = obs::TraceContext{};
      sim.fold(sim.main_);
    }
  } const guard{*this, *tracer_};
  tracer_->set_virtual_clock([this] { return main_.now; });
  if (shards_ > 1) return run_sharded();

  // Serial: main_ runs inline — no barriers, mailboxes or deferred replay.
  obs::Span run_span(*tracer_, "sim.run", "sim");
  while (!main_.queue.empty()) step(main_);
  finish_run(/*threaded=*/false, 0);
  return main_.now;
}

void Simulator::add_wiretap(std::function<void(const TraceEntry&)> tap) {
  reject_if_threaded("add_wiretap");
  wiretaps_.push_back(std::move(tap));
}

void Simulator::rebuild_fault_tables() {
  for (auto& [key, ls] : links_) ls.impairment = nullptr;
  partitions_m_.clear();
  offline_m_.clear();
  if (!fault_plan_) return;
  // Intern every address the plan mentions once, here, so per-send checks
  // are flat id-keyed lookups. The pointed-to data lives in fault_plan_.
  for (const auto& [pair, imp] : fault_plan_->per_link()) {
    ensure_link(interner_.intern(pair.first), interner_.intern(pair.second))
        .impairment = &imp;
  }
  for (const auto& [pair, windows] : fault_plan_->partitions()) {
    partitions_m_[pack_link(interner_.intern(pair.first),
                            interner_.intern(pair.second))] = &windows;
  }
  for (const auto& [party, windows] : fault_plan_->offline_windows()) {
    offline_m_[interner_.intern(party)] = &windows;
  }
  for (const BreachEvent& ev : fault_plan_->breaches()) {
    interner_.intern(ev.party);
  }
}

void Simulator::reseed(Shard& sh) {
  sh.fault_rng = std::make_unique<XoshiroRng>(fault_plan_->seed() +
                                              kShardSeedStride * sh.id);
}

void Simulator::install_plan(FaultPlan plan, Shard& home, Time floor) {
  fold(main_);
  if (sharded_running_) {
    for (auto& sh : shard_v_) fold(*sh);
  }
  fault_plan_ = std::move(plan);
  fault_stats_ = FaultStats{};
  bind_fault_metrics();
  rebuild_fault_tables();
  breached_.assign(interner_.size(), kNotBreached);
  reseed(main_);
  for (auto& sh : shard_v_) reseed(*sh);
  for (const BreachEvent& ev : fault_plan_->breaches()) {
    schedule(home, std::max(ev.time, floor), 0,
             [this, ev] { fire_breach(current(), ev); });
  }
}

void Simulator::set_fault_plan(FaultPlan plan) {
  if (sharded_running_) {
    // Mid-run plan swap from a worker thread: stash it; the coordinator
    // installs it at the next window barrier (a deterministic point), when
    // every worker is parked and per-shard fault tables/RNG streams can be
    // rebuilt race-free.
    std::lock_guard<std::mutex> lk(pending_mu_);
    pending_plan_ = std::move(plan);
    return;
  }
  // A plan installed mid-run may carry an already-elapsed breach time; the
  // floor makes it fire immediately instead of at() throwing.
  install_plan(std::move(plan), main_, main_.now);
}

void Simulator::set_flow(obs::FlowLedger* ledger) {
  reject_if_threaded("set_flow");
  flow_ = ledger;
  // now(), not main_.now: on a worker thread it stamps the shard's clock,
  // which is the delivering event's exact virtual time.
  if (flow_) flow_->set_clock([this] { return now(); });
}

void Simulator::set_sampler(obs::TimeSeriesSampler* sampler) {
  reject_if_threaded("set_sampler");
  sampler_ = sampler;
  sampler_next_ = sampler_ != nullptr ? sampler_->next_due() : ~Time{0};
}

void Simulator::set_profiler(EngineProfiler* profiler) {
  reject_if_threaded("set_profiler");
  profiler_ = profiler;
}

void Simulator::set_latency_tracer(LatencyTracer* tracer) {
  reject_if_threaded("set_latency_tracer");
  latency_ = tracer;
}

std::vector<std::string> Simulator::protocol_names() const {
  const std::lock_guard<std::mutex> lk(protocol_mu_);
  std::vector<std::string> names;
  names.reserve(protocols_.size());
  for (const auto& p : protocols_) names.push_back(p->name);
  return names;
}

Time Simulator::now() const { return current().now; }

std::uint64_t Simulator::new_context() {
  // Shard-namespaced: concurrent allocations can't collide, and the ids a
  // node sees depend only on its own shard's deterministic schedule.
  Shard& sh = current();
  return sh.id_base | ++sh.context_counter;
}

std::size_t Simulator::queue_depth() const {
  std::size_t total = main_.queue.size();
  if (sharded_running_) {
    for (const auto& sh : shard_v_) total += sh->queue.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Threaded runs.
//
// Conservative synchronization: every worker advances its shard's calendar
// queue through the window [T_min, T_min + L) where T_min is the global
// minimum pending event time and L is the lookahead — the minimum latency
// any cross-shard delivery can possibly take. Any send issued inside the
// window lands at >= T_min + L, i.e. never inside the window, so workers
// can process their windows with no mid-window communication; cross-shard
// deliveries accumulate in bounded mailboxes and are folded into the
// owner's queue at the barrier in (time, src_shard, src_seq) order.
// Determinism argument (DESIGN.md §13): the window schedule is a pure
// function of event content, the per-window mailbox batch *set* is
// interleaving-independent (every send for the window happens before
// barrier 1), and the merge key is a total order — so a fixed shard count
// replays bit-for-bit no matter how threads interleave.

void Simulator::set_shards(std::uint32_t n) {
  if (n == 0) {
    throw std::invalid_argument("Simulator::set_shards: n must be >= 1");
  }
  reject_if_threaded("set_shards");
  shards_ = n;
}

void Simulator::set_shard_affinity(const Address& address,
                                   std::uint32_t shard) {
  reject_if_threaded("set_shard_affinity");
  shard_pin_[interner_.intern(address)] = shard;
}

std::uint32_t Simulator::shard_of_id(AddressId id) const {
  if (auto it = shard_pin_.find(id); it != shard_pin_.end()) {
    return it->second % shards_;
  }
  if (id < auto_shard_.size() && auto_shard_[id] != kUnassignedShard) {
    return auto_shard_[id] % shards_;
  }
  return id % shards_;
}

void Simulator::add_affinity_hint(const Address& a, const Address& b,
                                  std::uint64_t weight) {
  reject_if_threaded("add_affinity_hint");
  if (weight == 0 || a == b) return;
  affinity_hints_.push_back({interner_.intern(a), interner_.intern(b), weight});
}

void Simulator::compute_auto_affinity() {
  auto_shard_.clear();
  if (affinity_policy_ != AffinityPolicy::kMinCut || shards_ <= 1) return;
  ShardPartitioner::Options opts;
  opts.shards = shards_;
  ShardPartitioner part(opts);
  // Optional traffic seeding: up-weight an edge by how hot the recorded
  // run's shard pair was, approximating the previous placement by
  // id-modulo over the recorded matrix dimension. Only OFF-diagonal cells
  // scale: they measure where the recorded placement bled cross-shard
  // sends, which is what the partitioner can still fix. Diagonal (local)
  // traffic is usually the largest cell, and boosting same-class edges by
  // it would just drag the cut back toward the recorded placement. The
  // structural edges do the partitioning; the seed steers ties toward
  // measured hot pairs.
  const std::size_t prev = affinity_traffic_.size();
  std::uint64_t t_max = 0;
  for (std::size_t i = 0; i < prev; ++i) {
    for (std::size_t j = 0; j < affinity_traffic_[i].size(); ++j) {
      if (i != j) t_max = std::max(t_max, affinity_traffic_[i][j]);
    }
  }
  // Weights are integers, so "steering ties" needs headroom: structural
  // weights are scaled x16 and the traffic bump tops out at 7, strictly
  // below one structural unit. The seed can therefore reorder edges of
  // equal structural weight but never outvote the topology or a hint.
  const auto scaled = [&](AddressId a, AddressId b, std::uint64_t w) {
    if (prev == 0 || t_max == 0) return w;
    const std::size_t sa = a % prev, sb = b % prev;
    if (sa == sb) return w * 16;
    const std::uint64_t t =
        affinity_traffic_[sa][sb] + affinity_traffic_[sb][sa];
    return w * 16 + 7 * t / t_max;
  };
  // Vertices: every address that can receive a delivery. Edge weights are
  // accumulated commutatively, so unordered link-table iteration cannot
  // perturb the (canonicalized) partition.
  for (AddressId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id] != nullptr) part.add_vertex(id);
  }
  for (const auto& [key, ls] : links_) {
    if (!ls.has_latency) continue;
    const AddressId a = link_src(key), b = link_dst(key);
    part.add_edge(a, b, scaled(a, b, 1));
  }
  for (const AffinityHint& h : affinity_hints_) {
    part.add_edge(h.a, h.b, scaled(h.a, h.b, h.weight));
  }
  for (const auto& [id, shard] : shard_pin_) part.pin(id, shard % shards_);
  auto_shard_ = part.partition().assignment;
}

std::vector<std::vector<Time>> Simulator::compute_lookahead_matrix() const {
  // L[src][dst] = the minimum latency any src-shard -> dst-shard delivery
  // can take. Unconnected pairs fall back to the default latency, so it
  // always bounds every cell; explicit cross-shard links only tighten
  // their own cell. Jitter, bandwidth serialization, and extra_delay only
  // add. Shard pairs without a tight link keep the (wider) default, which
  // is exactly what lets them advance in wider windows than the old global
  // minimum allowed.
  std::vector<std::vector<Time>> m(shards_,
                                   std::vector<Time>(shards_,
                                                     default_latency_));
  for (const auto& [key, ls] : links_) {
    if (!ls.has_latency) continue;
    const std::uint32_t s = shard_of_id(link_src(key));
    const std::uint32_t d = shard_of_id(link_dst(key));
    if (s == d) continue;
    m[s][d] = std::min(m[s][d], ls.latency);
  }
  // Per-pair windows must bound *every* chain an event can ride, not just
  // the direct hop: an event leaving shard k can be relayed through any
  // other shard (even one whose queue is empty right now) and reach i via
  // a path cheaper than the direct k->i cell. Close the matrix to
  // all-pairs shortest paths (Floyd–Warshall; shards_ is small), with the
  // diagonal holding the minimum *cycle* through each shard — the earliest
  // a shard's own pending work can boomerang back into its inbox.
  std::vector<std::vector<Time>> d(shards_,
                                   std::vector<Time>(shards_,
                                                     CalendarQueue::kNever));
  for (std::uint32_t i = 0; i < shards_; ++i) {
    for (std::uint32_t j = 0; j < shards_; ++j) {
      if (i != j) d[i][j] = m[i][j];
    }
  }
  for (std::uint32_t k = 0; k < shards_; ++k) {
    for (std::uint32_t i = 0; i < shards_; ++i) {
      if (d[i][k] == CalendarQueue::kNever) continue;
      for (std::uint32_t j = 0; j < shards_; ++j) {
        if (d[k][j] == CalendarQueue::kNever) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

void Simulator::build_shards() {
  shard_v_.clear();
  shard_v_.reserve(shards_);
  for (std::uint32_t i = 0; i < shards_; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->id = i;
    sh->id_base = static_cast<std::uint64_t>(i + 1) << 48;
    sh->sim = this;
    sh->lane = std::make_unique<LatencyLane>();
    sh->traffic.assign(shards_, 0);
    if (fault_plan_) reseed(*sh);
    shard_v_.push_back(std::move(sh));
  }
}

void Simulator::redistribute_initial_events() {
  // Drain main_'s queue in its exact (time, seq) order and re-home each
  // event on its owning worker with a fresh shard-local seq — relative
  // order within a shard is preserved, so the partition is deterministic.
  while (!main_.queue.empty()) {
    const EngineEvent ev = main_.queue.pop();
    if (ev.kind == EngineEvent::kCallback) {
      // at_node() callbacks carry their owning address (context = id + 1)
      // and run on that address's shard — a workload kickoff originates on
      // the client's own shard instead of turning into a cross-shard push.
      // Untagged at() callbacks stay on shard 0 (workload scaffolding —
      // plan installs, global staging — not per-node hot work).
      const std::uint32_t target =
          ev.context != 0
              ? shard_of_id(static_cast<AddressId>(ev.context - 1))
              : 0;
      schedule(*shard_v_[target], ev.time, 0,
               main_.take_callback(ev.handle));
      continue;
    }
    Shard& sh = *shard_v_[shard_of_id(link_dst(ev.link_key))];
    EngineEvent nev = ev;
    nev.seq = ++sh.event_seq;
    nev.handle = sh.pool.acquire(main_.pool.take(ev.handle));
    enqueue(sh, nev);
  }
}

void Simulator::drain_inbox_into_queue(Shard& sh) {
  sh.inbox.drain(sh.staged);
  if (sh.staged.empty()) return;
  // The deterministic merge: sort the complete window batch by
  // (time, src_shard, src_seq) — a total order independent of arrival
  // interleaving — then enqueue with fresh local seqs. Local events pushed
  // during the window already hold lower seqs, so at equal times local
  // fires before incoming: a fixed, interleaving-free rule.
  std::sort(sh.staged.begin(), sh.staged.end(),
            [](const ShardEvent& a, const ShardEvent& b) {
              return merges_before(a, b);
            });
  for (ShardEvent& xev : sh.staged) {
    xev.event.seq = ++sh.event_seq;
    xev.event.handle = sh.pool.acquire(std::move(xev.payload));
    enqueue(sh, xev.event);
  }
  sh.staged.clear();
}

void Simulator::replay_deferred(Time cutoff) {
  deferred_.commit_before(cutoff, [this](const DeliveryRecord& rec) {
    main_.now = rec.time;  // taps reading the main clock see the event's time
    emit(rec);
  });
}

Time Simulator::run_sharded() {
  // Placement before lookahead: the pairwise matrix and the initial event
  // redistribution both depend on shard_of_id, which the kMinCut policy
  // rewires here (deterministically — same topology, same placement).
  compute_auto_affinity();
  const std::vector<std::vector<Time>> lookahead = compute_lookahead_matrix();
  Time min_lookahead = default_latency_;
  for (std::uint32_t i = 0; i < shards_; ++i) {
    for (std::uint32_t j = 0; j < shards_; ++j) {
      if (i != j) min_lookahead = std::min(min_lookahead, lookahead[i][j]);
    }
  }
  if (min_lookahead == 0) {
    throw std::invalid_argument(
        "Simulator: sharded run requires a positive minimum cross-shard "
        "link latency (the lookahead window would be empty)");
  }
  build_shards();
  deferred_.reset(shards_);
  redistribute_initial_events();
  // One lane per shard plus a dedicated coordinator lane: wiretap taps that
  // record flow ops during the barrier replay must not interleave into a
  // worker's (time-monotone) lane, or the incremental prefix commit would
  // see a non-monotone lane and commit out of order.
  if (flow_ != nullptr) flow_->begin_staging(shards_ + 1);

  shard_stats_ = ShardRunStats{};
  shard_stats_.shards = shards_;
  shard_stats_.lookahead_us = min_lookahead;
  shard_stats_.policy = affinity_policy_;
  for (std::vector<std::uint64_t>* per_shard :
       {&shard_stats_.events, &shard_stats_.deliveries,
        &shard_stats_.cross_sends, &shard_stats_.local_sends,
        &shard_stats_.busy_ns, &shard_stats_.barrier_wait_ns,
        &shard_stats_.mailbox_full_stalls}) {
    per_shard->assign(shards_, 0);
  }
  shard_stats_.traffic.assign(shards_,
                              std::vector<std::uint64_t>(shards_, 0));

  // Window state: written by the main thread here and by the barrier
  // completion function (all workers parked), read by workers only after a
  // barrier release — which synchronizes-with the completing write.
  // Per-pair windows: shard i may advance to the earliest instant any
  // pending work anywhere could still reach it — end_i = min over shards j
  // with a nonempty queue of (t_j + D[j][i]), where D is the shortest-path
  // closure of the latency matrix (D[i][i] = min cycle, bounding i's own
  // work boomeranging back). Every future cross-shard arrival at i descends
  // from some event pending now at a nonempty shard j with time >= t_j, and
  // every relay chain j -> ... -> i (empty intermediates included) costs at
  // least D[j][i], so it lands at >= t_j + D[j][i] >= end_i: nothing a
  // shard processes this round can be preceded by a later merge, and shard
  // pairs with slack advance in wider windows than the old global minimum.
  std::vector<Time> window_end(shards_, 0);
  std::vector<Time> next(shards_, CalendarQueue::kNever);
  bool done = false;
  std::uint64_t windows = 0;
  std::atomic<bool> abort{false};
  std::exception_ptr coordinator_error;

  auto refresh_next = [&]() {
    Time t_min = CalendarQueue::kNever;
    for (std::uint32_t i = 0; i < shards_; ++i) {
      next[i] = shard_v_[i]->queue.next_time();
      t_min = std::min(t_min, next[i]);
    }
    return t_min;
  };
  auto open_windows = [&]() {
    for (std::uint32_t i = 0; i < shards_; ++i) {
      Time end = CalendarQueue::kNever;
      for (std::uint32_t j = 0; j < shards_; ++j) {
        if (next[j] == CalendarQueue::kNever ||
            lookahead[j][i] == CalendarQueue::kNever) {
          continue;
        }
        end = std::min(end, next[j] + lookahead[j][i]);
      }
      window_end[i] = end;  // kNever: nothing can reach i — run to empty
    }
  };

  if (refresh_next() == CalendarQueue::kNever) {
    done = true;
  } else {
    open_windows();
  }

  run_abort_ = &abort;
  sharded_running_ = true;

  auto on_window_complete = [&]() noexcept {
    // Runs with every worker parked: exclusive access to all state. The
    // hosting thread is whichever worker arrived last — blank its TLS (and
    // park its ledger lane on the coordinator lane) so now()/send routing
    // and staged flow ops resolve to main_ (deterministically), whatever
    // thread won the race.
    Shard* const tls_saved = tls_shard_;
    tls_shard_ = nullptr;
    const std::uint32_t lane_saved = obs::FlowLedger::lane();
    obs::FlowLedger::set_lane(shards_);
    try {
      ++windows;
      // Incremental commit: everything strictly before the next round's
      // first event is safe — no future event (including a pending-plan
      // breach, floored at t_min) can produce an earlier record. Records
      // at exactly t_min stay buffered so they merge with that event's
      // own output next round.
      Time t_min = refresh_next();
      replay_deferred(t_min);
      if (flow_ != nullptr) flow_->commit_staged_before(t_min);
      std::optional<FaultPlan> plan;
      {
        std::lock_guard<std::mutex> lk(pending_mu_);
        plan.swap(pending_plan_);
      }
      if (plan) {
        // Breach implants run on worker 0 (like every addressless
        // callback). The floor keeps the calendar's monotonic-push
        // contract: worker 0 may have processed past the next window's
        // start.
        Shard& home = *shard_v_[0];
        const Time start = t_min == CalendarQueue::kNever ? main_.now : t_min;
        install_plan(std::move(*plan), home, std::max(start, home.now));
        t_min = refresh_next();
      }
      if (abort.load(std::memory_order_relaxed) ||
          t_min == CalendarQueue::kNever) {
        done = true;
      } else {
        main_.now = t_min;
        if (sampler_ != nullptr && t_min >= sampler_next_) {
          // Window-granular sampling: probes see barrier-consistent state
          // stamped at the window's opening virtual time.
          sample(t_min);
        }
        open_windows();
      }
    } catch (...) {
      coordinator_error = std::current_exception();
      done = true;
    }
    obs::FlowLedger::set_lane(lane_saved);
    tls_shard_ = tls_saved;
  };

  const std::vector<int> cpus = worker_cpus(shards_);
  const std::chrono::nanoseconds spin =
      cpus.empty() ? std::chrono::nanoseconds{0} : kBarrierSpin;
  WindowBarrier sends_done(shards_, spin);
  WindowBarrier window_done(shards_, spin, on_window_complete);

  auto worker = [&](std::uint32_t idx) {
    if (!cpus.empty()) pin_current_thread(cpus[idx]);
    Shard& sh = *shard_v_[idx];
    tls_shard_ = &sh;
    obs::FlowLedger::set_lane(idx);
    // Contention attribution: split each round's wall time between doing
    // work (process + drain) and waiting on the two barriers. The updates
    // land after the barriers release, so coordinator-side probe reads
    // (which run with all workers parked) never race — they just lag one
    // barrier segment.
    using wall = std::chrono::steady_clock;
    const auto ns_between = [](wall::time_point a, wall::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    };
    while (!done) {
      const auto t0 = wall::now();
      try {
        // The window: every event before window_end[idx] (kNever sorts
        // after any end), stopping early once another shard failed.
        while (!abort.load(std::memory_order_relaxed) &&
               sh.queue.next_time() < window_end[idx]) {
          step(sh);
        }
      } catch (...) {
        sh.error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
      const auto t1 = wall::now();
      // Barrier 1: all sends for this window have landed — every inbox
      // holds its complete batch.
      sends_done.arrive_and_wait();
      const auto t2 = wall::now();
      drain_inbox_into_queue(sh);
      const auto t3 = wall::now();
      // Barrier 2: the completion function replays observability, installs
      // any pending fault plan, and opens the next window.
      window_done.arrive_and_wait();
      const auto t4 = wall::now();
      sh.busy_ns += ns_between(t0, t1) + ns_between(t2, t3);
      sh.barrier_ns += ns_between(t1, t2) + ns_between(t3, t4);
    }
    tls_shard_ = nullptr;
  };

  if (!done) {
    std::vector<std::thread> threads;
    threads.reserve(shards_);
    for (std::uint32_t i = 0; i < shards_; ++i) {
      threads.emplace_back(worker, i);
    }
    for (std::thread& t : threads) t.join();
  }

  sharded_running_ = false;
  run_abort_ = nullptr;
  // Leave the ledger usable (and flush any last staged ops) even when the
  // run is about to rethrow a worker error.
  if (flow_ != nullptr) flow_->end_staging();

  if (coordinator_error) std::rethrow_exception(coordinator_error);
  for (const auto& sh : shard_v_) {
    if (sh->error) std::rethrow_exception(sh->error);
  }
  finish_run(/*threaded=*/true, windows);
  return main_.now;
}

std::uint64_t Simulator::sum_over_workers(std::uint64_t Shard::*field) const {
  std::uint64_t total = 0;
  for (const auto& sh : shard_v_) total += (*sh).*field;
  return total;
}

bool Simulator::is_breached(const Address& party) const {
  return breached_at(party).has_value();
}

std::optional<Time> Simulator::breached_at(const Address& party) const {
  const auto id = interner_.lookup(party);
  if (!id || *id >= breached_.size() || breached_[*id] == kNotBreached) {
    return std::nullopt;
  }
  return breached_[*id];
}

}  // namespace dcpl::net
