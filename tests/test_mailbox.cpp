// ShardMailbox: bounded MPSC queue semantics under real concurrency —
// randomized multi-producer bursts, full-queue backpressure accounting,
// close-while-nonempty draining, and payload integrity end to end.
#include "net/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace dcpl::net {
namespace {

ShardEvent make_event(std::uint32_t src_shard, std::uint64_t seq, Time t) {
  ShardEvent ev;
  ev.event.time = t;
  ev.event.link_key = (static_cast<std::uint64_t>(src_shard) << 32) | seq;
  ev.event.context = seq * 31 + src_shard;
  ev.src_shard = src_shard;
  ev.src_seq = seq;
  // Payload encodes (shard, seq) so the consumer can verify integrity.
  ev.payload = {static_cast<std::uint8_t>(src_shard),
                static_cast<std::uint8_t>(seq & 0xff),
                static_cast<std::uint8_t>((seq >> 8) & 0xff)};
  return ev;
}

TEST(ShardMailbox, SingleThreadedPushDrainRoundTrip) {
  ShardMailbox box(8);
  EXPECT_EQ(box.capacity(), 8u);
  EXPECT_EQ(box.size(), 0u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(box.try_push(make_event(0, i, 100 * i)));
  }
  EXPECT_EQ(box.size(), 5u);
  EXPECT_EQ(box.accepted(), 5u);

  std::vector<ShardEvent> out;
  EXPECT_EQ(box.drain(out), 5u);
  EXPECT_EQ(box.size(), 0u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].src_seq, i);  // FIFO per producer
    EXPECT_EQ(out[i].event.time, 100 * i);
  }
}

TEST(ShardMailbox, DrainAppendsToExistingBuffer) {
  ShardMailbox box(8);
  std::vector<ShardEvent> out;
  out.push_back(make_event(9, 999, 1));
  ASSERT_TRUE(box.try_push(make_event(0, 1, 2)));
  EXPECT_EQ(box.drain(out), 1u);
  ASSERT_EQ(out.size(), 2u);  // staged events from a prior drain survive
  EXPECT_EQ(out[0].src_seq, 999u);
  EXPECT_EQ(out[1].src_seq, 1u);
}

TEST(ShardMailbox, FullQueueRejectsWithoutConsumingEvent) {
  ShardMailbox box(2);
  ASSERT_TRUE(box.try_push(make_event(0, 0, 0)));
  ASSERT_TRUE(box.try_push(make_event(0, 1, 0)));

  ShardEvent ev = make_event(0, 2, 0);
  const Bytes payload_before = ev.payload;
  EXPECT_FALSE(box.try_push(std::move(ev)));
  // Rejection must not consume the payload: the producer retries the same
  // event after backing off.
  EXPECT_EQ(ev.payload, payload_before);
  EXPECT_EQ(box.rejected_full(), 1u);

  std::vector<ShardEvent> out;
  box.drain(out);
  EXPECT_TRUE(box.try_push(std::move(ev)));  // room again after drain
  EXPECT_EQ(box.accepted(), 3u);
}

TEST(ShardMailbox, CloseRejectsNewPushesButLeavesQueueDrainable) {
  ShardMailbox box(8);
  ASSERT_TRUE(box.try_push(make_event(0, 0, 5)));
  ASSERT_TRUE(box.try_push(make_event(0, 1, 6)));
  box.close();
  EXPECT_TRUE(box.closed());
  EXPECT_FALSE(box.try_push(make_event(0, 2, 7)));
  EXPECT_EQ(box.rejected_closed(), 1u);
  // Shutdown-while-nonempty: queued events are not lost.
  std::vector<ShardEvent> out;
  EXPECT_EQ(box.drain(out), 2u);
  EXPECT_EQ(out.size(), 2u);
}

// Randomized multi-producer soak: P producers push bursts with random
// payload sizes against a deliberately tiny capacity while one consumer
// drains; every accepted event must come out exactly once, uncorrupted,
// and in per-producer FIFO order.
TEST(ShardMailbox, RandomizedMultiProducerSoak) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  ShardMailbox box(64);  // small: forces constant full-queue backpressure

  std::atomic<std::uint32_t> live{kProducers};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &live, p] {
      XoshiroRng rng(0xFEEDULL + p);
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ShardEvent ev = make_event(p, i, i);
        ev.payload.assign(1 + rng.below(64),
                          static_cast<std::uint8_t>(p * 7 + 1));
        ev.payload[0] = static_cast<std::uint8_t>(p);
        while (!box.try_push(std::move(ev))) {
          std::this_thread::yield();
        }
        if (rng.below(16) == 0) std::this_thread::yield();  // jitter bursts
      }
      live.fetch_sub(1);
    });
  }

  std::vector<ShardEvent> got;
  std::vector<ShardEvent> batch;
  while (live.load() != 0 || box.size() != 0) {
    batch.clear();
    if (box.drain(batch) == 0) {
      std::this_thread::yield();
      continue;
    }
    got.insert(got.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  for (auto& t : producers) t.join();
  box.drain(got);  // anything raced in after the last size() check

  ASSERT_EQ(got.size(), kProducers * kPerProducer);
  EXPECT_EQ(box.accepted(), kProducers * kPerProducer);

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  for (const ShardEvent& ev : got) {
    ASSERT_LT(ev.src_shard, kProducers);
    // Per-producer FIFO: a producer's events drain in push order.
    EXPECT_EQ(ev.src_seq, next_seq[ev.src_shard]);
    ++next_seq[ev.src_shard];
    // Payload integrity across the handoff.
    ASSERT_FALSE(ev.payload.empty());
    EXPECT_EQ(ev.payload[0], static_cast<std::uint8_t>(ev.src_shard));
    for (std::size_t i = 1; i < ev.payload.size(); ++i) {
      EXPECT_EQ(ev.payload[i],
                static_cast<std::uint8_t>(ev.src_shard * 7 + 1));
    }
  }
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer);
  }
}

// Producers hammer a closing mailbox: after close(), every push must be
// rejected and counted, and the pre-close contents drain intact.
TEST(ShardMailbox, ShutdownWhileProducersActive) {
  ShardMailbox box(4096);
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < 3; ++p) {
    producers.emplace_back([&box, &stop, p] {
      std::uint64_t seq = 0;
      while (!stop.load()) {
        box.try_push(make_event(p, seq, seq + 1));
        ++seq;
      }
      // A burst straight into the closed mailbox.
      for (int i = 0; i < 100; ++i) {
        box.try_push(make_event(p, seq, seq + 1));
        ++seq;
      }
    });
  }
  while (box.accepted() < 1000) std::this_thread::yield();
  box.close();
  stop.store(true);
  for (auto& t : producers) t.join();

  std::vector<ShardEvent> out;
  box.drain(out);
  EXPECT_EQ(out.size(), box.accepted());  // nothing accepted was lost
  EXPECT_GE(box.rejected_closed(), 300u);  // the post-close bursts all bounced
  EXPECT_EQ(box.size(), 0u);
}

TEST(ShardMailbox, MergeOrderIsTotalOnTimeShardSeq) {
  // merges_before drives the deterministic fold; spot-check the key order.
  ShardEvent a = make_event(0, 5, 100);
  ShardEvent b = make_event(1, 2, 100);
  ShardEvent c = make_event(1, 3, 100);
  ShardEvent d = make_event(0, 1, 99);
  EXPECT_TRUE(merges_before(d, a));   // earlier time first
  EXPECT_TRUE(merges_before(a, b));   // tie on time: lower shard first
  EXPECT_TRUE(merges_before(b, c));   // tie on (time, shard): lower seq
  EXPECT_FALSE(merges_before(a, a));  // irreflexive (strict weak order)
}

}  // namespace
}  // namespace dcpl::net
