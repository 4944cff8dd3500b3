// Failure paths of the fiber DES engine: deadlock detection and a mid-run
// rank error both tear the run down by unwinding every parked fiber, and
// the same Engine must then rerun clean — fresh clocks, empty inboxes, no
// stale events, statistics of its own. The sanitizer CI legs run this
// suite on its own because these paths abandon fiber stacks mid-frame.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace repro::sim {
namespace {

TEST(EngineTest, DeadlockIsDetectedAndEngineSurvives) {
  Engine engine(2);
  EXPECT_THROW(engine.run([&](RankCtx& ctx) {
    ctx.checkpoint();
    ctx.block();  // nobody will ever wake anyone
  }),
               util::Error);

  // Teardown must leave the engine reusable: the rerun sees fresh clocks,
  // no stale events, and statistics of its own.
  int ran = 0;
  engine.run([&](RankCtx& ctx) {
    ctx.advance(1.0);
    ctx.checkpoint();
    if (ctx.rank() == 0) ++ran;
    EXPECT_TRUE(ctx.inbox().empty());
  });
  EXPECT_EQ(ran, 1);
}

TEST(EngineTest, MidRunErrorAbortsAllRanksAndRerunsClean) {
  Engine engine(3);
  // Rank 1 dies with a message in flight to rank 2; the others are parked
  // in checkpoint/block and must be unwound by the abort, not reported as
  // a deadlock.
  try {
    engine.run([&](RankCtx& ctx) {
      if (ctx.rank() == 1) {
        ctx.post(ctx.now() + 100.0, 2, 7);
        throw util::Error("rank 1 exploded");
      }
      ctx.advance(1.0);
      ctx.checkpoint();
      ctx.block();
    });
    FAIL() << "expected the rank's error";
  } catch (const util::Error& e) {
    EXPECT_STREQ(e.what(), "rank 1 exploded");
  }

  // The rerun must not see the aborted run's event, abort flag, or error,
  // and the statistics must be this run's alone.
  std::vector<int> ran(3, 0);
  engine.run([&](RankCtx& ctx) {
    ctx.advance(200.0);  // past the stale event's delivery time
    ctx.checkpoint();
    ran[static_cast<std::size_t>(ctx.rank())] = 1;
    EXPECT_TRUE(ctx.inbox().empty());
    EXPECT_DOUBLE_EQ(ctx.now(), 200.0);  // clocks restarted at zero
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(engine.events_processed(), 0u);
}

}  // namespace
}  // namespace repro::sim
