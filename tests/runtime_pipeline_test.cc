#include "src/runtime/pipeline.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/dur/durable.h"
#include "src/obs/clock.h"
#include "src/obs/debug_server.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::PaperExampleGraph;
using testing_util::PaperExamplePosts;
using testing_util::PaperExampleThresholds;

TEST(VectorSourceTest, YieldsAllPostsThenStops) {
  const PostStream stream = PaperExamplePosts();
  VectorSource source(&stream);
  Post post;
  size_t count = 0;
  while (source.Next(&post)) {
    EXPECT_EQ(post.id, count);
    ++count;
  }
  EXPECT_EQ(count, stream.size());
  EXPECT_FALSE(source.Next(&post));  // stays exhausted
}

TEST(PipelineTest, DeliversExactlyTheDiversifiedSubStream) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream stream = PaperExamplePosts();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  PostStream delivered;
  CollectSink sink(&delivered);
  Pipeline pipeline(diversifier.get(), &sink);
  VectorSource source(&stream);
  const PipelineReport report = pipeline.Run(source);

  EXPECT_EQ(report.posts_in, 5u);
  EXPECT_EQ(report.posts_out, 3u);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0].id, 0u);  // P1
  EXPECT_EQ(delivered[1].id, 1u);  // P2
  EXPECT_EQ(delivered[2].id, 3u);  // P4
  EXPECT_EQ(report.decision_latency.count, 5u);
  EXPECT_GT(report.decision_latency.mean_us, 0.0);
}

TEST(PipelineTest, CountingSinkCounts) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream stream = PaperExamplePosts();
  auto diversifier =
      MakeDiversifier(Algorithm::kCliqueBin, PaperExampleThresholds(), &graph);
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink);
  VectorSource source(&stream);
  pipeline.Run(source);
  EXPECT_EQ(sink.count(), 3u);
}

TEST(PipelineTest, EmptyStream) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream empty;
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink);
  VectorSource source(&empty);
  const PipelineReport report = pipeline.Run(source);
  EXPECT_EQ(report.posts_in, 0u);
  EXPECT_EQ(report.posts_out, 0u);
  EXPECT_EQ(sink.count(), 0u);
}

/// Pass-through source that snapshots the /statusz runtime block before
/// yielding each post, so a test can read what a scrape saw mid-run.
class StatusSnoopingSource final : public PostSource {
 public:
  StatusSnoopingSource(const PostStream* stream, const obs::DebugState* debug)
      : inner_(stream), debug_(debug) {}
  bool Next(Post* post) override {
    seen.push_back(debug_->status_json());
    return inner_.Next(post);
  }

  std::vector<std::string> seen;  // seen[k]: after k posts were decided

 private:
  VectorSource inner_;
  const obs::DebugState* debug_;
};

TEST(PipelineTest, StatuszModeIsOfflineThenDrained) {
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream stream = PaperExamplePosts();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  CountingSink sink;
  Pipeline pipeline(diversifier.get(), &sink);
  obs::ManualClock clock(/*start_nanos=*/1'000, /*auto_advance_nanos=*/1'000);
  obs::DebugState debug;
  PipelineObs o;
  o.clock = &clock;
  o.debug = &debug;
  o.publish_interval_nanos = 0;  // publish after every post
  StatusSnoopingSource source(&stream, &debug);
  pipeline.Run(source, o);

  ASSERT_EQ(source.seen.size(), stream.size() + 1);
  EXPECT_EQ(source.seen[0], "");  // nothing published before the first post
  for (size_t k = 1; k < source.seen.size(); ++k) {
    EXPECT_NE(source.seen[k].find("\"mode\": \"offline\""), std::string::npos)
        << "after " << k << " posts: " << source.seen[k];
  }
  EXPECT_NE(debug.status_json().find("\"mode\": \"drained\""),
            std::string::npos)
      << debug.status_json();
}

TEST(PipelineTest, StatuszModeIsDurableWithASession) {
  const std::string dir =
      std::string("runtime_pipeline_test_tmp_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(dir);
  const AuthorGraph graph = PaperExampleGraph();
  const PostStream stream = PaperExamplePosts();
  auto diversifier =
      MakeDiversifier(Algorithm::kUniBin, PaperExampleThresholds(), &graph);
  obs::ManualClock clock(/*start_nanos=*/1'000, /*auto_advance_nanos=*/1'000);
  dur::DurableOptions options;
  options.dir = dir;
  options.clock = &clock;
  dur::DurableSession session(options, diversifier.get());
  dur::RecoveryReport recovery;
  std::string error;
  ASSERT_TRUE(session.Recover(&recovery, nullptr, &error)) << error;

  PostStream delivered;
  CollectSink sink(&delivered);
  Pipeline pipeline(diversifier.get(), &sink);
  obs::DebugState debug;
  PipelineObs o;
  o.clock = &clock;
  o.debug = &debug;
  o.publish_interval_nanos = 0;
  PipelineDur d;
  d.session = &session;
  StatusSnoopingSource source(&stream, &debug);
  const PipelineReport report = pipeline.Run(source, o, d);
  EXPECT_FALSE(report.io_error);
  EXPECT_EQ(delivered.size(), 3u);  // same decisions as the offline run

  ASSERT_EQ(source.seen.size(), stream.size() + 1);
  for (size_t k = 1; k < source.seen.size(); ++k) {
    EXPECT_NE(source.seen[k].find("\"mode\": \"durable\""), std::string::npos)
        << "after " << k << " posts: " << source.seen[k];
    EXPECT_NE(source.seen[k].find("\"wal_next_seq\": " + std::to_string(k)),
              std::string::npos)
        << source.seen[k];
  }
  EXPECT_NE(debug.status_json().find("\"mode\": \"drained\""),
            std::string::npos);
  EXPECT_TRUE(session.Close(/*output_bytes=*/0));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace firehose
