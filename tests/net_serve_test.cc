// In-process serving-layer tests (src/net/server + src/net/client): a
// real Server on an ephemeral loopback port, driven by ServeClient.
// The core property is exactness — for any shard count, the timelines
// served over the socket equal the sequential S_* engine's per-user
// deliveries byte for byte — plus durability (graceful stop, restart,
// resend, dedupe), idle shard workers parking and waking without a
// lost wakeup, and protocol error handling.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/firehose.h"

namespace firehose {
namespace net {
namespace {

struct Workload {
  AuthorGraph graph;
  PostStream stream;
  std::vector<User> users;
};

/// Small but structurally rich workload: community-clustered authors so
/// components are shared, §6.3 user population (every author with a
/// nonempty followee set subscribes to it).
Workload MakeWorkload() {
  Workload w;
  SocialGraphOptions social_options;
  social_options.num_authors = 120;
  social_options.num_communities = 5;
  social_options.avg_followees = 12.0;
  social_options.seed = 20260808;
  const FollowGraph social = GenerateSocialGraph(social_options);

  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const auto similarities = AllPairsSimilarity(social, authors, 0.05);
  w.graph = AuthorGraph::FromSimilarities(authors, similarities, 0.7);

  StreamGenOptions stream_options;
  stream_options.posts_per_author = 6.0;
  stream_options.seed = 11;
  const SimHasher hasher;
  w.stream = GenerateStream(w.graph, hasher, stream_options);

  for (AuthorId a = 0; a < social.num_authors(); ++a) {
    const auto& followees = social.Followees(a);
    if (followees.empty()) continue;
    w.users.emplace_back(static_cast<UserId>(w.users.size()), followees);
  }
  return w;
}

/// Per-user expected timelines from the sequential S_* engine.
std::vector<std::vector<PostId>> ExpectedTimelines(const Workload& w,
                                                   Algorithm algorithm,
                                                   DiversityThresholds t) {
  auto engine = MakeSUserEngine(algorithm, t, w.graph, w.users);
  std::vector<std::pair<PostId, UserId>> deliveries;
  (void)RunMultiUser(*engine, w.stream, &deliveries);
  std::vector<std::vector<PostId>> timelines(w.users.size());
  for (const auto& [post, user] : deliveries) timelines[user].push_back(post);
  return timelines;
}

class NetServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = MakeWorkload();
    ASSERT_GT(workload_.users.size(), 50u);
    ASSERT_GT(workload_.stream.size(), 300u);
    // One directory per test: ctest runs each TEST as its own process,
    // in parallel, so a shared name lets one test's cleanup delete
    // another's WAL.
    data_dir_ = std::string("net_serve_test_data_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(data_dir_);
  }

  void TearDown() override { std::filesystem::remove_all(data_dir_); }

  /// Follows + seals the §6.3 population through `client`.
  void SealUsers(ServeClient& client) {
    for (const User& user : workload_.users) {
      for (const AuthorId author : user.subscriptions) {
        ASSERT_TRUE(client.Follow(user.id, author)) << client.last_error();
      }
    }
    ASSERT_TRUE(client.Seal(workload_.users.size())) << client.last_error();
  }

  void SendStream(ServeClient& client) {
    for (const Post& post : workload_.stream) {
      ASSERT_TRUE(client.SendPost(post)) << client.last_error();
    }
    ASSERT_TRUE(client.Flush()) << client.last_error();
  }

  void ExpectServedTimelinesMatch(ServeClient& client,
                                  const std::vector<std::vector<PostId>>&
                                      expected) {
    for (const User& user : workload_.users) {
      std::vector<PostId> served;
      ASSERT_TRUE(client.Poll(user.id, 0, &served)) << client.last_error();
      EXPECT_EQ(served, expected[user.id]) << "user " << user.id;
    }
  }

  ServeOptions Options(uint32_t num_shards, const std::string& data_dir = "") {
    ServeOptions options;
    options.num_shards = num_shards;
    options.algorithm = Algorithm::kCliqueBin;
    options.data_dir = data_dir;
    options.wal_sync = "none";  // graceful Stop closes cleanly regardless
    return options;
  }

  /// Alternates Poll and Flush round trips, each after an idle gap in
  /// which every worker drains its queue and parks, so each barrier (and
  /// the posts trickled in ahead of it) must wake parked workers. A lost
  /// wakeup fails the round trip at the client's response timeout and
  /// then hangs Stop().
  void AlternatePollAndFlushAcrossIdleGaps(uint32_t num_shards) {
    Server server(Options(num_shards), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);

    const auto expected = ExpectedTimelines(workload_, Algorithm::kCliqueBin,
                                            DiversityThresholds{});
    std::map<PostId, size_t> position;
    for (size_t i = 0; i < workload_.stream.size(); ++i) {
      position[workload_.stream[i].id] = i;
    }

    constexpr size_t kRoundTrips = 2000;
    size_t sent = 0;
    uint64_t last_ingested = 0;
    for (size_t i = 0; i < kRoundTrips; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      const size_t target = workload_.stream.size() * (i + 1) / kRoundTrips;
      for (; sent < target; ++sent) {
        ASSERT_TRUE(client.SendPost(workload_.stream[sent]))
            << client.last_error();
      }
      if (i % 2 == 0) {
        uint64_t ingested = 0;
        uint64_t duplicates = 0;
        ASSERT_TRUE(client.Flush(&ingested, &duplicates))
            << client.last_error() << " at round trip " << i;
        EXPECT_GE(ingested, last_ingested);
        EXPECT_EQ(duplicates, 0u);
        last_ingested = ingested;
        continue;
      }
      // Timelines append in post order, so after `sent` posts a user's
      // timeline is the prefix of the final one drawn from those posts.
      const User& user = workload_.users[(i / 2) % workload_.users.size()];
      std::vector<PostId> want;
      for (PostId id : expected[user.id]) {
        if (position.at(id) < sent) want.push_back(id);
      }
      std::vector<PostId> served;
      ASSERT_TRUE(client.Poll(user.id, 0, &served))
          << client.last_error() << " at round trip " << i;
      ASSERT_EQ(served, want) << "user " << user.id << " after " << sent
                              << " posts";
    }
    ASSERT_EQ(sent, workload_.stream.size());
    ExpectServedTimelinesMatch(client, expected);
    client.Disconnect();
    server.Stop();
    EXPECT_EQ(server.stats().posts_received, workload_.stream.size());
  }

  /// Stops a sealed server whose workers have all parked: the kStop
  /// command must wake each one, or Stop() hangs in Join.
  void StopWhileEveryWorkerIsParked(uint32_t num_shards) {
    Server server(Options(num_shards), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    {
      ServeClient client;
      ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
      SealUsers(client);
      ASSERT_TRUE(client.Flush()) << client.last_error();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.Stop();
    EXPECT_EQ(server.stats().posts_ingested, 0u);
  }

  std::string data_dir_;
  Workload workload_;
};

TEST_F(NetServeTest, ServedTimelinesEqualSequentialEngineOneShard) {
  Server server(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServeClient client;
  ServeClient::ConnectInfo info;
  ASSERT_TRUE(client.Connect(server.port(), &info)) << client.last_error();
  EXPECT_EQ(info.num_shards, 1u);
  EXPECT_FALSE(info.sealed);

  SealUsers(client);
  SendStream(client);
  const auto expected =
      ExpectedTimelines(workload_, Algorithm::kCliqueBin, DiversityThresholds{});
  ExpectServedTimelinesMatch(client, expected);
  client.Disconnect();
  server.Stop();
}

class NetServeAlgorithmTest
    : public NetServeTest,
      public ::testing::WithParamInterface<Algorithm> {};

TEST_P(NetServeAlgorithmTest, ServedTimelinesEqualSequentialEngineThreeShards) {
  const Algorithm algorithm = GetParam();
  ServeOptions options = Options(3);
  options.algorithm = algorithm;
  Server server(options, &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServeClient client;
  ServeClient::ConnectInfo info;
  ASSERT_TRUE(client.Connect(server.port(), &info)) << client.last_error();
  EXPECT_EQ(info.num_shards, 3u);

  SealUsers(client);
  SendStream(client);
  const auto expected =
      ExpectedTimelines(workload_, algorithm, DiversityThresholds{});
  ExpectServedTimelinesMatch(client, expected);
  client.Disconnect();
  server.Stop();

  uint64_t expected_deliveries = 0;
  for (const std::vector<PostId>& timeline : expected) {
    expected_deliveries += timeline.size();
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.posts_received, workload_.stream.size());
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.deliveries, expected_deliveries);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, NetServeAlgorithmTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(AlgorithmName(info.param));
    });

TEST_F(NetServeTest, GracefulRestartRecoversAndResendDedupes) {
  uint64_t first_ingested = 0;
  {
    Server server(Options(2, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    SendStream(client);
    uint64_t duplicates = 0;
    ASSERT_TRUE(client.Flush(&first_ingested, &duplicates))
        << client.last_error();
    EXPECT_GT(first_ingested, 0u);
    EXPECT_EQ(duplicates, 0u);
    client.Disconnect();
    server.Stop();
  }

  // Second incarnation over the same data_dir: recovers the sealed
  // subscription state and every durable post, so the full resend is
  // entirely duplicates and the timelines don't change.
  Server server(Options(2, data_dir_), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_TRUE(server.sealed()) << "seal record not recovered";

  ServeClient client;
  ServeClient::ConnectInfo info;
  ASSERT_TRUE(client.Connect(server.port(), &info)) << client.last_error();
  EXPECT_TRUE(info.sealed);
  EXPECT_EQ(info.posts_ingested, first_ingested);

  for (const Post& post : workload_.stream) {
    ASSERT_TRUE(client.SendPost(post)) << client.last_error();
  }
  uint64_t ingested = 0;
  uint64_t duplicates = 0;
  ASSERT_TRUE(client.Flush(&ingested, &duplicates)) << client.last_error();
  EXPECT_EQ(ingested, first_ingested) << "resend ingested new posts";
  EXPECT_EQ(duplicates, first_ingested);

  const auto expected =
      ExpectedTimelines(workload_, Algorithm::kCliqueBin, DiversityThresholds{});
  ExpectServedTimelinesMatch(client, expected);
  client.Disconnect();
  server.Stop();
}

/// Routes files under the shard WAL directories through `faults` and
/// everything else (the control WAL, every directory operation) to the
/// real file system, so the seal and the shard WAL opens succeed and
/// only the shard WALs' own appends and syncs see the fault plan.
class ShardFileFaults final : public dur::FileOps {
 public:
  explicit ShardFileFaults(dur::FileOps* faults) : faults_(faults) {}

  std::unique_ptr<dur::WritableFile> Create(const std::string& path) override {
    return For(path)->Create(path);
  }
  std::unique_ptr<dur::WritableFile> OpenAppend(
      const std::string& path) override {
    return For(path)->OpenAppend(path);
  }
  bool Read(const std::string& path, std::string* data) override {
    return real_->Read(path, data);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    return real_->Rename(from, to);
  }
  bool Remove(const std::string& path) override { return real_->Remove(path); }
  std::vector<std::string> List(const std::string& dir) override {
    return real_->List(dir);
  }
  bool CreateDir(const std::string& dir) override {
    return real_->CreateDir(dir);
  }
  bool SyncDir(const std::string& dir) override { return real_->SyncDir(dir); }
  bool Truncate(const std::string& path, uint64_t size) override {
    return real_->Truncate(path, size);
  }

 private:
  dur::FileOps* For(const std::string& path) {
    return path.find("/shard-") != std::string::npos ? faults_ : real_;
  }

  dur::FileOps* faults_;
  dur::FileOps* real_ = dur::RealFileOps();
};

/// Bytes a fresh WAL writes before its first record (the segment
/// header), counted through a fault-free FaultFileOps.
uint64_t SegmentHeaderBytes(const std::string& dir) {
  dur::FaultFileOps counter(dur::RealFileOps(), dur::FaultPlan{});
  dur::WalOptions wal_options;
  wal_options.dir = dir;
  wal_options.ops = &counter;
  dur::WalWriter wal(wal_options);
  EXPECT_TRUE(wal.Open(0));
  EXPECT_TRUE(wal.Close());
  return counter.bytes_appended();
}

/// GETs `path` from the debug server until it answers `want_status`
/// (the dispatcher republishes health while it waits for frames).
std::string AwaitHttpStatus(const obs::DebugServer& server,
                            const std::string& path, int want_status) {
  int status = 0;
  std::string body;
  for (int i = 0; i < 100; ++i) {
    if (HttpGet(server.port(), path, &status, &body) &&
        status == want_status) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(status, want_status) << path << ": " << body;
  return body;
}

TEST_F(NetServeTest, ParallelRecoveryReportsTheLowestFailingShard) {
  {
    Server server(Options(3, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    ASSERT_TRUE(client.Flush()) << client.last_error();
    client.Disconnect();
    server.Stop();
  }
  // Shards 0 and 2 each get an intact WAL record that is not a post:
  // recovery refuses it. The shards recover on their own threads, in
  // whatever order they finish; Start must name shard 0 every time.
  for (uint32_t shard : {0u, 2u}) {
    dur::WalOptions wal_options;
    wal_options.dir = data_dir_ + "/shard-" + std::to_string(shard);
    dur::WalWriter writer(wal_options);
    ASSERT_TRUE(writer.Open(0));
    ASSERT_TRUE(writer.Append("not a post record"));
    ASSERT_TRUE(writer.Close());
  }
  for (int attempt = 0; attempt < 20; ++attempt) {
    Server server(Options(3, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_FALSE(server.Start(&error)) << "attempt " << attempt;
    EXPECT_EQ(error.rfind("shard 0 ", 0), 0u)
        << "attempt " << attempt << ": " << error;
    EXPECT_NE(error.find("does not decode as a post"), std::string::npos)
        << error;
  }
}

TEST_F(NetServeTest, RecoveredServerThatCannotBindStopsItsShards) {
  {
    Server server(Options(2, data_dir_), &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    ASSERT_TRUE(client.Flush()) << client.last_error();
    client.Disconnect();
    server.Stop();
  }
  // A sealed data_dir makes Start build and start every shard worker
  // before it binds; when the bind then fails, Start must stop them, or
  // destroying the server tears down running, unjoined workers (a hang
  // in the parked worker's condition variable, or std::terminate).
  Server holder(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(holder.Start(&error)) << error;
  ServeOptions options = Options(2, data_dir_);
  options.port = holder.port();
  {
    Server server(options, &workload_.graph);
    EXPECT_FALSE(server.Start(&error));
    EXPECT_NE(error.find("cannot bind"), std::string::npos) << error;
  }
  holder.Stop();
}

TEST_F(NetServeTest, FailingShardWalSyncIsCountedAndStillServesExactly) {
  // Two ways to lose the shard WAL: every fsync fails (detected at the
  // Flush), or an append inside the first ingest run is torn (K lands in
  // the first record's frame, just past the segment header).
  const uint64_t torn_at = SegmentHeaderBytes(data_dir_ + "/probe") + 4;
  dur::FaultPlan failing_sync;
  failing_sync.fail_sync = true;
  dur::FaultPlan torn_append;
  torn_append.fail_after_bytes = torn_at;
  for (const dur::FaultPlan& plan : {failing_sync, torn_append}) {
    SCOPED_TRACE(plan.fail_sync ? "failing fsync" : "torn append");
    std::filesystem::remove_all(data_dir_);
    // One shard: FaultFileOps counts without locks, so only one worker
    // thread may drive it.
    dur::FaultFileOps faults(dur::RealFileOps(), plan);
    ShardFileFaults ops(&faults);
    obs::DebugServer debug_server;
    ASSERT_TRUE(debug_server.Start(0));
    obs::DebugState& debug = *debug_server.state();
    ServeOptions options = Options(1, data_dir_);
    options.file_ops = &ops;
    options.debug = &debug;
    Server server(options, &workload_.graph);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_TRUE(server.stats().durable);
    EXPECT_EQ(AwaitHttpStatus(debug_server, "/healthz", 200), "ok\n");

    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    SendStream(client);
    const ServeStats stats = server.stats();
    EXPECT_GT(stats.wal_failures, 0u);
    EXPECT_FALSE(stats.durable);
    if (plan.fail_sync) {
      EXPECT_GT(faults.syncs(), 0u);  // the Flush synced, and it failed
    } else {
      // The append crossing K kept only its prefix; nothing followed.
      EXPECT_EQ(faults.bytes_appended(), torn_at);
    }

    // Losing the WAL freezes durability, not decisions.
    const auto expected = ExpectedTimelines(workload_, Algorithm::kCliqueBin,
                                            DiversityThresholds{});
    ExpectServedTimelinesMatch(client, expected);

    const std::string health =
        AwaitHttpStatus(debug_server, "/healthz", 503);
    EXPECT_EQ(health, "unhealthy: " + std::to_string(stats.wal_failures) +
                          " shard WAL failure(s): new posts are not "
                          "durable\n");
    const std::string status = debug.status_json();
    EXPECT_NE(status.find("\"durable\":false"), std::string::npos) << status;
    EXPECT_NE(status.find("\"wal_failures\":" +
                          std::to_string(stats.wal_failures)),
              std::string::npos)
        << status;
    const std::string varz = debug.varz_json();
    EXPECT_NE(varz.find("\"serve.durable\": {\"value\": 0"), std::string::npos)
        << varz;
    EXPECT_NE(varz.find("\"serve.wal_failures\": " +
                        std::to_string(stats.wal_failures)),
              std::string::npos)
        << varz;
    client.Disconnect();
    server.Stop();
    debug_server.Stop();
  }
}

TEST_F(NetServeTest, ParkedWorkerWakesForEveryRoundTripOneShard) {
  AlternatePollAndFlushAcrossIdleGaps(1);
}

TEST_F(NetServeTest, ParkedWorkerWakesForEveryRoundTripThreeShards) {
  AlternatePollAndFlushAcrossIdleGaps(3);
}

TEST_F(NetServeTest, StopWakesParkedWorkersOneShard) {
  StopWhileEveryWorkerIsParked(1);
}

TEST_F(NetServeTest, StopWakesParkedWorkersThreeShards) {
  StopWhileEveryWorkerIsParked(3);
}

TEST_F(NetServeTest, PollSinceReturnsTheSuffix) {
  Server server(Options(2), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
  SealUsers(client);
  SendStream(client);

  // Find a user with a few deliveries and page through their timeline.
  const auto expected =
      ExpectedTimelines(workload_, Algorithm::kCliqueBin, DiversityThresholds{});
  for (const User& user : workload_.users) {
    if (expected[user.id].size() < 3) continue;
    const auto& want = expected[user.id];
    std::vector<PostId> suffix;
    ASSERT_TRUE(client.Poll(user.id, 2, &suffix)) << client.last_error();
    EXPECT_EQ(suffix, std::vector<PostId>(want.begin() + 2, want.end()));

    std::vector<PostId> past_end;
    ASSERT_TRUE(client.Poll(user.id,
                            static_cast<uint32_t>(want.size()) + 10,
                            &past_end));
    EXPECT_TRUE(past_end.empty());
    break;
  }
  client.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, ProtocolErrorsAreReportedNotFatalToTheServer) {
  Server server(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    // Posting before seal is a protocol error that poisons only this
    // connection.
    ServeClient early;
    ASSERT_TRUE(early.Connect(server.port())) << early.last_error();
    ASSERT_TRUE(early.SendPost(workload_.stream.front()));
    EXPECT_FALSE(early.Flush());
    EXPECT_NE(early.last_error().find("server error"), std::string::npos)
        << early.last_error();
  }

  // The dispatcher serves one connection at a time, so each client
  // below closes before the next connects.
  {
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    client.Disconnect();
  }

  {
    // Follow after seal on a fresh connection: rejected.
    ServeClient late;
    ASSERT_TRUE(late.Connect(server.port())) << late.last_error();
    ASSERT_TRUE(late.Follow(0, 0));
    EXPECT_FALSE(late.Flush());
  }

  // Unknown user: the error names the bound.
  std::vector<PostId> timeline;
  ServeClient poller;
  ASSERT_TRUE(poller.Connect(server.port())) << poller.last_error();
  EXPECT_FALSE(poller.Poll(static_cast<UserId>(workload_.users.size() + 5), 0,
                           &timeline));
  EXPECT_NE(poller.last_error().find("server error"), std::string::npos);

  // The server survived all of the above.
  ServeClient fine;
  ASSERT_TRUE(fine.Connect(server.port())) << fine.last_error();
  ASSERT_TRUE(fine.Flush());
  fine.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, MalformedBytesPoisonTheConnection) {
  Server server(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Raw socket client speaking garbage: the server must answer kError
  // (or close), never crash, and keep serving the next connection.
  {
    OwnedFd fd = ConnectLoopback(server.port(), 2000);
    ASSERT_TRUE(fd.valid());
    ASSERT_TRUE(WriteAllFd(fd.get(), "GET / HTTP/1.1\r\n\r\n"));
    FrameReader reader(fd.get());
    NetMessage response;
    const FrameReader::Result result = reader.Next(&response, 2000);
    if (result == FrameReader::Result::kMessage) {
      EXPECT_EQ(response.type, MsgType::kError);
    } else {
      EXPECT_EQ(result, FrameReader::Result::kClosed);
    }
  }

  ServeClient client;
  EXPECT_TRUE(client.Connect(server.port())) << client.last_error();
  EXPECT_GE(server.stats().malformed, 1u);
  client.Disconnect();
  server.Stop();
}

TEST_F(NetServeTest, HelloWithWrongMagicIsRejected) {
  Server server(Options(1), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  OwnedFd fd = ConnectLoopback(server.port(), 2000);
  ASSERT_TRUE(fd.valid());
  NetMessage hello;
  hello.type = MsgType::kHello;
  hello.magic = 0x12345678;  // not kHelloMagic
  hello.min_version = kWireVersion;
  hello.max_version = kWireVersion;
  hello.client_name = "imposter";
  ASSERT_TRUE(SendMessage(fd.get(), hello));

  FrameReader reader(fd.get());
  NetMessage response;
  ASSERT_EQ(reader.Next(&response, 2000), FrameReader::Result::kMessage);
  EXPECT_EQ(response.type, MsgType::kError);
  server.Stop();
}

TEST_F(NetServeTest, OutOfRangeIdsAreRejectedBeforeAnythingIsSized) {
  // Each frame would size the seal's tables by its id: a Follow's user
  // or author id, or a Seal's num_users. Each is answered with an Error
  // on its own connection, counted as malformed, and never logged.
  Server server(Options(2, data_dir_), &workload_.graph);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  struct BadFrame {
    const char* what;
    bool follow;
    uint32_t user;
    uint32_t author;
    uint64_t num_users;
  };
  const BadFrame bad_frames[] = {
      {"follow user at the cap", true, kMaxWireIds, 0, 0},
      {"follow author at the cap", true, 0, kMaxWireIds, 0},
      {"follow author near UINT32_MAX", true, 0, UINT32_MAX - 1, 0},
      {"seal above the cap", false, 0, 0, uint64_t{kMaxWireIds} + 1},
      {"seal near UINT64_MAX", false, 0, 0, UINT64_MAX - 1},
  };
  uint64_t malformed = 0;
  for (const BadFrame& bad : bad_frames) {
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    ASSERT_TRUE(bad.follow ? client.Follow(bad.user, bad.author)
                           : client.Seal(bad.num_users));
    EXPECT_FALSE(client.Flush()) << bad.what;
    EXPECT_NE(client.last_error().find(std::to_string(kMaxWireIds)),
              std::string::npos)
        << bad.what << ": " << client.last_error();
    EXPECT_EQ(server.stats().malformed, ++malformed) << bad.what;
  }

  // A valid session afterwards is served exactly, and so is its
  // recovery: none of the rejected frames reached the control WAL.
  const auto expected = ExpectedTimelines(workload_, Algorithm::kCliqueBin,
                                          DiversityThresholds{});
  {
    ServeClient client;
    ASSERT_TRUE(client.Connect(server.port())) << client.last_error();
    SealUsers(client);
    SendStream(client);
    ExpectServedTimelinesMatch(client, expected);
    client.Disconnect();
  }
  server.Stop();
  Server recovered(Options(2, data_dir_), &workload_.graph);
  ASSERT_TRUE(recovered.Start(&error)) << error;
  ServeClient client;
  ServeClient::ConnectInfo info;
  ASSERT_TRUE(client.Connect(recovered.port(), &info)) << client.last_error();
  EXPECT_TRUE(info.sealed);
  ExpectServedTimelinesMatch(client, expected);
  client.Disconnect();
  recovered.Stop();
}

TEST_F(NetServeTest, ControlWalIdsBeyondTheCapFailRecovery) {
  // The same bound holds for a replayed control WAL: a record that the
  // wire would have rejected stops Start before anything is sized.
  const std::pair<const char*, std::string> records[] = {
      {"follow", EncodeFollowRecord(0, kMaxWireIds)},
      {"seal", EncodeSealRecord(uint64_t{kMaxWireIds} + 1)},
  };
  for (const auto& [what, record] : records) {
    const std::string dir = data_dir_ + "/" + what;
    dur::WalOptions wal_options;
    wal_options.dir = dir + "/control";
    dur::WalWriter writer(wal_options);
    ASSERT_TRUE(writer.Open(0));
    ASSERT_TRUE(writer.Append(EncodeFollowRecord(3, 5)));
    ASSERT_TRUE(writer.Append(record));
    ASSERT_TRUE(writer.Close());
    Server server(Options(2, dir), &workload_.graph);
    std::string error;
    ASSERT_FALSE(server.Start(&error)) << what;
    EXPECT_NE(error.find("control WAL record 1 "), std::string::npos)
        << what << ": " << error;
  }
}

TEST_F(NetServeTest, ControlRecordCodecsRoundTripThroughTheWal) {
  // The control-WAL payloads are tiny; pin their exact shape so a
  // recovery of today's records keeps working after future edits.
  const std::string follow = EncodeFollowRecord(7, 99);
  const std::string seal = EncodeSealRecord(298);
  EXPECT_EQ(follow[0], 1);
  EXPECT_EQ(seal[0], 2);
  BinaryReader follow_reader(std::string_view(follow).substr(1));
  uint64_t user = 0;
  uint64_t author = 0;
  ASSERT_TRUE(follow_reader.GetVarint(&user));
  ASSERT_TRUE(follow_reader.GetVarint(&author));
  EXPECT_EQ(user, 7u);
  EXPECT_EQ(author, 99u);
  EXPECT_TRUE(follow_reader.AtEnd());
  BinaryReader seal_reader(std::string_view(seal).substr(1));
  uint64_t num_users = 0;
  ASSERT_TRUE(seal_reader.GetVarint(&num_users));
  EXPECT_EQ(num_users, 298u);
  EXPECT_TRUE(seal_reader.AtEnd());
}

}  // namespace
}  // namespace net
}  // namespace firehose
