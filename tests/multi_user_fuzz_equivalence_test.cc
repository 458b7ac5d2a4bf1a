// Fuzz-style randomized equivalence for the multi-user engines: random
// user populations (overlapping subscriptions, shared connected
// components, per-user custom thresholds) over random author graphs and
// clustered streams. The per-user M_* engines and the shared-component
// S_* engines must deliver identical timelines for all three algorithms.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/multi_user.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace firehose {
namespace {

using testing_util::RandomAuthorGraph;
using testing_util::RandomStream;

using Timelines = std::map<UserId, std::vector<PostId>>;

Timelines CollectTimelines(MultiUserEngine& engine, const PostStream& stream,
                           const std::vector<User>& users) {
  Timelines timelines;
  for (const User& user : users) timelines[user.id];  // empty timelines too
  std::vector<UserId> delivered;
  for (const Post& post : stream) {
    engine.Offer(post, &delivered);
    for (UserId user : delivered) timelines[user].push_back(post.id);
  }
  return timelines;
}

/// Random user population over `num_authors` authors: subscription lists
/// drawn from a few overlapping "interest hubs" so distinct users often
/// share entire connected components (the case S_* engines exist for),
/// plus a sprinkle of per-user custom thresholds (the case that blocks
/// sharing).
std::vector<User> RandomUsers(int num_users, int num_authors, Rng& rng,
                              const DiversityThresholds& base) {
  // A handful of hub author sets users copy from.
  std::vector<std::vector<AuthorId>> hubs(3);
  for (auto& hub : hubs) {
    const int hub_size = 2 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < hub_size; ++i) {
      hub.push_back(
          static_cast<AuthorId>(rng.UniformInt(static_cast<uint64_t>(num_authors))));
    }
    std::sort(hub.begin(), hub.end());
    hub.erase(std::unique(hub.begin(), hub.end()), hub.end());
  }
  std::vector<User> users;
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    std::vector<AuthorId> subs = hubs[rng.UniformInt(hubs.size())];
    // Occasionally extend the hub with private subscriptions.
    const int extra = static_cast<int>(rng.UniformInt(3));
    for (int i = 0; i < extra; ++i) {
      subs.push_back(
          static_cast<AuthorId>(rng.UniformInt(static_cast<uint64_t>(num_authors))));
    }
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    std::optional<DiversityThresholds> custom;
    if (rng.Bernoulli(0.2)) {
      DiversityThresholds t = base;
      t.lambda_c = static_cast<int>(rng.UniformInt(12));
      t.lambda_t_ms = 100 + static_cast<int64_t>(rng.UniformInt(900));
      custom = t;
    }
    users.push_back(User{u, std::move(subs), custom});
  }
  return users;
}

class MultiUserFuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MultiUserFuzzEquivalenceTest, MAndSEnginesAgreeOnRandomPopulations) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const int num_authors = 8 + static_cast<int>(rng.UniformInt(24));
    const AuthorGraph graph = RandomAuthorGraph(num_authors, 0.25, rng);
    DiversityThresholds t;
    t.lambda_c = 2 + static_cast<int>(rng.UniformInt(10));
    t.lambda_t_ms = 200 + static_cast<int64_t>(rng.UniformInt(800));
    const std::vector<User> users =
        RandomUsers(2 + static_cast<int>(rng.UniformInt(8)), num_authors, rng, t);
    const PostStream stream = RandomStream(
        150 + static_cast<int>(rng.UniformInt(150)), num_authors, 25, rng);

    for (Algorithm algorithm : kAllAlgorithms) {
      auto m_engine = MakeMUserEngine(algorithm, t, graph, users);
      auto s_engine = MakeSUserEngine(algorithm, t, graph, users);
      const Timelines m_timelines = CollectTimelines(*m_engine, stream, users);
      const Timelines s_timelines = CollectTimelines(*s_engine, stream, users);
      ASSERT_EQ(m_timelines, s_timelines)
          << AlgorithmName(algorithm) << " seed=" << GetParam()
          << " round=" << round;
      // Sharing never *increases* work: the S engine runs each distinct
      // (component, thresholds) pair once, where the M engine repeats it
      // per subscribed user (and mixes a user's components in one bin).
      EXPECT_LE(s_engine->AggregateStats().comparisons,
                m_engine->AggregateStats().comparisons)
          << AlgorithmName(algorithm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiUserFuzzEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace firehose
