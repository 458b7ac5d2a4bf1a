// Serve-scale decide: the S_CliqueBin ComponentSet on servebench's
// `burst_replay` population, timed in-process. The population is built
// with the calls servebench/workload.cc makes (4,000 authors, seed 1,
// λc = 18, λt = 30 min, λa = 0.7), and the stream is offered in bursts
// of ServeOptions::ingest_batch_max, as a serve shard decides it.
// FIREHOSE_BENCH_AUTHORS does not apply: the population is the served
// one.
//
// Exact keys (byte-stable, compared by tools/bench_compare.py): posts,
// components, the greedy cover's size (decide.bins: Σ cliques, one bin
// each; decide.route_bins: Σ clique memberships), component offers,
// comparisons, bins scanned, insertions, deliveries, and live entries
// per scanned bin (comparisons / bins scanned, x1000). Timing keys
// (informational), each the median over kRepeats: decide.post_ns,
// decide.offer_ns, decide.build_ms (set construction) and
// decide.discover_ms (ComputeSharedComponents).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/server.h"

namespace firehose {
namespace bench {
namespace {

constexpr uint32_t kAuthors = 4000;
constexpr uint64_t kSeed = 1;
constexpr int kRepeats = 5;

struct Population {
  AuthorGraph graph;
  std::vector<User> users;
  PostStream stream;
};

Population BuildPopulation() {
  Population p;
  SocialGraphOptions graph_options;
  graph_options.num_authors = kAuthors;
  graph_options.num_communities = 50;
  graph_options.avg_followees = 40.0;
  graph_options.popularity_exponent = 0.8;
  graph_options.seed = kSeed;
  const FollowGraph social = GenerateSocialGraph(graph_options);
  std::vector<AuthorId> authors;
  for (AuthorId a = 0; a < social.num_authors(); ++a) authors.push_back(a);
  const auto pairs = AllPairsSimilarity(social, authors, 0.3, 1500);
  p.graph = AuthorGraph::FromSimilarities(authors, pairs, 0.7);

  StreamGenOptions stream_options;
  stream_options.posts_per_author = 10.0;
  stream_options.cross_author_dup_prob = 0.12;
  stream_options.seed = kSeed ^ 0x5151;
  p.stream = GenerateStream(p.graph, SimHasher(), stream_options);

  for (AuthorId a = 0; a < social.num_authors(); ++a) {
    std::vector<AuthorId> subs = social.Followees(a);
    if (subs.empty()) continue;
    std::sort(subs.begin(), subs.end());
    subs.erase(std::unique(subs.begin(), subs.end()), subs.end());
    p.users.emplace_back(static_cast<UserId>(p.users.size()), std::move(subs));
  }
  return p;
}

struct DecideRun {
  double build_ns = 0;
  double decide_ns = 0;
  IngestStats stats;
  uint64_t bins = 0;
  uint64_t route_bins = 0;
  uint64_t bins_scanned = 0;
  uint64_t deliveries = 0;
};

double NanosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

DecideRun RunOnce(const Population& p,
                  std::vector<SharedComponent> components) {
  DecideRun run;
  auto start = std::chrono::steady_clock::now();
  ComponentSet set(Algorithm::kCliqueBin, p.graph, std::move(components));
  run.build_ns = NanosSince(start);
  run.bins = set.num_bins();
  run.route_bins = set.num_route_bins();
  const size_t burst = net::ServeOptions::ingest_batch_max;
  const std::span<const Post> posts(p.stream);
  std::vector<MultiUserEngine::BatchDelivery> deliveries;
  start = std::chrono::steady_clock::now();
  for (size_t begin = 0; begin < posts.size(); begin += burst) {
    run.deliveries += set.OfferBatch(
        posts.subspan(begin, std::min(burst, posts.size() - begin)),
        &deliveries);
  }
  run.decide_ns = NanosSince(start);
  run.stats = set.AggregateStats();
  run.bins_scanned = set.bins_scanned();
  return run;
}

void Run() {
  PrintBenchHeader("serve_decide", "Paper §5 at serve scale",
                   "S_CliqueBin ComponentSet::OfferBatch on servebench's "
                   "burst_replay population, in ingest-batch bursts.");
  const Population p = BuildPopulation();
  DiversityThresholds t;
  t.lambda_c = 18;
  t.lambda_t_ms = int64_t{30} * 60 * 1000;
  std::vector<SharedComponent> components;
  std::vector<double> discover_ns;
  for (int i = 0; i < kRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<SharedComponent> found =
        ComputeSharedComponents(t, p.graph, p.users);
    discover_ns.push_back(NanosSince(start));
    if (i == 0) {
      components = std::move(found);
    } else if (found.size() != components.size()) {
      std::fprintf(stderr, "serve_decide: discovery %d differs\n", i);
      std::exit(1);
    }
  }

  std::vector<DecideRun> runs;
  for (int i = 0; i < kRepeats; ++i) {
    runs.push_back(RunOnce(p, components));
    const DecideRun& r = runs.back();
    if (r.bins != runs[0].bins || r.route_bins != runs[0].route_bins ||
        r.stats.comparisons != runs[0].stats.comparisons ||
        r.bins_scanned != runs[0].bins_scanned ||
        r.deliveries != runs[0].deliveries) {
      std::fprintf(stderr, "serve_decide: repeat %d did different work\n", i);
      std::exit(1);
    }
  }
  std::vector<double> decide_ns;
  std::vector<double> build_ns;
  for (const DecideRun& r : runs) {
    decide_ns.push_back(r.decide_ns);
    build_ns.push_back(r.build_ns);
  }
  std::sort(decide_ns.begin(), decide_ns.end());
  std::sort(build_ns.begin(), build_ns.end());
  std::sort(discover_ns.begin(), discover_ns.end());
  const double median_ns = decide_ns[decide_ns.size() / 2];
  const double median_build_ns = build_ns[build_ns.size() / 2];
  const double median_discover_ns = discover_ns[discover_ns.size() / 2];

  const DecideRun& r = runs[0];
  const uint64_t posts = p.stream.size();
  const uint64_t offers = r.stats.posts_in;
  obs::MetricsRegistry& m = BenchMetrics();
  m.GetCounter("decide.posts")->Add(posts);
  m.GetCounter("decide.components")->Add(components.size());
  m.GetCounter("decide.bins")->Add(r.bins);
  m.GetCounter("decide.route_bins")->Add(r.route_bins);
  m.GetCounter("decide.offers")->Add(offers);
  m.GetCounter("decide.comparisons")->Add(r.stats.comparisons);
  m.GetCounter("decide.bins_scanned")->Add(r.bins_scanned);
  m.GetCounter("decide.insertions")->Add(r.stats.insertions);
  m.GetCounter("decide.deliveries")->Add(r.deliveries);
  m.GetGauge("decide.entries_per_bin_milli")
      ->Set(r.bins_scanned == 0
                ? 0
                : static_cast<int64_t>(r.stats.comparisons * 1000 /
                                       r.bins_scanned));
  m.GetGauge("decide.build_ms")
      ->Set(static_cast<int64_t>(median_build_ns / 1e6));
  m.GetGauge("decide.discover_ms")
      ->Set(static_cast<int64_t>(median_discover_ns / 1e6));
  m.GetGauge("decide.post_ns")
      ->Set(static_cast<int64_t>(median_ns / static_cast<double>(posts)));
  m.GetGauge("decide.offer_ns")
      ->Set(offers == 0 ? 0
                        : static_cast<int64_t>(median_ns /
                                               static_cast<double>(offers)));

  std::printf("posts %llu, components %zu, offers/post %.2f, "
              "comparisons/offer %.2f, entries/scanned bin %.2f\n",
              static_cast<unsigned long long>(posts), components.size(),
              static_cast<double>(offers) / static_cast<double>(posts),
              static_cast<double>(r.stats.comparisons) /
                  static_cast<double>(offers),
              static_cast<double>(r.stats.comparisons) /
                  static_cast<double>(r.bins_scanned));
  std::printf("decide: %.2f us/post, %.1f ns/offer (median of %d; runs:",
              median_ns / static_cast<double>(posts) / 1e3,
              median_ns / static_cast<double>(offers), kRepeats);
  for (double ns : decide_ns) {
    std::printf(" %.2f", ns / static_cast<double>(posts) / 1e3);
  }
  std::printf(" us/post)\nbuild: %.1f ms, discovery: %.1f ms (medians of "
              "%d); bins %llu, route bins %llu\n",
              median_build_ns / 1e6, median_discover_ns / 1e6, kRepeats,
              static_cast<unsigned long long>(r.bins),
              static_cast<unsigned long long>(r.route_bins));
}

}  // namespace
}  // namespace bench
}  // namespace firehose

int main() {
  firehose::bench::Run();
  return 0;
}
