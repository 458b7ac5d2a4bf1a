#include "servebench/probes.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "servebench/stats.h"
#include "servebench/trace.h"

namespace servebench {

using namespace firehose;

namespace {

/// Fsyncs this many records for the synced-append probe: enough for a
/// stable median without spending seconds of the run on the disk.
constexpr size_t kSyncedAppends = 300;

/// Forwards to the real file system and counts every fsync, of files and
/// of directories.
class CountingFileOps final : public dur::FileOps {
 public:
  uint64_t syncs() const { return syncs_; }

  std::unique_ptr<dur::WritableFile> Create(const std::string& path) override {
    return Wrap(dur::RealFileOps()->Create(path));
  }
  std::unique_ptr<dur::WritableFile> OpenAppend(
      const std::string& path) override {
    return Wrap(dur::RealFileOps()->OpenAppend(path));
  }
  bool Read(const std::string& path, std::string* data) override {
    return dur::RealFileOps()->Read(path, data);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    return dur::RealFileOps()->Rename(from, to);
  }
  bool Remove(const std::string& path) override {
    return dur::RealFileOps()->Remove(path);
  }
  std::vector<std::string> List(const std::string& dir) override {
    return dur::RealFileOps()->List(dir);
  }
  bool CreateDir(const std::string& dir) override {
    return dur::RealFileOps()->CreateDir(dir);
  }
  bool SyncDir(const std::string& dir) override {
    ++syncs_;
    return dur::RealFileOps()->SyncDir(dir);
  }
  bool Truncate(const std::string& path, uint64_t size) override {
    return dur::RealFileOps()->Truncate(path, size);
  }

 private:
  class File final : public dur::WritableFile {
   public:
    File(std::unique_ptr<dur::WritableFile> inner, uint64_t* syncs)
        : inner_(std::move(inner)), syncs_(syncs) {}
    bool Append(std::string_view data) override { return inner_->Append(data); }
    bool Sync() override {
      ++*syncs_;
      return inner_->Sync();
    }
    bool Close() override { return inner_->Close(); }

   private:
    std::unique_ptr<dur::WritableFile> inner_;
    uint64_t* syncs_;
  };

  std::unique_ptr<dur::WritableFile> Wrap(
      std::unique_ptr<dur::WritableFile> inner) {
    if (inner == nullptr) return nullptr;
    return std::make_unique<File>(std::move(inner), &syncs_);
  }

  uint64_t syncs_ = 0;
};

bool SamePost(const Post& a, const Post& b) {
  return a.id == b.id && a.author == b.author && a.time_ms == b.time_ms &&
         a.simhash == b.simhash && a.text == b.text;
}

}  // namespace

LayerProbes ProbeLayers(const Workload& workload, const std::string& dir) {
  LayerProbes p;
  const PostStream& stream = workload.stream;
  if (stream.empty()) return p;
  const double n = static_cast<double>(stream.size());

  // Wire codec: frame every post exactly as ServeClient::SendPost does,
  // then decode the whole buffer back as the server's FrameReader does.
  std::string wire;
  int64_t start = NowNs();
  for (const Post& post : stream) {
    net::NetMessage message;
    message.type = net::MsgType::kPost;
    message.post = post;
    net::AppendMessage(message, &wire);
  }
  p.encode_ns = static_cast<double>(NowNs() - start) / n;
  p.bytes_per_post = static_cast<double>(wire.size()) / n;

  std::vector<Post> decoded;
  decoded.reserve(stream.size());
  size_t offset = 0;
  start = NowNs();
  while (offset < wire.size()) {
    net::NetMessage message;
    size_t next = 0;
    if (net::DecodeMessage(wire, offset, &message, &next) !=
        net::DecodeStatus::kOk) {
      break;
    }
    decoded.push_back(std::move(message.post));
    offset = next;
  }
  p.decode_ns = static_cast<double>(NowNs() - start) / n;
  p.codec_mismatches = decoded.size() == stream.size() ? 0 : 1;
  for (size_t i = 0; i < std::min(decoded.size(), stream.size()); ++i) {
    if (!SamePost(decoded[i], stream[i])) ++p.codec_mismatches;
  }

  // WAL append without sync over the whole stream.
  std::error_code ignored;
  {
    CountingFileOps ops;
    dur::SyncNone none;
    dur::WalOptions options;
    options.dir = dir + "/wal-none";
    options.ops = &ops;
    options.sync = &none;
    dur::WalWriter wal(options);
    p.wal_ok = wal.Open(0);
    start = NowNs();
    for (const Post& post : stream) {
      p.wal_ok = wal.Append(dur::EncodePostRecord(post)) && p.wal_ok;
    }
    p.append_ns = static_cast<double>(NowNs() - start) / n;
    p.wal_ok = wal.Close() && p.wal_ok;
  }

  // The same appends fsynced per record, as --wal_sync=always does.
  {
    CountingFileOps ops;
    dur::SyncEveryRecord always;
    dur::WalOptions options;
    options.dir = dir + "/wal-always";
    options.ops = &ops;
    options.sync = &always;
    dur::WalWriter wal(options);
    p.wal_ok = wal.Open(0) && p.wal_ok;
    const uint64_t syncs_before = ops.syncs();
    const size_t count = std::min(kSyncedAppends, stream.size());
    std::vector<double> synced_us;
    for (size_t i = 0; i < count; ++i) {
      const int64_t t0 = NowNs();
      p.wal_ok = wal.Append(dur::EncodePostRecord(stream[i])) && p.wal_ok;
      synced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    p.fsyncs_per_post = static_cast<double>(ops.syncs() - syncs_before) /
                        static_cast<double>(count);
    p.sync_us_p50 = Summarize(synced_us).p50;
    p.wal_ok = wal.Close() && p.wal_ok;
  }
  std::filesystem::remove_all(dir + "/wal-none", ignored);
  std::filesystem::remove_all(dir + "/wal-always", ignored);
  return p;
}

}  // namespace servebench
