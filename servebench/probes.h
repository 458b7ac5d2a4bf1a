#ifndef SERVEBENCH_PROBES_H_
#define SERVEBENCH_PROBES_H_

// In-process timings of the layers a post crosses that the client-side
// spans cannot see: the wire codec (net/proto) and the WAL (dur), taken
// on the workload's own posts through the layers' public functions.

#include <cstdint>
#include <string>

#include "servebench/workload.h"

namespace servebench {

struct LayerProbes {
  double encode_ns = 0;         ///< AppendMessage per post
  double decode_ns = 0;         ///< DecodeMessage per post
  double bytes_per_post = 0;    ///< exact wire frame size per post
  uint64_t codec_mismatches = 0;  ///< decoded posts differing from the input
  double append_ns = 0;         ///< WalWriter::Append(EncodePostRecord), no sync
  double sync_us_p50 = 0;       ///< same, fsynced per record
  double fsyncs_per_post = 0;   ///< counted by a FileOps wrapper
  bool wal_ok = true;
};

/// Runs the probes over `workload.stream`, with WAL files under `dir`
/// (removed again before returning).
LayerProbes ProbeLayers(const Workload& workload, const std::string& dir);

}  // namespace servebench

#endif  // SERVEBENCH_PROBES_H_
