// hipcloud_flow analyses.
//
// Flow-aware checks over preprocessed translation units. The structural
// rules carry a `flow-` prefix; the five determinism and idiom token
// rules keep their short names:
//
//   flow-layering        include edge violates the layer DAG
//                        sim < crypto < net < {hip,tls} < apps < cloud < core
//   flow-include-cycle   textual include cycle (masked at compile time by
//                        `#pragma once`, still a layering smell)
//   flow-header-hygiene  src/ header without a guard, .cpp included as a
//                        header, or a project include that is not
//                        layer-qualified ("sim/log.hpp", never "log.hpp")
//   flow-taint           a key/secret-derived value reaches a logging or
//                        JSON/printf sink (intraprocedural, name+type
//                        seeded, assignment-propagated)
//   flow-ct-compare      key or MAC/ICV material compared with memcmp or
//                        ==/!= instead of crypto::ct_equal
//   flow-buffer-lifetime pooled crypto::Buffer used after std::move, or a
//                        headroom pointer (data()/prepend()/append())
//                        captured by a callback that outlives the frame
//                        (EventLoop suspension point)
//   flow-hot-alloc       implicit heap traffic (std::function, string
//                        temporaries, unreserved vector growth) in a
//                        function marked `hipcheck:hot` or reachable from
//                        one within the TU
//   flow-exn             a callback handed to EventLoop::schedule/
//                        schedule_at/post can leak an exception other
//                        than sim::CheckFailure
//   flow-shard-owned     a lambda crossing the shard seam captures
//                        `this`, by-reference state, or a
//                        hipcheck:shard_owned name (intra-TU half of the
//                        shard-ownership family; see ownership.hpp)
//   flow-shard-shared    a write to hipcheck:shard_shared state outside
//                        a hipcheck:seam function
//   wall-clock           std::chrono clocks, std::random_device, std::rand
//                        or time(nullptr) outside src/sim/ (the shard seam
//                        src/sim/shard.* is not exempt)
//   unordered-iter       range-for over a std::unordered_{map,set} the TU
//                        declares — hash-table order is implementation-
//                        defined
//   raw-alloc            raw new/delete in src/net, src/hip or src/apps
//   self-capture         `x->on_foo([x]{...})`: a shared_ptr keeps itself
//                        alive through its own callback
//   eager-log            raw sim::Log::write() outside src/sim/log.* — the
//                        message is built before the level filter; use the
//                        lazy HIPCLOUD_LOG
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tu.hpp"

namespace hipflow {

struct OwnershipMarks;  // callgraph.hpp

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string msg;

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.msg < b.msg;
  }
  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.msg == b.msg;
  }
};

struct AnalysisOptions {
  // In tree mode the taint/ct-compare family is scoped to src/ (tests
  // legitimately compare derived keys with EXPECT_EQ) and raw-alloc to
  // the packet-path layers; self-test mode turns those rules on for
  // every fixture path.
  bool all_paths = false;
  // Lines (per physical file) carrying a `hipcheck:hot` marker; a
  // function whose name line is within 3 lines below a marker is hot.
  const std::map<std::string, std::vector<int>>* hot_marks = nullptr;
  // Shard-ownership annotations (hipcheck:shard_owned / shard_shared /
  // seam / shard_entry), scanned by the driver alongside the hot marks.
  // Drives the intra-TU flow-shard-owned / flow-shard-shared rules; the
  // interprocedural rules get the same marks through extract_tu_summary.
  const OwnershipMarks* marks = nullptr;
};

/// Run every analysis over one TU. Findings are appended unsorted and
/// undeduplicated; the driver dedupes globally (headers appear in many
/// TUs) and sorts for deterministic output.
void analyze_tu(const TranslationUnit& tu, const FileTable& files,
                const AnalysisOptions& opts, std::vector<Finding>& out);

}  // namespace hipflow
