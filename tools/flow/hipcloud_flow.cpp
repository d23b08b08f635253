// hipcloud_flow — the in-tree static analyzer for the hipcloud tree.
//
// It preprocesses whole translation units (include resolution,
// object-like macro expansion, include graph) and runs the per-TU
// analyses over them: the layering DAG, secret-taint to log/JSON sinks,
// pooled-Buffer lifetime across EventLoop suspension points, hot-path
// allocation, exception flow out of event callbacks, and the five
// determinism and idiom token rules (wall-clock, unordered-iter,
// raw-alloc, self-capture, eager-log). The cross-TU shard-ownership and
// wire-taint passes run over the linked call graph. See analysis.hpp for
// the rule catalogue and DESIGN.md §5f for the policy.
//
//   hipcloud_flow --root DIR [--compdb FILE] [--jobs N] [dirs...]
//   hipcloud_flow --self-test FIXTURE_DIR
//
// Tree mode walks `dirs` (default: src bench examples tests) for .cpp
// TUs — or takes the TU list from a CMake-exported compile_commands.json
// — analyzes them in parallel (CMAKE_BUILD_PARALLEL_LEVEL-style worker
// count), dedupes findings globally (a header seen from forty TUs
// reports once), applies in-source `hipcheck:allow(<rule>)` pragmas and
// the justified baseline file, and prints what survives sorted by
// (file, line, rule) — byte-identical output at any job count.
//
// Suppression discipline:
//   * `// hipcheck:allow(<rule>): why` on the finding's line or the line
//     above suppresses exactly one finding; an allow without a
//     justification, or one that suppresses nothing, is itself an error.
//   * tools/flow/baseline.flow carries pre-existing debt as
//     `<rule> <file> <count> : <justification>` quotas; a quota that is
//     no longer fully consumed is an error, so the baseline only ratchets
//     down.
//   * `// hipcheck:hot` above a function definition puts it (and its
//     same-TU callees, transitively) in the hot-path allocation set.
//
// Self-test mode: every fixture annotates expected findings with
// `// hipcheck:expect(<rule>)`; the run fails on any mismatch in either
// direction. Fixture subdirectories containing a `src/` are analyzed as
// miniature trees (layer and path-scoped rules live, paths relative to
// the subdirectory), everything else file-by-file.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "callgraph.hpp"
#include "ownership.hpp"
#include "taint.hpp"
#include "tu.hpp"

namespace hipflow {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------------------
// Pragmas (allow / expect / hot), scanned on raw lines per physical file.

struct AllowPragma {
  std::string file;
  int line;
  std::string rule;
  bool used = false;
};

struct ExpectPragma {
  std::string file;
  int line;
  std::string rule;
  bool matched = false;
};

struct PragmaIndex {
  std::vector<AllowPragma> allows;
  std::vector<ExpectPragma> expects;
  std::vector<Finding> errors;  // bad-pragma
  std::map<std::string, std::vector<int>> hot_lines;  // rel path -> lines
  OwnershipMarks marks;  // hipcheck:shard_owned/shard_shared/seam/entry
  std::set<std::string> scanned;
};

/// The declared name on a `hipcheck:shard_owned` / `shard_shared` line:
/// the identifier just before the first of `;` `=` `{` `[` in the code
/// part (before any `//`). Empty when the line declares nothing — the
/// mark then applies to the next declaration line.
std::string declarator_name(const std::string& raw) {
  std::string code = raw.substr(0, raw.find("//"));
  const std::size_t stop = code.find_first_of(";={[");
  if (stop == std::string::npos) return "";
  std::size_t e = stop;
  // Walk back over trailing attribute macros — `Type name MACRO(args);`
  // is how thread-safety annotations (HIPCLOUD_GUARDED_BY etc.) attach —
  // so the declared name is extracted, not the macro or its argument.
  for (;;) {
    while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1]))) --e;
    if (e == 0 || code[e - 1] != ')') break;
    int depth = 0;
    std::size_t p = e;
    while (p > 0) {
      --p;
      if (code[p] == ')') ++depth;
      else if (code[p] == '(' && --depth == 0) break;
    }
    if (depth != 0) return "";
    e = p;
    while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1]))) --e;
    std::size_t m = e;
    while (m > 0 && (std::isalnum(static_cast<unsigned char>(code[m - 1])) ||
                     code[m - 1] == '_')) {
      --m;
    }
    if (m == e) return "";  // bare `(...)` — a call or init, not a macro
    e = m;
  }
  while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1]))) --e;
  std::size_t b = e;
  while (b > 0 && (std::isalnum(static_cast<unsigned char>(code[b - 1])) ||
                   code[b - 1] == '_')) {
    --b;
  }
  if (b == e) return "";
  const std::string nm = code.substr(b, e - b);
  if (std::isdigit(static_cast<unsigned char>(nm[0]))) return "";
  return nm;
}

void scan_file_pragmas(const std::string& rel, const std::string& src,
                       PragmaIndex& px) {
  if (!px.scanned.insert(rel).second) return;
  std::vector<std::string> lines;
  {
    std::istringstream in(src);
    std::string raw;
    while (std::getline(in, raw)) lines.push_back(raw);
  }
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& raw = lines[li];
    const int line = static_cast<int>(li) + 1;
    if (raw.find("hipcheck:hot") != std::string::npos) {
      px.hot_lines[rel].push_back(line);
    }
    // Ownership marks. seam/entry apply to the function definition within
    // 3 lines below (same convention as hipcheck:hot); owned/shared carry
    // the declared name from their own line or the next two.
    if (raw.find("hipcheck:seam") != std::string::npos) {
      px.marks.lines[rel].emplace_back(line, OwnMark::kSeam);
    }
    if (raw.find("hipcheck:shard_entry") != std::string::npos) {
      px.marks.lines[rel].emplace_back(line, OwnMark::kEntry);
    }
    if (raw.find("hipcheck:wire_input") != std::string::npos) {
      px.marks.lines[rel].emplace_back(line, OwnMark::kWire);
    }
    for (const auto& [marker, kind] :
         {std::pair<const char*, OwnMark>{"hipcheck:shard_owned",
                                          OwnMark::kOwned},
          std::pair<const char*, OwnMark>{"hipcheck:shard_shared",
                                          OwnMark::kShared}}) {
      if (raw.find(marker) == std::string::npos) continue;
      px.marks.lines[rel].emplace_back(line, kind);
      std::string nm;
      for (std::size_t look = li; look < lines.size() && look < li + 3;
           ++look) {
        nm = declarator_name(lines[look]);
        if (!nm.empty()) break;
      }
      if (nm.empty()) {
        px.errors.push_back(
            {rel, line, "bad-pragma",
             std::string(marker) +
                 " must sit on (or just above) a declaration — no "
                 "declared name found"});
        continue;
      }
      if (kind == OwnMark::kOwned) px.marks.owned_names.insert(nm);
      else px.marks.shared_names.insert(nm);
    }
    for (const char* kind : {"allow", "expect"}) {
      const std::string marker = std::string("hipcheck:") + kind + "(";
      const std::size_t at = raw.find(marker);
      if (at == std::string::npos) continue;
      const std::size_t open = at + marker.size();
      const std::size_t close = raw.find(')', open);
      if (close == std::string::npos) {
        px.errors.push_back(
            {rel, line, "bad-pragma", "unterminated hipcheck pragma"});
        continue;
      }
      const std::string rule = raw.substr(open, close - open);
      if (kind == std::string("expect")) {
        px.expects.push_back({rel, line, rule});
        continue;
      }
      std::size_t p = close + 1;
      bool justified = false;
      if (p < raw.size() && raw[p] == ':') {
        ++p;
        while (p < raw.size()) {
          if (!std::isspace(static_cast<unsigned char>(raw[p]))) {
            justified = true;
            break;
          }
          ++p;
        }
      }
      if (!justified) {
        px.errors.push_back(
            {rel, line, "bad-pragma",
             "hipcheck:allow(" + rule +
                 ") needs a justification: `// hipcheck:allow(" + rule +
                 "): why this is safe`"});
        continue;
      }
      px.allows.push_back({rel, line, rule});
    }
  }
}

// --------------------------------------------------------------------------
// Baseline file: `<rule> <file> <count> : <justification>` per line.

struct BaselineEntry {
  std::string rule;
  std::string file;
  int quota = 0;
  int used = 0;
  int line = 0;
};

bool load_baseline(const std::string& path, std::vector<BaselineEntry>& out,
                   std::vector<Finding>& errors) {
  std::string src;
  if (!read_file(path, src)) return false;
  std::istringstream in(src);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::size_t b = raw.find_first_not_of(" \t");
    if (b == std::string::npos || raw[b] == '#') continue;
    std::istringstream ls(raw);
    BaselineEntry e;
    std::string colon;
    ls >> e.rule >> e.file >> e.quota >> colon;
    std::string why;
    std::getline(ls, why);
    const bool well_formed = !ls.fail() && colon == ":" && e.quota > 0 &&
                             why.find_first_not_of(" \t") !=
                                 std::string::npos;
    if (!well_formed) {
      errors.push_back({path, line, "bad-baseline",
                        "expected `<rule> <file> <count> : <why>`"});
      continue;
    }
    e.line = line;
    out.push_back(e);
  }
  return true;
}

// --------------------------------------------------------------------------
// TU discovery

bool is_tu(const fs::path& p) { return p.extension() == ".cpp"; }
bool is_header(const fs::path& p) {
  return p.extension() == ".hpp" || p.extension() == ".h";
}

std::vector<std::string> walk_tus(const std::string& root,
                                  const std::vector<std::string>& dirs) {
  std::vector<std::string> tus;
  for (const std::string& d : dirs) {
    const fs::path base = fs::path(root) / d;
    std::error_code ec;
    if (!fs::exists(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (it->is_regular_file() && (is_tu(it->path()) ||
                                    is_header(it->path()))) {
        // Headers are collected too: any header no TU pulls in is
        // analyzed standalone at the end so orphan headers cannot dodge
        // the hygiene/layering rules.
        tus.push_back(it->path().string());
      }
    }
  }
  std::sort(tus.begin(), tus.end());
  return tus;
}

/// Minimal compile_commands.json reader: extracts every `"file": "..."`
/// value. The format is CMake-generated, so fields are simple strings
/// with standard JSON escapes.
std::vector<std::string> compdb_tus(const std::string& path) {
  std::vector<std::string> tus;
  std::string src;
  if (!read_file(path, src)) return tus;
  const std::string key = "\"file\"";
  std::size_t at = 0;
  while ((at = src.find(key, at)) != std::string::npos) {
    std::size_t q = src.find('"', src.find(':', at + key.size()));
    if (q == std::string::npos) break;
    std::string val;
    for (std::size_t i = q + 1; i < src.size() && src[i] != '"'; ++i) {
      if (src[i] == '\\' && i + 1 < src.size()) ++i;
      val += src[i];
    }
    if (val.size() > 4 && val.rfind(".cpp") == val.size() - 4) {
      tus.push_back(val);
    }
    at = q + 1;
  }
  std::sort(tus.begin(), tus.end());
  tus.erase(std::unique(tus.begin(), tus.end()), tus.end());
  return tus;
}

int parse_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CMAKE_BUILD_PARALLEL_LEVEL")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// --------------------------------------------------------------------------
// Analysis pipeline shared by tree and self-test modes.

struct RunResult {
  std::vector<Finding> findings;  // deduped, sorted, pre-suppression
  PragmaIndex pragmas;
  CallGraph cg;  // linked whole-program graph (for --dump-callgraph)
  WireTaint taint;  // resolved wire-taint map (for --dump-wire)
};

RunResult analyze_paths(const std::string& root,
                        const std::vector<std::string>& include_dirs,
                        const std::vector<std::string>& tus, int jobs,
                        bool all_paths) {
  FileTable files;
  Preprocessor pp(root, include_dirs, &files);

  // Pass 1 (serial, cheap): scan raw pragmas of every physical file we
  // can reach — TU list plus anything they include. Hot markers must be
  // known before analysis, so preprocess include closure discovery and
  // pragma scanning happen here; token analysis is the parallel part.
  RunResult rr;
  std::vector<TranslationUnit> units(tus.size());
  std::mutex mu;
  std::size_t next = 0;
  auto worker = [&] {
    for (;;) {
      std::size_t idx;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= tus.size()) return;
        idx = next++;
      }
      units[idx] = pp.preprocess(tus[idx]);
    }
  };
  {
    std::vector<std::thread> pool;
    const int n = std::max(1, std::min<int>(jobs, static_cast<int>(tus.size())));
    pool.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }

  // Pragma scan over the union of physical files (deterministic order).
  std::set<std::string> physical;
  for (const TranslationUnit& tu : units) {
    for (FileId f : tu.files) physical.insert(files.path(f));
  }
  for (const std::string& rel : physical) {
    std::string src;
    const fs::path abs = fs::path(rel).is_absolute()
                             ? fs::path(rel)
                             : fs::path(root) / rel;
    if (read_file(abs.string(), src)) scan_file_pragmas(rel, src, rr.pragmas);
  }

  // Pass 2: analyses + call-graph extraction (parallel over TUs, merged
  // under the lock). Summaries land in a TU-indexed vector, so worker
  // scheduling cannot change what the serial link phase sees.
  AnalysisOptions opts;
  opts.all_paths = all_paths;
  opts.hot_marks = &rr.pragmas.hot_lines;
  opts.marks = &rr.pragmas.marks;
  std::vector<Finding> all;
  std::vector<TuSummary> summaries(units.size());
  next = 0;
  auto analyzer = [&] {
    std::vector<Finding> local;
    for (;;) {
      std::size_t idx;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= units.size()) break;
        idx = next++;
      }
      analyze_tu(units[idx], files, opts, local);
      summaries[idx] = extract_tu_summary(units[idx], files,
                                          rr.pragmas.marks);
    }
    std::lock_guard<std::mutex> lock(mu);
    all.insert(all.end(), local.begin(), local.end());
  };
  {
    std::vector<std::thread> pool;
    const int n = std::max(1, std::min<int>(jobs, static_cast<int>(units.size())));
    pool.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) pool.emplace_back(analyzer);
    for (std::thread& th : pool) th.join();
  }

  // Phase 2 (serial): link the graph, run the interprocedural rules.
  rr.cg = link_call_graph(summaries);
  analyze_ownership(rr.cg, all_paths, all);
  rr.taint = analyze_wire(units, files, rr.pragmas.marks, all_paths, all);

  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  rr.findings = std::move(all);
  return rr;
}

/// Apply in-source allows; returns surviving findings + unused-allow and
/// bad-pragma errors appended.
std::vector<Finding> apply_allows(const std::vector<Finding>& findings,
                                  PragmaIndex& px) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    bool suppressed = false;
    for (AllowPragma& a : px.allows) {
      if (!a.used && a.rule == f.rule && a.file == f.file &&
          (a.line == f.line || a.line + 1 == f.line)) {
        a.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) out.push_back(f);
  }
  for (const AllowPragma& a : px.allows) {
    if (!a.used) {
      out.push_back({a.file, a.line, "unused-allow",
                     "hipcheck:allow(" + a.rule +
                         ") suppresses nothing — remove it or fix the "
                         "rule name"});
    }
  }
  out.insert(out.end(), px.errors.begin(), px.errors.end());
  std::sort(out.begin(), out.end());
  return out;
}

void print_finding(const Finding& f) {
  std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
               f.rule.c_str(), f.msg.c_str());
}

// --------------------------------------------------------------------------
// Tree mode

int run_tree(const std::string& root, const std::vector<std::string>& dirs,
             const std::string& compdb, const std::string& baseline_path,
             int jobs, bool dump_cg, bool dump_wire) {
  std::vector<std::string> tus;
  if (!compdb.empty()) {
    tus = compdb_tus(compdb);
    // The compdb lists build TUs; keep only sources under root and the
    // requested dirs, then add orphan headers from the walk.
    std::vector<std::string> kept;
    for (const std::string& f : tus) {
      const std::string rel = relativize(root, f);
      for (const std::string& d : dirs) {
        if (rel.rfind(d + "/", 0) == 0) {
          kept.push_back(f);
          break;
        }
      }
    }
    tus = std::move(kept);
  }
  std::vector<std::string> walked = walk_tus(root, dirs);
  if (tus.empty()) {
    for (const std::string& f : walked) {
      if (f.size() > 4 && f.rfind(".cpp") == f.size() - 4) tus.push_back(f);
    }
  }

  // First analysis round over the .cpp TUs, then a second tiny round for
  // headers nothing included (they still deserve hygiene/layer checks).
  RunResult rr = analyze_paths(root, {root + "/src", root}, tus, jobs,
                               /*all_paths=*/false);
  if (dump_cg) {
    // Machine-diffable dump of the linked graph; byte-identical at any
    // job count (pinned by the flow_callgraph_determinism test).
    dump_callgraph(rr.cg, stdout);
    return 0;
  }
  if (dump_wire) {
    // Machine-diffable dump of the resolved wire-taint map; pinned by
    // the same determinism test as the call graph.
    dump_wire_taint(rr.taint, stdout);
    return 0;
  }
  std::set<std::string> seen(rr.pragmas.scanned);
  std::vector<std::string> orphan_headers;
  for (const std::string& f : walked) {
    if (f.size() > 4 && f.rfind(".cpp") == f.size() - 4) continue;
    if (seen.count(relativize(root, f)) == 0) orphan_headers.push_back(f);
  }
  if (!orphan_headers.empty()) {
    RunResult extra = analyze_paths(root, {root + "/src", root},
                                    orphan_headers, jobs, false);
    rr.findings.insert(rr.findings.end(), extra.findings.begin(),
                       extra.findings.end());
    rr.pragmas.allows.insert(rr.pragmas.allows.end(),
                             extra.pragmas.allows.begin(),
                             extra.pragmas.allows.end());
    rr.pragmas.errors.insert(rr.pragmas.errors.end(),
                             extra.pragmas.errors.begin(),
                             extra.pragmas.errors.end());
    std::sort(rr.findings.begin(), rr.findings.end());
    rr.findings.erase(std::unique(rr.findings.begin(), rr.findings.end()),
                      rr.findings.end());
  }

  std::vector<Finding> remaining = apply_allows(rr.findings, rr.pragmas);

  // Baseline quotas.
  std::vector<BaselineEntry> baseline;
  std::vector<Finding> berrors;
  if (!baseline_path.empty()) {
    load_baseline(baseline_path, baseline, berrors);
  }
  std::vector<Finding> report;
  for (const Finding& f : remaining) {
    bool absorbed = false;
    for (BaselineEntry& e : baseline) {
      if (e.rule == f.rule && e.file == f.file && e.used < e.quota) {
        ++e.used;
        absorbed = true;
        break;
      }
    }
    if (!absorbed) report.push_back(f);
  }
  for (const BaselineEntry& e : baseline) {
    if (e.used < e.quota) {
      report.push_back(
          {relativize(root, baseline_path), e.line, "unused-baseline",
           "baseline grants " + std::to_string(e.quota) + " x " + e.rule +
               " in " + e.file + " but only " + std::to_string(e.used) +
               " fired — ratchet the quota down"});
    }
  }
  report.insert(report.end(), berrors.begin(), berrors.end());
  std::sort(report.begin(), report.end());

  for (const Finding& f : report) print_finding(f);
  std::fprintf(stderr, "hipcloud_flow: %zu TUs, %zu finding%s\n", tus.size(),
               report.size(), report.size() == 1 ? "" : "s");
  return report.empty() ? 0 : 1;
}

// --------------------------------------------------------------------------
// Self-test mode

int run_self_test(const std::string& fixture_root, int jobs) {
  int failures = 0;
  std::vector<fs::path> subdirs;
  for (const auto& ent : fs::directory_iterator(fixture_root)) {
    if (ent.is_directory()) subdirs.push_back(ent.path());
  }
  std::sort(subdirs.begin(), subdirs.end());

  for (const fs::path& sub : subdirs) {
    const bool mini_tree = fs::exists(sub / "src");
    std::vector<std::string> tus;
    std::vector<std::string> incs;
    std::string root = sub.string();
    if (mini_tree) {
      tus = walk_tus(root, {"src"});
      std::vector<std::string> cpps;
      for (const std::string& f : tus) {
        if (f.size() > 4 && f.rfind(".cpp") == f.size() - 4) {
          cpps.push_back(f);
        }
      }
      tus = std::move(cpps);
      incs = {root + "/src", root};
    } else {
      for (const auto& ent : fs::directory_iterator(sub)) {
        if (ent.is_regular_file() && is_tu(ent.path())) {
          tus.push_back(ent.path().string());
        }
      }
      std::sort(tus.begin(), tus.end());
      incs = {root};
    }
    if (tus.empty()) continue;

    RunResult rr = analyze_paths(root, incs, tus, jobs, /*all_paths=*/true);
    const std::vector<Finding> remaining =
        apply_allows(rr.findings, rr.pragmas);

    std::vector<ExpectPragma>& expects = rr.pragmas.expects;
    for (const Finding& f : remaining) {
      bool matched = false;
      for (ExpectPragma& e : expects) {
        if (!e.matched && e.rule == f.rule && e.file == f.file &&
            (e.line == f.line || e.line + 1 == f.line)) {
          e.matched = true;
          matched = true;
          break;
        }
      }
      if (!matched) {
        ++failures;
        std::fprintf(stderr, "self-test(%s): unexpected finding:\n  ",
                     sub.filename().string().c_str());
        print_finding(f);
      }
    }
    for (const ExpectPragma& e : expects) {
      if (!e.matched) {
        ++failures;
        std::fprintf(stderr,
                     "self-test(%s): %s:%d: expected [%s] to fire here, "
                     "it did not\n",
                     sub.filename().string().c_str(), e.file.c_str(), e.line,
                     e.rule.c_str());
      }
    }
  }
  std::fprintf(stderr, "hipcloud_flow self-test: %zu fixture dirs, %d "
                       "failure%s\n",
               subdirs.size(), failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hipflow

int main(int argc, char** argv) {
  std::string root = hipflow::fs::current_path().string();
  std::string compdb, self_test, baseline;
  bool baseline_set = false;
  bool dump_cg = false;
  bool dump_wire = false;
  int jobs = 0;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--dump-callgraph") {
      dump_cg = true;
    } else if (arg == "--dump-wire") {
      dump_wire = true;
    } else if (arg == "--compdb" && i + 1 < argc) {
      compdb = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline = argv[++i];
      baseline_set = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg == "--self-test" && i + 1 < argc) {
      self_test = argv[++i];
    } else if (arg == "--help") {
      std::fprintf(
          stderr,
          "usage: hipcloud_flow [--root DIR] [--compdb FILE] [--jobs N]\n"
          "                     [--baseline FILE] [--dump-callgraph]\n"
          "                     [--dump-wire] [dirs...]\n"
          "       hipcloud_flow --self-test FIXTURE_DIR\n");
      return 0;
    } else {
      dirs.push_back(arg);
    }
  }
  jobs = hipflow::parse_jobs(jobs);
  if (!self_test.empty()) return hipflow::run_self_test(self_test, jobs);
  if (dirs.empty()) dirs = {"src", "bench", "examples", "tests"};
  if (!baseline_set) {
    const auto def = hipflow::fs::path(root) / "tools" / "flow" /
                     "baseline.flow";
    std::error_code ec;
    if (hipflow::fs::exists(def, ec)) baseline = def.string();
  }
  return hipflow::run_tree(root, dirs, compdb, baseline, jobs, dump_cg,
                           dump_wire);
}
