#include "analysis.hpp"

#include <algorithm>
#include <cctype>

#include "callgraph.hpp"

namespace hipflow {

namespace {

// Token helpers (tok/is_ident/match_paren/match_brace/name_parts/
// has_part) and the function-span scanner now live in callgraph.hpp so
// the whole-program extractor and these per-TU rules agree on them.

// Secret-name vocabularies. `kStrongSecret` parts taint an identifier on
// sight (member fields like `master_`, `dh_secret`); the wider
// `kByteSecret` set additionally taints identifiers only when they are
// declared with a byte-buffer type in the scanned function, which keeps
// string/database "key" variables out.
const std::set<std::string>& strong_secret_parts() {
  static const std::set<std::string> s = {"keymat", "secret", "kij", "ikm",
                                          "master"};
  return s;
}
const std::set<std::string>& byte_secret_parts() {
  static const std::set<std::string> s = {"keymat", "secret", "kij",  "ikm",
                                          "master", "key",    "keys"};
  return s;
}
// MAC/ICV-shaped names: not secrets, but comparing them with memcmp/==
// leaks a timing oracle, so they join the ct-compare rule.
const std::set<std::string>& mac_parts() {
  static const std::set<std::string> s = {"mac", "icv", "hmac", "digest"};
  return s;
}
// Keymat's fields are key material wherever they surface.
const std::set<std::string>& keymat_members() {
  static const std::set<std::string> s = {"hip_hmac_out", "hip_hmac_in",
                                          "esp_enc_out",  "esp_auth_out",
                                          "esp_enc_in",   "esp_auth_in"};
  return s;
}

bool byte_type_at(const std::vector<Token>& t, std::size_t i) {
  const std::string& s = t[i].text;
  return s == "Bytes" || s == "BytesView" || s == "Buffer";
}

// Token ranges whose contents are exempt from hot-path accounting:
// lazily-evaluated (HIPCLOUD_LOG) or debug-build-only macro arguments.
const std::set<std::string>& lazy_macro_names() {
  static const std::set<std::string> s = {"HIPCLOUD_LOG", "DCHECK", "AUDIT",
                                          "HIPCLOUD_CHECK_MSG", "CHECK"};
  return s;
}

std::vector<std::pair<std::size_t, std::size_t>> lazy_ranges(
    const std::vector<Token>& t, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = b; i < e; ++i) {
    if (lazy_macro_names().count(t[i].text) != 0 && tok(t, i + 1) == "(") {
      out.emplace_back(i + 1, match_paren(t, i + 1));
    }
  }
  return out;
}

bool in_ranges(const std::vector<std::pair<std::size_t, std::size_t>>& rs,
               std::size_t i) {
  for (const auto& r : rs) {
    if (i >= r.first && i <= r.second) return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Function extraction — shared FnSpan scanner from callgraph.hpp.

void mark_hot(const std::vector<Token>& t, const FileTable& files,
              const AnalysisOptions& opts, std::vector<FnSpan>& fns) {
  if (opts.hot_marks != nullptr) {
    for (FnSpan& f : fns) {
      const Token& nt = t[f.name_idx];
      auto it = opts.hot_marks->find(files.path(nt.file));
      if (it == opts.hot_marks->end()) continue;
      for (int ml : it->second) {
        if (ml <= nt.line && nt.line - ml <= 3) {
          f.hot = true;
          break;
        }
      }
    }
  }
  // Propagate hotness to same-TU callees by name, to a fixpoint: the
  // packet path is hot transitively, not just at its entry points.
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<std::string> hot_names;
    for (const FnSpan& f : fns) {
      if (f.hot) {
        const auto lazy = lazy_ranges(t, f.body_open, f.body_close);
        for (std::size_t j = f.body_open; j < f.body_close; ++j) {
          if (tok(t, j + 1) == "(" && is_ident(t[j].text) &&
              !in_ranges(lazy, j)) {
            hot_names.insert(t[j].text);
          }
        }
      }
    }
    for (FnSpan& f : fns) {
      if (!f.hot && hot_names.count(f.name) != 0) {
        f.hot = true;
        changed = true;
      }
    }
  }
}

// --------------------------------------------------------------------------
// 1. Layering DAG + header hygiene

const std::map<std::string, std::set<std::string>>& layer_allowed() {
  // What each src/ layer may include. The DAG grows monotonically:
  // sim < crypto < net < {hip, tls} < apps < cloud < core. `apps` sits
  // below cloud/core on purpose — the paper's claim is that legacy
  // applications ride the secure substrate unmodified, so application
  // code must not see HIP, cloud wiring, or the testbed.
  static const std::map<std::string, std::set<std::string>> m = {
      {"sim", {"sim"}},
      {"crypto", {"crypto", "sim"}},
      {"net", {"net", "crypto", "sim"}},
      {"hip", {"hip", "net", "crypto", "sim"}},
      {"tls", {"tls", "net", "crypto", "sim"}},
      {"apps", {"apps", "tls", "net", "crypto", "sim"}},
      {"cloud", {"cloud", "apps", "hip", "tls", "net", "crypto", "sim"}},
      {"core",
       {"core", "cloud", "apps", "hip", "tls", "net", "crypto", "sim"}},
  };
  return m;
}

std::string layer_of(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

void analyze_layering(const TranslationUnit& tu, const FileTable& files,
                      std::vector<Finding>& out) {
  for (const IncludeEdge& e : tu.includes) {
    const std::string& from = files.path(e.from);
    if (e.target.size() > 4 &&
        e.target.rfind(".cpp") == e.target.size() - 4) {
      out.push_back({from, e.line, "flow-header-hygiene",
                     "`" + e.target +
                         "` — including a .cpp compiles its definitions "
                         "into every includer; extract a header"});
      continue;
    }
    const std::string from_layer = layer_of(from);
    if (from_layer.empty()) continue;  // bench/tests/tools see everything
    if (e.angled) continue;            // system headers are layer-free
    const std::size_t slash = e.target.find('/');
    const std::string to_layer =
        slash == std::string::npos ? "" : e.target.substr(0, slash);
    if (layer_allowed().count(to_layer) == 0) {
      if (!e.resolved.empty()) {
        out.push_back({from, e.line, "flow-header-hygiene",
                       "project include `" + e.target +
                           "` must be layer-qualified (\"" + from_layer +
                           "/...\"), not relative"});
      }
      continue;  // non-project quote include (third-party), skip
    }
    const std::set<std::string>& allowed = layer_allowed().at(from_layer);
    if (allowed.count(to_layer) == 0) {
      out.push_back({from, e.line, "flow-layering",
                     "layer `" + from_layer + "` must not include `" +
                         e.target + "` (layer `" + to_layer +
                         "` is above it in the DAG sim < crypto < net < "
                         "hip/tls < apps < cloud < core)"});
    }
  }
  for (const TranslationUnit::Cycle& c : tu.cycles) {
    out.push_back({files.path(c.file), c.line, "flow-include-cycle",
                   "include cycle: " + c.text});
  }
  for (FileId f : tu.unguarded_headers) {
    out.push_back({files.path(f), 1, "flow-header-hygiene",
                   "header lacks `#pragma once` (or an #ifndef guard)"});
  }
}

// --------------------------------------------------------------------------
// 2. Secret taint + constant-time comparison

struct TaintState {
  std::set<std::string> tainted;  // identifiers holding key material
};

bool tainted_occurrence(const std::vector<Token>& t, std::size_t i,
                        const TaintState& st) {
  const std::string& s = t[i].text;
  if (!is_ident(s)) return false;
  if (st.tainted.count(s) != 0) return true;
  if (has_part(s, strong_secret_parts())) return true;
  // Keymat member access: `.esp_enc_out` etc.
  if (keymat_members().count(s) != 0 &&
      (tok(t, i - 1) == "." || tok(t, i - 1) == "->")) {
    return true;
  }
  return false;
}

bool range_tainted(const std::vector<Token>& t, std::size_t b, std::size_t e,
                   const TaintState& st) {
  for (std::size_t i = b; i < e && i < t.size(); ++i) {
    if (tainted_occurrence(t, i, st)) return true;
  }
  return false;
}

bool mac_like(const std::string& id) { return has_part(id, mac_parts()); }

void analyze_taint(const std::vector<Token>& t, const FileTable& files,
                   const FnSpan& fn, const AnalysisOptions& opts,
                   std::vector<Finding>& out) {
  if (!opts.all_paths) {
    // Sink scope: src/ only. Tests compare derived keys with EXPECT_EQ
    // and print diagnostics on failure — that is the test harness's job.
    const std::string& fpath = files.path(t[fn.name_idx].file);
    if (fpath.rfind("src/", 0) != 0) return;
  }
  TaintState st;

  // Seed: parameters and locals declared with a byte-buffer type whose
  // name says key material. One forward pass then propagates through
  // assignment (`x = <tainted expr>` taints x).
  const std::size_t scan_b = fn.args_open;
  const std::size_t scan_e = fn.body_close;
  for (std::size_t i = scan_b; i + 1 < scan_e; ++i) {
    if (!byte_type_at(t, i)) continue;
    std::size_t j = i + 1;
    while (tok(t, j) == "&" || tok(t, j) == "*" || tok(t, j) == "const") ++j;
    const std::string& nm = tok(t, j);
    if (is_ident(nm) && has_part(nm, byte_secret_parts())) {
      st.tainted.insert(nm);
    }
  }
  for (std::size_t i = fn.body_open; i < fn.body_close; ++i) {
    if (tok(t, i + 1) != "=" || !is_ident(t[i].text)) continue;
    if (tok(t, i + 2) == "=") continue;  // ==
    // RHS until ';'
    std::size_t e = i + 2;
    while (e < fn.body_close && t[e].text != ";") ++e;
    if (range_tainted(t, i + 2, e, st)) st.tainted.insert(t[i].text);
  }

  auto flag_sink = [&](std::size_t at, const std::string& what) {
    out.push_back({files.path(t[at].file), t[at].line, "flow-taint",
                   what + " receives key material — secrets must never "
                          "reach logs, console or bench JSON"});
  };

  for (std::size_t i = fn.body_open; i < fn.body_close; ++i) {
    const std::string& s = t[i].text;
    // Logging sinks. HIPCLOUD_LOG is lazy but the secret still lands in
    // the log once the level is raised; laziness is no defence.
    if ((s == "HIPCLOUD_LOG" && tok(t, i + 1) == "(") ||
        (s == "Log" && tok(t, i + 1) == "::" && tok(t, i + 2) == "write")) {
      const std::size_t open = s == "HIPCLOUD_LOG" ? i + 1 : i + 3;
      if (tok(t, open) == "(") {
        const std::size_t close = match_paren(t, open);
        if (range_tainted(t, open + 1, close, st)) {
          flag_sink(i, s == "HIPCLOUD_LOG" ? "HIPCLOUD_LOG" : "sim::Log");
        }
      }
      continue;
    }
    // printf family and JSON emitters.
    static const std::set<std::string> kPrintf = {"printf", "fprintf",
                                                  "snprintf", "sprintf"};
    const bool jsonish =
        is_ident(s) && s.find("json") != std::string::npos;
    if ((kPrintf.count(s) != 0 || jsonish) && tok(t, i + 1) == "(") {
      const std::size_t close = match_paren(t, i + 1);
      if (range_tainted(t, i + 2, close, st)) {
        flag_sink(i, jsonish ? "JSON emitter `" + s + "`" : s + "()");
      }
      continue;
    }
    // ostream << tainted (the lexer splits `<<` into two tokens; a
    // template argument list never doubles the `<`).
    if (s == "<" && tok(t, i + 1) == "<") {
      if ((i > 0 && tainted_occurrence(t, i - 1, st)) ||
          tainted_occurrence(t, i + 2, st)) {
        flag_sink(i, "stream output");
      }
      ++i;  // don't rescan the second '<'
      continue;
    }
    // Non-constant-time comparisons of secrets or MAC/ICV values.
    if (s == "memcmp" && tok(t, i + 1) == "(") {
      const std::size_t close = match_paren(t, i + 1);
      bool hit = range_tainted(t, i + 2, close, st);
      for (std::size_t j = i + 2; !hit && j < close; ++j) {
        if (is_ident(t[j].text) && mac_like(t[j].text)) hit = true;
      }
      if (hit) {
        out.push_back({files.path(t[i].file), t[i].line, "flow-ct-compare",
                       "memcmp on key/MAC material leaks a timing oracle; "
                       "use crypto::ct_equal"});
      }
      continue;
    }
    if ((s == "=" && tok(t, i + 1) == "=") ||
        (s == "!" && tok(t, i + 1) == "=")) {
      // Null/bool/size-literal checks carry no secret content; only a
      // compare where the *other* side is also a value expression can
      // leak a byte-by-byte timing oracle.
      static const std::set<std::string> kInert = {"nullptr", "NULL", "true",
                                                   "false", "nullopt"};
      const std::string& left = tok(t, i - 1);
      const std::string& right = tok(t, i + 2);
      if (kInert.count(left) != 0 || kInert.count(right) != 0 ||
          (!right.empty() &&
           std::isdigit(static_cast<unsigned char>(right[0])))) {
        continue;
      }
      const bool lhs = i > 0 && is_ident(left) &&
                       (tainted_occurrence(t, i - 1, st) ||
                        mac_like(left));
      const bool rhs = is_ident(right) &&
                       (tainted_occurrence(t, i + 2, st) ||
                        mac_like(right));
      if (lhs || rhs) {
        out.push_back({files.path(t[i].file), t[i].line, "flow-ct-compare",
                       "==/!= on key/MAC material leaks a timing oracle; "
                       "use crypto::ct_equal"});
      }
    }
  }
}

// --------------------------------------------------------------------------
// 3. Pooled-Buffer lifetime

// Suspension points (suspension_calls() in callgraph.hpp): calls that
// park a callback on the EventLoop. The frame (and every pooled Buffer
// local in it) is gone when the callback later fires.

void analyze_buffer_lifetime(const std::vector<Token>& t,
                             const FileTable& files, const FnSpan& fn,
                             std::vector<Finding>& out) {
  // Buffer locals declared by value in this body.
  std::set<std::string> buffers;
  for (std::size_t i = fn.body_open; i + 1 < fn.body_close; ++i) {
    if (t[i].text != "Buffer") continue;
    if (tok(t, i - 1) == "class" || tok(t, i - 1) == "struct") continue;
    std::size_t j = i + 1;
    if (tok(t, j) == "&" || tok(t, j) == "*") continue;  // no ownership
    if (is_ident(tok(t, j)) && tok(t, j + 1) != "(") {
      buffers.insert(tok(t, j));
    }
  }
  // Headroom pointers drawn from a tracked buffer.
  std::set<std::string> window_ptrs;
  static const std::set<std::string> kWindowFns = {"data", "prepend",
                                                   "append"};
  for (std::size_t i = fn.body_open; i + 4 < fn.body_close; ++i) {
    // p = buf.data( / buf.prepend( / buf.append(
    if (t[i + 1].text != "=" || !is_ident(t[i].text)) continue;
    const std::string& owner = tok(t, i + 2);
    if (buffers.count(owner) == 0) continue;
    if (tok(t, i + 3) != ".") continue;
    if (kWindowFns.count(tok(t, i + 4)) != 0 && tok(t, i + 5) == "(") {
      window_ptrs.insert(t[i].text);
    }
  }

  // (a) use-after-move.
  for (std::size_t i = fn.body_open; i + 3 < fn.body_close; ++i) {
    const bool qualified = t[i].text == "std" && tok(t, i + 1) == "::" &&
                           tok(t, i + 2) == "move" && tok(t, i + 3) == "(";
    if (!qualified) continue;
    const std::string& victim = tok(t, i + 4);
    if (buffers.count(victim) == 0 || tok(t, i + 5) != ")") continue;
    for (std::size_t j = i + 6; j < fn.body_close; ++j) {
      if (t[j].text != victim) continue;
      if (tok(t, j + 1) == "=" && tok(t, j + 2) != "=") break;  // reassigned
      out.push_back(
          {files.path(t[j].file), t[j].line, "flow-buffer-lifetime",
           "`" + victim + "` used after std::move released its pooled "
           "block — the window pointers now belong to someone else"});
      break;
    }
  }

  // (b) buffer locals / window pointers escaping into a scheduled
  // callback. The callback fires after this frame returns, when the
  // pooled block has been recycled.
  if (buffers.empty() && window_ptrs.empty()) return;
  for (std::size_t i = fn.body_open; i + 1 < fn.body_close; ++i) {
    if (suspension_calls().count(t[i].text) == 0 || tok(t, i + 1) != "(") {
      continue;
    }
    if (tok(t, i - 1) != "." && tok(t, i - 1) != "->" &&
        tok(t, i - 1) != "::") {
      continue;
    }
    const std::size_t close = match_paren(t, i + 1);
    // Lambdas inside the argument list.
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].text != "[") continue;
      std::size_t cap_end = j;
      while (cap_end < close && t[cap_end].text != "]") ++cap_end;
      bool default_cap = false;
      std::set<std::string> captured;
      for (std::size_t k = j + 1; k < cap_end; ++k) {
        const std::string& c = t[k].text;
        if (c == "&" || c == "=") default_cap = default_cap || tok(t, k + 1) == "]" || tok(t, k + 1) == ",";
        if (is_ident(c)) captured.insert(c);
      }
      // Lambda body range (if this bracket really starts a lambda).
      std::size_t lb = cap_end + 1;
      if (tok(t, lb) == "(") lb = match_paren(t, lb) + 1;
      while (lb < close && is_ident(tok(t, lb))) ++lb;  // mutable/noexcept
      if (tok(t, lb) != "{") continue;
      const std::size_t le = match_brace(t, lb);
      auto flag = [&](const std::string& nm, std::size_t at) {
        out.push_back(
            {files.path(t[at].file), t[at].line, "flow-buffer-lifetime",
             "`" + nm + "` (pooled buffer window) escapes into a callback "
             "scheduled on the EventLoop — the block is recycled before "
             "the callback fires"});
      };
      for (const std::string& nm : window_ptrs) {
        if (captured.count(nm) != 0) {
          flag(nm, j);
          continue;
        }
        if (default_cap) {
          for (std::size_t k = lb; k < le; ++k) {
            if (t[k].text == nm) {
              flag(nm, k);
              break;
            }
          }
        }
      }
      for (const std::string& nm : buffers) {
        // Capturing the Buffer by value moves/copies it into the
        // callback — that is safe ownership transfer. Only by-reference
        // capture of a frame-local buffer is flagged.
        bool by_ref = false;
        for (std::size_t k = j + 1; k < cap_end; ++k) {
          if (t[k].text == nm && tok(t, k - 1) == "&") by_ref = true;
        }
        if (by_ref) flag(nm, j);
      }
      j = le < close ? le : j;
    }
  }
}

// --------------------------------------------------------------------------
// 4. Hot-path allocation

void analyze_hot_alloc(const std::vector<Token>& t, const FileTable& files,
                       const FnSpan& fn, std::vector<Finding>& out) {
  if (!fn.hot) return;
  const auto exempt = lazy_ranges(t, fn.body_open, fn.body_close);
  auto exempted = [&](std::size_t i) { return in_ranges(exempt, i); };

  // Vector-ish locals and whether they were reserve()d.
  std::set<std::string> growable, reserved;
  for (std::size_t i = fn.body_open; i + 1 < fn.body_close; ++i) {
    if (t[i].text == "vector" || t[i].text == "Bytes") {
      std::size_t j = i + 1;
      if (t[i].text == "vector" && tok(t, j) == "<") {
        int d = 0;
        for (; j < fn.body_close; ++j) {
          if (t[j].text == "<") ++d;
          if (t[j].text == ">" && --d == 0) break;
        }
        ++j;
      }
      while (tok(t, j) == "&" || tok(t, j) == "*") ++j;
      if (is_ident(tok(t, j)) && tok(t, j + 1) != "(") {
        growable.insert(tok(t, j));
      }
    }
    if (tok(t, i + 1) == "." && tok(t, i + 2) == "reserve") {
      reserved.insert(t[i].text);
    }
  }

  auto flag = [&](std::size_t at, const std::string& msg) {
    out.push_back({files.path(t[at].file), t[at].line, "flow-hot-alloc",
                   msg + " (function is on the packet path / marked "
                         "hipcheck:hot)"});
  };
  for (std::size_t i = fn.body_open; i < fn.body_close; ++i) {
    if (exempted(i)) continue;
    const std::string& s = t[i].text;
    if (s == "function" && tok(t, i - 1) == "::" &&
        tok(t, i - 2) == "std") {
      flag(i, "std::function heap-allocates over-SBO captures; use "
              "sim::InlineFn");
      continue;
    }
    if (s == "to_string" && tok(t, i + 1) == "(") {
      flag(i, "std::to_string builds a heap string per call");
      continue;
    }
    if ((s == "ostringstream" || s == "stringstream") ) {
      flag(i, "stringstream allocates per construction");
      continue;
    }
    if (s == "string" && tok(t, i - 1) == "::" && tok(t, i - 2) == "std" &&
        tok(t, i + 1) == "(") {
      flag(i, "std::string temporary allocates");
      continue;
    }
    if ((s == "push_back" || s == "emplace_back") &&
        tok(t, i - 1) == "." && tok(t, i + 1) == "(") {
      const std::string& owner = tok(t, i - 2);
      if (growable.count(owner) != 0 && reserved.count(owner) == 0) {
        flag(i, "`" + owner + "`." + s + "() may grow without reserve()");
      }
    }
  }
}

// --------------------------------------------------------------------------
// 5. Exception flow out of EventLoop callbacks

void analyze_exception_flow(const std::vector<Token>& t,
                            const FileTable& files, const FnSpan& fn,
                            std::vector<Finding>& out) {
  for (std::size_t i = fn.body_open; i + 1 < fn.body_close; ++i) {
    if (suspension_calls().count(t[i].text) == 0 || tok(t, i + 1) != "(") {
      continue;
    }
    if (tok(t, i - 1) != "." && tok(t, i - 1) != "->" &&
        tok(t, i - 1) != "::") {
      continue;
    }
    const std::size_t close = match_paren(t, i + 1);
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].text != "[") continue;
      std::size_t cap_end = j;
      while (cap_end < close && t[cap_end].text != "]") ++cap_end;
      std::size_t lb = cap_end + 1;
      if (tok(t, lb) == "(") lb = match_paren(t, lb) + 1;
      while (lb < close && is_ident(tok(t, lb))) ++lb;
      if (tok(t, lb) != "{") continue;
      const std::size_t le = match_brace(t, lb);
      // A catch anywhere in the callback body is taken as handling; the
      // pragma covers the (rare) partially-covered case honestly.
      bool has_catch = false;
      for (std::size_t k = lb; k < le; ++k) {
        if (t[k].text == "catch") {
          has_catch = true;
          break;
        }
      }
      if (!has_catch) {
        for (std::size_t k = lb; k < le; ++k) {
          if (t[k].text != "throw") continue;
          bool check_failure = false;
          for (std::size_t m = k + 1; m < k + 6 && m < le; ++m) {
            if (t[m].text == "CheckFailure") check_failure = true;
          }
          if (check_failure) continue;
          out.push_back(
              {files.path(t[k].file), t[k].line, "flow-exn",
               "throw inside an EventLoop callback — only "
               "sim::CheckFailure may escape the event engine; handle "
               "or convert the error"});
        }
      }
      j = le < close ? le : j;
    }
  }
}

// --------------------------------------------------------------------------
// 6. Shard ownership, intra-TU half (the interprocedural half lives in
//    ownership.cpp over the linked call graph).

/// flow-shard-owned: a lambda crossing the shard seam (handed to
/// ShardCoordinator::post / EventLoop::schedule_cross) must not smuggle
/// the sending shard's state across threads. Value captures and
/// init-captures are legal ownership transfer (the CrossLinkHalf staged
/// copy); `this`, by-reference captures, and any use of a
/// hipcheck:shard_owned-marked name (or a `member_`-shaped name under a
/// default capture) are not — the callback runs on the receiving shard's
/// worker while the sender keeps mutating that state.
void analyze_shard_owned(const std::vector<Token>& t, const FileTable& files,
                         const FnSpan& fn, const AnalysisOptions& opts,
                         std::vector<Finding>& out) {
  if (opts.marks == nullptr) return;
  if (!opts.all_paths) {
    const std::string& fpath = files.path(t[fn.name_idx].file);
    if (fpath.rfind("src/", 0) != 0) return;
  }
  const std::set<std::string>& owned = opts.marks->owned_names;
  for (std::size_t i = fn.body_open; i + 1 < fn.body_close; ++i) {
    if (!is_ident(t[i].text) || !is_cross_seam_call(t, i)) continue;
    const std::size_t close = match_paren(t, i + 1);
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].text != "[") continue;
      std::size_t cap_end = j;
      while (cap_end < close && t[cap_end].text != "]") ++cap_end;
      std::size_t lb = cap_end + 1;
      if (tok(t, lb) == "(") lb = match_paren(t, lb) + 1;
      while (lb < close && is_ident(tok(t, lb))) ++lb;
      if (tok(t, lb) != "{") continue;
      const std::size_t le = match_brace(t, lb);

      auto flag = [&](std::size_t at, const std::string& msg) {
        out.push_back({files.path(t[at].file), t[at].line,
                       "flow-shard-owned", msg});
      };
      bool default_cap = false;
      bool in_init = false;
      for (std::size_t k = j + 1; k < cap_end; ++k) {
        const std::string& c = t[k].text;
        if (c == ",") {
          in_init = false;
          continue;
        }
        if (c == "=") {
          if (tok(t, k + 1) == "]" || tok(t, k + 1) == "," || k == j + 1) {
            default_cap = true;
          } else {
            in_init = true;  // init-capture: value/move transfer, legal
          }
          continue;
        }
        if (c == "this") {
          flag(k, "`this` captured into a cross-shard callback — the "
                  "receiving worker would alias the sending shard's "
                  "object; stage a copy instead");
          continue;
        }
        if (c == "&") {
          const std::string& nx = tok(t, k + 1);
          if (nx == "]" || nx == ",") {
            flag(k, "default by-reference capture crosses the shard seam "
                    "— the frame and its shard-owned state stay on the "
                    "sending side; capture by value");
          } else if (is_ident(nx) && !in_init) {
            flag(k, "`" + nx + "` captured by reference into a "
                                "cross-shard callback; capture by value "
                                "or stage a copy");
            ++k;
          }
          continue;
        }
        if (is_ident(c) && !in_init && owned.count(c) != 0) {
          flag(k, "`" + c + "` is hipcheck:shard_owned — copying it "
                            "across the seam aliases shard-confined "
                            "state; send a staged value instead");
        }
      }
      // Body uses of owned-marked or member-shaped names only reach the
      // other shard when something captured the enclosing object.
      if (default_cap) {
        for (std::size_t k = lb; k < le; ++k) {
          const std::string& s = t[k].text;
          if (!is_ident(s)) continue;
          const bool member_shaped = s.size() > 1 && s.back() == '_';
          if (owned.count(s) != 0 || member_shaped) {
            flag(k, "`" + s + "` (" +
                        (owned.count(s) != 0 ? "hipcheck:shard_owned"
                                             : "member field") +
                        ") used under a default capture in a cross-shard "
                        "callback — the receiving worker races the "
                        "owning shard");
            break;  // one finding per lambda is enough signal
          }
        }
      }
      j = le < close ? le : j;
    }
  }
}

/// flow-shard-shared: state marked hipcheck:shard_shared is published
/// across threads by design (atomics, mutex- or barrier-protected), but
/// its *writers* must be sanctioned — only hipcheck:seam functions may
/// mutate it, so every write site is auditable.
void analyze_shard_shared(const std::vector<Token>& t, const FileTable& files,
                          const FnSpan& fn, const AnalysisOptions& opts,
                          std::vector<Finding>& out) {
  if (opts.marks == nullptr || opts.marks->shared_names.empty()) return;
  const std::string& fpath = files.path(t[fn.name_idx].file);
  if (!opts.all_paths && fpath.rfind("src/", 0) != 0) return;
  if (opts.marks->fn_marked(fpath, t[fn.name_idx].line, OwnMark::kSeam)) {
    return;
  }
  for (std::size_t i = fn.body_open; i < fn.body_close; ++i) {
    if (!is_ident(t[i].text)) continue;
    if (opts.marks->shared_names.count(t[i].text) == 0) continue;
    if (!is_write(t, i)) continue;
    out.push_back(
        {files.path(t[i].file), t[i].line, "flow-shard-shared",
         "`" + t[i].text + "` is hipcheck:shard_shared but `" + fn.name +
             "` is not a hipcheck:seam — writes to shared shard state "
             "are only sanctioned inside seam functions"});
  }
}

// --------------------------------------------------------------------------
// 7. Determinism and idiom token rules: short token patterns over the
//    whole TU. Each finding is scoped by the path of the file its token
//    came from, so a src/sim/ header inlined into a src/net/ TU keeps the
//    sim/ exemptions.

bool under(const std::string& path, const char* prefix) {
  return path.rfind(prefix, 0) == 0;
}

/// wall-clock: std::chrono clocks, std::random_device, std::rand and
/// time(nullptr) outside sim::, which owns virtual time and the seeded
/// DRBG. The shard seam (src/sim/shard.*) runs on real worker threads,
/// where a clock or entropy read is exactly the cross-thread leak this
/// rule exists to catch, so the sim/ exemption does not cover it.
void rule_wall_clock(const std::vector<Token>& t, std::size_t i,
                     const std::string& path, std::vector<Finding>& out) {
  if (under(path, "src/sim/") && !under(path, "src/sim/shard.")) return;
  static const std::set<std::string> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  const std::string& s = t[i].text;
  std::string msg;
  if (kClocks.count(s) != 0) {
    msg = "std::chrono::" + s +
          " reads real time; use the event loop's virtual now()";
  } else if (s == "random_device") {
    msg = "std::random_device is non-deterministic; seed sim::Rng / "
          "HmacDrbg instead";
  } else if (s == "rand" && tok(t, i - 1) == "::" && tok(t, i - 2) == "std") {
    msg = "std::rand is a hidden global RNG; use the world's seeded "
          "generator";
  } else if (s == "time" && tok(t, i + 1) == "(" &&
             (tok(t, i + 2) == "nullptr" || tok(t, i + 2) == "NULL" ||
              tok(t, i + 2) == "0")) {
    msg = "time(nullptr) reads the wall clock; use the event loop's "
          "virtual now()";
  }
  if (!msg.empty()) out.push_back({path, t[i].line, "wall-clock", msg});
}

/// raw-alloc: raw new/delete on the packet path (src/net, src/hip,
/// src/apps), where the pooled buffer arena and make_unique/make_shared
/// own all allocation.
void rule_raw_alloc(const std::vector<Token>& t, std::size_t i,
                    const std::string& path, const AnalysisOptions& opts,
                    std::vector<Finding>& out) {
  if (!opts.all_paths && !under(path, "src/net/") &&
      !under(path, "src/hip/") && !under(path, "src/apps/")) {
    return;
  }
  const std::string& s = t[i].text;
  if (s == "new") {
    out.push_back({path, t[i].line, "raw-alloc",
                   "raw `new` on the packet path; use make_unique/"
                   "make_shared or the BufferPool"});
  } else if (s == "delete" && tok(t, i - 1) != "=" &&
             tok(t, i - 1) != "operator") {
    // `= delete` declarations and operator delete are not allocation.
    out.push_back({path, t[i].line, "raw-alloc",
                   "raw `delete` on the packet path; owning types should "
                   "manage lifetime"});
  }
}

/// self-capture: `x->method([x]{...})` or `x->method([a, x]{...})` — the
/// callback keeps its own owner alive, the shared_ptr cycle that leaked
/// TcpConnections. Only a plain-copy capture item closes the cycle:
/// `[&x]` takes no ownership, and in init-captures
/// (`[w = std::weak_ptr<T>(x)]`) `x` is not a direct list item.
void rule_self_capture(const std::vector<Token>& t, std::size_t i,
                       const std::string& path, std::vector<Finding>& out) {
  if (tok(t, i + 1) != "->" || tok(t, i + 3) != "(" || tok(t, i + 4) != "[" ||
      !is_ident(t[i].text)) {
    return;
  }
  const std::string& obj = t[i].text;
  for (std::size_t j = i + 5; j < t.size() && t[j].text != "]"; ++j) {
    const std::string& prev = tok(t, j - 1);
    const std::string& next = tok(t, j + 1);
    if (t[j].text == obj && (prev == "[" || prev == ",") &&
        (next == "," || next == "]")) {
      out.push_back({path, t[j].line, "self-capture",
                     "`" + obj + "` captures itself by value in a callback "
                     "it installs on itself — shared_ptr reference cycle "
                     "(leak)"});
      return;
    }
  }
}

/// eager-log: Log::write builds its std::string argument before the
/// level check; only the sink itself (src/sim/log.*) may call it, and
/// everything else goes through the lazy HIPCLOUD_LOG macro.
void rule_eager_log(const std::vector<Token>& t, std::size_t i,
                    const std::string& path, std::vector<Finding>& out) {
  if (under(path, "src/sim/log.")) return;
  if (t[i].text == "Log" && tok(t, i + 1) == "::" && tok(t, i + 2) == "write") {
    out.push_back({path, t[i].line, "eager-log",
                   "raw sim::Log::write() builds the message eagerly; use "
                   "HIPCLOUD_LOG (lazy format)"});
  }
}

/// unordered-iter: a range-for over a std::unordered_{map,set}. Hash-table
/// iteration order is implementation-defined, so anything it feeds
/// (scheduling, wire output, aggregation) diverges across platforms. The
/// declared names come from the whole TU, so a member declared in a
/// header and iterated in the .cpp is caught too.
void rule_unordered_iter(const std::vector<Token>& t, const FileTable& files,
                         std::vector<Finding>& out) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "unordered_map" && t[i].text != "unordered_set") continue;
    std::size_t j = i + 1;
    if (tok(t, j) != "<") continue;
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (t[j].text == "<") ++depth;
      if (t[j].text == ">" && --depth == 0) break;
    }
    ++j;  // past '>'
    while (tok(t, j) == "&" || tok(t, j) == "*") ++j;
    if (is_ident(tok(t, j))) names.insert(tok(t, j));
  }
  if (names.empty()) return;

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "for" || tok(t, i + 1) != "(") continue;
    // The matching ')' and the first top-level ':' inside it; a classic
    // for has no such colon.
    int depth = 0;
    std::size_t colon = 0, end = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if ((s == ")" || s == "]" || s == "}") && --depth == 0) {
        end = j;
        break;
      }
      if (s == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0 || end == 0) continue;
    for (std::size_t j = colon + 1; j < end; ++j) {
      if (names.count(t[j].text) == 0) continue;
      out.push_back({files.path(t[j].file), t[j].line, "unordered-iter",
                     "range-for over std::unordered_* `" + t[j].text +
                         "`: iteration order is implementation-defined and "
                         "breaks cross-platform determinism"});
      break;
    }
  }
}

void analyze_token_rules(const std::vector<Token>& t, const FileTable& files,
                         const AnalysisOptions& opts,
                         std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& path = files.path(t[i].file);
    rule_wall_clock(t, i, path, out);
    rule_raw_alloc(t, i, path, opts, out);
    rule_self_capture(t, i, path, out);
    rule_eager_log(t, i, path, out);
  }
  rule_unordered_iter(t, files, out);
}

}  // namespace

void analyze_tu(const TranslationUnit& tu, const FileTable& files,
                const AnalysisOptions& opts, std::vector<Finding>& out) {
  analyze_layering(tu, files, out);
  analyze_token_rules(tu.tokens, files, opts, out);

  std::vector<FnSpan> fns = find_fn_spans(tu.tokens);
  mark_hot(tu.tokens, files, opts, fns);
  for (const FnSpan& fn : fns) {
    analyze_taint(tu.tokens, files, fn, opts, out);
    analyze_buffer_lifetime(tu.tokens, files, fn, out);
    analyze_hot_alloc(tu.tokens, files, fn, out);
    analyze_exception_flow(tu.tokens, files, fn, out);
    analyze_shard_owned(tu.tokens, files, fn, opts, out);
    analyze_shard_shared(tu.tokens, files, fn, opts, out);
  }
}

}  // namespace hipflow
