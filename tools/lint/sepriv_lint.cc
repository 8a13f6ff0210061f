// sepriv_lint — the repo-specific determinism & DP-accounting checker.
//
// Generic static analysis cannot know this repo's contract: every random
// draw must flow through util/rng.h fork streams (so DP noise is visible to
// the accountant and every result is a pure function of the seed), results
// must never depend on wall-clock time, and result-producing code must never
// iterate an unordered container (iteration order varies across libstdc++
// versions and ASLR runs, which breaks the bit-identical digests CI pins).
// This tool encodes exactly those rules as a token-level scanner and runs as
// a CTest test, so a violation is a tier-1 failure, not a review comment.
//
// Rules (diagnostic ids):
//   random-device        std::random_device — nondeterministic entropy
//   raw-rand             rand()/srand()/rand_r()/drand48()/... — global,
//                        unseeded, platform-varying streams
//   wall-clock           time()/system_clock/gettimeofday()/localtime()/
//                        clock() — results must not depend on when they run
//                        (steady_clock for *durations* is fine: it cannot
//                        leak into result values, only into timing reports)
//   raw-engine           std::mt19937 and friends — platform-pinned but
//                        fork-stream-invisible; all streams come from
//                        sepriv::Rng (util/rng.h)
//   raw-distribution     std::*_distribution — the libstdc++ sampling
//                        algorithm is unspecified, so values differ across
//                        standard libraries; Rng provides the portable
//                        equivalents
//   unordered-iteration  range-for / .begin() iteration over a variable
//                        declared std::unordered_map/std::unordered_set —
//                        hash-order-dependent results
//   raw-getenv           getenv()/secure_getenv() outside util/env.h — every
//                        knob goes through GetStringEnv/ParseSizeEnv so
//                        parsing, validation, and defaulting stay in one
//                        place (and a grep of env.h call sites finds every
//                        knob the repo honours)
//   sleep-wait           sleep_for/sleep_until/usleep/nanosleep/sleep() —
//                        sleeping in result-producing code papers over
//                        missing synchronisation and makes run time (and
//                        under load, results) machine-dependent; use the
//                        pool's barriers or condition variables
//   raw-intrinsics       <immintrin.h> / _mm* intrinsics / __m128-__m512
//                        vector types outside src/linalg/simd/ — SIMD code
//                        lives behind the runtime dispatcher (one
//                        accumulation-order contract, per-file ISA flags,
//                        scalar fallback); an intrinsic anywhere else either
//                        crashes baseline CPUs or forks the numerics
//   unchecked-io         a statement that calls one of the repo's
//                        failure-reporting IO entry points (PageFile
//                        read/write/sync, buffer-pool pins, sample-store
//                        appends, shard/checkpoint/atomic-file writers,
//                        whole-store shard scans) and
//                        throws the bool/Status result away — the ONLY
//                        failure channel these calls have. `(void)` casts
//                        do not exempt: silencing the compiler is not
//                        handling the error
//   shared-tempdir       `TempDir() + "literal"` — one fixed directory that
//                        every test process shares; ctest -j runs each TEST
//                        as its own process, so concurrent cases delete each
//                        other's files. Tests take a per-process, per-test
//                        directory from tests/test_tmpdir.h instead
//   test-only-module     a header under src/ that no file outside tests/
//                        includes, apart from its own .cc — library code
//                        that training never runs (reported on line 1).
//                        Includes are counted from every scanned root and
//                        from each `--includes-from <dir>`, whose files are
//                        read for their includes only, never linted
//   bad-suppression      a sepriv-lint: allow(...) comment without a
//                        justification after the closing parenthesis
//   unused-suppression   a suppression that silenced nothing (stale allows
//                        rot; delete them when the code they excused goes)
//
// Suppression syntax (justification mandatory, same line or the line above
// the violating code):
//   // sepriv-lint: allow(rule-name): why this specific use is sound
//
// Exemptions baked in: util/rng.h is the one legal home of raw engines and
// distributions (it defines the portable stream everything else uses).
//
// Self-test mode (`sepriv_lint --self-test <dir>`) scans fixture files and
// compares emitted diagnostics against `// expect-lint: <rule>` markers on
// the expected lines — proving every rule fires, suppressions suppress, and
// clean files stay clean. Wired into ctest as tools/lint/testdata.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct Token {
  std::string text;
  int line = 0;
};

// --- Lexing ------------------------------------------------------------------

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Tokenizes C++ source into identifiers and single-char punctuation,
/// dropping comments and char literals. A string literal (including a quoted
/// include path) becomes one `"` token: its contents are never scanned, but
/// rules can see that a literal stands there. Line numbers are preserved for
/// diagnostics.
std::vector<Token> Tokenize(const std::string& src) {
  std::vector<Token> toks;
  int line = 1;
  size_t i = 0;
  const size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = std::min(n, i + 2);
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      if (quote == '"') toks.push_back({"\"", line});
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;  // skip escaped char
        if (src[i] == '\n') ++line;            // unterminated; keep counting
        ++i;
      }
      ++i;  // closing quote
    } else if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      toks.push_back({src.substr(i, j - i), line});
      i = j;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else {
      toks.push_back({std::string(1, c), line});
      ++i;
    }
  }
  return toks;
}

// --- Suppressions ------------------------------------------------------------

struct Suppression {
  int line = 0;          // the comment's own line
  std::string rule;
  bool justified = false;
  bool used = false;
};

/// Extracts `sepriv-lint: allow(rule[, rule...]): justification` comments
/// from raw source lines. A suppression covers its own line and the next
/// line (so it can sit above the code it excuses). The marker must be the
/// FIRST thing in the `//` comment — that is what distinguishes a live
/// suppression from prose (or this tool's own documentation) that merely
/// mentions the syntax.
std::vector<Suppression> FindSuppressions(
    const std::vector<std::string>& lines) {
  std::vector<Suppression> out;
  const std::string kMarker = "sepriv-lint:";
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& text = lines[ln];
    const size_t slashes = text.find("//");
    if (slashes == std::string::npos) continue;
    size_t at = slashes + 2;
    while (at < text.size() &&
           std::isspace(static_cast<unsigned char>(text[at]))) {
      ++at;
    }
    if (text.compare(at, kMarker.size(), kMarker) != 0) continue;
    size_t p = text.find("allow", at);
    if (p == std::string::npos) continue;
    p = text.find('(', p);
    const size_t close = (p == std::string::npos)
                             ? std::string::npos
                             : text.find(')', p);
    if (p == std::string::npos || close == std::string::npos) continue;
    // Justification: any non-space text after "):".
    bool justified = false;
    size_t j = close + 1;
    if (j < text.size() && text[j] == ':') {
      ++j;
      while (j < text.size() &&
             std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      justified = j < text.size();
    }
    // Split the comma-separated rule list.
    std::string list = text.substr(p + 1, close - p - 1);
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(),
                                [](unsigned char ch) {
                                  return std::isspace(ch) != 0;
                                }),
                 rule.end());
      if (!rule.empty()) {
        out.push_back({static_cast<int>(ln + 1), rule, justified, false});
      }
    }
  }
  return out;
}

// --- Per-file scan -----------------------------------------------------------

const std::set<std::string>& RawRandFunctions() {
  static const std::set<std::string> kSet = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "srand48",
      "random", "srandom",
  };
  return kSet;
}

const std::set<std::string>& RawEngines() {
  static const std::set<std::string> kSet = {
      "mt19937",       "mt19937_64", "minstd_rand", "minstd_rand0",
      "ranlux24",      "ranlux48",   "ranlux24_base", "ranlux48_base",
      "knuth_b",       "default_random_engine",
  };
  return kSet;
}

const std::set<std::string>& RawDistributions() {
  // The exact <random> distribution names — an exhaustive list rather than
  // a `_distribution` suffix match, so domain variables like
  // `degree_distribution` never false-positive.
  static const std::set<std::string> kSet = {
      "uniform_int_distribution",     "uniform_real_distribution",
      "normal_distribution",          "bernoulli_distribution",
      "binomial_distribution",        "geometric_distribution",
      "negative_binomial_distribution", "poisson_distribution",
      "exponential_distribution",     "gamma_distribution",
      "weibull_distribution",         "extreme_value_distribution",
      "lognormal_distribution",       "chi_squared_distribution",
      "cauchy_distribution",          "fisher_f_distribution",
      "student_t_distribution",       "discrete_distribution",
      "piecewise_constant_distribution", "piecewise_linear_distribution",
  };
  return kSet;
}

const std::set<std::string>& WallClockCalls() {
  static const std::set<std::string> kSet = {
      "time", "gettimeofday", "localtime", "gmtime", "clock", "ftime",
  };
  return kSet;
}

const std::set<std::string>& SleepCalls() {
  static const std::set<std::string> kSet = {
      "sleep_for", "sleep_until", "usleep", "nanosleep", "sleep",
  };
  return kSet;
}

/// The repo's IO entry points whose bool/Status return is the ONLY failure
/// channel. A statement that calls one and discards the result swallows
/// torn writes, ENOSPC, and corruption. Exact-name matching, like the
/// distribution list: suffix heuristics would catch domain verbs.
const std::set<std::string>& IoResultFunctions() {
  static const std::set<std::string> kSet = {
      // util/page_file.h
      "ReadPage", "WritePage", "AppendPage", "Sync", "TryReadPage",
      "TryWritePage", "TryAppendPage", "TrySync",
      // util/buffer_pool.h
      "TryPin",
      // embedding/sample_store.h + core/batch_gradient_engine.h
      "Append", "Finish", "TryPinShard", "TryAccumulateBatch",
      // core/checkpoint.h + util/atomic_file.h + graph/shard.h
      "SaveCheckpoint", "LoadCheckpoint", "WriteFileAtomic",
      "ReadFileToString", "SaveShardManifest", "WriteGraphShards",
      "ComposeGraphFingerprint", "MaterializeGraph",
  };
  return kSet;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Scans one file; appends diagnostics. `path_label` is what diagnostics
/// print (repo-relative when possible). `test_only_module` reports the
/// cross-file rule here, so that its suppressions go through the same
/// bookkeeping as every other rule's.
void ScanFile(const fs::path& path, const std::string& path_label,
              bool test_only_module, std::vector<Diagnostic>* diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    diags->push_back({path_label, 0, "io-error", "cannot read file"});
    return;
  }
  std::string src((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());

  std::vector<std::string> lines;
  {
    std::stringstream ss(src);
    std::string l;
    while (std::getline(ss, l)) lines.push_back(l);
  }
  std::vector<Suppression> sups = FindSuppressions(lines);

  // util/rng.h is the sanctioned home of raw engine/distribution code: it
  // wraps them into the seeded, forkable stream the rest of the repo uses.
  // util/env.h is likewise the one legal caller of getenv(), and
  // src/linalg/simd/ the one legal home of vector intrinsics (the runtime
  // dispatcher with per-file ISA flags and the scalar bit-exact reference).
  const bool is_rng_home = EndsWith(path_label, "util/rng.h");
  const bool is_env_home = EndsWith(path_label, "util/env.h");
  const bool is_simd_home =
      path_label.find("linalg/simd/") != std::string::npos;

  const std::vector<Token> toks = Tokenize(src);
  std::vector<Diagnostic> local;
  if (test_only_module) {
    local.push_back({path_label, 1, "test-only-module",
                     "no file outside tests/ includes this header, apart "
                     "from its own .cc: delete the module or give it a "
                     "library, bench or example user"});
  }

  // Names declared (anywhere in this file) with an unordered container
  // type. Sorted container => deterministic diagnostics.
  std::set<std::string> unordered_names;

  auto tok = [&](size_t idx) -> const std::string& {
    static const std::string kEmpty;
    return idx < toks.size() ? toks[idx].text : kEmpty;
  };

  // Pass 1: token rules + unordered declaration collection.
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    const int line = toks[i].line;
    const bool member_access =
        i > 0 && (tok(i - 1) == "." ||
                  (tok(i - 1) == ">" && i > 1 && tok(i - 2) == "-"));

    if (t == "random_device") {
      local.push_back({path_label, line, "random-device",
                       "std::random_device is nondeterministic entropy; "
                       "seed a sepriv::Rng (util/rng.h) instead"});
    } else if (!is_rng_home && RawEngines().count(t) != 0) {
      local.push_back({path_label, line, "raw-engine",
                       "std::" + t + " bypasses the fork-stream discipline; "
                       "use sepriv::Rng (util/rng.h)"});
    } else if (!is_rng_home && RawDistributions().count(t) != 0) {
      local.push_back(
          {path_label, line, "raw-distribution",
           "std::" + t + " sampling is implementation-defined; use the "
           "Rng::Uniform/UniformInt/Normal/Bernoulli equivalents"});
    } else if (!is_simd_home &&
               (t == "immintrin" || t.compare(0, 3, "_mm") == 0 ||
                t.compare(0, 3, "__m") == 0)) {
      // "__m" / "_mm" prefixes cover the vector types (__m128..__m512d) and
      // every intrinsic family (_mm_, _mm256_, _mm512_); both prefixes are
      // compiler-reserved, so no legitimate repo identifier can collide.
      local.push_back(
          {path_label, line, "raw-intrinsics",
           "'" + t + "' outside src/linalg/simd/: SIMD goes through the "
           "runtime dispatcher (linalg/simd/dispatch.h) so every kernel has "
           "a scalar bit-exact fallback and per-file ISA flags"});
    } else if (!member_access && RawRandFunctions().count(t) != 0 &&
               tok(i + 1) == "(") {
      local.push_back({path_label, line, "raw-rand",
                       t + "() draws from a global platform-varying stream; "
                       "use sepriv::Rng (util/rng.h)"});
    } else if (t == "system_clock") {
      local.push_back({path_label, line, "wall-clock",
                       "system_clock makes results depend on when they run; "
                       "use steady_clock for durations, never for results"});
    } else if (!member_access && WallClockCalls().count(t) != 0 &&
               tok(i + 1) == "(") {
      local.push_back({path_label, line, "wall-clock",
                       t + "() reads the wall clock; results must be a pure "
                       "function of the seed"});
    } else if (!is_env_home && !member_access &&
               (t == "getenv" || t == "secure_getenv") &&
               tok(i + 1) == "(") {
      local.push_back({path_label, line, "raw-getenv",
                       t + "() scattered through the tree hides knobs; use "
                       "GetStringEnv/ParseSizeEnv from util/env.h"});
    } else if (t == "TempDir" && tok(i + 1) == "(" && tok(i + 2) == ")" &&
               tok(i + 3) == "+" && tok(i + 4) == "\"") {
      local.push_back({path_label, line, "shared-tempdir",
                       "TempDir() + \"literal\" names one directory shared by "
                       "every concurrently running test process; use "
                       "TestTmpDir() from tests/test_tmpdir.h"});
    } else if (!member_access && SleepCalls().count(t) != 0 &&
               tok(i + 1) == "(") {
      local.push_back({path_label, line, "sleep-wait",
                       t + "() in result-producing code papers over missing "
                       "synchronisation; wait on the pool's barriers or a "
                       "condition variable instead"});
    } else if (t == "unordered_map" || t == "unordered_set" ||
               t == "unordered_multimap" || t == "unordered_multiset") {
      // Declaration heuristic: `unordered_map < ...balanced... > [*&]* name`.
      size_t j = i + 1;
      if (tok(j) == "<") {
        int depth = 1;
        ++j;
        while (j < toks.size() && depth > 0) {
          if (tok(j) == "<") ++depth;
          if (tok(j) == ">") --depth;
          ++j;
        }
        while (tok(j) == "*" || tok(j) == "&" || tok(j) == "const") ++j;
        const std::string& name = tok(j);
        if (!name.empty() && IsIdentStart(name[0])) {
          unordered_names.insert(name);
        }
      }
    }
  }

  // Pass 2: iteration over unordered names. Two shapes:
  //   for ( ... : name )        range-for (any deref/paren prefix on name)
  //   name . begin ( )          iterator walk / algorithm over full range
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text == "for" && tok(i + 1) == "(") {
      int depth = 1;
      size_t j = i + 2;
      size_t colon = 0;
      while (j < toks.size() && depth > 0) {
        if (tok(j) == "(") ++depth;
        if (tok(j) == ")") --depth;
        // A lone ':' at paren depth 1 is the range-for separator ("::" is
        // two tokens here, so require neighbours that are not ':').
        if (depth == 1 && tok(j) == ":" && tok(j - 1) != ":" &&
            tok(j + 1) != ":" && colon == 0) {
          colon = j;
        }
        ++j;
      }
      if (colon != 0) {
        size_t k = colon + 1;
        while (tok(k) == "*" || tok(k) == "(" || tok(k) == "&") ++k;
        if (unordered_names.count(tok(k)) != 0) {
          local.push_back(
              {path_label, toks[k].line, "unordered-iteration",
               "range-for over unordered container '" + tok(k) +
                   "': hash iteration order is not deterministic; iterate "
                   "a sorted copy or an index-ordered structure"});
        }
      }
    } else if (unordered_names.count(toks[i].text) != 0 &&
               tok(i + 1) == "." && tok(i + 2) == "begin" &&
               tok(i + 3) == "(") {
      local.push_back(
          {path_label, toks[i].line, "unordered-iteration",
           "iteration over unordered container '" + toks[i].text +
               "' via begin(): hash order is not deterministic (membership "
               "queries should use find/count/contains)"});
    }
  }

  // Pass 3: unchecked-io. Flags a full-expression statement that calls one
  // of the IO entry points and discards its bool/Status result:
  //
  //   [boundary] receiver.chain->Name ( ...balanced... ) ;
  //
  // where boundary is ';', '{', '}', or file start — i.e. nothing consumes
  // the value. A declaration (`bool Append(...);`) has its return TYPE
  // where the boundary would be, so it never matches; a call whose result
  // feeds anything (assignment, condition, return, wrapper macro) has a
  // non-';' token after the ')' and is skipped. `(void)` casts are treated
  // as discards — silencing the compiler is not handling the error.
  auto is_ident_tok = [](const std::string& t) {
    return !t.empty() && IsIdentStart(t[0]);
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (IoResultFunctions().count(toks[i].text) == 0 || tok(i + 1) != "(") {
      continue;
    }
    size_t j = i + 2;  // find the call's matching ')'
    int depth = 1;
    while (j < toks.size() && depth > 0) {
      if (tok(j) == "(") ++depth;
      if (tok(j) == ")") --depth;
      ++j;
    }
    if (depth != 0 || tok(j) != ";") continue;  // value consumed (or EOF)
    // Walk the receiver chain backwards: x.y->Name, ns::Name, bare Name.
    size_t b = i;
    while (true) {
      if (b >= 2 && tok(b - 1) == "." && is_ident_tok(tok(b - 2))) {
        b -= 2;
      } else if (b >= 3 && tok(b - 1) == ">" && tok(b - 2) == "-" &&
                 is_ident_tok(tok(b - 3))) {
        b -= 3;
      } else if (b >= 3 && tok(b - 1) == ":" && tok(b - 2) == ":" &&
                 is_ident_tok(tok(b - 3))) {
        b -= 3;
      } else {
        break;
      }
    }
    bool discarded = false;
    if (b == 0) {
      discarded = true;  // call at file start (fixtures only, but complete)
    } else {
      const std::string& boundary = tok(b - 1);
      discarded = boundary == ";" || boundary == "{" || boundary == "}";
      if (!discarded && boundary == ")" && b >= 3 && tok(b - 2) == "void" &&
          tok(b - 3) == "(") {
        discarded = true;  // (void) cast of an IO result
      }
    }
    if (discarded) {
      local.push_back(
          {path_label, toks[i].line, "unchecked-io",
           "result of " + toks[i].text +
               "() discarded: the bool/Status return is this call's only "
               "failure channel (torn write, ENOSPC, corruption); check it "
               "or propagate the error"});
    }
  }

  // Apply suppressions: an allow(rule) on line L silences rule diagnostics
  // on L and L+1. Unjustified allows are themselves diagnostics.
  std::vector<Diagnostic> kept;
  for (const Diagnostic& d : local) {
    bool suppressed = false;
    for (Suppression& s : sups) {
      if (s.rule == d.rule && s.justified &&
          (s.line == d.line || s.line + 1 == d.line)) {
        s.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  for (const Suppression& s : sups) {
    if (!s.justified) {
      // The example below splits the marker literal so this very file does
      // not parse as carrying a suppression when the tree scan reaches it.
      kept.push_back({path_label, s.line, "bad-suppression",
                      "allow(" + s.rule + ") needs a justification: `// " +
                          "sepriv-lint" + ": allow(" + s.rule +
                          "): <why>`"});
    } else if (!s.used) {
      kept.push_back({path_label, s.line, "unused-suppression",
                      "allow(" + s.rule + ") silenced nothing; delete it"});
    }
  }
  diags->insert(diags->end(), kept.begin(), kept.end());
}

// --- Tree walk ---------------------------------------------------------------

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool SkippedDir(const std::string& name) {
  return name == "testdata" || name == ".git" || name == "third_party" ||
         name.rfind("build", 0) == 0;  // build, build-san, build-bench, ...
}

/// Collects the source files under `root` (or `root` itself when a file),
/// sorted for deterministic diagnostic order.
void CollectFiles(const fs::path& root, std::vector<fs::path>* out) {
  if (fs::is_regular_file(root)) {
    if (IsSourceFile(root)) out->push_back(root);
    return;
  }
  fs::recursive_directory_iterator it(root), end;
  while (it != end) {
    if (it->is_directory() && SkippedDir(it->path().filename().string())) {
      it.disable_recursion_pending();
    } else if (it->is_regular_file() && IsSourceFile(it->path())) {
      out->push_back(it->path());
    }
    ++it;
  }
}

// --- Cross-file rule: test-only-module ---------------------------------------

/// Where a file sits below the root it was collected from (the root's own
/// name counts): `module` is a header's include spelling relative to its
/// nearest `src` directory (empty for any other file), and `in_tests` says
/// whether a `tests` directory holds it.
struct Placement {
  std::string module;
  bool in_tests = false;
};

Placement Place(const fs::path& root, const fs::path& file) {
  fs::path r = root.lexically_normal();
  if (!r.has_filename()) r = r.parent_path();
  std::vector<std::string> dirs = {r.filename().string()};
  for (const fs::path& part : file.lexically_relative(r).parent_path()) {
    dirs.push_back(part.string());
  }
  Placement out;
  out.in_tests = std::find(dirs.begin(), dirs.end(), "tests") != dirs.end();
  const auto src = std::find(dirs.rbegin(), dirs.rend(), "src");
  const std::string ext = file.extension().string();
  if (src != dirs.rend() && (ext == ".h" || ext == ".hpp")) {
    for (auto it = src.base(); it != dirs.end(); ++it) out.module += *it + "/";
    out.module += file.filename().string();
  }
  return out;
}

/// The quoted include paths of one file, as written.
std::vector<std::string> QuotedIncludes(const fs::path& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line.compare(hash, 8, "#include") != 0) {
      continue;
    }
    const size_t open = line.find('"', hash);
    const size_t close =
        open == std::string::npos ? open : line.find('"', open + 1);
    if (close != std::string::npos) {
      out.push_back(line.substr(open + 1, close - open - 1));
    }
  }
  return out;
}

/// One collected file and the root it came from.
struct Collected {
  fs::path path;
  fs::path root;
};

/// The src/ headers that only tests/ files and their own .cc include.
/// `includers_only` files count as includers and are not modules.
std::set<fs::path> TestOnlyModules(
    const std::vector<Collected>& files,
    const std::vector<Collected>& includers_only) {
  std::map<std::string, std::vector<fs::path>> live_includers;
  auto count = [&](const Collected& c) {
    if (Place(c.root, c.path).in_tests) return;
    for (const std::string& inc : QuotedIncludes(c.path)) {
      live_includers[inc].push_back(c.path);
    }
  };
  for (const Collected& c : files) count(c);
  for (const Collected& c : includers_only) count(c);
  std::set<fs::path> out;
  for (const Collected& c : files) {
    const std::string module = Place(c.root, c.path).module;
    if (module.empty()) continue;
    fs::path own_cc = c.path;
    own_cc.replace_extension(".cc");
    const auto it = live_includers.find(module);
    const bool live =
        it != live_includers.end() &&
        std::any_of(it->second.begin(), it->second.end(),
                    [&](const fs::path& f) { return f != own_cc; });
    if (!live) out.insert(c.path);
  }
  return out;
}

std::string Label(const fs::path& p) {
  // Repo-relative when the path contains a recognisable top-level dir.
  const std::string s = p.generic_string();
  for (const char* top : {"/src/", "/bench/", "/tests/", "/examples/",
                          "/tools/"}) {
    const size_t at = s.rfind(top);
    if (at != std::string::npos) return s.substr(at + 1);
  }
  return s;
}

// --- Self-test ---------------------------------------------------------------

/// Reads `// expect-lint: rule[, rule...]` markers: each names a diagnostic
/// expected on that line.
std::vector<Diagnostic> FindExpectations(const fs::path& path,
                                         const std::string& label) {
  std::vector<Diagnostic> out;
  std::ifstream in(path);
  std::string line;
  int ln = 0;
  while (std::getline(in, line)) {
    ++ln;
    const std::string kMarker = "expect-lint:";
    const size_t at = line.find(kMarker);
    if (at == std::string::npos) continue;
    std::stringstream ss(line.substr(at + kMarker.size()));
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(),
                                [](unsigned char ch) {
                                  return std::isspace(ch) != 0;
                                }),
                 rule.end());
      if (!rule.empty()) out.push_back({label, ln, rule, "expected"});
    }
  }
  return out;
}

int SelfTest(const fs::path& dir) {
  std::vector<fs::path> files;
  CollectFiles(dir, &files);
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "sepriv_lint: no fixtures under %s\n",
                 dir.string().c_str());
    return 2;
  }
  std::vector<Collected> collected;
  for (const fs::path& f : files) collected.push_back({f, dir});
  const std::set<fs::path> test_only = TestOnlyModules(collected, {});
  int failures = 0;
  for (const fs::path& f : files) {
    const std::string label = f.filename().string();
    std::vector<Diagnostic> got;
    ScanFile(f, label, test_only.count(f) != 0, &got);
    std::vector<Diagnostic> want = FindExpectations(f, label);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    std::vector<Diagnostic> missing, unexpected;
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(missing));
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(unexpected));
    for (const Diagnostic& d : missing) {
      std::fprintf(stderr, "%s:%d: expected %s, not emitted\n",
                   d.file.c_str(), d.line, d.rule.c_str());
      ++failures;
    }
    for (const Diagnostic& d : unexpected) {
      std::fprintf(stderr, "%s:%d: unexpected %s: %s\n", d.file.c_str(),
                   d.line, d.rule.c_str(), d.message.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("sepriv_lint self-test: %zu fixtures OK\n", files.size());
    return 0;
  }
  std::fprintf(stderr, "sepriv_lint self-test: %d mismatches\n", failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: sepriv_lint <dir-or-file>... "
                 "[--includes-from <dir-or-file>]...\n"
                 "       sepriv_lint --self-test <fixture-dir>\n");
    return 2;
  }
  if (args[0] == "--self-test") {
    if (args.size() != 2) {
      std::fprintf(stderr, "--self-test takes exactly one directory\n");
      return 2;
    }
    return SelfTest(args[1]);
  }

  std::vector<Collected> files, includers_only;
  for (size_t i = 0; i < args.size(); ++i) {
    const bool includes_from = args[i] == "--includes-from";
    if (includes_from && ++i == args.size()) {
      std::fprintf(stderr, "--includes-from takes a directory or file\n");
      return 2;
    }
    const std::string& a = args[i];
    if (!fs::exists(a)) {
      std::fprintf(stderr, "sepriv_lint: no such path: %s\n", a.c_str());
      return 2;
    }
    std::vector<fs::path> found;
    CollectFiles(a, &found);
    for (const fs::path& f : found) {
      (includes_from ? includers_only : files).push_back({f, a});
    }
  }
  const auto by_path = [](const Collected& x, const Collected& y) {
    return x.path < y.path;
  };
  std::sort(files.begin(), files.end(), by_path);
  files.erase(std::unique(files.begin(), files.end(),
                          [](const Collected& x, const Collected& y) {
                            return x.path == y.path;
                          }),
              files.end());

  const std::set<fs::path> test_only = TestOnlyModules(files, includers_only);
  std::vector<Diagnostic> diags;
  for (const Collected& c : files) {
    ScanFile(c.path, Label(c.path), test_only.count(c.path) != 0, &diags);
  }
  std::sort(diags.begin(), diags.end());
  for (const Diagnostic& d : diags) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                 d.rule.c_str(), d.message.c_str());
  }
  if (diags.empty()) {
    std::printf("sepriv_lint: %zu files clean\n", files.size());
    return 0;
  }
  std::fprintf(stderr, "sepriv_lint: %zu violations in %zu files\n",
               diags.size(), files.size());
  return 1;
}
