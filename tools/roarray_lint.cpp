// roarray_lint — repo-invariant linter for rules the generic tools
// (clang-tidy, compiler warnings) cannot express.
//
// Rules (scoped by path; see rule_applies):
//   determinism     No std::rand / random_device / wall-clock or timer
//                   calls inside src/. Library results must be a pure
//                   function of inputs + explicit seeds; entropy and
//                   clocks belong to tests, benches, and tools.
//   no-iostream     No <iostream> include or std::cout/cerr/clog/cin
//                   use inside src/. Library code reports through
//                   return values and exceptions; stream state is
//                   global and its static init order is a liability.
//   pragma-once     Every header carries #pragma once.
//   mutable-global  No mutable namespace-scope variables in src/
//                   outside src/runtime/ — shared mutable state is the
//                   runtime layer's job, where it is mutex-guarded and
//                   thread-safety-annotated.
//   unchecked-io    No discarded fread/fwrite results inside src/io.
//                   A short read/write there is data, not noise: it must
//                   flow into the typed TraceError/ReadStatus machinery,
//                   so statement-position and (void)-cast calls are
//                   banned (results used in a condition/assignment pass).
//   intrinsics      Raw SIMD intrinsics — <immintrin.h>/<arm_neon.h>
//                   includes, `_mm*`/`__m<N>` identifiers, NEON
//                   `v*q_f64`-style names — live only in
//                   src/linalg/backend/. Everything else goes through
//                   the Backend kernel table, so vector code stays
//                   behind one dispatch point with a scalar twin.
//
// A finding on a specific line can be locally suppressed with a
// justification comment on that line:
//     ... // roarray-lint: allow(<rule>) <why>
//
// Usage:
//   roarray_lint <path>...   lint files / directory trees (exit 1 on
//                            findings)
//   roarray_lint --self-test run the built-in fixture suite (exit 1 on
//                            mismatch)
//
// Dependency-free by design (std only) so it builds in any environment
// and runs as an ordinary ctest case. The comment/string-aware scanning
// primitives (strip_code, has_token, suppression parsing) are shared
// with roarray_analyze via roarray_analyze/lexer.hpp — one lexer, two
// tools — which is also why the `roarray-analyze: allow(...)` marker
// suppresses here too.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "roarray_analyze/finding.hpp"
#include "roarray_analyze/lexer.hpp"

namespace {

namespace fs = std::filesystem;

using roarray::srctool::Finding;
using roarray::srctool::has_token;
using roarray::srctool::ident_char;
using roarray::srctool::path_components;
using roarray::srctool::starts_with;
using roarray::srctool::strip_code;
using roarray::srctool::suppressed;
using roarray::srctool::trim;

struct PathScope {
  bool in_src = false;      ///< some directory component is "src".
  bool in_runtime = false;  ///< under a "runtime" component inside src.
  bool in_io = false;       ///< under an "io" component inside src.
  bool in_backend = false;  ///< under "linalg/backend" inside src.
};

[[nodiscard]] PathScope classify(const std::string& path) {
  PathScope scope;
  const auto parts = path_components(path);
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "src") {
      scope.in_src = true;
      for (std::size_t j = i + 1; j + 1 < parts.size(); ++j) {
        if (parts[j] == "runtime") scope.in_runtime = true;
        if (parts[j] == "io") scope.in_io = true;
        if (parts[j] == "linalg" && j + 2 < parts.size() &&
            parts[j + 1] == "backend") {
          scope.in_backend = true;
        }
      }
    }
  }
  return scope;
}

/// Tokens that make library output depend on process entropy or clocks.
/// `require_call` distinguishes calls from substrings of longer names.
struct ForbiddenToken {
  const char* token;
  bool require_call;
};
constexpr ForbiddenToken kDeterminismTokens[] = {
    {"rand", true},          {"srand", true},
    {"rand_r", true},        {"random_device", false},
    {"system_clock", false}, {"steady_clock", false},
    {"high_resolution_clock", false},
    {"gettimeofday", true},  {"clock_gettime", true},
    {"time", true},          {"clock", true},
    {"localtime", true},     {"gmtime", true},
};

/// Heuristic for a mutable namespace-scope variable definition. Only
/// lines at column 0 are considered (this codebase does not indent
/// namespace contents; class members and function bodies are indented),
/// and declaration keywords that cannot define a mutable object bail
/// out early. Function definitions/declarations are excluded by the
/// no-parenthesis requirement.
[[nodiscard]] bool looks_like_mutable_global(const std::string& code) {
  if (code.empty() || std::isspace(static_cast<unsigned char>(code[0])) != 0) {
    return false;
  }
  const std::string t = trim(code);
  for (const char* benign :
       {"#", "//", "}", "{", "using ", "typedef ", "namespace ", "template",
        "struct ", "class ", "enum ", "return ", "friend ", "extern ",
        "case ", "public", "private", "protected", "ROARRAY_", "TEST"}) {
    if (starts_with(t, benign)) return false;
  }
  if (t.find("const") != std::string::npos) return false;  // const/constexpr
  if (t.find('(') != std::string::npos) return false;      // function-ish
  const bool storage = starts_with(t, "static ") || starts_with(t, "inline ") ||
                       starts_with(t, "thread_local ") ||
                       starts_with(t, "mutable ");
  const bool defines = t.find('=') != std::string::npos ||
                       (!t.empty() && t.back() == ';');
  if (!defines) return false;
  if (storage) return true;
  if (!ident_char(t[0])) return false;
  // Plain `T name = init;` at namespace scope. Without an initializer,
  // require at least two identifier-ish tokens (`std::random_device rd;`)
  // so single-word statements don't trip.
  if (t.find('=') != std::string::npos) return true;
  int words = 0;
  bool in_word = false;
  for (const char c : t) {
    const bool w = ident_char(c);
    if (w && !in_word) ++words;
    in_word = w;
  }
  return words >= 2;
}

/// True when `code` (already comment/string-stripped) contains a raw
/// SIMD intrinsic identifier: anything beginning `_mm` (SSE/AVX/AVX-512
/// calls and masks), `__m<digit>` (the vector register types), or a
/// NEON-style `v...q_{f,s,u}<width>` / `v...q_lane` name.
[[nodiscard]] bool has_intrinsic_token(std::string_view code) {
  std::size_t i = 0;
  while (i < code.size()) {
    if (!ident_char(code[i]) || (i > 0 && ident_char(code[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t e = i;
    while (e < code.size() && ident_char(code[e])) ++e;
    const std::string_view id = code.substr(i, e - i);
    if (starts_with(id, "_mm")) return true;
    if (starts_with(id, "__m") && id.size() > 3 &&
        std::isdigit(static_cast<unsigned char>(id[3])) != 0) {
      return true;
    }
    if (id.size() > 6 && id[0] == 'v' &&
        (id.find("q_f64") != std::string_view::npos ||
         id.find("q_f32") != std::string_view::npos ||
         id.find("q_u64") != std::string_view::npos ||
         id.find("q_s64") != std::string_view::npos ||
         id.find("q_lane_") != std::string_view::npos)) {
      return true;
    }
    i = e;
  }
  return false;
}

/// Detects an fread/fwrite call whose result is visibly discarded: the
/// trimmed statement begins with the call itself, optionally behind a
/// (void) cast. Results consumed by a condition, assignment, or
/// comparison leave the call mid-expression and do not match.
[[nodiscard]] bool discards_stdio_result(const std::string& trimmed) {
  std::string_view t = trimmed;
  if (starts_with(t, "(void)")) {
    t.remove_prefix(6);
    while (!t.empty() && std::isspace(static_cast<unsigned char>(t[0])) != 0) {
      t.remove_prefix(1);
    }
  }
  for (const std::string_view call : {"std::fread", "std::fwrite", "::fread",
                                      "::fwrite", "fread", "fwrite"}) {
    if (!starts_with(t, call)) continue;
    std::size_t i = call.size();
    while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])) != 0) {
      ++i;
    }
    if (i < t.size() && t[i] == '(') return true;
  }
  return false;
}

void scan_content(const std::string& path, const std::string& content,
                  std::vector<Finding>& findings) {
  const PathScope scope = classify(path);
  const bool is_header = path.size() >= 4 &&
                         (path.compare(path.size() - 4, 4, ".hpp") == 0 ||
                          path.compare(path.size() - 2, 2, ".h") == 0);

  std::istringstream in(content);
  std::string raw;
  bool in_block = false;
  bool saw_pragma_once = false;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string code = strip_code(raw, in_block);
    const std::string t = trim(code);
    if (t == "#pragma once") saw_pragma_once = true;

    // Applies everywhere the linter looks (src, tests, benches, tools),
    // with src/linalg/backend/ as the only sanctioned home.
    if (!scope.in_backend && !suppressed(raw, "intrinsics")) {
      const bool include_hit =
          starts_with(t, "#include") &&
          (t.find("immintrin.h") != std::string::npos ||
           t.find("arm_neon.h") != std::string::npos);
      if (include_hit || has_intrinsic_token(code)) {
        findings.push_back(
            {path, lineno, "intrinsics",
             "raw SIMD intrinsics are confined to src/linalg/backend/ "
             "(add a kernel to the Backend table instead)"});
      }
    }

    if (scope.in_src) {
      if (!suppressed(raw, "determinism")) {
        for (const ForbiddenToken& f : kDeterminismTokens) {
          if (has_token(code, f.token, f.require_call)) {
            findings.push_back(
                {path, lineno, "determinism",
                 std::string("forbidden nondeterminism source '") + f.token +
                     "' in library code (seed explicitly instead)"});
            break;
          }
        }
      }
      if (!suppressed(raw, "no-iostream")) {
        const bool include_hit = starts_with(t, "#include") &&
                                 t.find("<iostream>") != std::string::npos;
        const bool use_hit = has_token(code, "cout") ||
                             has_token(code, "cerr") ||
                             has_token(code, "clog") || has_token(code, "cin");
        if (include_hit || use_hit) {
          findings.push_back({path, lineno, "no-iostream",
                              "iostream is banned in library targets (return "
                              "values / exceptions instead)"});
        }
      }
      if (scope.in_io && !suppressed(raw, "unchecked-io") &&
          discards_stdio_result(t)) {
        findings.push_back(
            {path, lineno, "unchecked-io",
             "discarded fread/fwrite result in src/io (short reads/writes "
             "must reach the typed TraceError/ReadStatus paths)"});
      }
      if (!scope.in_runtime && !suppressed(raw, "mutable-global") &&
          looks_like_mutable_global(code)) {
        findings.push_back(
            {path, lineno, "mutable-global",
             "mutable namespace-scope state outside src/runtime/ (move it "
             "into the runtime layer and guard it)"});
      }
    }
  }
  if (is_header && !saw_pragma_once) {
    findings.push_back(
        {path, 1, "pragma-once", "header is missing #pragma once"});
  }
}

[[nodiscard]] bool scan_file(const std::string& path,
                             std::vector<Finding>& findings) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "roarray_lint: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  scan_content(path, buf.str(), findings);
  return true;
}

[[nodiscard]] bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

[[nodiscard]] bool collect(const std::string& arg,
                           std::vector<std::string>& files) {
  std::error_code ec;
  if (fs::is_directory(arg, ec)) {
    for (auto it = fs::recursive_directory_iterator(arg, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      const std::string name = it->path().filename().string();
      if (it->is_directory() &&
          (name == ".git" || starts_with(name, "build"))) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && lintable(it->path())) {
        files.push_back(it->path().string());
      }
    }
    return !ec;
  }
  if (fs::is_regular_file(arg, ec)) {
    files.push_back(arg);
    return true;
  }
  std::fprintf(stderr, "roarray_lint: no such file or directory: %s\n",
               arg.c_str());
  return false;
}

// ---------------------------------------------------------------------------
// Self-test fixtures: each snippet is scanned under a virtual path and
// must produce exactly the expected rule hits.

struct Fixture {
  const char* name;
  const char* path;
  const char* content;
  std::vector<std::string> expected_rules;  ///< sorted, may repeat.
};

[[nodiscard]] int run_self_test() {
  const std::vector<Fixture> fixtures = {
      {"rand call flagged", "src/dsp/a.cpp",
       "int f() { return rand(); }\n", {"determinism"}},
      {"std::rand flagged", "src/dsp/a.cpp",
       "#include <cstdlib>\nint f() { return std::rand(); }\n",
       {"determinism"}},
      {"random_device flagged", "src/core/b.cpp",
       "std::random_device rd;\n", {"determinism", "mutable-global"}},
      {"wall clock flagged", "src/core/b.cpp",
       "auto t = std::chrono::system_clock::now();\n", {"determinism"}},
      {"time() call flagged", "src/core/b.cpp",
       "long f() { return time(nullptr); }\n", {"determinism"}},
      {"runtime( is not time(", "src/core/b.cpp",
       "void runtime(int); void f() { runtime (3); }\n", {}},
      {"comment mention ok", "src/core/b.cpp",
       "// steady_clock would break determinism here\nint x() { return 1; }\n",
       {}},
      {"string mention ok", "src/core/b.cpp",
       "const char* k = \"std::rand() is banned\";\n", {}},
      {"block comment ok", "src/core/b.cpp",
       "/* srand(7) was\n   the old seeding */\nint y() { return 2; }\n", {}},
      {"suppression honored", "src/core/b.cpp",
       "long f() { return time(nullptr); }  // roarray-lint: allow(determinism)"
       " boot stamp only\n",
       {}},
      {"clock outside src ok", "bench/b.cpp",
       "auto t = std::chrono::steady_clock::now();\n", {}},
      {"iostream include flagged", "src/eval/c.cpp",
       "#include <iostream>\n", {"no-iostream"}},
      {"cerr use flagged", "src/eval/c.cpp",
       "void f() { std::cerr << 1; }\n", {"no-iostream"}},
      {"iostream in tests ok", "tests/t.cpp", "#include <iostream>\n", {}},
      {"missing pragma once", "src/dsp/h.hpp", "int f();\n", {"pragma-once"}},
      {"pragma once present", "src/dsp/h.hpp",
       "// doc\n#pragma once\nint f();\n", {}},
      {"pragma enforced outside src too", "tests/t.hpp", "int f();\n",
       {"pragma-once"}},
      {"mutable global flagged", "src/music/g.cpp",
       "static int call_count = 0;\n", {"mutable-global"}},
      {"inline global flagged", "src/music/g.hpp",
       "#pragma once\ninline int hits = 0;\n", {"mutable-global"}},
      {"plain global flagged", "src/music/g.cpp",
       "int counter = 0;\n", {"mutable-global"}},
      {"const global ok", "src/music/g.cpp",
       "static const int kLimit = 3;\n", {}},
      {"constexpr global ok", "src/music/g.hpp",
       "#pragma once\ninline constexpr double kPi = 3.14;\n", {}},
      {"function def ok", "src/music/g.cpp",
       "static int helper() { return 1; }\n", {}},
      {"indented local ok", "src/music/g.cpp",
       "int f() {\n  static int memo = compute();\n  return memo;\n}\n", {}},
      {"runtime exempt", "src/runtime/pool.cpp",
       "inline thread_local bool in_region = false;\n", {}},
      {"global in tests ok", "tests/t.cpp", "static int hits = 0;\n", {}},
      {"suppressed global ok", "src/music/g.cpp",
       "static int hits = 0;  // roarray-lint: allow(mutable-global) why\n",
       {}},
      {"bare fread flagged in io", "src/io/r.cpp",
       "void f(FILE* fp, char* b) {\n  fread(b, 1, 8, fp);\n}\n",
       {"unchecked-io"}},
      {"void-cast fwrite flagged in io", "src/io/w.cpp",
       "void f(FILE* fp, const char* b) {\n  (void)fwrite(b, 1, 8, fp);\n}\n",
       {"unchecked-io"}},
      {"std::fread flagged in io", "src/io/r.cpp",
       "void f(FILE* fp, char* b) {\n  std::fread(b, 1, 8, fp);\n}\n",
       {"unchecked-io"}},
      {"checked fread ok in io", "src/io/r.cpp",
       "bool f(FILE* fp, char* b) {\n  return fread(b, 1, 8, fp) == 8;\n}\n",
       {}},
      {"assigned fwrite ok in io", "src/io/w.cpp",
       "void f(FILE* fp, const char* b) {\n"
       "  const size_t n = fwrite(b, 1, 8, fp);\n  (void)n;\n}\n",
       {}},
      {"fread-like name ok in io", "src/io/r.cpp",
       "void fread_all(int);\nvoid f() {\n  fread_all(3);\n}\n", {}},
      {"bare fread outside io ok", "src/sim/s.cpp",
       "void f(FILE* fp, char* b) {\n  fread(b, 1, 8, fp);\n}\n", {}},
      {"suppressed fread ok in io", "src/io/r.cpp",
       "void f(FILE* fp, char* b) {\n"
       "  fread(b, 1, 8, fp);  // roarray-lint: allow(unchecked-io) probe\n"
       "}\n",
       {}},
      {"immintrin include flagged outside backend", "src/linalg/gemm.cpp",
       "#include <immintrin.h>\n", {"intrinsics"}},
      {"arm_neon include flagged outside backend", "src/dsp/x.cpp",
       "#include <arm_neon.h>\n", {"intrinsics"}},
      {"avx call flagged outside backend", "src/sparse/p.cpp",
       "void f(double* x) {\n  __m256d v = _mm256_loadu_pd(x);\n"
       "  _mm256_storeu_pd(x, v);\n}\n",
       {"intrinsics", "intrinsics"}},
      {"neon call flagged outside backend", "src/channel/c.cpp",
       "void f(double* x) {\n  auto v = vld1q_f64(x);\n"
       "  vst1q_f64(x, vfmaq_f64(v, v, v));\n}\n",
       {"intrinsics", "intrinsics"}},
      {"intrinsics flagged in tests too", "tests/t.cpp",
       "void f(double* x) {\n  auto v = _mm_loadu_pd(x);\n  (void)v;\n}\n",
       {"intrinsics"}},
      {"intrinsics ok inside backend", "src/linalg/backend/simd_avx2.cpp",
       "#include <immintrin.h>\n"
       "void f(double* x) {\n  _mm256_storeu_pd(x, _mm256_setzero_pd());\n}\n",
       {}},
      {"intrinsic in comment ok", "src/linalg/gemm.cpp",
       "// the backend's _mm256_fmadd_pd path handles this\nint f();\n", {}},
      {"intrinsic in string ok", "src/eval/r.cpp",
       "const char* k = \"_mm256_fmadd_pd\";\n", {}},
      {"vector-ish name ok", "src/music/m.cpp",
       "int vq_f6(int virtq_lanes);\nvoid f(int verify_f64q);\n", {}},
      {"suppressed intrinsic ok", "src/dsp/y.cpp",
       "auto v = _mm_pause();  // roarray-lint: allow(intrinsics) spin hint\n",
       {}},
      // Serve-layer pair: the service is src/ code like any other —
      // iostream debugging is flagged, while a clean header with
      // #pragma once and leaf-lock annotations passes untouched.
      {"iostream flagged in serve layer", "src/serve/service.cpp",
       "#include <iostream>\nvoid dbg() { std::cout << \"batch\\n\"; }\n",
       {"no-iostream", "no-iostream"}},
      {"annotated serve header ok", "src/serve/service.hpp",
       "// streaming service\n#pragma once\n"
       "#include \"runtime/thread_annotations.hpp\"\n"
       "class S {\n  mutable roarray::runtime::Mutex mutex_;\n"
       "  bool stopping_ ROARRAY_GUARDED_BY(mutex_) = false;\n};\n",
       {}},
  };

  int failures = 0;
  for (const Fixture& fx : fixtures) {
    std::vector<Finding> findings;
    scan_content(fx.path, fx.content, findings);
    std::vector<std::string> got;
    got.reserve(findings.size());
    for (const Finding& f : findings) got.push_back(f.rule);
    std::sort(got.begin(), got.end());
    std::vector<std::string> want = fx.expected_rules;
    std::sort(want.begin(), want.end());
    if (got != want) {
      ++failures;
      std::string got_s, want_s;
      for (const auto& r : got) got_s += r + " ";
      for (const auto& r : want) want_s += r + " ";
      std::fprintf(stderr, "self-test FAIL: %s\n  want: [%s]\n  got:  [%s]\n",
                   fx.name, want_s.c_str(), got_s.c_str());
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "roarray_lint self-test: %d fixture(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("roarray_lint self-test: %zu fixtures OK\n", fixtures.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s [--self-test] <path>...\n", argv[0]);
    return 2;
  }
  if (std::string_view(argv[1]) == "--self-test") return run_self_test();

  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (!collect(argv[i], files)) return 2;
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const std::string& f : files) {
    if (!scan_file(f, findings)) return 2;
  }
  roarray::srctool::print_findings(findings);
  if (!findings.empty()) {
    std::fprintf(stderr, "roarray_lint: %zu finding(s) in %zu file(s)\n",
                 findings.size(), files.size());
    return 1;
  }
  std::printf("roarray_lint: %zu files clean\n", files.size());
  return 0;
}
