// tmir_lint: run the full static-analysis pipeline over every built-in
// kernel and report per-pass statistics and diagnostics:
//
//   verify -> tm_rbe -> tm_mark -> tm_optimize
//
// with a verify + lint sweep after every mutating stage. The per-kernel
// `barriers before/after` lines count statically live TM barriers
// (loads + stores + semantic cmps/incs) — the instrumentation the
// interpreter would actually execute on a straight-line pass.
//
//   $ ./tmir_lint            # all kernels, text report
//   $ ./tmir_lint probe      # just the named kernel(s)
//   $ ./tmir_lint --json     # machine-readable report for CI
//
// Exit code 0 when every stage is clean, 2 on any diagnostic — CI can
// gate on it directly (scripts/ci_lint.sh does).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tmir/analysis/lint.hpp"
#include "tmir/analysis/verify.hpp"
#include "tmir/ir.hpp"
#include "tmir/kernels.hpp"
#include "tmir/passes.hpp"

namespace {

using namespace semstm::tmir;

struct NamedKernel {
  const char* name;
  Function (*build)();
};

Function build_reserve4() { return build_reserve_kernel(4); }
Function build_center8() { return build_center_update_kernel(8); }

constexpr NamedKernel kKernels[] = {
    {"probe", build_probe_kernel},
    {"insert", build_insert_kernel},
    {"remove", build_remove_kernel},
    {"reserve", build_reserve4},
    {"center_update", build_center8},
};

/// Statically live TM barriers: what a straight-line execution would pay.
std::size_t live_barriers(const Function& f) {
  return f.count(Op::kTmLoad).live + f.count(Op::kTmStore).live +
         f.count(Op::kTmCmp1).live + f.count(Op::kTmCmp2).live +
         f.count(Op::kTmInc).live;
}

struct KernelReport {
  std::string name;
  std::size_t issues = 0;
  std::size_t barriers_before = 0;
  RbeStats rbe;
  MarkStats mark;
  OptimizeStats opt;
  LintStats lint;
  std::size_t barriers_after = 0;
  std::size_t tm_loads_live = 0;
  std::size_t tm_loads_dead = 0;
};

std::size_t print_diags(const Function& f, const char* stage,
                        const std::vector<Diagnostic>& diags, bool quiet) {
  for (const Diagnostic& d : diags) {
    std::fprintf(quiet ? stderr : stdout, "  %s: DIAGNOSTIC %s\n", stage,
                 format_diagnostic(f, d).c_str());
  }
  return diags.size();
}

KernelReport lint_kernel(const NamedKernel& k, bool json) {
  KernelReport r;
  r.name = k.name;

  Function f = k.build();
  r.barriers_before = live_barriers(f);
  r.issues += print_diags(f, "verify(raw)", pass_verify(f), json);
  r.rbe = pass_tm_rbe(f);
  r.issues += print_diags(f, "verify(rbe)", pass_verify(f), json);
  r.issues += print_diags(f, "tm_lint(rbe)", pass_tm_lint(f), json);
  r.mark = pass_tm_mark(f);
  r.issues += print_diags(f, "verify(marked)", pass_verify(f), json);
  r.issues += print_diags(f, "tm_lint", pass_tm_lint(f, &r.lint), json);
  r.opt = pass_tm_optimize(f);
  r.issues += print_diags(f, "verify(optimized)", pass_verify(f), json);
  r.issues += print_diags(f, "tm_lint(optimized)", pass_tm_lint(f), json);
  r.barriers_after = live_barriers(f);
  const OpCount loads = f.count(Op::kTmLoad);
  r.tm_loads_live = loads.live;
  r.tm_loads_dead = loads.dead;

  // Every dead TM load must trace to exactly one killer.
  const std::size_t forwarded =
      r.rbe.load_load_forwarded + r.rbe.store_load_forwarded;
  if (r.opt.removed_tm_loads + forwarded != loads.dead) {
    std::fprintf(stderr,
                 "  DIAGNOSTIC stats drift: removed=%zu forwarded=%zu but "
                 "%zu dead loads in the IR\n",
                 r.opt.removed_tm_loads, forwarded, loads.dead);
    ++r.issues;
  }
  return r;
}

void print_text(const KernelReport& r) {
  std::printf("== %s ==\n", r.name.c_str());
  std::printf("  tm_rbe:      load_load=%zu store_load=%zu dead_stores=%zu\n",
              r.rbe.load_load_forwarded, r.rbe.store_load_forwarded,
              r.rbe.dead_stores);
  std::printf("  tm_mark:     s1r=%zu s2r=%zu sw=%zu recovered_noalias=%zu "
              "skipped_clobbered=%zu\n",
              r.mark.s1r, r.mark.s2r, r.mark.sw, r.mark.recovered_noalias,
              r.mark.skipped_clobbered);
  std::printf("  tm_lint:     re-proved %zu s1r + %zu s2r + %zu sw + "
              "%zu forwards + %zu dead stores\n",
              r.lint.checked_s1r, r.lint.checked_s2r, r.lint.checked_sw,
              r.lint.checked_rbe_forwards, r.lint.checked_rbe_dead_stores);
  std::printf("  tm_optimize: removed_tm_loads=%zu removed_other=%zu\n",
              r.opt.removed_tm_loads, r.opt.removed_other);
  std::printf("  TM loads:    %zu live / %zu dead\n", r.tm_loads_live,
              r.tm_loads_dead);
  std::printf("  barriers:    before=%zu after=%zu\n", r.barriers_before,
              r.barriers_after);
}

void print_json(const std::vector<KernelReport>& reports,
                std::size_t issues) {
  std::printf("{\n  \"kernels\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", r.name.c_str());
    std::printf("      \"issues\": %zu,\n", r.issues);
    std::printf("      \"barriers_before\": %zu,\n", r.barriers_before);
    std::printf("      \"barriers_after\": %zu,\n", r.barriers_after);
    std::printf("      \"alias\": {\"rbe_load_load\": %zu, "
                "\"rbe_store_load\": %zu, \"rbe_dead_stores\": %zu, "
                "\"s1r\": %zu, \"s2r\": %zu, \"sw\": %zu, "
                "\"recovered_noalias\": %zu, \"skipped_clobbered\": %zu, "
                "\"removed_tm_loads\": %zu, \"tm_loads_live\": %zu}\n",
                r.rbe.load_load_forwarded, r.rbe.store_load_forwarded,
                r.rbe.dead_stores, r.mark.s1r, r.mark.s2r, r.mark.sw,
                r.mark.recovered_noalias, r.mark.skipped_clobbered,
                r.opt.removed_tm_loads, r.tm_loads_live);
    std::printf("    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::printf("  ],\n  \"issues\": %zu\n}\n", issues);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<const char*> wanted_names;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      wanted_names.push_back(argv[i]);
    }
  }

  std::size_t issues = 0;
  std::vector<KernelReport> reports;
  for (const NamedKernel& k : kKernels) {
    bool wanted = wanted_names.empty();
    for (const char* n : wanted_names) {
      wanted = wanted || std::strcmp(n, k.name) == 0;
    }
    if (!wanted) continue;
    KernelReport r = lint_kernel(k, json);
    issues += r.issues;
    if (!json) print_text(r);
    reports.push_back(std::move(r));
  }
  if (reports.empty()) {
    std::fprintf(stderr, "tmir_lint: no kernel matches; known:");
    for (const NamedKernel& k : kKernels) std::fprintf(stderr, " %s", k.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (json) {
    print_json(reports, issues);
  } else if (issues != 0) {
    std::printf("tmir_lint: %zu diagnostics\n", issues);
  } else {
    std::printf("tmir_lint: all kernels clean\n");
  }
  return issues != 0 ? 2 : 0;
}
