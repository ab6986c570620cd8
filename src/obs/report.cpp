#include "obs/report.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace semstm::obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal field scanner for the MetricsWriter schema: one flat JSON object
// per line, string values without escaped quotes (our labels guarantee
// this), numbers in plain decimal. Good for exactly this schema, nothing
// else — by design (see report.hpp).

/// Locate the value after `"key":` in `line`; nullptr if absent.
const char* find_value(const std::string& line, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return nullptr;
  return line.c_str() + pos + needle.size();
}

bool get_string(const std::string& line, const char* key, std::string& out) {
  const char* v = find_value(line, key);
  if (v == nullptr || *v != '"') return false;
  const char* end = std::strchr(v + 1, '"');
  if (end == nullptr) return false;
  out.assign(v + 1, end);
  return true;
}

bool get_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const char* v = find_value(line, key);
  if (v == nullptr || (*v < '0' || *v > '9')) return false;
  out = std::strtoull(v, nullptr, 10);
  return true;
}

bool get_double(const std::string& line, const char* key, double& out) {
  const char* v = find_value(line, key);
  if (v == nullptr) return false;
  char* end = nullptr;
  out = std::strtod(v, &end);
  return end != v;
}

struct WindowLine {
  std::uint64_t window = 0, t0 = 0, t1 = 0;
  std::uint64_t starts = 0, commits = 0, aborts = 0;
  std::uint64_t p50 = 0, p99 = 0;
  double abort_pct = 0.0, throughput = 0.0;
};

struct HotSiteLine {
  std::uint64_t rank = 0, total = 0, edges = 0;
  std::string addr, orec, top_cause, causes;
};

struct RunBlock {
  std::string label, units;
  std::uint64_t window_ticks = 0, threads = 0, conflict_overflow = 0;
  std::uint64_t declared_windows = 0, declared_hot_sites = 0;
  std::vector<WindowLine> windows;
  std::vector<HotSiteLine> hot_sites;
};

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

/// The `causes` sub-object verbatim ({"cause":n,...}), for display.
bool get_causes_raw(const std::string& line, std::string& out) {
  const char* v = find_value(line, "causes");
  if (v == nullptr || *v != '{') return false;
  const char* end = std::strchr(v, '}');
  if (end == nullptr) return false;
  out.assign(v, end + 1);
  return true;
}

void render_run(const RunBlock& r, std::size_t top_k, std::string& out) {
  append(out, "== %s  (%" PRIu64 " threads, window=%" PRIu64 " %s)\n",
         r.label.c_str(), r.threads, r.window_ticks, r.units.c_str());

  if (r.windows.empty()) {
    out += "  windows: none recorded\n";
  } else {
    std::vector<double> thr, ab;
    std::uint64_t commits = 0, aborts = 0, starts = 0;
    thr.reserve(r.windows.size());
    ab.reserve(r.windows.size());
    for (const WindowLine& w : r.windows) {
      thr.push_back(w.throughput);
      ab.push_back(w.abort_pct);
      commits += w.commits;
      aborts += w.aborts;
      starts += w.starts;
    }
    append(out,
           "  windows: %zu   starts=%" PRIu64 " commits=%" PRIu64
           " aborts=%" PRIu64 "\n",
           r.windows.size(), starts, commits, aborts);
    out += "  throughput |" + sparkline(thr) + "|\n";
    out += "  abort %   |" + sparkline(ab) + "|\n";
    // Peak-window callouts: the bursts run-end averages hide.
    std::size_t peak_thr = 0, peak_ab = 0;
    for (std::size_t i = 1; i < r.windows.size(); ++i) {
      if (thr[i] > thr[peak_thr]) peak_thr = i;
      if (ab[i] > ab[peak_ab]) peak_ab = i;
    }
    append(out,
           "  peak throughput %.1f commits/M%s @ window %" PRIu64
           "   peak abort %.1f%% @ window %" PRIu64 "\n",
           thr[peak_thr], r.units.c_str(), r.windows[peak_thr].window,
           ab[peak_ab], r.windows[peak_ab].window);
  }

  if (r.hot_sites.empty()) {
    out += "  hot sites: none recorded\n";
  } else {
    append(out, "  %-4s %-18s %-8s %-10s %-7s %s\n", "rank", "addr", "orec",
           "aborts", "edges", "top cause");
    std::size_t shown = 0;
    for (const HotSiteLine& s : r.hot_sites) {
      if (shown++ == top_k) break;
      append(out, "  %-4" PRIu64 " %-18s %-8s %-10" PRIu64 " %-7" PRIu64
                  " %s %s\n",
             s.rank, s.addr.c_str(), s.orec.c_str(), s.total, s.edges,
             s.top_cause.c_str(), s.causes.c_str());
    }
  }
  if (r.conflict_overflow > 0) {
    append(out,
           "  ! %" PRIu64
           " conflict(s) dropped by full site tables — ranking is a lower "
           "bound\n",
           r.conflict_overflow);
  }
  out += "\n";
}

}  // namespace

std::string render_hot_sites(const std::vector<ConflictMap::Site>& sites,
                             std::uint64_t overflow) {
  std::string out;
  if (sites.empty()) {
    out = "hot sites: none recorded";
    if (overflow == 0) {
      out += ": unobserved run (no --trace/--metrics-out) or conflict-free run";
    }
    out += "\n";
    return out;
  }
  append(out, "%-4s %-18s %-8s %-10s %-7s %s\n", "rank", "addr", "orec",
         "aborts", "edges", "top cause");
  std::size_t rank = 1;
  for (const ConflictMap::Site& s : sites) {
    char orec_buf[16];
    if (s.orec == kNoOrec) {
      std::snprintf(orec_buf, sizeof(orec_buf), "-");
    } else {
      std::snprintf(orec_buf, sizeof(orec_buf), "%" PRIu32, s.orec);
    }
    append(out, "%-4zu %-18p %-8s %-10" PRIu64 " %-7" PRIu64 " %s\n", rank,
           s.addr, orec_buf, s.total(), s.edges,
           abort_cause_name(s.top_cause()));
    ++rank;
  }
  if (overflow > 0) {
    append(out,
           "! %" PRIu64 " conflict(s) dropped by full site tables\n",
           overflow);
  }
  return out;
}

std::string sparkline(const std::vector<double>& values) {
  // ASCII ramp (8 levels) — renders identically in logs, CI, and terminals
  // without UTF-8 assumptions.
  static constexpr char kRamp[] = {' ', '.', ':', '-', '=', '+', '*', '#'};
  constexpr std::size_t kLevels = sizeof(kRamp);
  std::string out;
  if (values.empty()) return out;
  double max = 0.0;
  for (double v : values) {
    if (v > max) max = v;
  }
  out.reserve(values.size());
  for (double v : values) {
    if (max <= 0.0 || v <= 0.0) {
      out.push_back(kRamp[0]);
      continue;
    }
    auto lvl = static_cast<std::size_t>(v / max * (kLevels - 1) + 0.5);
    if (lvl >= kLevels) lvl = kLevels - 1;
    out.push_back(kRamp[lvl]);
  }
  return out;
}

int render_metrics_report(const std::string& path, std::size_t top_k,
                          std::string& out) {
  std::ifstream in(path);
  if (!in) {
    out = "tm_top: cannot open '" + path + "'\n";
    return kReportIoError;
  }

  std::vector<RunBlock> runs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string type;
    if (!get_string(line, "type", type)) {
      append(out, "tm_top: line %zu: missing \"type\"\n", lineno);
      return kReportInvalid;
    }
    if (type == "run") {
      RunBlock r;
      const bool ok = get_string(line, "label", r.label) &&
                      get_string(line, "units", r.units) &&
                      get_u64(line, "window_ticks", r.window_ticks) &&
                      get_u64(line, "threads", r.threads) &&
                      get_u64(line, "windows", r.declared_windows) &&
                      get_u64(line, "hot_sites", r.declared_hot_sites) &&
                      get_u64(line, "conflict_overflow", r.conflict_overflow);
      if (!ok || (r.units != "ticks" && r.units != "ns")) {
        append(out, "tm_top: line %zu: malformed run line\n", lineno);
        return kReportInvalid;
      }
      runs.push_back(std::move(r));
    } else if (type == "window") {
      if (runs.empty()) {
        append(out, "tm_top: line %zu: window before any run line\n", lineno);
        return kReportInvalid;
      }
      WindowLine w;
      const bool ok = get_u64(line, "window", w.window) &&
                      get_u64(line, "t0", w.t0) && get_u64(line, "t1", w.t1) &&
                      get_u64(line, "starts", w.starts) &&
                      get_u64(line, "commits", w.commits) &&
                      get_u64(line, "aborts", w.aborts) &&
                      get_double(line, "abort_pct", w.abort_pct) &&
                      get_double(line, "throughput", w.throughput) &&
                      get_u64(line, "commit_p50", w.p50) &&
                      get_u64(line, "commit_p99", w.p99);
      if (!ok || w.t1 <= w.t0 || w.starts < w.commits + w.aborts) {
        append(out, "tm_top: line %zu: malformed window line\n", lineno);
        return kReportInvalid;
      }
      runs.back().windows.push_back(w);
    } else if (type == "hot_site") {
      if (runs.empty()) {
        append(out, "tm_top: line %zu: hot_site before any run line\n",
               lineno);
        return kReportInvalid;
      }
      HotSiteLine s;
      const char* orec_v = find_value(line, "orec");
      const bool ok = get_u64(line, "rank", s.rank) &&
                      get_string(line, "addr", s.addr) && orec_v != nullptr &&
                      get_u64(line, "total", s.total) &&
                      get_u64(line, "edges", s.edges) &&
                      get_string(line, "top_cause", s.top_cause) &&
                      get_causes_raw(line, s.causes);
      if (!ok) {
        append(out, "tm_top: line %zu: malformed hot_site line\n", lineno);
        return kReportInvalid;
      }
      if (std::strncmp(orec_v, "null", 4) == 0) {
        s.orec = "-";
      } else {
        std::uint64_t orec = 0;
        if (!get_u64(line, "orec", orec)) {
          append(out, "tm_top: line %zu: malformed orec field\n", lineno);
          return kReportInvalid;
        }
        s.orec = std::to_string(orec);
      }
      runs.back().hot_sites.push_back(std::move(s));
    } else {
      append(out, "tm_top: line %zu: unknown type \"%s\"\n", lineno,
             type.c_str());
      return kReportInvalid;
    }
  }

  if (runs.empty()) {
    out = "tm_top: no run lines in '" + path + "'\n";
    return kReportInvalid;
  }
  // Cross-check declared counts — the writer and the reader must agree on
  // how many lines belong to each run (truncated files fail here).
  for (const RunBlock& r : runs) {
    if (r.windows.size() != r.declared_windows ||
        r.hot_sites.size() != r.declared_hot_sites) {
      append(out,
             "tm_top: run \"%s\" declares %" PRIu64 " windows / %" PRIu64
             " hot sites but carries %zu / %zu\n",
             r.label.c_str(), r.declared_windows, r.declared_hot_sites,
             r.windows.size(), r.hot_sites.size());
      return kReportInvalid;
    }
  }

  for (const RunBlock& r : runs) render_run(r, top_k, out);
  return kReportOk;
}

}  // namespace semstm::obs
