#include "harness.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double h = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Summary summarize(const std::vector<double>& v) {
  return Summary{v.size(), quantile(v, 0.50), quantile(v, 0.99)};
}

// ---- spans ---------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::record(SpanRec r) {
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back(std::move(r));
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_;
}

uint32_t thread_tag() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

namespace {
// Innermost open span of this thread: (span id, request id).
thread_local uint64_t tls_span = 0;
thread_local uint64_t tls_req = 0;
}  // namespace

Span::Span(const char* name, uint64_t req, uint64_t parent) {
  Tracer& t = Tracer::get();
  if (!t.on()) return;
  live_ = true;
  rec_.name = name;
  rec_.id = t.next_id();
  rec_.parent = parent != 0 ? parent : tls_span;
  rec_.req = req != 0 ? req : (parent != 0 ? 0 : tls_req);
  if (rec_.req == 0) rec_.req = rec_.id;
  rec_.tid = thread_tag();
  saved_id_ = tls_span;
  saved_req_ = tls_req;
  tls_span = rec_.id;
  tls_req = rec_.req;
  rec_.t0_ns = ns_of(Clock::now());
}

Span::~Span() {
  if (!live_) return;
  rec_.t1_ns = ns_of(Clock::now());
  tls_span = saved_id_;
  tls_req = saved_req_;
  Tracer::get().record(std::move(rec_));
}

void record_span(const char* name, uint64_t id, uint64_t req,
                 uint64_t parent, Clock::time_point t0, Clock::time_point t1) {
  Tracer& t = Tracer::get();
  if (!t.on() || id == 0) return;
  SpanRec r;
  r.name = name;
  r.id = id;
  r.parent = parent;
  r.req = req;
  r.t0_ns = ns_of(t0);
  r.t1_ns = ns_of(t1);
  r.tid = thread_tag();
  t.record(std::move(r));
}

std::vector<FoldRow> fold(const std::vector<SpanRec>& bench,
                          const std::vector<dopar::obs::TraceEvent>& lib) {
  struct Node {
    std::string name;
    uint64_t id, parent, t0, t1;
    uint32_t tid;
    bool lib;
  };
  std::vector<Node> nodes;
  nodes.reserve(bench.size() + lib.size());
  for (const SpanRec& s : bench) {
    nodes.push_back({s.name, s.id, s.parent, s.t0_ns, s.t1_ns, s.tid, false});
  }
  // Library spans carry the library's own thread numbering, which cannot be
  // matched to the benchmark's from outside, so they get a disjoint tid
  // range and nest among themselves only.
  uint64_t next = ~uint64_t{0} >> 1;
  for (const dopar::obs::TraceEvent& e : lib) {
    if (e.phase != 'X' || e.name == nullptr) continue;
    nodes.push_back({e.name, ++next, 0, e.t0_ns, e.t1_ns,
                     e.tid | 0x8000'0000u, true});
  }
  // Containment nesting per thread for library spans (they carry no
  // parent): sweep spans by start, longest first on ties.
  std::vector<size_t> order(nodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Node& x = nodes[a];
    const Node& y = nodes[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.t0 != y.t0) return x.t0 < y.t0;
    return x.t1 > y.t1;
  });
  std::vector<size_t> stack;
  uint32_t cur_tid = 0;
  for (size_t i : order) {
    Node& n = nodes[i];
    if (n.tid != cur_tid) {
      stack.clear();
      cur_tid = n.tid;
    }
    while (!stack.empty() && nodes[stack.back()].t1 < n.t1) stack.pop_back();
    if (n.lib && !stack.empty()) n.parent = nodes[stack.back()].id;
    stack.push_back(i);
  }
  std::unordered_map<uint64_t, double> child_ms;
  for (const Node& n : nodes) {
    if (n.parent != 0) child_ms[n.parent] += double(n.t1 - n.t0) / 1e6;
  }
  std::map<std::string, FoldRow> rows;
  for (const Node& n : nodes) {
    FoldRow& r = rows[n.name];
    r.name = n.name;
    const double total = double(n.t1 - n.t0) / 1e6;
    const auto it = child_ms.find(n.id);
    const double kids = it == child_ms.end() ? 0 : it->second;
    ++r.count;
    r.total_ms += total;
    // Children on other threads may overlap each other; floor at zero.
    r.self_ms += std::max(0.0, total - kids);
  }
  std::vector<FoldRow> out;
  for (auto& [name, r] : rows) out.push_back(r);
  std::sort(out.begin(), out.end(), [](const FoldRow& a, const FoldRow& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

bool write_spans(const std::string& path, const std::vector<SpanRec>& bench,
                 const std::vector<dopar::obs::TraceEvent>& lib) {
  uint64_t base = ~uint64_t{0};
  for (const SpanRec& s : bench) base = std::min(base, s.t0_ns);
  for (const auto& e : lib) base = std::min(base, e.t0_ns);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanRec& s : bench) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"req\":%llu,\"parent\":%llu}}",
                  first ? "" : ",", s.name.c_str(), s.tid,
                  double(s.t0_ns - base) / 1e3,
                  double(s.t1_ns - s.t0_ns) / 1e3,
                  (unsigned long long)s.id, (unsigned long long)s.req,
                  (unsigned long long)s.parent);
    f << buf;
    first = false;
  }
  for (const auto& e : lib) {
    if (e.phase != 'X' || e.name == nullptr) continue;
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  first ? "" : ",", e.name, e.tid,
                  double(e.t0_ns - base) / 1e3,
                  double(e.t1_ns - e.t0_ns) / 1e3);
    f << buf;
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---- process and environment ---------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return double(t.tv_sec) + double(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    if (key == "model name" || key == "Hardware" || key == "cpu model") {
      return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

std::string env_json(const std::string& workload, uint64_t seed,
                     unsigned runtime_threads, bool traced) {
  namespace k = dopar::obl::kernel;
  std::ostringstream o;
  o << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":" << seed
    << ",\"trace\":" << (traced ? 1 : 0) << ",\"cpu\":\""
    << json_escape(cpu_model()) << "\",\"nproc\":" << nproc()
    << ",\"runtime_threads\":" << runtime_threads << ",\"isa\":\""
    << k::isa_name(k::active_isa()) << "\",\"compiler\":\""
    << json_escape(__VERSION__) << "\",\"build_type\":\""
    << PERFBENCH_BUILD_TYPE << "\"}";
  return o.str();
}

std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                        const Metrics& m) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, v] : m) {
    const double x = std::isfinite(v.value) ? v.value : -1.0;
    std::snprintf(buf, sizeof buf, "%.10g", x);
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

}  // namespace pb
