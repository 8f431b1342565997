#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/driver.hpp"
#include "perfbench.hpp"
#include "util/units.hpp"
#include "workload/distribution.hpp"

namespace perfbench {

Options::Options(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got " + arg);
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

std::string Options::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::uint64_t Options::u64(const std::string& key) const {
  return std::strtoull(str(key).c_str(), nullptr, 10);
}

double Options::f64(const std::string& key) const {
  return std::strtod(str(key).c_str(), nullptr);
}

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace {

ehja::Algorithm parse_algorithm(const std::string& name) {
  if (name == "split") return ehja::Algorithm::kSplit;
  if (name == "replicated") return ehja::Algorithm::kReplicate;
  if (name == "hybrid") return ehja::Algorithm::kHybrid;
  throw std::invalid_argument("unknown algorithm " + name);
}

// Same spellings as ehja_run --dist.
ehja::DistributionSpec parse_dist(const std::string& spec) {
  if (spec == "uniform") return ehja::DistributionSpec::Uniform();
  if (spec.rfind("gaussian:", 0) == 0) {
    return ehja::DistributionSpec::Gaussian(0.5,
                                            std::atof(spec.c_str() + 9));
  }
  if (spec.rfind("smalldomain:", 0) == 0) {
    return ehja::DistributionSpec::SmallDomain(
        std::strtoull(spec.c_str() + 12, nullptr, 10));
  }
  throw std::invalid_argument("unknown dist " + spec);
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

ehja::EhjaConfig make_config(const Options& opt, std::uint64_t seed) {
  ehja::EhjaConfig config;
  config.algorithm = parse_algorithm(opt.str("algorithm"));
  config.data_sources = static_cast<std::uint32_t>(opt.u64("sources"));
  config.initial_join_nodes = static_cast<std::uint32_t>(opt.u64("initial"));
  config.join_pool_nodes = static_cast<std::uint32_t>(opt.u64("pool"));
  config.node_hash_memory_bytes = opt.u64("memory_kib") * ehja::kKiB;
  const std::uint64_t tuples = opt.u64("tuples");
  const ehja::Schema schema{
      static_cast<std::uint32_t>(opt.u64("tuple_bytes"))};
  config.build_rel.tuple_count = tuples;
  config.probe_rel.tuple_count = tuples;
  config.build_rel.schema = schema;
  config.probe_rel.schema = schema;
  config.build_rel.dist = parse_dist(opt.str("dist"));
  config.probe_rel.dist = config.build_rel.dist;
  config.chunk_tuples = static_cast<std::uint32_t>(opt.u64("chunk"));
  config.generation_slice_tuples = config.chunk_tuples;
  config.seed = seed;
  if (const auto error = config.validate_or_error()) {
    throw std::invalid_argument("bad workload config: " + *error);
  }
  return config;
}

std::vector<OracleEntry> read_oracles(const std::string& path) {
  std::vector<OracleEntry> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    OracleEntry e;
    if (fields >> e.seed >> e.result.matches >> e.result.checksum) {
      out.push_back(e);
    }
  }
  if (out.empty()) throw std::invalid_argument("no oracle results in " + path);
  return out;
}

int run_oracle(const Options& opt) {
  std::ifstream seeds(opt.str("seeds"));
  std::ofstream out(opt.str("out"));
  SpanLog spans(opt.has("spans"));
  std::uint64_t seed = 0;
  for (std::uint64_t query = 1; seeds >> seed; ++query) {
    const ehja::EhjaConfig config = make_config(opt, seed);
    ehja::JoinResult r;
    const double secs = spans.time("join.oracle", query, [&] {
      r = ehja::reference_join(config);
    });
    out << seed << " " << r.matches << " " << r.checksum << " "
        << format_double(secs) << "\n";
  }
  if (spans.enabled()) spans.write_json(opt.str("spans"));
  return out.good() ? 0 : 1;
}

int SpanLog::add(std::string name, double start, double end, int parent,
                 std::uint64_t query) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, end, parent, query});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> items;
  items.reserve(spans_.size());
  for (const Span& s : spans_) {
    items.push_back(JsonObject()
                        .text("name", s.name)
                        .num("start", s.start)
                        .num("end", s.end)
                        .num("parent", s.parent)
                        .integer("query", s.query)
                        .str());
  }
  std::ofstream(path) << json_array(items) << "\n";
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += quote(k) + ": ";
}

JsonObject& JsonObject::num(const std::string& k, double value) {
  key(k);
  body_ += format_double(value);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::text(const std::string& k, const std::string& value) {
  key(k);
  body_ += quote(value);
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",\n ";
    out += items[i];
  }
  return out + "]";
}

JsonObject host_record() {
  JsonObject host;
#if defined(__clang__)
  host.text("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.text("compiler", std::string("gcc ") + __VERSION__);
#else
  host.text("compiler", "unknown");
#endif
  host.text("build_type", PERFBENCH_BUILD_TYPE);
  return host;
}

std::uint64_t children_peak_rss_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

}  // namespace perfbench
