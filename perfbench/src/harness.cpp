#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "net/frame.h"
#include "net/wire.h"

namespace perfbench {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

const char* kindName(Kind kind) {
  switch (kind) {
    case Kind::kOpen: return "open";
    case Kind::kEdit: return "edit";
    case Kind::kRun: return "run";
    case Kind::kClose: return "close";
    case Kind::kEnsemble: return "ensemble";
    case Kind::kSystem: return "system";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Stack
// ---------------------------------------------------------------------------

Stack::Stack(const StackConfig& config) {
  pool_ = std::make_unique<nsc::exec::ThreadPool>(
      nsc::exec::ExecOptions{.threads = config.pool_threads});
  cache_ = std::make_unique<nsc::sim::CompiledProgramCache>();
  svc::ServiceOptions options;
  options.shards = config.shards;
  options.pool = pool_.get();
  options.cache = cache_.get();
  options.durability.checkpoint_dir = config.checkpoint_dir;
  options.durability.recover = config.recover;
  service_ = std::make_unique<svc::WorkbenchService>(options);
  server_ = std::make_unique<nsc::net::Server>(*service_);
}

Stack::~Stack() {
  client_.reset();
  server_.reset();
  service_.reset();
  cache_.reset();
  pool_.reset();
}

nsc::common::Status Stack::start() {
  const nsc::common::Status started = server_->start();
  if (!started.isOk()) return started;
  nsc::ClientOptions options;
  options.port = server_->port();
  client_ = std::make_unique<nsc::Client>(options);
  return client_->connect();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

std::uint64_t Tracer::open(const std::string& name, std::uint64_t parent) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = parent == 0 ? ++requests_ : spans_[parent - 1].request;
  span.name = name;
  span.start_ns = nowNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) { spans_[id - 1].end_ns = nowNs(); }

std::map<std::string, double> Tracer::selfMicrosByLayer() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent == 0) continue;
    const Span& parent = spans_[span.parent - 1];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) covered[span.parent - 1] += hi - lo;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    const std::int64_t own =
        std::max<std::int64_t>(0, span.end_ns - span.start_ns - covered[i]);
    self[layer] += static_cast<double>(own) / 1000.0;
  }
  return self;
}

bool Tracer::writeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"spans\": [\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Bench
// ---------------------------------------------------------------------------

namespace {

struct CodecTimes {
  double request_encode = 0, request_decode = 0;
  double reply_encode = 0, reply_decode = 0;
  std::size_t request_bytes = 0, reply_bytes = 0;
  bool ok = true;
};

// The wire codec applied from outside to one request and its reply: the
// same calls the client and server make (to-JSON, dump, frame; then frame
// reader, parse, from-JSON), each under its own span.
CodecTimes timeCodec(Tracer* tracer, std::uint64_t op,
                     const svc::Request& request,
                     const svc::ServiceReply& reply) {
  namespace net = nsc::net;
  CodecTimes times;
  auto decodeFrame = [](const std::string& bytes, net::Frame& frame) {
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    return reader.next(frame) == net::FrameReader::Next::kFrame;
  };
  std::string bytes;
  {
    Scope span(tracer, "net.request_encode", op);
    net::Frame frame;
    frame.type = static_cast<std::uint16_t>(net::frameTypeFor(request));
    frame.request_id = 1;
    frame.payload = net::requestToJson(request).dump();
    bytes = net::encodeFrame(frame);
    times.request_encode = span.micros();
  }
  times.request_bytes = bytes.size();
  {
    Scope span(tracer, "net.request_decode", op);
    net::Frame frame;
    bool ok = decodeFrame(bytes, frame);
    if (ok) {
      auto json = nsc::common::Json::parse(frame.payload);
      ok = json.isOk() && net::requestFromJson(frame.type, json.value()).isOk();
    }
    times.ok = times.ok && ok;
    times.request_decode = span.micros();
  }
  {
    Scope span(tracer, "net.reply_encode", op);
    net::Frame frame;
    frame.type = static_cast<std::uint16_t>(net::FrameType::kReply);
    frame.request_id = 1;
    frame.payload = net::replyToJson(reply).dump();
    bytes = net::encodeFrame(frame);
    times.reply_encode = span.micros();
  }
  times.reply_bytes = bytes.size();
  {
    Scope span(tracer, "net.reply_decode", op);
    net::Frame frame;
    bool ok = decodeFrame(bytes, frame);
    if (ok) {
      auto json = nsc::common::Json::parse(frame.payload);
      ok = json.isOk() && net::replyFromJson(json.value()).isOk();
    }
    times.ok = times.ok && ok;
    times.reply_decode = span.micros();
  }
  return times;
}

}  // namespace

std::optional<svc::ServiceReply> Bench::call(nsc::Client& client, Kind kind,
                                             svc::Request request,
                                             std::uint64_t op, bool key) {
  const int k = static_cast<int>(kind);
  ++attempted_[k];
  Tracer* traced = tracer();
  std::optional<svc::Request> kept;
  if (traced != nullptr) kept = request;

  Sample sample;
  sample.kind = kind;
  sample.phase = phase_;
  sample.key = key;
  nsc::common::Result<svc::ServiceReply> result = [&] {
    Scope span(traced, "wire.call", op);
    const Clock::time_point t0 = Clock::now();
    auto reply = client.call(std::move(request));
    sample.latency_us = microsSince(t0);
    return reply;
  }();
  if (!result.isOk()) {
    ++failed_[k];
    std::fprintf(stderr, "perfbench: %s request failed on the wire: %s\n",
                 kindName(kind), result.message().c_str());
    return std::nullopt;
  }
  svc::ServiceReply reply = std::move(result).value();
  sample.queue_us = static_cast<double>(reply.stats.queue_us);
  sample.run_us = static_cast<double>(reply.stats.run_us);
  if (traced != nullptr) {
    const CodecTimes codec = timeCodec(traced, op, *kept, reply);
    if (!codec.ok) fail(std::string("codec round trip of a ") + kindName(kind) +
                        " request or reply failed");
    sample.codec_us = codec.request_encode + codec.request_decode +
                      codec.reply_encode + codec.reply_decode;
    note("net.request_encode_us", codec.request_encode);
    note("net.request_decode_us", codec.request_decode);
    note("net.reply_encode_us", codec.reply_encode);
    note("net.reply_decode_us", codec.reply_decode);
    note(std::string("net.request_bytes.") + kindName(kind),
         static_cast<double>(codec.request_bytes));
    note(std::string("net.reply_bytes.") + kindName(kind),
         static_cast<double>(codec.reply_bytes));
    note(std::string("service.queue_us.") + kindName(kind), sample.queue_us);
    note(std::string("service.run_us.") + kindName(kind), sample.run_us);
    note("editor.checker_hits",
         static_cast<double>(reply.stats.checker_session_hits));
  }
  if (phase_ != Phase::kUntimed) samples_.push_back(sample);
  if (!reply.ok()) {
    ++failed_[k];
    std::fprintf(stderr, "perfbench: %s request refused: %s\n", kindName(kind),
                 reply.status.isOk() ? "reply not ok"
                                     : reply.status.message().c_str());
    return std::nullopt;
  }
  return reply;
}

void Bench::fail(const std::string& what) {
  if (failures_++ < 5) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Bench::note(const std::string& metric, double value) {
  if (phase_ == Phase::kTraced) notes_[metric].push_back(value);
}

void Bench::job(double ms) {
  if (phase_ != Phase::kUntimed) jobs_.emplace_back(phase_, ms);
}

void Bench::cycles(std::uint64_t count) {
  cycles_[static_cast<int>(phase_)] += count;
}

void Bench::cacheOutcome(bool hit) {
  if (phase_ == Phase::kUntimed) return;
  ++cache_lookups_;
  if (hit) ++cache_hits_;
}

std::uint64_t Bench::attempted() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : attempted_) total += n;
  return total;
}

std::uint64_t Bench::failed() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : failed_) total += n;
  return total;
}

std::vector<double> Bench::keyLatencies(Phase phase) const {
  std::vector<double> out;
  for (const Sample& s : samples_) {
    if (s.key && s.phase == phase) out.push_back(s.latency_us);
  }
  return out;
}

std::vector<double> Bench::jobs(Phase phase) const {
  std::vector<double> out;
  for (const auto& [p, ms] : jobs_) {
    if (p == phase) out.push_back(ms);
  }
  return out;
}

double peakRssMiB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
