#include "service/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>

#include "common/env.h"
#include "common/schema.h"
#include "common/strings.h"
#include "nsc/workbench.h"

namespace nsc::svc {

namespace fs = std::filesystem;
using common::strFormat;

namespace {

constexpr const char* kMagic = "NSCKPT1";

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buffer).str();
}

}  // namespace

const char* checkpointErrorName(CheckpointError error) {
  switch (error) {
    case CheckpointError::kNone: return "none";
    case CheckpointError::kIo: return "io";
    case CheckpointError::kTruncated: return "truncated";
    case CheckpointError::kBadMagic: return "bad-magic";
    case CheckpointError::kChecksum: return "checksum";
    case CheckpointError::kParse: return "parse";
    case CheckpointError::kBadVersion: return "bad-version";
    case CheckpointError::kBadState: return "bad-state";
  }
  return "unknown";
}

CheckpointStore::CheckpointStore(std::string dir, exec::FaultInjector* injector)
    : dir_(std::move(dir)), injector_(injector) {}

exec::FaultInjector& CheckpointStore::injector() const {
  return injector_ != nullptr ? *injector_ : exec::FaultInjector::global();
}

std::string CheckpointStore::pathFor(std::uint64_t session_id) const {
  return dir_ + "/session-" + std::to_string(session_id) + ".ckpt";
}

std::string CheckpointStore::frame(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 48);
  out += kMagic;
  out += ' ';
  common::schema::appendHex16(out, common::fnv1a64(payload));
  out += ' ';
  out += std::to_string(payload.size());
  out += '\n';
  out += payload;
  return out;
}

common::Status CheckpointStore::write(std::uint64_t session_id,
                                      const common::Json& payload) {
  const std::string framed = frame(payload.dump());
  // The injector sees the exact bytes headed for disk; whatever it tears or
  // flips must be caught by the read-back below, never committed.
  std::string bytes = injector().mangleCheckpointBytes(framed);
  injector().maybeDelay(exec::FaultSite::kCheckpointWrite);

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return common::Status::error(strFormat(
        "checkpoint dir '%s' unavailable: %s", dir_.c_str(),
        ec.message().c_str()));
  }
  const std::string final_path = pathFor(session_id);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return common::Status::error(
          strFormat("cannot open '%s' for write", tmp_path.c_str()));
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return common::Status::error(
          strFormat("short write to '%s'", tmp_path.c_str()));
    }
  }
  // Read-back verification against the *intended* frame: a torn or
  // corrupted write (injected or real) fails here, the temp file is
  // discarded, and the previous good checkpoint — or the in-memory session —
  // survives untouched.
  const std::optional<std::string> readback = readFile(tmp_path);
  if (!readback.has_value() || *readback != framed) {
    std::remove(tmp_path.c_str());
    return common::Status::error(strFormat(
        "checkpoint write verification failed for session %llu",
        static_cast<unsigned long long>(session_id)));
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return common::Status::error(strFormat(
        "cannot commit '%s': %s", final_path.c_str(), ec.message().c_str()));
  }
  return common::Status::ok();
}

CheckpointStore::ReadResult CheckpointStore::read(
    std::uint64_t session_id) const {
  injector().maybeDelay(exec::FaultSite::kCheckpointRead);
  ReadResult result;
  const auto fail = [&result](CheckpointError error, std::string message) {
    result.error = error;
    result.message = std::move(message);
    return result;
  };
  const std::string path = pathFor(session_id);
  const std::optional<std::string> bytes = readFile(path);
  if (!bytes.has_value()) {
    return fail(CheckpointError::kIo,
                strFormat("cannot read '%s'", path.c_str()));
  }
  if (bytes->empty()) {
    return fail(CheckpointError::kTruncated, "empty checkpoint file");
  }
  const std::size_t newline = bytes->find('\n');
  if (newline == std::string::npos) {
    // No complete header line.  A tear mid-header still starts with the
    // magic; anything else is not one of our files.
    const std::string prefix = std::string(kMagic) + ' ';
    return bytes->compare(0, std::min(bytes->size(), prefix.size()), prefix, 0,
                          std::min(bytes->size(), prefix.size())) == 0
               ? fail(CheckpointError::kTruncated, "header torn mid-line")
               : fail(CheckpointError::kBadMagic, "not a checkpoint file");
  }
  const std::string header = bytes->substr(0, newline);
  const std::vector<std::string> fields = common::split(header, ' ');
  if (fields.size() != 3 || fields[0] != kMagic) {
    return fail(CheckpointError::kBadMagic,
                strFormat("bad header '%s'", header.c_str()));
  }
  std::uint64_t checksum = 0;
  const bool checksum_ok = common::schema::parseHex16(fields[1], checksum);
  const std::optional<long long> declared = common::parseInt(fields[2]);
  if (!checksum_ok || !declared.has_value() || *declared < 0) {
    return fail(CheckpointError::kBadMagic,
                strFormat("bad header '%s'", header.c_str()));
  }
  const std::string payload = bytes->substr(newline + 1);
  if (payload.size() != static_cast<std::size_t>(*declared)) {
    return fail(CheckpointError::kTruncated,
                strFormat("payload is %zu bytes, header declares %lld",
                          payload.size(), *declared));
  }
  if (common::fnv1a64(payload) != checksum) {
    return fail(CheckpointError::kChecksum, "payload checksum mismatch");
  }
  common::Result<common::Json> parsed = common::Json::parse(payload);
  if (!parsed.isOk()) {
    return fail(CheckpointError::kParse, parsed.message());
  }
  common::Json& doc = parsed.value();
  if (!doc.isObject() ||
      doc.getString("format") != nsc::WorkbenchCore::kStateFormat ||
      doc.getInt("version", -1) != nsc::WorkbenchCore::kStateVersion) {
    return fail(CheckpointError::kBadVersion,
                strFormat("unsupported payload format '%s' version %lld",
                          doc.isObject() ? doc.getString("format").c_str() : "",
                          doc.isObject()
                              ? static_cast<long long>(doc.getInt("version", -1))
                              : -1LL));
  }
  result.payload = std::move(doc);
  return result;
}

void CheckpointStore::remove(std::uint64_t session_id) const {
  std::error_code ec;
  fs::remove(pathFor(session_id), ec);
}

bool CheckpointStore::exists(std::uint64_t session_id) const {
  std::error_code ec;
  return fs::exists(pathFor(session_id), ec);
}

std::vector<std::uint64_t> CheckpointStore::listSessions() const {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return ids;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kPrefix = "session-";
    constexpr std::string_view kSuffix = ".ckpt";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    const std::optional<long long> id = common::parseInt(digits);
    if (id.has_value() && *id > 0) {
      ids.push_back(static_cast<std::uint64_t>(*id));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace nsc::svc
