#include "net/wire.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "sim/verify.h"

namespace nsc::net {

// Private-member bridge declared as a friend by svc::ServiceReply; shaped
// as a schema accessor for the reply's `complete` field.
struct ReplyAccess {
  using Struct = svc::ServiceReply;
  using Value = bool;
  static bool get(const svc::ServiceReply& reply) { return reply.complete_; }
  static void set(svc::ServiceReply& reply, bool value) {
    reply.complete_ = value;
  }
};

namespace {

using common::Json;
using common::Result;
// The table vocabulary: field, accessor, table and the codec kinds.
using namespace common::schema;

// ---------------------------------------------------------------------------
// Accessors for state that is not a plain member.
// ---------------------------------------------------------------------------

// common::Status travels as {"ok": bool, "message": string}, the message
// only when the status failed.
struct StatusOk {
  using Struct = common::Status;
  using Value = bool;
  static bool get(const common::Status& status) { return status.isOk(); }
  static void set(common::Status& status, bool ok) {
    status =
        ok ? common::Status::ok() : common::Status::error(status.message());
  }
};

struct StatusMessage {
  using Struct = common::Status;
  using Value = std::optional<std::string>;
  static Value get(const common::Status& status) {
    return status.isOk() ? Value{} : Value{status.message()};
  }
  static void set(common::Status& status, Value message) {
    if (!status.isOk()) {
      status = common::Status::error(std::move(message).value_or(""));
    }
  }
};

struct GenerationDiagnostics {
  using Struct = mc::GenerateResult;
  using Value = std::vector<check::Diagnostic>;
  static const Value& get(const mc::GenerateResult& generation) {
    return generation.diagnostics.all();
  }
  static void set(mc::GenerateResult& generation, Value diagnostics) {
    for (check::Diagnostic& d : diagnostics) {
      generation.diagnostics.add(d.rule, d.severity, std::move(d.message),
                                 d.pipeline);
    }
  }
};

// ---------------------------------------------------------------------------
// Tables, leaves first.  docs/PROTOCOL.md renders every table in
// wireTables(); the doc strings are its "meaning" column.
// ---------------------------------------------------------------------------

constexpr auto kPlaneImage = table<svc::PlaneImage>("PlaneImage", {
    field<&svc::PlaneImage::plane>("plane", "memory plane id"),
    field<&svc::PlaneImage::base>("base", "first word offset"),
    field<&svc::PlaneImage::values>("values", "the words to write"),
});

constexpr auto kPlaneRange = table<svc::PlaneRange>("PlaneRange", {
    field<&svc::PlaneRange::plane>("plane", "memory plane id"),
    field<&svc::PlaneRange::base>("base", "first word offset"),
    field<&svc::PlaneRange::count>("count", "words to read"),
});

using PlaneImages = List<Object<kPlaneImage>>;
using PlaneRanges = List<Object<kPlaneRange>>;

constexpr auto kAdmission = table<svc::Admission>("Admission", {
    field<&svc::Admission::priority, Nullable<Enum<svc::Priority::kBatch>>>(
        "priority", "0 interactive, 1 batch; absent: by request type",
        kOmitDefault),
    field<&svc::Admission::deadline_us>(
        "deadline_us", "dispatch deadline after admission in µs; 0 none",
        kOmitDefault),
});

constexpr auto kOpenSession = table<svc::OpenSession>("OpenSession", {
    field<&svc::OpenSession::script>("script", "initial script; may be empty"),
});

constexpr auto kSessionCommand = table<svc::SessionCommand>("SessionCommand", {
    field<&svc::SessionCommand::session>("session", "id from OpenSession",
                                         kRequired),
    field<&svc::SessionCommand::script>("script", "commands to replay"),
    field<&svc::SessionCommand::run>("run", "generate and run after replay"),
    field<&svc::SessionCommand::inputs, PlaneImages>("inputs",
                                                     "written before the run"),
    field<&svc::SessionCommand::outputs, PlaneRanges>("outputs",
                                                      "read after the run"),
});

constexpr auto kCloseSession = table<svc::CloseSession>("CloseSession", {
    field<&svc::CloseSession::session>("session", "id to close", kRequired),
});

constexpr auto kSubmitSession = table<svc::SubmitSession>("SubmitSession", {
    field<&svc::SubmitSession::script>("script", "script to replay, no run",
                                       kRequired),
});

constexpr auto kGenerateAndRun = table<svc::GenerateAndRun>("GenerateAndRun", {
    field<&svc::GenerateAndRun::script>("script", "script to replay",
                                        kRequired),
    field<&svc::GenerateAndRun::inputs, PlaneImages>("inputs",
                                                     "written before the run"),
    field<&svc::GenerateAndRun::outputs, PlaneRanges>("outputs",
                                                      "read after the run"),
});

constexpr auto kRunEnsemble = table<svc::RunEnsemble>("RunEnsemble", {
    field<&svc::RunEnsemble::script>("script", "script to replay", kRequired),
    field<&svc::RunEnsemble::replicas>("replicas", "copies to run"),
    field<&svc::RunEnsemble::lanes>("lanes", "SoA lanes; 0 auto, 1 scalar"),
});

constexpr auto kRouter = table<sim::RouterOptions>("RouterOptions", {
    field<&sim::RouterOptions::message_startup_cycles>(
        "message_startup_cycles", "per-message startup cost"),
    field<&sim::RouterOptions::hop_latency_cycles>("hop_latency_cycles",
                                                   "per-hop latency"),
    field<&sim::RouterOptions::words_per_cycle>("words_per_cycle",
                                                "link bandwidth"),
});

constexpr auto kRunSystemPhases =
    table<svc::RunSystemPhases>("RunSystemPhases", {
        field<&svc::RunSystemPhases::script>("script", "script to replay",
                                             kRequired),
        field<&svc::RunSystemPhases::dimension>("dimension",
                                                "hypercube of 2^d nodes"),
        field<&svc::RunSystemPhases::phases>("phases", "compute phases"),
        field<&svc::RunSystemPhases::node_lanes>(
            "node_lanes", "SPMD lanes; 0 auto, 1 scalar"),
        field<&svc::RunSystemPhases::router, Object<kRouter>>(
            "router", "hypercube router timing"),
    });

constexpr auto kStatus = table<common::Status>("Status", {
    accessor<StatusOk>("ok", "false when it failed", kRequired),
    accessor<StatusMessage, Nullable<String>>(
        "message", "what failed; absent when ok", kOmitDefault),
});

constexpr auto kSessionResult = table<ed::SessionResult>("SessionResult", {
    field<&ed::SessionResult::commands>("commands", "commands replayed"),
    field<&ed::SessionResult::failures>("failures", "commands refused"),
    field<&ed::SessionResult::log>("log", "message strip after each command"),
    field<&ed::SessionResult::status, Object<kStatus>>(
        "status", "parse-level problems"),
});

constexpr auto kDiagnostic = table<check::Diagnostic>("Diagnostic", {
    field<&check::Diagnostic::rule, Enum<check::Rule::kMissingDriver>>(
        "rule", "`check::Rule` (src/checker/diagnostics.h)"),
    field<&check::Diagnostic::severity, Enum<check::Severity::kError>>(
        "severity", "0 warning, 1 error"),
    field<&check::Diagnostic::pipeline>("pipeline",
                                        "instruction; -1 not applicable"),
    field<&check::Diagnostic::message>("message", "the finding"),
});

constexpr auto kGenerateResult = table<mc::GenerateResult>("GenerateResult", {
    field<&mc::GenerateResult::ok>("ok", "microcode was generated"),
    accessor<GenerationDiagnostics, List<Object<kDiagnostic>>>(
        "diagnostics", "checker findings"),
});

using FaultCode = Enum<sim::FaultKind::kTimeout>;
constexpr std::string_view kFaultDoc = "0 none, 1 dma-bounds, 2 timeout";

constexpr auto kInstrStats = table<sim::InstrStats>("InstrStats", {
    field<&sim::InstrStats::instruction>("instruction", "program counter"),
    field<&sim::InstrStats::name>("name", "instruction name"),
    field<&sim::InstrStats::cycles>("cycles", "cycles spent"),
    field<&sim::InstrStats::flops>("flops", "floating-point results"),
    field<&sim::InstrStats::hazards>("hazards", "valid/invalid pairings"),
    field<&sim::InstrStats::error>("error", "the instruction faulted"),
    field<&sim::InstrStats::fault, FaultCode>("fault", kFaultDoc),
    field<&sim::InstrStats::error_message>("message", "fault text"),
});

constexpr auto kRunStats = table<sim::RunStats>("RunStats", {
    field<&sim::RunStats::total_cycles>("total_cycles", "cycles"),
    field<&sim::RunStats::total_flops>("total_flops", "flops"),
    field<&sim::RunStats::total_hazards>("total_hazards", "hazards"),
    field<&sim::RunStats::instructions_executed>("instructions_executed",
                                                 "instructions run"),
    field<&sim::RunStats::fu_launches>("fu_launches",
                                       "valid launches per functional unit"),
    field<&sim::RunStats::trace, List<Object<kInstrStats>>>(
        "trace", "one entry per executed instruction"),
    field<&sim::RunStats::halted>("halted", "the program halted"),
    field<&sim::RunStats::error>("error", "the run faulted"),
    field<&sim::RunStats::fault, FaultCode>("fault", kFaultDoc),
    field<&sim::RunStats::error_message>("message", "fault text"),
});

constexpr auto kSystemStats = table<sim::SystemStats>("SystemStats", {
    field<&sim::SystemStats::node_stats, List<Object<kRunStats>>>(
        "node_stats", "one per node"),
    field<&sim::SystemStats::compute_makespan_cycles>(
        "compute_makespan_cycles", "slowest node's compute cycles, summed"),
    field<&sim::SystemStats::comm_cycles>("comm_cycles", "exchange cycles"),
    field<&sim::SystemStats::total_flops>("total_flops", "flops, all nodes"),
    field<&sim::SystemStats::error>("error", "a node faulted"),
    field<&sim::SystemStats::error_message>("message", "fault text"),
});

constexpr auto kEndpoint = table<arch::Endpoint>("Endpoint", {
    field<&arch::Endpoint::kind, Enum<arch::EndpointKind::kSdInput>>(
        "kind", "`arch::EndpointKind`"),
    field<&arch::Endpoint::unit>("unit", "unit id of that kind"),
    field<&arch::Endpoint::port>("port", "port or tap"),
});

constexpr auto kCycleWindow = table<sim::CycleWindow>("CycleWindow", {
    field<&sim::CycleWindow::first>("first", "first valid cycle"),
    field<&sim::CycleWindow::last, U64String>(
        "last", "last valid cycle; 18446744073709551615 forever"),
    field<&sim::CycleWindow::any>("any", "some cycle is valid"),
    field<&sim::CycleWindow::tagged>("tagged", "the last element is tagged"),
});

constexpr auto kVerifyDiagnostic =
    table<sim::VerifyDiagnostic>("VerifyDiagnostic", {
        field<&sim::VerifyDiagnostic::code,
              Enum<sim::VerifyCode::kExchangeDangling>>("code",
                                                        "`sim::VerifyCode`"),
        field<&sim::VerifyDiagnostic::severity, Enum<check::Severity::kError>>(
            "severity", "0 warning, 1 error"),
        field<&sim::VerifyDiagnostic::instruction>(
            "instruction", "program slot; -1 program-wide"),
        field<&sim::VerifyDiagnostic::endpoint, Object<kEndpoint>>(
            "endpoint", "offending endpoint"),
        field<&sim::VerifyDiagnostic::window, Object<kCycleWindow>>(
            "window", "offending cycle window"),
        field<&sim::VerifyDiagnostic::message>("message", "the finding"),
    });

constexpr auto kVerifyReport = table<sim::VerifyReport>("VerifyReport", {
    field<&sim::VerifyReport::diagnostics, List<Object<kVerifyDiagnostic>>>(
        "diagnostics", "static-verification findings"),
});

constexpr auto kRequestStats = table<svc::RequestStats>("RequestStats", {
    field<&svc::RequestStats::shard>("shard", "shard that served it",
                                     kNondeterministic),
    field<&svc::RequestStats::sequence>("sequence", "admission order",
                                        kNondeterministic),
    field<&svc::RequestStats::shard_sequence>(
        "shard_sequence", "dispatch order on the shard", kNondeterministic),
    field<&svc::RequestStats::priority, Enum<svc::Priority::kBatch>>(
        "priority", "class admitted at: 0 interactive, 1 batch"),
    field<&svc::RequestStats::queue_us>("queue_us", "admission to dispatch, µs",
                                        kNondeterministic),
    field<&svc::RequestStats::run_us>("run_us", "dispatch to reply, µs",
                                      kNondeterministic),
    field<&svc::RequestStats::program_cache_hit>("program_cache_hit",
                                                 "compiled image reused"),
    field<&svc::RequestStats::pool_queue_depth>(
        "pool_queue_depth", "exec pool backlog at dispatch", kNondeterministic),
    field<&svc::RequestStats::session>("session", "session id, if any"),
    field<&svc::RequestStats::checker_session_hits>(
        "checker_session_hits", "checker queries answered from warm state"),
    field<&svc::RequestStats::ensemble_lanes>("ensemble_lanes",
                                              "resolved SoA lane width"),
    field<&svc::RequestStats::replicas_batched>("replicas_batched",
                                                "replicas run in lockstep"),
    field<&svc::RequestStats::replicas_scalar>("replicas_scalar",
                                               "replicas run alone"),
    field<&svc::RequestStats::node_lanes>("node_lanes",
                                          "resolved SPMD lane width"),
    field<&svc::RequestStats::nodes_batched>("nodes_batched",
                                             "node-phases run in lane groups"),
    field<&svc::RequestStats::nodes_scalar>("nodes_scalar",
                                            "node-phases run alone"),
    field<&svc::RequestStats::retries>("retries", "faulted attempts retried"),
    field<&svc::RequestStats::restored_from_disk>(
        "restored_from_disk", "session restored from a checkpoint"),
    field<&svc::RequestStats::rejected, Enum<svc::Reject::kInternal>>(
        "rejected", "0 none, 1 deadline, 2 overload, 3 unknown-session, "
                    "4 session-limit, 5 invalid-program, 6 internal"),
});

constexpr auto kReply = table<svc::ServiceReply>("ServiceReply", {
    field<&svc::ServiceReply::status, Object<kStatus>>(
        "status", "service-level failure only"),
    field<&svc::ServiceReply::session, Object<kSessionResult>>(
        "session", "editor replay record"),
    field<&svc::ServiceReply::generation, Object<kGenerateResult>>(
        "generation", "microcode generation verdict"),
    field<&svc::ServiceReply::run, Object<kRunStats>>(
        "run", "GenerateAndRun, SessionCommand with run"),
    field<&svc::ServiceReply::ensemble, List<Object<kRunStats>>>(
        "ensemble", "RunEnsemble, one per replica"),
    field<&svc::ServiceReply::system, Object<kSystemStats>>("system",
                                                            "RunSystemPhases"),
    field<&svc::ServiceReply::outputs>("outputs",
                                       "one per requested plane range"),
    field<&svc::ServiceReply::verify, Nullable<Object<kVerifyReport>>>(
        "verify", "static verification; null when nothing compiled"),
    field<&svc::ServiceReply::stats, Object<kRequestStats>>(
        "stats", "per-request serving stats"),
    accessor<ReplyAccess>("complete", "with status.ok, gives ok()"),
});

constexpr auto kProtocolError = table<ProtocolError>("ProtocolError", {
    field<&ProtocolError::code>("code", "one of the codes below"),
    field<&ProtocolError::message>("message", "what was wrong"),
});

// The frame type and table of each svc::Request alternative, index-parallel
// with the variant.
struct RequestSchema {
  FrameType type;
  Table table;
  svc::Request (*make)();
};

template <class R, std::size_t N>
constexpr RequestSchema request(FrameType type, const TableFor<R, N>& table) {
  return {type, table, [] { return svc::Request(R{}); }};
}

constexpr RequestSchema kRequests[] = {
    request(FrameType::kSubmitSession, kSubmitSession),
    request(FrameType::kGenerateAndRun, kGenerateAndRun),
    request(FrameType::kRunEnsemble, kRunEnsemble),
    request(FrameType::kRunSystemPhases, kRunSystemPhases),
    request(FrameType::kOpenSession, kOpenSession),
    request(FrameType::kSessionCommand, kSessionCommand),
    request(FrameType::kCloseSession, kCloseSession),
};
static_assert(std::size(kRequests) == std::variant_size_v<svc::Request>);

}  // namespace

std::string encodeWordsHex(const std::vector<double>& words) {
  return wordsToHex(words);
}

bool decodeWordsHex(const std::string& hex, std::vector<double>& out) {
  return wordsFromHex(hex, out);
}

FrameType frameTypeFor(const svc::Request& request) {
  return kRequests[request.index()].type;
}

common::Json requestToJson(const svc::Request& request,
                           const svc::Admission& admission) {
  const Table& schema = kRequests[request.index()].table;
  Json json = std::visit(
      [&](const auto& alternative) {
        return encodeObject(schema.fields, &alternative, false);
      },
      request);
  Json admission_json = encode(kAdmission, admission);
  if (!admission_json.asObject().empty()) {
    json["admission"] = std::move(admission_json);
  }
  return json;
}

common::Result<DecodedRequest> requestFromJson(std::uint16_t type,
                                               const common::Json& payload) {
  const auto* schema = std::find_if(
      std::begin(kRequests), std::end(kRequests),
      [type](const RequestSchema& s) {
        return type == static_cast<std::uint16_t>(s.type);
      });
  if (schema == std::end(kRequests)) {
    return Result<DecodedRequest>::error(
        common::strFormat("frame type %u is not a request", type));
  }
  if (!payload.isObject()) {
    return Result<DecodedRequest>::error("request payload: expected object");
  }
  DecodedRequest decoded{schema->make(), {}};
  Decoder decoder;
  std::visit(
      [&](auto& alternative) {
        decodeObject(decoder, schema->table.fields, payload, &alternative);
      },
      decoded.request);
  const auto admission = payload.asObject().find("admission");
  if (decoder.ok() && admission != payload.asObject().end()) {
    Object<kAdmission>::decode(decoder, "admission", admission->second,
                               decoded.admission);
  }
  if (!decoder.ok()) return Result<DecodedRequest>::error(decoder.error());
  return decoded;
}

common::Json replyToJson(const svc::ServiceReply& reply) {
  return encode(kReply, reply);
}

common::Result<svc::ServiceReply> replyFromJson(const common::Json& payload) {
  svc::ServiceReply reply;
  Decoder decoder;
  if (!decode(decoder, kReply, payload, reply)) {
    return Result<svc::ServiceReply>::error(decoder.error());
  }
  return reply;
}

const std::vector<std::string>& nondeterministicStatsFields() {
  static const std::vector<std::string> kFields = [] {
    std::vector<std::string> names;
    for (const Field& f : kRequestStats.fields) {
      if ((f.flags & kNondeterministic) != 0) names.emplace_back(f.name);
    }
    return names;
  }();
  return kFields;
}

common::Json deterministicReplyJson(const svc::ServiceReply& reply) {
  return encode(kReply, reply, /*deterministic=*/true);
}

common::Json protocolErrorToJson(const ProtocolError& error) {
  return encode(kProtocolError, error);
}

ProtocolError protocolErrorFromJson(const common::Json& payload) {
  ProtocolError error{"unknown", ""};
  Decoder decoder;
  decode(decoder, kProtocolError, payload, error);
  return error;
}

const std::vector<const char*>& protocolErrorCodes() {
  static const std::vector<const char*> kCodes = {
      "bad-magic", "oversized",  "bad-version",
      "unknown-type", "bad-json", "bad-request",
  };
  return kCodes;
}

const std::vector<common::schema::Table>& wireTables() {
  static const std::vector<Table> kTables = {
      kPlaneImage,     kPlaneRange,      kAdmission,      kOpenSession,
      kSessionCommand, kCloseSession,    kSubmitSession,  kGenerateAndRun,
      kRunEnsemble,    kRunSystemPhases, kRouter,         kReply,
      kStatus,         kSessionResult,   kGenerateResult, kDiagnostic,
      kRunStats,       kInstrStats,      kSystemStats,    kVerifyReport,
      kVerifyDiagnostic, kEndpoint,      kCycleWindow,    kRequestStats,
      kProtocolError,
  };
  return kTables;
}

}  // namespace nsc::net
