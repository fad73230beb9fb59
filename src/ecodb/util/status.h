// Status: RocksDB-style error handling without exceptions.
//
// Library code in ecodb never throws; fallible operations return a Status
// (or a Result<T>, see result.h). Statuses carry a coarse code plus a
// human-readable message.

#ifndef ECODB_UTIL_STATUS_H_
#define ECODB_UTIL_STATUS_H_

#include <string>
#include <string_view>

namespace ecodb {

/// Coarse classification of an error. Kept deliberately small; most call
/// sites only branch on ok() vs. !ok().
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  /// The simulated machine rejected or aborted under the requested
  /// voltage/frequency settings (PC-Probe-style instability warning).
  kUnstableSettings,
  /// A simulated hardware fault (used by failure-injection tests).
  kHardwareFault,
  /// SQL text could not be lexed/parsed/bound.
  kParseError,
  /// The query governor's simulated-time deadline passed before the
  /// query finished.
  kDeadlineExceeded,
  /// The query was cancelled cooperatively (external cancel flag or a
  /// charged-cycle cancellation point).
  kCancelled,
  /// The query exceeded its logical memory budget.
  kResourceExhausted,
  /// The system refused to take the work on at all: admission queue
  /// full, projected wait beyond the class deadline, or circuit breaker
  /// open. Distinct from kResourceExhausted (which means an *admitted*
  /// query blew its own budget) so callers can tell "retry elsewhere /
  /// later" from "your query is too big".
  kUnavailable,
  /// The operation is not allowed in the object's current state, e.g.
  /// appending to a table a query has already read.
  kFailedPrecondition,
};

/// Every StatusCode, in declaration order. Lets tests and diagnostics
/// enumerate codes without hand-maintaining a parallel list (the old
/// ToString switch silently lagged behind enum growth).
inline constexpr StatusCode kAllStatusCodes[] = {
    StatusCode::kOk,
    StatusCode::kInvalidArgument,
    StatusCode::kNotFound,
    StatusCode::kAlreadyExists,
    StatusCode::kOutOfRange,
    StatusCode::kUnimplemented,
    StatusCode::kInternal,
    StatusCode::kUnstableSettings,
    StatusCode::kHardwareFault,
    StatusCode::kParseError,
    StatusCode::kDeadlineExceeded,
    StatusCode::kCancelled,
    StatusCode::kResourceExhausted,
    StatusCode::kUnavailable,
    StatusCode::kFailedPrecondition,
};

/// Canonical name of a code ("InvalidArgument", "DeadlineExceeded", ...).
const char* StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName. Returns false (and leaves `*out` untouched)
/// for an unrecognized name.
bool StatusCodeFromName(std::string_view name, StatusCode* out);

/// Value-type status. Cheap to copy for the OK case.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(StatusCode::kAlreadyExists, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(StatusCode::kOutOfRange, msg);
  }
  static Status Unimplemented(std::string_view msg) {
    return Status(StatusCode::kUnimplemented, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(StatusCode::kInternal, msg);
  }
  static Status UnstableSettings(std::string_view msg) {
    return Status(StatusCode::kUnstableSettings, msg);
  }
  static Status HardwareFault(std::string_view msg) {
    return Status(StatusCode::kHardwareFault, msg);
  }
  static Status ParseError(std::string_view msg) {
    return Status(StatusCode::kParseError, msg);
  }
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(StatusCode::kDeadlineExceeded, msg);
  }
  static Status Cancelled(std::string_view msg) {
    return Status(StatusCode::kCancelled, msg);
  }
  static Status ResourceExhausted(std::string_view msg) {
    return Status(StatusCode::kResourceExhausted, msg);
  }
  static Status Unavailable(std::string_view msg) {
    return Status(StatusCode::kUnavailable, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(StatusCode::kFailedPrecondition, msg);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnstableSettings() const {
    return code_ == StatusCode::kUnstableSettings;
  }
  bool IsHardwareFault() const { return code_ == StatusCode::kHardwareFault; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string_view msg)
      : code_(code), message_(msg) {}

  StatusCode code_;
  std::string message_;
};

/// Evaluates `expr`; if the resulting Status is not OK, returns it from the
/// enclosing function. Standard early-return macro (RocksDB/Arrow idiom).
#define ECODB_RETURN_NOT_OK(expr)             \
  do {                                        \
    ::ecodb::Status _st = (expr);             \
    if (!_st.ok()) return _st;                \
  } while (false)

}  // namespace ecodb

#endif  // ECODB_UTIL_STATUS_H_
