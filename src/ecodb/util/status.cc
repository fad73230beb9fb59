#include "ecodb/util/status.h"

namespace ecodb {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnstableSettings:
      return "UnstableSettings";
    case StatusCode::kHardwareFault:
      return "HardwareFault";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

bool StatusCodeFromName(std::string_view name, StatusCode* out) {
  for (StatusCode code : kAllStatusCodes) {
    if (name == StatusCodeName(code)) {
      *out = code;
      return true;
    }
  }
  return false;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace ecodb
