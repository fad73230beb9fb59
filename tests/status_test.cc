// Status code round-trip coverage: every StatusCode has a factory, a
// canonical name, a working name->code inverse, and a ToString rendering
// that names the code — enumerated from kAllStatusCodes so enum growth
// without matching plumbing fails here instead of silently rendering
// "Unknown".

#include <gtest/gtest.h>

#include <string>

#include "ecodb/util/status.h"

namespace ecodb {
namespace {

Status MakeStatus(StatusCode code, std::string_view msg) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(msg);
    case StatusCode::kInternal:
      return Status::Internal(msg);
    case StatusCode::kUnstableSettings:
      return Status::UnstableSettings(msg);
    case StatusCode::kHardwareFault:
      return Status::HardwareFault(msg);
    case StatusCode::kParseError:
      return Status::ParseError(msg);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case StatusCode::kCancelled:
      return Status::Cancelled(msg);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(msg);
    case StatusCode::kUnavailable:
      return Status::Unavailable(msg);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(msg);
  }
  return Status::Internal("unreachable");
}

TEST(StatusTest, EveryCodeRoundTripsThroughNameAndFactory) {
  for (StatusCode code : kAllStatusCodes) {
    const char* name = StatusCodeName(code);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "Unknown") << static_cast<int>(code);

    StatusCode parsed = StatusCode::kInternal;
    ASSERT_TRUE(StatusCodeFromName(name, &parsed)) << name;
    EXPECT_EQ(parsed, code) << name;

    Status st = MakeStatus(code, "msg");
    EXPECT_EQ(st.code(), code) << name;
    EXPECT_EQ(st.ok(), code == StatusCode::kOk) << name;
  }
}

TEST(StatusTest, ToStringNamesTheCodeAndCarriesTheMessage) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  for (StatusCode code : kAllStatusCodes) {
    if (code == StatusCode::kOk) continue;
    Status st = MakeStatus(code, "details here");
    const std::string s = st.ToString();
    EXPECT_NE(s.find(StatusCodeName(code)), std::string::npos) << s;
    EXPECT_NE(s.find("details here"), std::string::npos) << s;
    EXPECT_EQ(st.message(), "details here");
  }
}

TEST(StatusTest, FromNameRejectsUnknownNamesWithoutTouchingOut) {
  StatusCode out = StatusCode::kHardwareFault;
  EXPECT_FALSE(StatusCodeFromName("NoSuchCode", &out));
  EXPECT_EQ(out, StatusCode::kHardwareFault);
  EXPECT_FALSE(StatusCodeFromName("", &out));
  EXPECT_EQ(out, StatusCode::kHardwareFault);
}

TEST(StatusTest, GovernorPredicatesMatchOnlyTheirCode) {
  EXPECT_TRUE(Status::DeadlineExceeded("d").IsDeadlineExceeded());
  EXPECT_TRUE(Status::Cancelled("c").IsCancelled());
  EXPECT_TRUE(Status::ResourceExhausted("r").IsResourceExhausted());
  EXPECT_FALSE(Status::Cancelled("c").IsDeadlineExceeded());
  EXPECT_FALSE(Status::DeadlineExceeded("d").IsResourceExhausted());
  EXPECT_FALSE(Status::ResourceExhausted("r").IsCancelled());
  EXPECT_FALSE(Status::OK().IsCancelled());
}

TEST(StatusTest, UnavailableIsDistinctFromResourceExhausted) {
  // Shed/rejected queries (kUnavailable: try again later, the system is
  // protecting itself) must be distinguishable from per-query budget
  // kills (kResourceExhausted: this query asked for too much).
  Status shed = Status::Unavailable("queue full");
  EXPECT_TRUE(shed.IsUnavailable());
  EXPECT_FALSE(shed.IsResourceExhausted());
  EXPECT_FALSE(Status::ResourceExhausted("budget").IsUnavailable());
  EXPECT_FALSE(Status::OK().IsUnavailable());
}

}  // namespace
}  // namespace ecodb
