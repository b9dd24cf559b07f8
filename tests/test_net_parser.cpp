// Torn-input corpus for the bounded HTTP parser (net/http_parser.hpp).
//
// The parser's contract is that it never reads past [data, data + len) and
// classifies every input as exactly one of {need-more, ok, reject}. The
// corpus below feeds it every prefix of valid requests (torn frames),
// concatenated requests (overlap), a malformed-input table, and seeded
// garbage -- all through an *exact-sized heap allocation*, so one byte of
// over-read is an ASan heap-buffer-overflow, not a silent pass. The
// generator is util::Rng with fixed seeds: the corpus is identical on
// every run (no wall clock, no live RNG in any assertion).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/http_parser.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop;
using net::ParsedRequest;
using net::ParserLimits;
using net::ParseStatus;

/// Run the parser over a copy of `input` sized exactly input.size(): the
/// bytes live at the end of a heap block, so any over-read trips ASan.
ParseStatus parse_exact(const std::string& input, const ParserLimits& limits,
                        ParsedRequest& out) {
  const std::size_t n = input.size();
  std::unique_ptr<char[]> exact(new char[n == 0 ? 1 : n]);
  std::memcpy(exact.get(), input.data(), n);
  return net::parse_request(exact.get(), n, limits, out);
}

ParserLimits small_limits() {
  ParserLimits limits;
  limits.max_header_bytes = 512;
  limits.max_headers = 16;
  limits.max_body = 64;
  return limits;
}

const std::vector<std::string>& valid_requests() {
  static const std::vector<std::string> kRequests = {
      "GET / HTTP/1.1\r\n\r\n",
      "GET /healthz HTTP/1.0\r\nHost: a\r\n\r\n",
      "POST /v1/classify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
      "POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3"
      "\r\n\r\nabc",
      "GET /m HTTP/1.1\r\nConnection: close\r\nAccept: */*\r\n\r\n",
      "DELETE /r HTTP/1.1\r\nX-A: 1\r\nX-B:\ttabbed value\r\n\r\n",
  };
  return kRequests;
}

// Every strict prefix of a valid request is kNeedMore; the full request is
// kOk with consumed == size. No prefix may flip to a reject status --
// that would make the server 400 a slow but honest client.
TEST(NetParser, EveryPrefixOfValidRequestsIsNeedMore) {
  const ParserLimits limits = small_limits();
  for (const std::string& req : valid_requests()) {
    for (std::size_t cut = 0; cut < req.size(); ++cut) {
      ParsedRequest out;
      const ParseStatus st = parse_exact(req.substr(0, cut), limits, out);
      ASSERT_EQ(st, ParseStatus::kNeedMore)
          << "request '" << req.substr(0, 24) << "...' cut at " << cut;
    }
    ParsedRequest out;
    ASSERT_EQ(parse_exact(req, limits, out), ParseStatus::kOk) << req;
    EXPECT_EQ(out.consumed, req.size()) << req;
  }
}

TEST(NetParser, ParsedFieldsAreExact) {
  ParsedRequest out;
  const std::string req =
      "POST /v1/classify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  ASSERT_EQ(parse_exact(req, small_limits(), out), ParseStatus::kOk);
  // Views alias the exact-sized buffer inside parse_exact; compare before
  // it goes away via the returned copies of offsets only. Re-parse over
  // the original string for the view comparisons.
  ASSERT_EQ(net::parse_request(req.data(), req.size(), small_limits(), out),
            ParseStatus::kOk);
  EXPECT_EQ(out.method, "POST");
  EXPECT_EQ(out.target, "/v1/classify");
  EXPECT_EQ(out.version_minor, 1);
  EXPECT_TRUE(out.keep_alive);
  EXPECT_EQ(out.content_length, 5u);
  EXPECT_EQ(out.body, "hello");
  EXPECT_EQ(out.header_end, req.size() - 5);
}

// On kNeedMore with complete headers, the header-derived fields are
// already valid (the server emits "100 Continue" from this state).
TEST(NetParser, NeedMoreForBodyStillExposesHeaders) {
  const std::string headers =
      "POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n";
  ParsedRequest out;
  ASSERT_EQ(parse_exact(headers + "ab", small_limits(), out),
            ParseStatus::kNeedMore);
  EXPECT_EQ(out.header_end, headers.size());
  EXPECT_TRUE(out.expect_continue);
  EXPECT_EQ(out.content_length, 3u);
}

// Two concatenated requests: the first parses with consumed == its own
// size (never stealing the second's bytes), and the remainder parses too.
TEST(NetParser, PipelinedRequestsConsumeExactly) {
  const ParserLimits limits = small_limits();
  const auto& reqs = valid_requests();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    for (std::size_t j = 0; j < reqs.size(); ++j) {
      ParsedRequest out;
      const std::string wire = reqs[i] + reqs[j];
      ASSERT_EQ(parse_exact(wire, limits, out), ParseStatus::kOk)
          << i << "+" << j;
      ASSERT_EQ(out.consumed, reqs[i].size()) << i << "+" << j;
      ParsedRequest second;
      ASSERT_EQ(parse_exact(wire.substr(out.consumed), limits, second),
                ParseStatus::kOk)
          << i << "+" << j;
      EXPECT_EQ(second.consumed, reqs[j].size());
    }
  }
}

struct MalformedCase {
  const char* wire;
  ParseStatus expect;
};

TEST(NetParser, MalformedTable) {
  const MalformedCase kCases[] = {
      {"GET  / HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},  // double SP
      {" GET / HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},
      {"GET / HTTP/1.1 extra\r\n\r\n", ParseStatus::kBadRequest},
      {"GET /\r\n\r\n", ParseStatus::kBadRequest},            // no version
      {"GET / HTTP/2.0\r\n\r\n", ParseStatus::kBadRequest},
      {"GET / http/1.1\r\n\r\n", ParseStatus::kBadRequest},   // lowercase
      {"G\x01T / HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},
      {"GET relative HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},
      {"\r\nGET / HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},
      {"\nGET / HTTP/1.1\r\n\r\n", ParseStatus::kBadRequest},  // bare LF
      {"GET / HTTP/1.1\r\nName with space: v\r\n\r\n",
       ParseStatus::kBadRequest},
      {"GET / HTTP/1.1\r\n: novalue\r\n\r\n", ParseStatus::kBadRequest},
      {"GET / HTTP/1.1\r\nnocolon\r\n\r\n", ParseStatus::kBadRequest},
      {"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
       ParseStatus::kBadRequest},
      {"POST / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",
       ParseStatus::kBadRequest},
      {"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n",
       ParseStatus::kBadRequest},
      // Conflicting duplicates are request smuggling bait.
      {"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
       ParseStatus::kBadRequest},
      {"POST / HTTP/1.1\r\nExpect: tomorrow\r\n\r\n",
       ParseStatus::kBadRequest},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       ParseStatus::kUnsupported},
      // Over max_body (64 in small_limits) -> kBodyTooLarge, including a
      // value that would overflow a naive accumulator.
      {"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n",
       ParseStatus::kBodyTooLarge},
      {"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
       ParseStatus::kBodyTooLarge},
  };
  const ParserLimits limits = small_limits();
  for (const MalformedCase& c : kCases) {
    ParsedRequest out;
    EXPECT_EQ(parse_exact(c.wire, limits, out), c.expect) << c.wire;
  }
}

// Identical duplicate Content-Length values are tolerated (RFC 7230 3.3.2).
TEST(NetParser, IdenticalDuplicateContentLengthIsAccepted) {
  ParsedRequest out;
  const std::string req =
      "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
  EXPECT_EQ(parse_exact(req, small_limits(), out), ParseStatus::kOk);
  EXPECT_EQ(out.body, "ok");
}

TEST(NetParser, HeaderLimitsAreEnforced) {
  const ParserLimits limits = small_limits();  // 512 bytes, 16 fields
  ParsedRequest out;

  std::string long_line = "GET /";
  long_line.append(600, 'a');  // request line alone exceeds the cap
  EXPECT_EQ(parse_exact(long_line, limits, out),
            ParseStatus::kHeadersTooLarge);

  std::string many = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 20; ++i)
    many.append("H").append(std::to_string(i)).append(": v\r\n");
  many += "\r\n";
  EXPECT_EQ(parse_exact(many, limits, out), ParseStatus::kHeadersTooLarge);
}

// Seeded garbage: the parser must classify without crashing or over-
// reading, and whenever it claims kOk, consumed must be in bounds.
TEST(NetParser, SeededGarbageNeverOverReads) {
  const ParserLimits limits = small_limits();
  util::Rng rng(0xc0ffee);
  for (int round = 0; round < 500; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 96));
    std::string junk(n, '\0');
    for (auto& b : junk) b = static_cast<char>(rng.uniform_int(0, 255));
    ParsedRequest out;
    const ParseStatus st = parse_exact(junk, limits, out);
    if (st == ParseStatus::kOk) {
      EXPECT_LE(out.consumed, junk.size());
    }
  }
}

// Seeded *torn valid* frames: a valid request with random garbage spliced
// at a random offset must never parse as kOk past the splice point.
TEST(NetParser, SeededSplicedFramesStayBounded) {
  const ParserLimits limits = small_limits();
  util::Rng rng(0xbadf00d);
  const auto& reqs = valid_requests();
  for (int round = 0; round < 500; ++round) {
    const std::string& base =
        reqs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(reqs.size()) - 1))];
    const std::size_t cut =
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(base.size())));
    std::string junk(static_cast<std::size_t>(rng.uniform_int(0, 32)), '\0');
    for (auto& b : junk) b = static_cast<char>(rng.uniform_int(0, 255));
    ParsedRequest out;
    parse_exact(base.substr(0, cut) + junk, limits, out);  // must not crash
  }
}

}  // namespace
