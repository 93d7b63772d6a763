// HTTP framing and loopback transport: parse/render round trips, malformed
// and boundary framing, chunked-transfer decoding at arbitrary recv
// boundaries, live server+client exchanges, and streamed responses. The
// control plane's wire layer is deliberately small (HTTP/1.1,
// Content-Length for one-shot exchanges, chunked for live streams,
// Connection: close), so the tests pin exactly that contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "net/fault.hpp"
#include "net/http.hpp"

namespace {

using namespace aimes;

TEST(HttpParse, RequestRoundTrip) {
  net::HttpRequest req;
  req.method = "POST";
  req.target = "/api/v1/runs?user=ana";
  req.body = "{\"tasks\": 16}";
  const std::string wire = net::render_http_request(req, "127.0.0.1");

  auto parsed = net::parse_http_request(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->target, "/api/v1/runs?user=ana");
  EXPECT_EQ(parsed->path, "/api/v1/runs");
  EXPECT_EQ(parsed->query, "user=ana");
  EXPECT_EQ(parsed->query_param("user"), "ana");
  EXPECT_EQ(parsed->body, "{\"tasks\": 16}");
}

TEST(HttpParse, ResponseRoundTrip) {
  net::HttpResponse res;
  res.status = 202;
  res.content_type = "application/json";
  res.body = "{\"id\": 7}\n";
  auto parsed = net::parse_http_response(net::render_http_response(res));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->status, 202);
  EXPECT_EQ(parsed->body, "{\"id\": 7}\n");
}

TEST(HttpParse, LowercasesHeaderNamesAndTrimsValues) {
  auto parsed = net::parse_http_request(
      "GET /x HTTP/1.1\r\nCoNtEnT-TyPe:   text/plain  \r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->header("content-type"), "text/plain");
}

TEST(HttpParse, EmptyBodyWhenNoContentLength) {
  auto parsed = net::parse_http_request("GET /api/v1/health HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_TRUE(parsed->body.empty());
}

TEST(HttpParse, RejectsMalformedStartLine) {
  EXPECT_FALSE(net::parse_http_request("this is not http\r\n\r\n").ok());
  EXPECT_FALSE(net::parse_http_request("").ok());
}

TEST(HttpParse, RejectsTruncatedBody) {
  // Content-Length promises more bytes than the message carries.
  auto parsed = net::parse_http_request(
      "POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort");
  EXPECT_FALSE(parsed.ok());
}

TEST(HttpParse, QueryParamMissingIsEmpty) {
  auto parsed = net::parse_http_request("GET /runs?a=1&b=2 HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->query_param("a"), "1");
  EXPECT_EQ(parsed->query_param("b"), "2");
  EXPECT_EQ(parsed->query_param("missing"), "");
}

TEST(HttpServer, ServesEphemeralPortAndEchoes) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest& req) {
    net::HttpResponse res;
    res.body = req.method + " " + req.path + ": " + req.body;
    return res;
  });
  ASSERT_TRUE(port.ok()) << port.error();
  ASSERT_GT(*port, 0);

  net::HttpRequest req;
  req.method = "POST";
  req.target = "/echo";
  req.body = "hello";
  auto res = net::http_call(*port, req);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->status, 200);
  EXPECT_EQ(res->body, "POST /echo: hello");
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, MalformedRequestGets400TypedBody) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(port.ok()) << port.error();
  // Raw socket garbage through the client's own transport would never
  // produce malformed framing, so drive the response path via a request the
  // parser rejects: http_call renders valid framing, so instead assert the
  // server survives an immediate client disconnect and keeps serving.
  net::HttpRequest req;
  req.method = "GET";
  req.target = "/ok";
  auto res = net::http_call(*port, req);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->status, 200);
  server.stop();
}

TEST(HttpServer, MalformedRequestLineWithAQuoteGets400WhoseBodyParses) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(port.ok()) << port.error();
  // A space in the target splits the request line into four words, so the
  // parser rejects it and quotes the line, quote included, in the error.
  net::HttpRequest req;
  req.method = "GET";
  req.target = "/a \"b";
  auto res = net::http_call(*port, req);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->status, 400) << res->body;
  auto body = common::json::Node::parse("response", res->body);
  ASSERT_TRUE(body.ok()) << body.error() << "\n" << res->body;
  const auto error = body->get("error").text();
  ASSERT_TRUE(error.ok()) << error.error();
  EXPECT_NE(error->find("'GET /a \"b HTTP/1.1'"), std::string::npos) << *error;
  server.stop();
}

TEST(HttpServer, SequentialCallsFromMultipleThreads) {
  std::atomic<int> served{0};
  net::HttpServer server;
  auto port = server.start(0, [&](const net::HttpRequest&) {
    served.fetch_add(1);
    net::HttpResponse res;
    res.body = "ok";
    return res;
  });
  ASSERT_TRUE(port.ok()) << port.error();

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 5;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        net::HttpRequest req;
        req.method = "GET";
        req.target = "/ping";
        auto res = net::http_call(*port, req);
        if (res.ok() && res->status == 200 && res->body == "ok") ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kCallsPerThread);
  EXPECT_EQ(served.load(), kThreads * kCallsPerThread);
  server.stop();
}

TEST(ChunkDecoder, DecodesMultiChunkStreamThroughRenderRoundTrip) {
  std::string wire = net::render_chunk("hello ") + net::render_chunk("world") +
                     net::render_chunk("");  // zero-length data = terminator
  net::ChunkDecoder decoder;
  std::string out;
  ASSERT_TRUE(decoder.feed(wire, out).ok());
  EXPECT_EQ(out, "hello world");
  EXPECT_TRUE(decoder.done());
}

TEST(ChunkDecoder, DecodesAcrossArbitraryRecvBoundaries) {
  // TCP owes the decoder nothing about boundaries: feed the same stream one
  // byte at a time and the decoded payload must be identical.
  const std::string wire =
      net::render_chunk("ab") + net::render_chunk("cdefg") + net::render_chunk("");
  net::ChunkDecoder decoder;
  std::string out;
  for (const char c : wire) {
    ASSERT_TRUE(decoder.feed(std::string_view(&c, 1), out).ok());
  }
  EXPECT_EQ(out, "abcdefg");
  EXPECT_TRUE(decoder.done());
}

TEST(ChunkDecoder, ZeroLengthChunkTerminatesAndTrailingBytesAreAnError) {
  net::ChunkDecoder decoder;
  std::string out;
  ASSERT_TRUE(decoder.feed("3\r\nabc\r\n0\r\n\r\n", out).ok());
  EXPECT_EQ(out, "abc");
  EXPECT_TRUE(decoder.done());
  // The control plane closes after one stream; more bytes mean a framing bug.
  EXPECT_FALSE(decoder.feed("3\r\nxyz\r\n", out).ok());
}

TEST(ChunkDecoder, RejectsChunkLargerThanMessageCap) {
  net::ChunkDecoder decoder;
  std::string out;
  // 0x200000 = 2 MiB, over the 1 MiB message cap: rejected at the size line,
  // before any payload is buffered.
  auto st = decoder.feed("200000\r\n", out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.error().find("chunk"), std::string::npos);
}

TEST(ChunkDecoder, RejectsGarbageSizeLine) {
  net::ChunkDecoder decoder;
  std::string out;
  EXPECT_FALSE(decoder.feed("not-hex\r\n", out).ok());
}

TEST(ChunkDecoder, HandlesChunkExtensionsAndTrailers) {
  net::ChunkDecoder decoder;
  std::string out;
  // Size lines may carry ";ext" extensions and the terminator may be
  // followed by trailer headers; both are consumed and ignored.
  ASSERT_TRUE(
      decoder.feed("4;ext=1\r\nwxyz\r\n0\r\nX-Trailer: v\r\n\r\n", out).ok());
  EXPECT_EQ(out, "wxyz");
  EXPECT_TRUE(decoder.done());
}

TEST(HttpStream, DeliversChunkedBodyIncrementally) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) {
    net::HttpResponse res;
    res.content_type = "text/plain";
    res.body = "first|";
    auto count = std::make_shared<int>(0);
    res.stream = [count](std::string& out) {
      if (*count >= 3) return false;
      // Pace the pulls so each piece lands in its own recv on the client —
      // otherwise loopback coalesces the whole stream into one delivery and
      // the incrementality assertion below measures nothing.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      out += "piece" + std::to_string(++*count) + "|";
      return true;
    };
    return res;
  });
  ASSERT_TRUE(port.ok()) << port.error();

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/stream";
  std::string collected;
  int deliveries = 0;
  auto res = net::http_stream(*port, req, [&](std::string_view piece) {
    collected.append(piece);
    if (!piece.empty()) ++deliveries;
    return true;
  });
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->status, 200);
  EXPECT_TRUE(res->body.empty());  // chunked: everything went through on_data
  EXPECT_EQ(collected, "first|piece1|piece2|piece3|");
  EXPECT_GE(deliveries, 2);  // incremental, not one buffered blob
  server.stop();
}

TEST(HttpStream, NonChunkedResponseComesBackWholeWithoutSink) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) {
    net::HttpResponse res;
    res.status = 404;
    res.body = "{\"error\": \"nope\"}\n";
    return res;
  });
  ASSERT_TRUE(port.ok()) << port.error();

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/missing";
  bool sink_touched = false;
  auto res = net::http_stream(*port, req, [&](std::string_view) {
    sink_touched = true;
    return true;
  });
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->status, 404);
  EXPECT_EQ(res->body, "{\"error\": \"nope\"}\n");
  EXPECT_FALSE(sink_touched);
  server.stop();
}

TEST(HttpStream, ServerStopEndsLiveStreamCleanly) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) {
    net::HttpResponse res;
    res.stream = [](std::string& out) {
      // An endless "nothing yet" stream: only stop() can end it.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      out += "";
      return true;
    };
    return res;
  });
  ASSERT_TRUE(port.ok()) << port.error();

  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.stop();
  });
  net::HttpRequest req;
  req.method = "GET";
  req.target = "/forever";
  const auto begin = std::chrono::steady_clock::now();
  auto res = net::http_stream(*port, req, [](std::string_view) { return true; },
                              /*idle_timeout_ms=*/5000);
  stopper.join();
  // stop() sends the chunked terminator even mid-stream, so the client sees
  // a clean end — promptly, not after riding out the idle timeout.
  EXPECT_TRUE(res.ok()) << res.error();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(4));
}

TEST(HttpStream, SinkCanCancelEarly) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) {
    net::HttpResponse res;
    res.body = "head";
    auto n = std::make_shared<int>(0);
    res.stream = [n](std::string& out) {
      // Paced so deliveries stay distinct on loopback (see above).
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      out += "x";
      return ++*n < 100;
    };
    return res;
  });
  ASSERT_TRUE(port.ok()) << port.error();

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/s";
  int seen = 0;
  auto res = net::http_stream(*port, req, [&](std::string_view) {
    return ++seen < 2;  // hang up after two deliveries
  });
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_GE(seen, 2);
  server.stop();
}

TEST(FaultSpec, ParsesFullSpecAndRoundTripsThroughToString) {
  auto spec = net::parse_fault_spec(
      "seed=7,short-read=0.25,short-write=0.5,read-stall=0.05,reset=0.1,"
      "accept-reset=0.02,stall-ms=20");
  ASSERT_TRUE(spec.ok()) << spec.error();
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->short_read, 0.25);
  EXPECT_DOUBLE_EQ(spec->short_write, 0.5);
  EXPECT_DOUBLE_EQ(spec->read_stall, 0.05);
  EXPECT_DOUBLE_EQ(spec->reset, 0.1);
  EXPECT_DOUBLE_EQ(spec->accept_reset, 0.02);
  EXPECT_EQ(spec->stall_ms, 20);
  EXPECT_TRUE(spec->any());
  auto again = net::parse_fault_spec(net::to_string(*spec));
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_DOUBLE_EQ(again->reset, spec->reset);
  EXPECT_EQ(again->stall_ms, spec->stall_ms);
}

TEST(FaultSpec, MistypedChaosKnobsAreTypedErrors) {
  EXPECT_FALSE(net::parse_fault_spec("rset=0.1").ok());        // unknown key
  EXPECT_FALSE(net::parse_fault_spec("reset").ok());           // no '='
  EXPECT_FALSE(net::parse_fault_spec("reset=1.5").ok());       // p > 1
  EXPECT_FALSE(net::parse_fault_spec("reset=-0.1").ok());      // p < 0
  EXPECT_FALSE(net::parse_fault_spec("reset=lots").ok());      // not a number
  EXPECT_FALSE(net::parse_fault_spec("seed=banana").ok());     // bad seed
  EXPECT_FALSE(net::parse_fault_spec("stall-ms=0").ok());      // under the floor
  EXPECT_FALSE(net::parse_fault_spec("stall-ms=60000").ok());  // over the IO timeouts
  // The error names the knob so a mistyped chaos run fails loudly.
  auto bad = net::parse_fault_spec("short-read=2");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("short-read"), std::string::npos) << bad.error();
}

TEST(FaultShim, DecisionsAreAPureFunctionOfSeedAndOpIndex) {
  net::FaultSpec spec;
  spec.seed = 1234;
  spec.reset = 0.3;
  spec.short_read = 0.5;
  spec.read_stall = 0.2;
  spec.stall_ms = 1;

  auto draw_sequence = [&] {
    std::vector<net::FaultDecision> out;
    net::install_net_faults(spec);
    for (int i = 0; i < 64; ++i) out.push_back(net::next_net_fault(net::FaultPoint::kRead));
    EXPECT_EQ(net::net_fault_ops(), 64u);
    net::clear_net_faults();
    return out;
  };
  const auto first = draw_sequence();
  const auto second = draw_sequence();
  ASSERT_EQ(first.size(), second.size());
  int resets = 0;
  int shorts = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].reset, second[i].reset) << "op " << i;
    EXPECT_EQ(first[i].short_op, second[i].short_op) << "op " << i;
    EXPECT_EQ(first[i].stall_ms, second[i].stall_ms) << "op " << i;
    resets += first[i].reset ? 1 : 0;
    shorts += first[i].short_op ? 1 : 0;
  }
  // The armed probabilities actually fire (loosely — 64 draws at p >= 0.3).
  EXPECT_GT(resets, 0);
  EXPECT_GT(shorts, 0);

  // A different seed draws a different sequence.
  spec.seed = 4321;
  net::install_net_faults(spec);
  bool differs = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto d = net::next_net_fault(net::FaultPoint::kRead);
    if (d.reset != first[i].reset || d.short_op != first[i].short_op) differs = true;
  }
  net::clear_net_faults();
  EXPECT_TRUE(differs);
  EXPECT_FALSE(net::net_faults_active());
}

TEST(FaultShim, ByteTearingEveryReadAndWriteStillRoundTrips) {
  // short-read/short-write at 1.0 clamp *every* socket op to one byte: the
  // server's request parser and the client's response parser see every
  // possible framing split. No resets, so the exchange must still succeed.
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest& req) {
    net::HttpResponse res;
    res.body = "echo:" + req.body;
    return res;
  });
  ASSERT_TRUE(port.ok()) << port.error();

  net::FaultSpec spec;
  spec.short_read = 1.0;
  spec.short_write = 1.0;
  net::install_net_faults(spec);
  net::HttpRequest req;
  req.method = "POST";
  req.target = "/echo";
  req.body = "torn-frame payload";
  auto res = net::http_call(*port, req);
  net::clear_net_faults();
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->status, 200);
  EXPECT_EQ(res->body, "echo:torn-frame payload");
  server.stop();
}

TEST(FaultShim, AcceptResetFailsTheCallTypedNotHanging) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(port.ok()) << port.error();

  net::FaultSpec spec;
  spec.accept_reset = 1.0;  // every accepted connection is reset before a byte
  net::install_net_faults(spec);
  net::HttpRequest req;
  req.method = "GET";
  req.target = "/";
  const auto start = std::chrono::steady_clock::now();
  auto res = net::http_call(*port, req);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  net::clear_net_faults();
  EXPECT_FALSE(res.ok());  // typed transport error, never a hang
  EXPECT_FALSE(res.error().empty());
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  server.stop();
}

TEST(HttpServer, ServesOnUnixDomainSocketAndClearsStaleFile) {
  const std::string path = testing::TempDir() + "aimes_http_test.sock";
  {  // a stale socket file from a "crashed" daemon must not block startup
    std::ofstream stale(path);
    stale << "stale";
  }
  net::HttpServer server;
  auto status = server.start_unix(path, [](const net::HttpRequest& req) {
    net::HttpResponse res;
    res.body = "unix:" + req.path;
    return res;
  });
  ASSERT_TRUE(status.ok()) << status.error();
  EXPECT_TRUE(server.endpoint().is_unix());
  EXPECT_EQ(server.endpoint().describe(), "unix:" + path);

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/api/v1/health";
  auto res = net::http_call(net::Endpoint::unix_path(path), req);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->body, "unix:/api/v1/health");
  server.stop();

  // stop() unlinks the socket file; a follow-up call fails typed.
  auto after = net::http_call(net::Endpoint::unix_path(path), req);
  EXPECT_FALSE(after.ok());
}

TEST(HttpServer, UnixSocketPathOverSockaddrLimitIsATypedError) {
  std::string path = testing::TempDir();
  path.append(200, 'x');  // sockaddr_un caps at ~107 bytes
  net::HttpServer server;
  auto status = server.start_unix(path, [](const net::HttpRequest&) {
    return net::HttpResponse{};
  });
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(server.running());
}

TEST(HttpClient, ConnectFailuresAreTypedAndBoundedNotBlocking) {
  // A loopback port with no listener refuses immediately; the poll-based
  // connect turns that into a typed error well under the timeout instead of
  // blocking in ::connect().
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(port.ok()) << port.error();
  server.stop();  // the port is now closed

  net::HttpRequest req;
  req.method = "GET";
  req.target = "/";
  const auto start = std::chrono::steady_clock::now();
  auto res = net::http_call(net::Endpoint::tcp(*port), req, 500);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(res.ok());
  EXPECT_FALSE(res.error().empty());
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // Same for a unix path that does not exist.
  auto unix_res =
      net::http_call(net::Endpoint::unix_path(testing::TempDir() + "no-such.sock"), req, 500);
  EXPECT_FALSE(unix_res.ok());
}

TEST(HttpServer, OversizedRequestGets413AtTheMessageCap) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(port.ok()) << port.error();

  // A header block alone past the 1 MiB cap: the server refuses with 413
  // instead of buffering it.
  net::HttpRequest req;
  req.method = "GET";
  req.target = "/";
  req.headers["x-bloat"] = std::string((1 << 20) + 4096, 'a');
  auto res = net::http_call(*port, req);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_EQ(res->status, 413) << res->body;

  // An oversized Content-Length body is refused the same way.
  net::HttpRequest big;
  big.method = "POST";
  big.target = "/";
  big.body = std::string((1 << 20) + 4096, 'b');
  auto res2 = net::http_call(*port, big);
  ASSERT_TRUE(res2.ok()) << res2.error();
  EXPECT_EQ(res2->status, 413) << res2->body;
  server.stop();
}

TEST(Sse, ParsesFramesAndLeavesTornTailInCarry) {
  std::string carry =
      "id: 3\nevent: progress\ndata: {\"trials_done\": 1}\n\n"
      ": keepalive\n\n"
      "id: 4\nevent: state\ndata: {\"state\": \"done\"}\n\n"
      "id: 5\nev";  // torn mid-line by a dropped connection
  auto events = net::drain_sse_frames(carry);
  ASSERT_EQ(events.size(), 2u);  // the keepalive comment frame is dropped
  EXPECT_TRUE(events[0].has_id);
  EXPECT_EQ(events[0].id, 3u);
  EXPECT_EQ(events[0].kind, "progress");
  EXPECT_EQ(events[0].data, "{\"trials_done\": 1}");
  EXPECT_EQ(events[1].id, 4u);
  EXPECT_EQ(events[1].kind, "state");
  // The truncated frame stays buffered for the next feed — this is how a
  // watcher resumes from the last *complete* seq after a torn stream.
  EXPECT_EQ(carry, "id: 5\nev");

  // The tail completes once the missing bytes arrive.
  carry += "ent: state\ndata: {\"state\": \"failed\"}\n\n";
  auto rest = net::drain_sse_frames(carry);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, 5u);
  EXPECT_EQ(rest[0].data, "{\"state\": \"failed\"}");
  EXPECT_TRUE(carry.empty());
}

TEST(Sse, TruncationMidIdLineNeverYieldsAPartialEvent) {
  // Feed an id:-stamped frame byte by byte: no event may surface until the
  // full "\n\n" terminator arrives, and the final event is exact.
  const std::string frame = "id: 12\nevent: progress\ndata: {\"x\": 1}\n\n";
  std::string carry;
  std::vector<net::SseEvent> events;
  for (char c : frame) {
    carry.push_back(c);
    auto drained = net::drain_sse_frames(carry);
    events.insert(events.end(), drained.begin(), drained.end());
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].has_id);
  EXPECT_EQ(events[0].id, 12u);
  EXPECT_EQ(events[0].kind, "progress");
  EXPECT_EQ(events[0].data, "{\"x\": 1}");
}

TEST(Backoff, DeterministicSeededGrowthWithCap) {
  net::Backoff a(100, 2000, 42);
  net::Backoff b(100, 2000, 42);
  std::vector<int> delays;
  for (int i = 0; i < 8; ++i) {
    const int d = a.next_ms();
    EXPECT_EQ(d, b.next_ms()) << "attempt " << i;  // same seed, same cadence
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 2000);  // capped (jitter included)
    delays.push_back(d);
  }
  // Exponential shape: later attempts dominate early ones until the cap.
  EXPECT_GT(delays[3], delays[0]);
  EXPECT_EQ(a.attempts(), 8);

  // reset() drops back to the base tier after a success.
  a.reset();
  EXPECT_EQ(a.attempts(), 0);
  EXPECT_LE(a.next_ms(), 150);  // base 100 + <= 50% jitter

  // A different seed jitters differently somewhere in the window.
  net::Backoff c(100, 2000, 43);
  bool differs = false;
  for (int i = 0; i < 8; ++i) {
    if (c.next_ms() != delays[static_cast<std::size_t>(i)]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(HttpServer, StopIsIdempotentAndRestartable) {
  net::HttpServer server;
  auto port = server.start(0, [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(port.ok()) << port.error();
  server.stop();
  server.stop();  // second stop is a no-op
  auto port2 = server.start(0, [](const net::HttpRequest&) { return net::HttpResponse{}; });
  ASSERT_TRUE(port2.ok()) << port2.error();
  server.stop();
}

}  // namespace
