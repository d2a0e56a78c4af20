// The serve subsystem: the incremental HTTP parser, the QueryEngine
// (distances under fault sets, LRU cache, worker fan-out), the poll()
// daemon over real loopback sockets, and the in-process load test.
//
// The exactness tests pin the served answers to ground truth two ways:
// against an independently materialized filtered subgraph run through the
// free-function dijkstra, and bit-identical against StretchOracle::evaluate
// (the engine the validators trust).
#include "serve/query.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "ftspanner/conversion.hpp"
#include "pipeline/burst_pipeline.hpp"
#include "serve/epoch.hpp"
#include "serve/http.hpp"
#include "serve/loadtest.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "support/reference_sp.hpp"
#include "util/rng.hpp"
#include "validate/stretch_oracle.hpp"

namespace ftspan {
namespace {

using serve::HttpParseStatus;
using serve::HttpRequest;
using serve::ServeAnswer;
using serve::ServeQuery;

// --- HTTP parser ---------------------------------------------------------

constexpr std::size_t kLimit = 16384;

HttpParseStatus parse(std::string_view buf, HttpRequest& out,
                      std::size_t& consumed, std::size_t limit = kLimit) {
  return serve::parse_http_request(buf, limit, out, consumed);
}

TEST(HttpParser, AcceptsACompleteGetAndReportsConsumed) {
  HttpRequest req;
  std::size_t consumed = 0;
  const std::string raw = "GET /distance?s=3&t=9 HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(parse(raw, req, consumed), HttpParseStatus::kOk);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/distance");
  EXPECT_EQ(req.param("s"), "3");
  EXPECT_EQ(req.param("t"), "9");
  EXPECT_EQ(req.param("absent", "dflt"), "dflt");
  EXPECT_TRUE(req.has_param("s"));
  EXPECT_FALSE(req.has_param("absent"));
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpParser, IncrementalFeedNeedsMoreUntilTheLastByte) {
  const std::string raw =
      "GET /stretch?s=0&t=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
  HttpRequest req;
  std::size_t consumed = 0;
  for (std::size_t len = 0; len < raw.size(); ++len)
    ASSERT_EQ(parse(raw.substr(0, len), req, consumed),
              HttpParseStatus::kNeedMore)
        << "prefix length " << len;
  ASSERT_EQ(parse(raw, req, consumed), HttpParseStatus::kOk);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(req.body, "ok");
}

TEST(HttpParser, PipelinedRequestsLeaveBytesForTheNextCall) {
  const std::string first = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string second = "GET /stats HTTP/1.1\r\n\r\n";
  const std::string both = first + second;
  HttpRequest req;
  std::size_t consumed = 0;
  ASSERT_EQ(parse(both, req, consumed), HttpParseStatus::kOk);
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(req.path, "/healthz");
  ASSERT_EQ(parse(std::string_view(both).substr(consumed), req, consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(consumed, second.size());
  EXPECT_EQ(req.path, "/stats");
}

TEST(HttpParser, RejectsMalformedRequests) {
  const char* bad[] = {
      "GARBAGE\r\n\r\n",                        // no spaces at all
      "get / HTTP/1.1\r\n\r\n",                 // lowercase method
      "GET distance HTTP/1.1\r\n\r\n",          // target missing leading '/'
      "GET / HTTP/2.0\r\n\r\n",                 // unsupported version
      "GET /  HTTP/1.1\r\n\r\n",                // empty target
      "GET / HTTP/1.1\r\nno-colon-line\r\n\r\n",
      "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
      "GET / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n",
      "GET / HTTP/1.1\r\nContent-Length:\r\n\r\n",
      "GET /p%zz HTTP/1.1\r\n\r\n",             // bad escape in path
      "GET /p?a=%2 HTTP/1.1\r\n\r\n",           // truncated escape in query
  };
  HttpRequest req;
  std::size_t consumed = 0;
  for (const char* raw : bad)
    EXPECT_EQ(parse(raw, req, consumed), HttpParseStatus::kBad) << raw;
}

TEST(HttpParser, EnforcesSizeLimitsDuringParsing) {
  HttpRequest req;
  std::size_t consumed = 0;
  // An unterminated header block beyond the limit is rejected while still
  // incomplete — the server never buffers past max_bytes + one read.
  const std::string flood = "GET / HTTP/1.1\r\nX: " + std::string(100, 'a');
  EXPECT_EQ(parse(flood, req, consumed, /*limit=*/64),
            HttpParseStatus::kTooLarge);
  // A complete header block over the limit.
  const std::string big_head =
      "GET / HTTP/1.1\r\nX: " + std::string(100, 'a') + "\r\n\r\n";
  EXPECT_EQ(parse(big_head, req, consumed, 64), HttpParseStatus::kTooLarge);
  // A declared body over the limit is rejected from the header alone, even
  // though no body byte has arrived (and the digit loop cannot overflow on
  // an absurd declared length).
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", req,
                  consumed, 64),
            HttpParseStatus::kTooLarge);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\nContent-Length: 99999999999999999999"
                  "9999999999\r\n\r\n",
                  req, consumed, 64),
            HttpParseStatus::kTooLarge);
}

TEST(HttpParser, DecodesPathAndParams) {
  HttpRequest req;
  std::size_t consumed = 0;
  ASSERT_EQ(parse("GET /a%2Fb?msg=hi+there%21&flag HTTP/1.1\r\n\r\n", req,
                  consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(req.path, "/a/b");
  EXPECT_EQ(req.param("msg"), "hi there!");
  EXPECT_TRUE(req.has_param("flag"));  // no '=': key only, empty value
  EXPECT_EQ(req.param("flag"), "");
}

TEST(HttpParser, NegotiatesKeepAlive) {
  HttpRequest req;
  std::size_t consumed = 0;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\n\r\n", req, consumed),
            HttpParseStatus::kOk);
  EXPECT_TRUE(req.keep_alive);
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", req,
                  consumed),
            HttpParseStatus::kOk);
  EXPECT_FALSE(req.keep_alive);
  ASSERT_EQ(parse("GET / HTTP/1.0\r\n\r\n", req, consumed),
            HttpParseStatus::kOk);
  EXPECT_FALSE(req.keep_alive);  // 1.0 defaults to close
  ASSERT_EQ(parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", req,
                  consumed),
            HttpParseStatus::kOk);
  EXPECT_TRUE(req.keep_alive);
}

TEST(PercentDecode, HandlesEscapesAndRejectsMalformed) {
  std::string out;
  EXPECT_TRUE(serve::percent_decode("a%20b%2Bc+d", out));
  EXPECT_EQ(out, "a b+c d");
  EXPECT_TRUE(serve::percent_decode("%41", out));
  EXPECT_EQ(out, "A");
  EXPECT_FALSE(serve::percent_decode("%", out));
  EXPECT_FALSE(serve::percent_decode("%4", out));
  EXPECT_FALSE(serve::percent_decode("%4g", out));
  EXPECT_FALSE(serve::percent_decode("ok%", out));
}

TEST(HttpResponse, SerializesHeadersAndBody) {
  const std::string r =
      serve::http_response(200, "application/json", "{\"x\": 1}", true);
  EXPECT_EQ(r.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(r.find("Content-Type: application/json\r\n"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 8\r\n"), std::string::npos);
  EXPECT_NE(r.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(r.substr(r.size() - 8), "{\"x\": 1}");
  const std::string e = serve::http_response(413, "text/plain", "", false);
  EXPECT_EQ(e.find("HTTP/1.1 413 Content Too Large\r\n"), 0u);
  EXPECT_NE(e.find("Connection: close\r\n"), std::string::npos);
}

// --- ServeQuery ----------------------------------------------------------

TEST(ServeQuery, CanonicalizeSortsDedupsAndOrientsEdges) {
  ServeQuery q;
  q.avoid_vertices = {9, 2, 9, 5, 2};
  q.avoid_edges = {{7, 3}, {1, 4}, {3, 7}, {4, 1}};
  q.canonicalize();
  EXPECT_EQ(q.avoid_vertices, (std::vector<Vertex>{2, 5, 9}));
  EXPECT_EQ(q.avoid_edges,
            (std::vector<std::pair<Vertex, Vertex>>{{1, 4}, {3, 7}}));
}

TEST(ServeQuery, CacheKeySeparatesDistinctQueries) {
  auto key = [](Vertex s, Vertex t, bool base, std::vector<Vertex> av,
                std::vector<std::pair<Vertex, Vertex>> ae) {
    ServeQuery q;
    q.s = s;
    q.t = t;
    q.want_base = base;
    q.avoid_vertices = std::move(av);
    q.avoid_edges = std::move(ae);
    q.canonicalize();
    return q.cache_key();
  };
  const std::uint64_t base = key(1, 2, false, {}, {});
  EXPECT_NE(base, key(2, 1, false, {}, {}));       // direction matters
  EXPECT_NE(base, key(1, 2, true, {}, {}));        // stretch != distance
  EXPECT_NE(base, key(1, 2, false, {3}, {}));      // fault set matters
  EXPECT_NE(key(1, 2, false, {3}, {}),             // vertex 3 != edge {3, x}
            key(1, 2, false, {}, {{3, 4}}));
  // Canonically equal queries agree regardless of input order.
  EXPECT_EQ(key(1, 2, false, {5, 3, 5}, {{9, 6}}),
            key(1, 2, false, {3, 5}, {{6, 9}}));
}

// --- QueryEngine ---------------------------------------------------------

std::vector<EdgeId> all_edges(const Graph& g) {
  std::vector<EdgeId> ids(g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id) ids[id] = id;
  return ids;
}

/// Independent reference: materialize G minus the fault set (drop edges
/// incident to avoided vertices and the avoided edges themselves) and run
/// the free-function dijkstra on the copy.
Graph minus_faults(const Graph& g, const std::vector<Vertex>& av,
                   const std::vector<std::pair<Vertex, Vertex>>& ae) {
  std::vector<char> dead_vertex(g.num_vertices(), 0);
  for (const Vertex v : av) dead_vertex[v] = 1;
  Graph out(g.num_vertices());
  for (const Edge& e : g.edges()) {
    if (dead_vertex[e.u] || dead_vertex[e.v]) continue;
    const auto lo = std::min(e.u, e.v);
    const auto hi = std::max(e.u, e.v);
    if (std::find(ae.begin(), ae.end(), std::make_pair(lo, hi)) != ae.end())
      continue;
    out.add_edge(e.u, e.v, e.w);
  }
  return out;
}

TEST(QueryEngine, MatchesMaterializedSubgraphDijkstra) {
  const Graph g = gnp_connected(28, 0.2, 3, 4.0);
  // Thin the graph so the spanner genuinely differs from the base.
  std::vector<EdgeId> kept;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (id % 4 != 0) kept.push_back(id);
  const Graph h = g.edge_subgraph(kept);
  serve::QueryEngine engine(g, kept, 3.0);

  Rng rng(17);
  const Vertex n = static_cast<Vertex>(g.num_vertices());
  for (int trial = 0; trial < 40; ++trial) {
    ServeQuery q;
    q.s = static_cast<Vertex>(rng.uniform_index(n));
    q.t = static_cast<Vertex>(rng.uniform_index(n));
    q.want_base = true;
    for (std::size_t i = rng.uniform_index(3); i-- > 0;)
      q.avoid_vertices.push_back(static_cast<Vertex>(rng.uniform_index(n)));
    for (std::size_t i = rng.uniform_index(3); i-- > 0;) {
      const Edge& e = g.edge(rng.uniform_index(g.num_edges()));
      q.avoid_edges.emplace_back(e.u, e.v);
    }
    q.canonicalize();
    const ServeAnswer a = engine.answer(q);

    const bool endpoint_dead =
        std::find(q.avoid_vertices.begin(), q.avoid_vertices.end(), q.s) !=
            q.avoid_vertices.end() ||
        std::find(q.avoid_vertices.begin(), q.avoid_vertices.end(), q.t) !=
            q.avoid_vertices.end();
    if (endpoint_dead) {
      EXPECT_EQ(a.dh, kInfiniteWeight) << "trial " << trial;
      EXPECT_EQ(a.dg, kInfiniteWeight) << "trial " << trial;
      continue;
    }
    const Graph gf = minus_faults(g, q.avoid_vertices, q.avoid_edges);
    const Graph hf = minus_faults(h, q.avoid_vertices, q.avoid_edges);
    EXPECT_EQ(a.dg, test::reference_dijkstra(gf, q.s).dist[q.t])
        << "trial " << trial;
    EXPECT_EQ(a.dh, test::reference_dijkstra(hf, q.s).dist[q.t])
        << "trial " << trial;
  }
}

TEST(QueryEngine, HandlesDegenerateQueries) {
  const Graph g = path(5);
  serve::QueryEngine engine(g, all_edges(g), 3.0);
  ServeQuery q;
  q.s = q.t = 2;
  q.want_base = true;
  EXPECT_EQ(engine.answer(q).dh, 0.0);  // s == t
  EXPECT_EQ(engine.answer(q).dg, 0.0);
  q.avoid_vertices = {2};  // a faulted endpoint beats s == t
  q.canonicalize();
  EXPECT_EQ(engine.answer(q).dh, kInfiniteWeight);
  q.s = 0;
  q.t = 4;
  q.avoid_vertices = {4};
  q.canonicalize();
  EXPECT_EQ(engine.answer(q).dh, kInfiniteWeight);
  // Cutting the path's middle vertex disconnects but never crashes.
  q.avoid_vertices = {2};
  q.canonicalize();
  const ServeAnswer cut = engine.answer(q);
  EXPECT_EQ(cut.dh, kInfiniteWeight);
  EXPECT_EQ(cut.dg, kInfiniteWeight);
}

// The acceptance pin: served dh/dg ratios must reproduce the StretchOracle's
// witness stretch bit-for-bit — both sides run the same DijkstraEngine, so
// this is equality, not tolerance.
TEST(QueryEngine, ServedRatiosPinTheOracleWitnessExactly) {
  const Graph g = gnp_connected(26, 0.25, 7, 4.0);
  const ConversionResult conv = ft_greedy_spanner(g, 3.0, 1, 11);
  const Graph h = g.edge_subgraph(conv.edges);
  serve::QueryEngine engine(g, conv.edges, 3.0);
  const StretchOracle oracle(g, h, 3.0);
  auto scratch = oracle.make_scratch();

  const std::vector<std::vector<Vertex>> fault_lists = {
      {}, {3}, {11}, {1, 8}, {0, 13, 25}};
  for (const std::vector<Vertex>& fl : fault_lists) {
    VertexSet faults(g.num_vertices());
    for (const Vertex v : fl) faults.insert(v);
    const auto witness = oracle.evaluate(faults, scratch);

    double worst = 1.0;
    for (const Edge& e : g.edges()) {
      if (faults.contains(e.u) || faults.contains(e.v)) continue;
      ServeQuery q;
      // The oracle sums each path outward from the lower endpoint; querying
      // the same direction keeps the floating-point sums bit-identical.
      q.s = std::min(e.u, e.v);
      q.t = std::max(e.u, e.v);
      q.want_base = true;
      q.avoid_vertices = fl;
      q.canonicalize();
      const ServeAnswer a = engine.answer(q);
      ASSERT_LT(a.dg, kInfiniteWeight);  // a surviving edge bounds d_G
      worst = std::max(
          worst, a.dh < kInfiniteWeight ? a.dh / a.dg : kInfiniteWeight);
    }
    EXPECT_EQ(worst, witness.stretch) << "faults: " << fl.size();
  }
}

TEST(QueryEngine, CacheCountsHitsAndEvictsLru) {
  const Graph g = path(6);
  serve::QueryEngine::Options opt;
  opt.cache_capacity = 2;
  serve::QueryEngine engine(g, all_edges(g), 3.0, opt);
  auto q = [](Vertex s, Vertex t) {
    ServeQuery out;
    out.s = s;
    out.t = t;
    return out;
  };
  EXPECT_FALSE(engine.answer(q(0, 1)).from_cache);  // miss
  EXPECT_TRUE(engine.answer(q(0, 1)).from_cache);   // hit
  EXPECT_FALSE(engine.answer(q(0, 2)).from_cache);  // miss
  EXPECT_FALSE(engine.answer(q(0, 3)).from_cache);  // miss — evicts (0, 1)
  EXPECT_FALSE(engine.answer(q(0, 1)).from_cache);  // miss again (evicted)
  EXPECT_TRUE(engine.answer(q(0, 3)).from_cache);   // still resident
  EXPECT_EQ(engine.cache_stats().hits, 2u);
  EXPECT_EQ(engine.cache_stats().misses, 4u);
  EXPECT_EQ(engine.queries_answered(), 6u);
  // Cached answers carry the same distances as fresh ones.
  EXPECT_EQ(engine.answer(q(0, 3)).dh, 3.0);
}

TEST(QueryEngine, ZeroCapacityDisablesTheCache) {
  const Graph g = path(4);
  serve::QueryEngine::Options opt;
  opt.cache_capacity = 0;
  serve::QueryEngine engine(g, all_edges(g), 3.0, opt);
  ServeQuery q;
  q.s = 0;
  q.t = 3;
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(engine.answer(q).from_cache);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 0u);
  EXPECT_EQ(engine.queries_answered(), 3u);
}

TEST(QueryEngine, WorkerCountNeverChangesAnswers) {
  const Graph g = gnp_connected(24, 0.25, 5, 3.0);
  std::vector<EdgeId> kept;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (id % 3 != 0) kept.push_back(id);

  std::vector<ServeQuery> queries;
  Rng rng(23);
  const Vertex n = static_cast<Vertex>(g.num_vertices());
  for (int i = 0; i < 50; ++i) {
    ServeQuery q;
    q.s = static_cast<Vertex>(rng.uniform_index(n));
    q.t = static_cast<Vertex>(rng.uniform_index(n));
    q.want_base = (i % 2) == 0;
    if (i % 3 == 0)
      q.avoid_vertices.push_back(static_cast<Vertex>(rng.uniform_index(n)));
    if (i % 5 == 0) {
      const Edge& e = g.edge(rng.uniform_index(g.num_edges()));
      q.avoid_edges.emplace_back(e.u, e.v);
    }
    q.canonicalize();
    queries.push_back(std::move(q));
  }

  // A cold cache per run so every query is computed, not replayed.
  std::vector<std::vector<ServeAnswer>> results;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    serve::QueryEngine::Options opt;
    opt.workers = workers;
    opt.cache_capacity = 0;
    serve::QueryEngine engine(g, kept, 3.0, opt);
    std::vector<ServeAnswer> answers;
    engine.answer_batch(queries, answers);
    results.push_back(std::move(answers));
  }
  ASSERT_EQ(results[0].size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[0][i].dh, results[1][i].dh) << "query " << i;
    EXPECT_EQ(results[0][i].dg, results[1][i].dg) << "query " << i;
  }
}

// On a mid-range integer-weight graph, where the engines resolve to the
// delta queue, served answers must equal a textbook Dijkstra on the
// materialized H \ F and G \ F bit for bit, at every worker count.
TEST(QueryEngine, EngineChoiceNeverChangesServedAnswersOnMidRangeWeights) {
  const Graph base = gnp_connected(24, 0.25, 5, 3.0);
  std::vector<Edge> reweighted;
  for (EdgeId id = 0; id < base.num_edges(); ++id) {
    Edge e = base.edge(id);
    e.w = std::floor(e.w * 12345.0) + 4097.0;  // integral, > bucket ceiling
    reweighted.push_back(e);
  }
  const Graph g = Graph::from_edges(base.num_vertices(), reweighted);
  const WeightProfile wp = Csr(g).weights();
  ASSERT_EQ(select_sp_queue(SpEnginePolicy::kAuto, wp.exact_sums()),
            SpQueue::kDelta);
  ASSERT_GT(tune_delta(wp.max_weight), 1.0);
  std::vector<EdgeId> kept;
  for (EdgeId id = 0; id < g.num_edges(); ++id)
    if (id % 3 != 0) kept.push_back(id);
  const Graph h = g.edge_subgraph(kept);

  std::vector<ServeQuery> queries;
  Rng rng(29);
  const Vertex n = static_cast<Vertex>(g.num_vertices());
  for (int i = 0; i < 40; ++i) {
    ServeQuery q;
    q.s = static_cast<Vertex>(rng.uniform_index(n));
    q.t = static_cast<Vertex>(rng.uniform_index(n));
    q.want_base = (i % 2) == 0;
    if (i % 3 == 0)
      q.avoid_vertices.push_back(static_cast<Vertex>(rng.uniform_index(n)));
    if (i % 5 == 0) {
      const Edge& e = g.edge(rng.uniform_index(g.num_edges()));
      q.avoid_edges.emplace_back(e.u, e.v);
    }
    q.canonicalize();
    queries.push_back(std::move(q));
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    serve::QueryEngine::Options opt;
    opt.workers = workers;
    opt.cache_capacity = 0;
    serve::QueryEngine engine(g, kept, 3.0, opt);
    std::vector<ServeAnswer> answers;
    engine.answer_batch(queries, answers);
    ASSERT_EQ(answers.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const ServeQuery& q = queries[i];
      const bool endpoint_dead =
          std::binary_search(q.avoid_vertices.begin(), q.avoid_vertices.end(),
                             q.s) ||
          std::binary_search(q.avoid_vertices.begin(), q.avoid_vertices.end(),
                             q.t);
      const Graph gf = minus_faults(g, q.avoid_vertices, q.avoid_edges);
      const Graph hf = minus_faults(h, q.avoid_vertices, q.avoid_edges);
      const Weight dh = endpoint_dead
                            ? kInfiniteWeight
                            : test::reference_dijkstra(hf, q.s).dist[q.t];
      EXPECT_EQ(answers[i].dh, dh) << "workers " << workers << " query " << i;
      if (!q.want_base) continue;
      const Weight dg = endpoint_dead
                            ? kInfiniteWeight
                            : test::reference_dijkstra(gf, q.s).dist[q.t];
      EXPECT_EQ(answers[i].dg, dg) << "workers " << workers << " query " << i;
    }
  }
}

// --- ServeDaemon over real sockets ---------------------------------------

/// Daemon on an ephemeral loopback port with its event loop on a background
/// thread; the destructor stops and joins.
struct TestServer {
  Graph g;
  serve::QueryEngine engine;
  serve::ServeDaemon daemon;
  std::thread loop;

  explicit TestServer(Graph graph, serve::ServeOptions options = {})
      : g(std::move(graph)), engine(g, make_ids(g), 3.0),
        daemon(engine, options) {
    daemon.listen();
    loop = std::thread([this] { daemon.run(); });
  }
  ~TestServer() {
    daemon.stop();
    loop.join();
  }

  static std::vector<EdgeId> make_ids(const Graph& graph) {
    std::vector<EdgeId> ids(graph.num_edges());
    for (EdgeId id = 0; id < graph.num_edges(); ++id) ids[id] = id;
    return ids;
  }
};

/// The daemon tests' graph (and tests/cli_serve.py's): a 5-vertex path with
/// weights 1, 2, 3, 4, so d(0, 4) = 10 and cutting vertex 2 disconnects the
/// ends.
Graph weighted_path5() {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 4, 4.0);
  return g;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), 0);
    if (sent <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

/// Reads exactly one HTTP response (headers + Content-Length body) out of
/// `buf`, receiving more as needed; leftovers stay in `buf` for pipelining.
/// Empty return = the peer closed or errored first.
std::string recv_response(int fd, std::string& buf) {
  for (;;) {
    const std::size_t he = buf.find("\r\n\r\n");
    if (he != std::string::npos) {
      std::size_t content_length = 0;
      const std::size_t cl = buf.find("Content-Length: ");
      if (cl != std::string::npos && cl < he)
        content_length = std::strtoull(buf.c_str() + cl + 16, nullptr, 10);
      const std::size_t total = he + 4 + content_length;
      if (buf.size() >= total) {
        std::string out = buf.substr(0, total);
        buf.erase(0, total);
        return out;
      }
    }
    char tmp[4096];
    const ssize_t got = ::recv(fd, tmp, sizeof(tmp), 0);
    if (got <= 0) return {};
    buf.append(tmp, static_cast<std::size_t>(got));
  }
}

/// One-shot GET with Connection: close.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nConnection: close\r\n\r\n";
  std::string buf, out;
  if (send_all(fd, req)) out = recv_response(fd, buf);
  ::close(fd);
  return out;
}

bool peer_closed(int fd) {
  char tmp[64];
  return ::recv(fd, tmp, sizeof(tmp), 0) == 0;
}

/// Numeric value of `"key": <number>` in a JSON body (format_double may
/// render 10 as "1e+01", so substring-matching the digits is not enough).
double json_number(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t p = body.find(needle);
  if (p == std::string::npos) return -1e300;
  return std::strtod(body.c_str() + p + needle.size(), nullptr);
}

TEST(ServeDaemon, AnswersDistanceQueriesOverRealSockets) {
  TestServer server(weighted_path5());
  const std::uint16_t port = server.daemon.port();

  const std::string d = http_get(port, "/distance?s=0&t=4");
  EXPECT_NE(d.find("200 OK"), std::string::npos);
  EXPECT_EQ(json_number(d, "distance"), 10.0) << d;
  EXPECT_NE(d.find("\"reachable\": true"), std::string::npos) << d;

  // Cutting vertex 2 disconnects 0 from 4.
  const std::string cut = http_get(port, "/distance?s=0&t=4&avoid=2");
  EXPECT_NE(cut.find("\"distance\": null"), std::string::npos) << cut;
  EXPECT_NE(cut.find("\"reachable\": false"), std::string::npos) << cut;

  // Cutting edge {1, 2} does the same through the edge grammar.
  const std::string ecut = http_get(port, "/distance?s=0&t=4&avoid=1-2");
  EXPECT_NE(ecut.find("\"reachable\": false"), std::string::npos) << ecut;

  // The spanner is the whole graph here, so stretch is exactly 1.
  const std::string st = http_get(port, "/stretch?s=0&t=4");
  EXPECT_EQ(json_number(st, "stretch"), 1.0) << st;
  EXPECT_EQ(json_number(st, "spanner_distance"), 10.0) << st;
  EXPECT_EQ(json_number(st, "base_distance"), 10.0) << st;

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
}

TEST(ServeDaemon, SpeaksKeepAliveAndPipelining) {
  TestServer server(weighted_path5());
  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  // Two pipelined requests in one write; responses must come back in
  // order on the same connection.
  ASSERT_TRUE(send_all(fd,
                       "GET /distance?s=0&t=1 HTTP/1.1\r\n\r\n"
                       "GET /distance?s=0&t=2 HTTP/1.1\r\n\r\n"));
  std::string buf;
  const std::string first = recv_response(fd, buf);
  const std::string second = recv_response(fd, buf);
  EXPECT_EQ(json_number(first, "distance"), 1.0) << first;
  EXPECT_EQ(json_number(second, "distance"), 3.0) << second;
  // A third request on the same (kept-alive) connection still works.
  ASSERT_TRUE(send_all(fd, "GET /healthz HTTP/1.1\r\n\r\n"));
  EXPECT_NE(recv_response(fd, buf).find("200 OK"), std::string::npos);
  ::close(fd);
}

TEST(ServeDaemon, CachedRepeatsReportFromCache) {
  TestServer server(weighted_path5());
  const std::uint16_t port = server.daemon.port();
  const std::string first = http_get(port, "/distance?s=1&t=4");
  EXPECT_NE(first.find("\"from_cache\": false"), std::string::npos) << first;
  const std::string repeat = http_get(port, "/distance?s=1&t=4");
  EXPECT_NE(repeat.find("\"from_cache\": true"), std::string::npos) << repeat;
}

TEST(ServeDaemon, RejectsGarbageWithoutDying) {
  TestServer server(weighted_path5());
  const std::uint16_t port = server.daemon.port();

  // Malformed request: 400 and the server closes the connection.
  {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, "NOT HTTP AT ALL\r\n\r\n"));
    std::string buf;
    EXPECT_NE(recv_response(fd, buf).find("400"), std::string::npos);
    EXPECT_TRUE(peer_closed(fd));
    ::close(fd);
  }
  // Oversized request: 413 and close, long before the flood completes.
  {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /" + std::string(20000, 'x'));
    std::string buf;
    EXPECT_NE(recv_response(fd, buf).find("413"), std::string::npos);
    ::close(fd);
  }
  // Semantic errors are 400 but keep the connection alive.
  {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::string buf;
    ASSERT_TRUE(send_all(fd, "GET /distance?s=99&t=0 HTTP/1.1\r\n\r\n"));
    EXPECT_NE(recv_response(fd, buf).find("400"), std::string::npos);
    ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=1 HTTP/1.1\r\n\r\n"));
    EXPECT_NE(recv_response(fd, buf).find("200"), std::string::npos);
    ::close(fd);
  }
  EXPECT_NE(http_get(port, "/nope").find("404"), std::string::npos);
  {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::string buf;
    ASSERT_TRUE(send_all(fd, "POST /distance HTTP/1.1\r\n\r\n"));
    EXPECT_NE(recv_response(fd, buf).find("405"), std::string::npos);
    ::close(fd);
  }
  // After all that abuse the daemon still answers correctly.
  EXPECT_EQ(json_number(http_get(port, "/distance?s=0&t=4"), "distance"),
            10.0);
  EXPECT_GT(server.daemon.stats().bad_requests, 0u);
}

TEST(ServeDaemon, StatsEndpointReportsCounters) {
  TestServer server(weighted_path5());
  const std::uint16_t port = server.daemon.port();
  http_get(port, "/distance?s=0&t=1");
  http_get(port, "/distance?s=0&t=1");  // cache hit
  const std::string stats = http_get(port, "/stats");
  EXPECT_NE(stats.find("\"requests\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"hits\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"misses\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"peak_rss_bytes\":"), std::string::npos);
  EXPECT_NE(stats.find("\"n\": 5"), std::string::npos);
}

// --- epochs & hot reload -------------------------------------------------

/// Path "B" for reload tests: the same 5-vertex path with doubled weights,
/// so a successful swap is observable as d(0, 4) jumping from 10 to 20.
Graph doubled_path5() {
  Graph g(5);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 4.0);
  g.add_edge(2, 3, 6.0);
  g.add_edge(3, 4, 8.0);
  return g;
}

std::shared_ptr<serve::EngineEpoch> build_path_epoch(const std::string& name) {
  Graph g = name == "B" ? doubled_path5() : weighted_path5();
  const std::vector<EdgeId> ids = TestServer::make_ids(g);
  return serve::EngineEpoch::build(std::move(g), ids, 3.0, {}, name);
}

/// Builder mapping symbolic "paths" to in-memory graphs; "corrupt" fails
/// the way an unreadable graph file would.
serve::EpochManager::Builder path_builder() {
  return [](const std::string& path) {
    if (path == "corrupt")
      throw std::runtime_error("graph io: corrupt graph file");
    return build_path_epoch(path);
  };
}

/// A reloadable daemon: epoch 1 serves path "A"; reloads go through
/// `builder` (default: the symbolic path builder above).
struct ReloadableServer {
  std::shared_ptr<serve::EpochManager> epochs;
  serve::ServeDaemon daemon;
  std::thread loop;

  explicit ReloadableServer(
      serve::ServeOptions options = {},
      serve::EpochManager::Builder builder = path_builder())
      : epochs(std::make_shared<serve::EpochManager>(build_path_epoch("A"),
                                                     std::move(builder))),
        daemon(epochs, options) {
    daemon.listen();
    loop = std::thread([this] { daemon.run(); });
  }
  ~ReloadableServer() {
    daemon.stop();
    loop.join();
  }
};

/// One-shot request with an arbitrary method and Connection: close.
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& target) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  const std::string req =
      method + " " + target + " HTTP/1.1\r\nConnection: close\r\n\r\n";
  std::string buf, out;
  if (send_all(fd, req)) out = recv_response(fd, buf);
  ::close(fd);
  return out;
}

/// Polls `pred` for up to five seconds — generous for in-process reloads.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(EpochManager, ReloadPublishesNewEpochAndOldStaysAlive) {
  serve::EpochManager mgr(build_path_epoch("A"), path_builder());
  const std::shared_ptr<serve::EngineEpoch> pinned = mgr.current();
  EXPECT_EQ(pinned->id, 1u);
  ASSERT_TRUE(mgr.request_reload("B"));
  mgr.wait_idle();
  const std::shared_ptr<serve::EngineEpoch> fresh = mgr.current();
  EXPECT_EQ(fresh->id, 2u);
  EXPECT_EQ(fresh->source, "B");
  // The retired epoch stays fully usable while a reference holds it — this
  // is what lets in-flight rounds finish across a swap.
  ServeQuery q;
  q.s = 0;
  q.t = 4;
  EXPECT_EQ(pinned->engine->answer(q).dh, 10.0);
  EXPECT_EQ(fresh->engine->answer(q).dh, 20.0);
  const serve::EpochManager::Status s = mgr.status();
  EXPECT_EQ(s.epoch, 2u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_FALSE(s.in_progress);
}

TEST(EpochManager, FailedReloadKeepsOldEpochAndRecordsError) {
  serve::EpochManager mgr(build_path_epoch("A"), path_builder());
  ASSERT_TRUE(mgr.request_reload("corrupt"));
  mgr.wait_idle();
  EXPECT_EQ(mgr.current()->id, 1u);  // the old epoch never stopped serving
  const serve::EpochManager::Status s = mgr.status();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(s.ok, 0u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_NE(s.last_error.find("corrupt"), std::string::npos) << s.last_error;
  // The failure is not sticky: a later good reload still swaps.
  ASSERT_TRUE(mgr.request_reload("B"));
  mgr.wait_idle();
  EXPECT_EQ(mgr.current()->id, 2u);
  EXPECT_EQ(mgr.status().ok, 1u);
}

TEST(EpochManager, EmptyPathRebuildsTheCurrentSource) {
  serve::EpochManager mgr(build_path_epoch("A"), path_builder());
  ASSERT_TRUE(mgr.request_reload());  // the SIGHUP shape: no explicit path
  mgr.wait_idle();
  const std::shared_ptr<serve::EngineEpoch> fresh = mgr.current();
  EXPECT_EQ(fresh->id, 2u);
  EXPECT_EQ(fresh->source, "A");  // same source, new generation
  ServeQuery q;
  q.s = 0;
  q.t = 4;
  EXPECT_EQ(fresh->engine->answer(q).dh, 10.0);
}

TEST(EpochManager, FixedManagerRefusesReloads) {
  Graph g = weighted_path5();
  serve::QueryEngine engine(g, TestServer::make_ids(g), 3.0);
  const std::shared_ptr<serve::EpochManager> mgr =
      serve::EpochManager::fixed(engine);
  EXPECT_FALSE(mgr->reloadable());
  EXPECT_FALSE(mgr->request_reload());
  EXPECT_FALSE(mgr->request_reload("B"));
  EXPECT_EQ(mgr->current()->engine, &engine);
  EXPECT_EQ(mgr->status().epoch, 1u);
}

TEST(ServeDaemon, AdminReloadSwapsEpochsUnderKeepAlive) {
  ReloadableServer server;
  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  std::string buf;

  ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=4 HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(json_number(recv_response(fd, buf), "distance"), 10.0);

  ASSERT_TRUE(send_all(fd, "POST /admin/reload?path=B HTTP/1.1\r\n\r\n"));
  const std::string ack = recv_response(fd, buf);
  EXPECT_NE(ack.find("202"), std::string::npos) << ack;
  EXPECT_NE(ack.find("\"status\": \"reloading\""), std::string::npos) << ack;

  server.epochs->wait_idle();
  // Same connection, next round: the new epoch answers. The swap dropped
  // nothing — this socket was open across it the whole time.
  ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=4 HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(json_number(recv_response(fd, buf), "distance"), 20.0);

  ASSERT_TRUE(send_all(fd, "GET /healthz HTTP/1.1\r\n\r\n"));
  const std::string health = recv_response(fd, buf);
  EXPECT_EQ(json_number(health, "epoch"), 2.0) << health;
  EXPECT_NE(health.find("\"ok\": 1"), std::string::npos) << health;
  ::close(fd);
}

TEST(ServeDaemon, FailedReloadKeepsOldEpochServing) {
  ReloadableServer server;
  const std::uint16_t port = server.daemon.port();
  const std::string ack =
      http_request(port, "POST", "/admin/reload?path=corrupt");
  EXPECT_NE(ack.find("202"), std::string::npos) << ack;
  server.epochs->wait_idle();
  const std::string health = http_get(port, "/healthz");
  EXPECT_EQ(json_number(health, "epoch"), 1.0) << health;
  EXPECT_NE(health.find("\"failed\": 1"), std::string::npos) << health;
  EXPECT_NE(health.find("corrupt"), std::string::npos) << health;
  EXPECT_EQ(json_number(http_get(port, "/distance?s=0&t=4"), "distance"),
            10.0);
}

TEST(ServeDaemon, ReloadIsPostOnlyAndNeedsABuilder) {
  {
    ReloadableServer server;
    const std::string r = http_get(server.daemon.port(), "/admin/reload");
    EXPECT_NE(r.find("405"), std::string::npos) << r;
  }
  {
    TestServer server(weighted_path5());  // fixed manager: no builder
    const std::string r =
        http_request(server.daemon.port(), "POST", "/admin/reload");
    EXPECT_NE(r.find("503"), std::string::npos) << r;
    EXPECT_NE(r.find("no reload builder"), std::string::npos) << r;
  }
}

TEST(ServeDaemon, TriggerReloadFollowsTheSignalPath) {
  ReloadableServer server;
  server.daemon.trigger_reload();  // exactly what a SIGHUP handler calls
  ASSERT_TRUE(
      eventually([&] { return server.epochs->status().epoch == 2; }));
  // Same source rebuilt: the answers are unchanged on the new epoch.
  EXPECT_EQ(json_number(http_get(server.daemon.port(), "/distance?s=0&t=4"),
                        "distance"),
            10.0);
}

TEST(ServeDaemon, ConcurrentReloadIsRefusedWith409) {
  serve::EpochManager::Builder slow = [](const std::string& path) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return build_path_epoch(path);
  };
  ReloadableServer server({}, std::move(slow));
  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  std::string buf;
  ASSERT_TRUE(send_all(fd, "POST /admin/reload?path=B HTTP/1.1\r\n\r\n"));
  EXPECT_NE(recv_response(fd, buf).find("202"), std::string::npos);
  ASSERT_TRUE(send_all(fd, "POST /admin/reload?path=B HTTP/1.1\r\n\r\n"));
  const std::string second = recv_response(fd, buf);
  EXPECT_NE(second.find("409"), std::string::npos) << second;
  EXPECT_NE(second.find("already in progress"), std::string::npos) << second;
  // A 409 keeps the connection alive and the daemon responsive.
  ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=1 HTTP/1.1\r\n\r\n"));
  EXPECT_NE(recv_response(fd, buf).find("200"), std::string::npos);
  ::close(fd);
  server.epochs->wait_idle();
  EXPECT_EQ(server.epochs->status().epoch, 2u);
}

TEST(ServeDaemon, HotReloadUnderLoadNeverDropsOrChangesAnswers) {
  ReloadableServer server;
  std::atomic<bool> storming{true};
  std::thread storm([&] {
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(server.epochs->request_reload("A"));
      server.epochs->wait_idle();
    }
    storming.store(false);
  });

  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  std::string buf;
  int served = 0;
  while (storming.load()) {
    ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=4 HTTP/1.1\r\n\r\n"));
    const std::string resp = recv_response(fd, buf);
    ASSERT_FALSE(resp.empty()) << "connection dropped after " << served;
    // Bit-identical across every swap: the rebuilt epoch serves the same
    // graph, so the answer never wobbles.
    EXPECT_EQ(json_number(resp, "distance"), 10.0) << resp;
    ++served;
  }
  storm.join();
  EXPECT_GT(served, 0);
  EXPECT_EQ(server.epochs->status().epoch, 13u);  // all 12 swaps landed
  // The connection that lived through every swap still works.
  ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=4 HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(json_number(recv_response(fd, buf), "distance"), 10.0);
  ::close(fd);
}

// --- admission control ---------------------------------------------------

TEST(ServeDaemon, PendingBudgetShedsWith503AndRetryAfter) {
  serve::ServeOptions options;
  options.max_pending = 1;
  TestServer server(weighted_path5(), options);
  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  // One write, three pipelined queries: a ~120-byte loopback write arrives
  // whole, so one poll round parses all three and the budget admits one.
  ASSERT_TRUE(send_all(fd,
                       "GET /distance?s=0&t=1 HTTP/1.1\r\n\r\n"
                       "GET /distance?s=0&t=2 HTTP/1.1\r\n\r\n"
                       "GET /distance?s=0&t=3 HTTP/1.1\r\n\r\n"));
  std::string buf;
  const std::string first = recv_response(fd, buf);
  const std::string second = recv_response(fd, buf);
  const std::string third = recv_response(fd, buf);
  EXPECT_NE(first.find("200"), std::string::npos) << first;
  EXPECT_EQ(json_number(first, "distance"), 1.0);
  for (const std::string* shed : {&second, &third}) {
    EXPECT_NE(shed->find("503"), std::string::npos) << *shed;
    EXPECT_NE(shed->find("Retry-After:"), std::string::npos) << *shed;
    EXPECT_NE(shed->find("overloaded"), std::string::npos) << *shed;
  }
  // Shedding never drops the connection: the retried query succeeds.
  ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=2 HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(json_number(recv_response(fd, buf), "distance"), 3.0);
  ASSERT_TRUE(send_all(fd, "GET /stats HTTP/1.1\r\n\r\n"));
  const std::string stats = recv_response(fd, buf);
  EXPECT_EQ(json_number(stats, "shed"), 2.0) << stats;
  ::close(fd);
}

TEST(ServeDaemon, PipeliningCapDefersWithoutDroppingRequests) {
  serve::ServeOptions options;
  options.max_pipeline = 1;
  TestServer server(weighted_path5(), options);
  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd,
                       "GET /distance?s=0&t=1 HTTP/1.1\r\n\r\n"
                       "GET /distance?s=0&t=2 HTTP/1.1\r\n\r\n"
                       "GET /distance?s=0&t=3 HTTP/1.1\r\n\r\n"
                       "GET /distance?s=0&t=4 HTTP/1.1\r\n\r\n"));
  // The cap defers parsing, never sheds: all four answer 200, in order,
  // across (at least) four zero-timeout rounds.
  std::string buf;
  const double want[] = {1.0, 3.0, 6.0, 10.0};
  for (const double expect : want) {
    const std::string resp = recv_response(fd, buf);
    EXPECT_NE(resp.find("200"), std::string::npos) << resp;
    EXPECT_EQ(json_number(resp, "distance"), expect) << resp;
  }
  ::close(fd);
}

TEST(ServeDaemon, TrickledRequestsAnswer503AfterTheDeadline) {
  serve::ServeOptions options;
  options.deadline_ms = 50;
  TestServer server(weighted_path5(), options);
  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  std::string buf;
  // A slow-loris shape: the head arrives, then nothing for far longer than
  // the deadline, then the finishing bytes.
  ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=4 HTTP/1.1\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(send_all(fd, "\r\n"));
  const std::string stale = recv_response(fd, buf);
  EXPECT_NE(stale.find("503"), std::string::npos) << stale;
  EXPECT_NE(stale.find("deadline exceeded"), std::string::npos) << stale;
  // The shed is per-request: a prompt request on the same connection works.
  ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=4 HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(json_number(recv_response(fd, buf), "distance"), 10.0);
  ::close(fd);
}

// --- signal hygiene & idle accounting ------------------------------------

TEST(IgnoreSigpipe, SendToAClosedPeerReturnsEpipeInsteadOfKilling) {
  serve::net::ignore_sigpipe();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  // Plain send, deliberately without MSG_NOSIGNAL: before ignore_sigpipe()
  // this raised SIGPIPE and killed the whole process.
  errno = 0;
  const ssize_t r = ::send(sv[0], "x", 1, 0);
  EXPECT_EQ(r, -1);
  EXPECT_EQ(errno, EPIPE);
  ::close(sv[0]);
}

TEST(ServeDaemon, SurvivesClientsVanishingMidResponse) {
  TestServer server(weighted_path5());
  const std::uint16_t port = server.daemon.port();
  // Five clients send a request and hard-reset (SO_LINGER 0 → RST) without
  // reading: the daemon's flush hits a dead socket each time.
  for (int i = 0; i < 5; ++i) {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=4 HTTP/1.1\r\n\r\n"));
    const linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
  }
  // The daemon must still be alive and correct afterwards.
  EXPECT_EQ(json_number(http_get(port, "/distance?s=0&t=4"), "distance"),
            10.0);
}

TEST(ServeDaemon, IdleClockRestartsOnEveryCompletedRequest) {
  serve::ServeOptions options;
  options.idle_timeout_ms = 600;
  TestServer server(weighted_path5(), options);
  const int fd = connect_loopback(server.daemon.port());
  ASSERT_GE(fd, 0);
  std::string buf;
  // Four requests with 150 ms of think time each: ~600 ms on one
  // connection, but never 600 ms idle — the per-request clock reset must
  // keep it open (the old accounting timed the connection, not the gaps).
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_TRUE(send_all(fd, "GET /distance?s=0&t=1 HTTP/1.1\r\n\r\n"));
    const std::string resp = recv_response(fd, buf);
    ASSERT_NE(resp.find("200"), std::string::npos) << "request " << i;
  }
  // Now actually go idle: the daemon answers 408 and closes.
  const std::string idle = recv_response(fd, buf);
  EXPECT_NE(idle.find("408"), std::string::npos) << idle;
  EXPECT_TRUE(peer_closed(fd));
  ::close(fd);
}

// --- load test -----------------------------------------------------------

TEST(LoadTest, ClosedLoopReportsQuantilesAndCacheCounters) {
  const Graph g = gnp_connected(24, 0.25, 9, 3.0);
  std::vector<EdgeId> ids(g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id) ids[id] = id;
  serve::QueryEngine engine(g, ids, 3.0);
  serve::LoadTestOptions options;
  options.conns = 2;
  options.duration = 0.1;
  options.seed = 7;
  const serve::LoadTestResult r = run_load_test(engine, options);
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.achieved_qps, 0.0);
  EXPECT_LE(r.p50_ms, r.p99_ms);
  EXPECT_EQ(r.cache_hits + r.cache_misses, engine.queries_answered());
  EXPECT_GE(r.cache_hit_rate, 0.0);
  EXPECT_LE(r.cache_hit_rate, 1.0);
}

// Paced mode times each request from its due time on the schedule, so a
// backlog shows in the tail. Here all 2000 requests fall due within 2 ms,
// but one connection needs many times that to serve them: most requests
// wait behind the others for a large share of the run. Timed from send, p99
// would be one round trip (well under a millisecond).
TEST(LoadTest, PacedLatencyChargesTheBacklogToQueuedRequests) {
  const Graph g = gnp_connected(24, 0.25, 9, 3.0);
  std::vector<EdgeId> ids(g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id) ids[id] = id;
  serve::QueryEngine engine(g, ids, 3.0);
  serve::LoadTestOptions options;
  options.qps = 1'000'000;
  options.duration = 0.002;
  options.conns = 1;
  options.seed = 7;
  const serve::LoadTestResult r = run_load_test(engine, options);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.requests, 2000u);
  EXPECT_GE(r.p99_ms, 0.5 * r.seconds * 1000) << "p99 " << r.p99_ms
                                              << " ms over " << r.seconds
                                              << " s";
}

// The in-process acceptance run: hostile seeded clients (resets, slow-loris,
// malformed floods, oversized requests) plus a reload storm, against a
// rebuildable epoch manager. `errors` counts only protocol violations — a
// dropped well-formed request or an unknown status — so errors == 0 is the
// "zero dropped connections, every response well-formed" invariant. With
// the server-side chaos seam armed (FTSPAN_CHAOS, see serve/net.hpp) the
// same invariant must hold, and the seam must have fired.
TEST(LoadTest, ChaosAndReloadStormKeepTheProtocolClean) {
  const Graph g = gnp_connected(32, 0.25, 9, 3.0);
  std::vector<EdgeId> ids(g.num_edges());
  for (EdgeId id = 0; id < g.num_edges(); ++id) ids[id] = id;
  auto make_epoch = [g, ids] {
    Graph copy = g;
    return serve::EngineEpoch::build(std::move(copy), ids, 3.0, {}, "mem");
  };
  auto epochs = std::make_shared<serve::EpochManager>(
      make_epoch(), [make_epoch](const std::string&) { return make_epoch(); });

  serve::LoadTestOptions options;
  options.conns = 3;
  options.duration = 0.3;
  options.seed = 11;
  options.chaos = 0.4;
  options.reload_every = 16;
  const serve::LoadTestResult r = run_load_test(epochs, options);

  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.requests, 0u);
  EXPECT_GT(r.chaos_events, 0u);
  EXPECT_EQ(r.chaos_events, r.chaos_resets + r.chaos_slowloris +
                                r.chaos_malformed + r.chaos_oversized);
  EXPECT_GT(r.reloads_sent, 0u);
  EXPECT_GE(r.reload_acks, 1u);
  EXPECT_GE(r.reloads_ok, 1u);
  EXPECT_GE(r.final_epoch, 2u);  // the storm landed at least one swap
  if (serve::net::chaos_enabled()) {
    EXPECT_GT(serve::net::chaos_faults_injected(), 0u);
  }
}

// Lane and connection counts above the worker ceiling are refused before any
// thread starts.
TEST(QueryEngine, RejectsWorkersAboveTheCeiling) {
  const Graph g = weighted_path5();
  const std::vector<EdgeId> ids = {0, 1, 2, 3};
  serve::QueryEngine::Options options;
  options.workers = kMaxWorkers + 1;
  EXPECT_THROW(serve::QueryEngine(g, ids, 3.0, options),
               std::invalid_argument);
  options.workers = static_cast<std::size_t>(-1);
  EXPECT_THROW(serve::QueryEngine(g, ids, 3.0, options),
               std::invalid_argument);
}

TEST(LoadTest, RejectsConnectionsAboveTheCeiling) {
  const Graph g = weighted_path5();
  serve::QueryEngine engine(g, {0, 1, 2, 3}, 3.0);
  serve::LoadTestOptions options;
  options.conns = kMaxWorkers + 1;
  EXPECT_THROW(run_load_test(engine, options), std::invalid_argument);
}

}  // namespace
}  // namespace ftspan
