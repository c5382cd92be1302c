#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"

namespace rahtm::serve {

namespace {

Shape parseShapeSpec(const std::string& spec) {
  Shape shape;
  for (const std::string& part : split(spec, 'x')) {
    shape.push_back(static_cast<std::int32_t>(parseInt(part)));
  }
  return shape;
}

/// An integer member in [lo, hi] (the int64 range by default), checked on
/// the JSON number before any narrowing cast. \p prefix names the enclosing
/// object in the error ("graph.").
std::int64_t intMember(
    const obs::JsonValue& doc, const std::string& key, std::int64_t fallback,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max(),
    const char* prefix = "") {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  // hi + 1 as a double is exact for int bounds and rounds to 2^63 for the
  // int64 default, so `< hi + 1` never admits a value the cast overflows.
  if (!v->isNumber() || !(v->number >= static_cast<double>(lo) &&
                          v->number < static_cast<double>(hi) + 1.0) ||
      v->number != std::floor(v->number)) {
    std::ostringstream os;
    os << "request member '" << prefix << key << "' must be an integer in ["
       << lo << ", " << hi << "]";
    if (v->isNumber()) os << ", got " << v->number;
    throw ParseError(os.str());
  }
  return static_cast<std::int64_t>(v->number);
}

bool boolMember(const obs::JsonValue& doc, const std::string& key,
                bool fallback) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != obs::JsonValue::Kind::Bool) {
    throw ParseError("request member '" + key + "' must be a boolean");
  }
  return v->boolean;
}

}  // namespace

MapRequest parseMapRequest(const obs::JsonValue& doc) {
  if (!doc.isObject()) throw ParseError("request must be a JSON object");
  const std::string schema = doc.stringOr("schema", "");
  if (schema != kServeRequestSchema) {
    throw ParseError("request schema must be '" +
                     std::string(kServeRequestSchema) + "', got '" + schema +
                     "'");
  }
  MapRequest req;
  req.id = doc.stringOr("id", "");
  const std::string machine = doc.stringOr("machine", "");
  if (machine.empty()) throw ParseError("request missing 'machine'");
  req.machine = parseShapeSpec(machine);
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  req.concentration = static_cast<int>(
      intMember(doc, "concentration", req.concentration, 1, kIntMax));
  req.benchmark = doc.stringOr("benchmark", req.benchmark);
  req.messageBytes = intMember(doc, "bytes", req.messageBytes, 0,
                               std::numeric_limits<std::int64_t>::max());
  req.mapper = doc.stringOr("mapper", req.mapper);
  req.beamWidth =
      static_cast<int>(intMember(doc, "beam", req.beamWidth, 1, kIntMax));
  req.enableMerge = boolMember(doc, "merge", req.enableMerge);
  req.finalRefinement = boolMember(doc, "refine", req.finalRefinement);
  req.leafMilpVerts = static_cast<int>(
      intMember(doc, "leaf_milp", req.leafMilpVerts, 0, kIntMax));
  req.threads =
      static_cast<int>(intMember(doc, "threads", req.threads, 0, kIntMax));
  req.seed = static_cast<std::uint64_t>(
      intMember(doc, "seed", static_cast<std::int64_t>(req.seed)));
  const std::string grid = doc.stringOr("grid", "");
  if (!grid.empty()) req.grid = parseShapeSpec(grid);

  if (const obs::JsonValue* g = doc.find("graph")) {
    if (!g->isObject()) throw ParseError("request 'graph' must be an object");
    if (g->find("ranks") == nullptr) {
      throw ParseError("request member 'graph.ranks' is required");
    }
    const auto ranks = static_cast<RankId>(intMember(
        *g, "ranks", 0, 1, std::numeric_limits<RankId>::max(), "graph."));
    req.graph = CommGraph(ranks);
    const obs::JsonValue* flows = g->find("flows");
    if (flows == nullptr || !flows->isArray()) {
      throw ParseError("graph.flows must be an array");
    }
    for (const obs::JsonValue& f : flows->array) {
      if (!f.isArray() || f.array.size() != 3 || !f.array[0].isNumber() ||
          !f.array[1].isNumber() || !f.array[2].isNumber()) {
        throw ParseError("graph.flows entries must be [src,dst,bytes]");
      }
      // Endpoints index the declared ranks (an out-of-range endpoint would
      // grow the graph past them); bytes are a finite, non-negative volume.
      for (int end = 0; end < 2; ++end) {
        const double v = f.array[static_cast<std::size_t>(end)].number;
        if (!(v >= 0 && v < static_cast<double>(ranks)) ||
            v != std::floor(v)) {
          std::ostringstream os;
          os << "graph.flows " << (end == 0 ? "src" : "dst")
             << " must be an integer in [0, " << ranks << "), got " << v;
          throw ParseError(os.str());
        }
      }
      const double bytes = f.array[2].number;
      if (!std::isfinite(bytes) || bytes < 0) {
        std::ostringstream os;
        os << "graph.flows bytes must be finite and >= 0, got " << bytes;
        throw ParseError(os.str());
      }
      req.graph.addFlow(static_cast<RankId>(f.array[0].number),
                        static_cast<RankId>(f.array[1].number),
                        static_cast<Volume>(bytes));
    }
    req.hasGraph = true;
  }
  return req;
}

MapRequest parseMapRequestLine(const std::string& line) {
  return parseMapRequest(obs::parseJson(line));
}

void writeMapResponseJson(std::ostream& os, const MapResponse& resp,
                          bool includeMapping) {
  using obs::jsonBool;
  using obs::jsonDouble;
  using obs::jsonInt;
  using obs::jsonString;
  os << "{\"schema\":" << jsonString(kServeResponseSchema)
     << ",\"id\":" << jsonString(resp.id) << ",\"ok\":" << jsonBool(resp.ok);
  if (!resp.ok) os << ",\"error\":" << jsonString(resp.error);
  os << ",\"benchmark\":" << jsonString(resp.benchmark)
     << ",\"mapper\":" << jsonString(resp.mapper)
     << ",\"machine\":" << jsonString(resp.machine)
     << ",\"ranks\":" << jsonInt(resp.ranks)
     << ",\"flows\":" << jsonInt(resp.flows)
     << ",\"mcl\":" << jsonDouble(resp.mcl)
     << ",\"hop_bytes\":" << jsonDouble(resp.hopBytes)
     << ",\"queue_sec\":" << jsonDouble(resp.queueSeconds)
     << ",\"solve_sec\":" << jsonDouble(resp.solveSeconds)
     << ",\"cache\":{\"route_hits\":" << jsonInt(resp.cache.routeHits)
     << ",\"route_misses\":" << jsonInt(resp.cache.routeMisses)
     << ",\"incidence_hits\":" << jsonInt(resp.cache.incidenceHits)
     << ",\"incidence_misses\":" << jsonInt(resp.cache.incidenceMisses)
     << ",\"evictions\":" << jsonInt(resp.cache.evictions)
     << ",\"bytes\":" << jsonInt(resp.cache.bytes) << "}";
  // The rahtm.bench.report/v1-style fragment: benchmark/mapper/metrics in
  // record key order, so ledger tooling can lift it directly.
  const obs::RunRecord rec = responseRecord(resp);
  os << ",\"ledger\":{\"benchmark\":" << jsonString(rec.benchmark)
     << ",\"mapper\":" << jsonString(rec.mapper) << ",\"metrics\":{";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    if (i != 0) os << ",";
    os << jsonString(rec.metrics[i].first) << ":"
       << jsonDouble(rec.metrics[i].second);
  }
  os << "}}";
  if (includeMapping && resp.ok) {
    os << ",\"mapping\":[";
    for (RankId r = 0; r < resp.mapping.numRanks(); ++r) {
      if (r != 0) os << ",";
      os << "[" << jsonInt(resp.mapping.nodeOf(r)) << ","
         << jsonInt(resp.mapping.slotOf(r)) << "]";
    }
    os << "]";
  }
  os << "}";
}

std::string mapResponseJson(const MapResponse& resp, bool includeMapping) {
  std::ostringstream os;
  writeMapResponseJson(os, resp, includeMapping);
  return os.str();
}

std::vector<std::string> validateServeResponseJson(
    const obs::JsonValue& doc) {
  std::vector<std::string> problems;
  const auto need = [&](const char* key, bool ok) {
    if (!ok) problems.push_back(std::string("missing or mistyped '") + key +
                                "'");
  };
  if (!doc.isObject()) {
    problems.push_back("response must be a JSON object");
    return problems;
  }
  if (doc.stringOr("schema", "") != kServeResponseSchema) {
    problems.push_back("schema must be '" +
                       std::string(kServeResponseSchema) + "'");
  }
  const obs::JsonValue* id = doc.find("id");
  need("id", id != nullptr && id->isString());
  const obs::JsonValue* ok = doc.find("ok");
  need("ok", ok != nullptr && ok->kind == obs::JsonValue::Kind::Bool);
  for (const char* key : {"benchmark", "mapper", "machine"}) {
    const obs::JsonValue* v = doc.find(key);
    need(key, v != nullptr && v->isString());
  }
  for (const char* key :
       {"ranks", "flows", "mcl", "hop_bytes", "queue_sec", "solve_sec"}) {
    const obs::JsonValue* v = doc.find(key);
    need(key, v != nullptr && v->isNumber());
  }
  const obs::JsonValue* cache = doc.find("cache");
  if (cache == nullptr || !cache->isObject()) {
    problems.push_back("missing or mistyped 'cache'");
  } else {
    for (const char* key : {"route_hits", "route_misses", "incidence_hits",
                            "incidence_misses", "evictions", "bytes"}) {
      const obs::JsonValue* v = cache->find(key);
      need(key, v != nullptr && v->isNumber());
    }
  }
  const obs::JsonValue* ledger = doc.find("ledger");
  if (ledger == nullptr || !ledger->isObject()) {
    problems.push_back("missing or mistyped 'ledger'");
  } else {
    need("ledger.benchmark", ledger->find("benchmark") != nullptr &&
                                 ledger->find("benchmark")->isString());
    need("ledger.mapper", ledger->find("mapper") != nullptr &&
                              ledger->find("mapper")->isString());
    const obs::JsonValue* metrics = ledger->find("metrics");
    if (metrics == nullptr || !metrics->isObject()) {
      problems.push_back("missing or mistyped 'ledger.metrics'");
    } else {
      for (const auto& [name, value] : metrics->object) {
        if (!value.isNumber() && !value.isString()) {
          problems.push_back("ledger metric '" + name +
                             "' must be a number");
        }
      }
    }
  }
  if (ok != nullptr && ok->kind == obs::JsonValue::Kind::Bool &&
      ok->boolean) {
    const obs::JsonValue* mapping = doc.find("mapping");
    if (mapping != nullptr) {
      if (!mapping->isArray()) {
        problems.push_back("'mapping' must be an array");
      } else {
        const obs::JsonValue* ranks = doc.find("ranks");
        if (ranks != nullptr && ranks->isNumber() &&
            mapping->array.size() !=
                static_cast<std::size_t>(ranks->number)) {
          problems.push_back("'mapping' length != ranks");
        }
        for (const obs::JsonValue& e : mapping->array) {
          if (!e.isArray() || e.array.size() != 2 ||
              !e.array[0].isNumber() || !e.array[1].isNumber()) {
            problems.push_back("'mapping' entries must be [node,slot]");
            break;
          }
        }
      }
    }
  }
  return problems;
}

}  // namespace rahtm::serve
