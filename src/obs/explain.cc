#include "obs/explain.h"

#include <time.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

namespace ultraverse::obs {

namespace {

constexpr const char* kVerdictNames[kNumTxnVerdicts] = {
    "replayed",
    "retro-target",
    "pruned-read-only",
    "pruned-static-footprint",
    "pruned-predicate-disjoint",
    "pruned-column-disjoint",
    "cluster-excluded",
    "hash-jump-skip",
    "result-cache-hit",
};

void AppendQuoted(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    switch (c) {
      case '"': *out << "\\\""; break;
      case '\\': *out << "\\\\"; break;
      case '\n': *out << "\\n"; break;
      case '\t': *out << "\\t"; break;
      case '\r': *out << "\\r"; break;
      default:
        if (uint8_t(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out << buf;
        } else {
          *out << c;
        }
    }
  }
  *out << '"';
}

void AppendStringArray(std::ostringstream* out,
                       const std::vector<std::string>& v) {
  *out << '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) *out << ',';
    AppendQuoted(out, v[i]);
  }
  *out << ']';
}

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser, sufficient for round-
// tripping ToJson() output (objects, arrays, strings, integers, booleans).
// Shared by WhatIfReport::FromJson and the flight-recorder dump reader.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue* Get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  uint64_t U64(const std::string& key, uint64_t fallback = 0) const {
    const JsonValue* v = Get(key);
    return v && v->kind == kNumber ? uint64_t(v->num) : fallback;
  }
  int64_t I64(const std::string& key, int64_t fallback = 0) const {
    const JsonValue* v = Get(key);
    return v && v->kind == kNumber ? int64_t(v->num) : fallback;
  }
  std::string Str(const std::string& key) const {
    const JsonValue* v = Get(key);
    return v && v->kind == kString ? v->str : std::string();
  }
  bool Bool(const std::string& key) const {
    const JsonValue* v = Get(key);
    return v && v->kind == kBool && v->b;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::optional<JsonValue> Parse() {
    auto v = ParseValue();
    if (!v) return std::nullopt;
    SkipWs();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(uint8_t(s_[pos_]))) ++pos_;
  }
  bool Eat(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return std::nullopt;
    char c = s_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || std::isdigit(uint8_t(c))) return ParseNumber();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue v;
      v.kind = JsonValue::kBool;
      v.b = true;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue v;
      v.kind = JsonValue::kBool;
      return v;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return std::nullopt;
  }

  std::optional<JsonValue> ParseObject() {
    if (!Eat('{')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::kObject;
    if (Eat('}')) return v;
    while (true) {
      auto key = ParseString();
      if (!key || !Eat(':')) return std::nullopt;
      auto val = ParseValue();
      if (!val) return std::nullopt;
      v.obj.emplace(std::move(key->str), std::move(*val));
      if (Eat('}')) return v;
      if (!Eat(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseArray() {
    if (!Eat('[')) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::kArray;
    if (Eat(']')) return v;
    while (true) {
      auto val = ParseValue();
      if (!val) return std::nullopt;
      v.arr.push_back(std::move(*val));
      if (Eat(']')) return v;
      if (!Eat(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseString() {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '"') return std::nullopt;
    ++pos_;
    JsonValue v;
    v.kind = JsonValue::kString;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= s_.size()) return std::nullopt;
        char e = s_[pos_++];
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'r': v.str += '\r'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else return std::nullopt;
            }
            // ToJson only emits \u for control bytes; pass others through
            // as a single byte when they fit, else drop to '?'.
            v.str += code < 0x100 ? char(code) : '?';
            break;
          }
          default: return std::nullopt;
        }
      } else {
        v.str += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> ParseNumber() {
    SkipWs();
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(uint8_t(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.num = std::strtod(s_.c_str() + start, nullptr);
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::vector<std::string> ReadStringArray(const JsonValue* v) {
  std::vector<std::string> out;
  if (!v || v->kind != JsonValue::kArray) return out;
  for (const auto& e : v->arr) {
    if (e.kind == JsonValue::kString) out.push_back(e.str);
  }
  return out;
}

}  // namespace

const char* TxnVerdictName(TxnVerdict v) {
  return kVerdictNames[size_t(v)];
}

std::optional<TxnVerdict> TxnVerdictFromName(const std::string& name) {
  for (int i = 0; i < kNumTxnVerdicts; ++i) {
    if (name == kVerdictNames[i]) return TxnVerdict(i);
  }
  return std::nullopt;
}

const TxnExplain* WhatIfReport::FindTxn(uint64_t index) const {
  for (const auto& t : txns) {
    if (t.index == index && !t.is_new) return &t;
  }
  return nullptr;
}

std::string WhatIfReport::ToJson() const {
  std::ostringstream out;
  out << "{\"op\":";
  AppendQuoted(&out, op);
  out << ",\"target_index\":" << target_index << ",\"mode\":";
  AppendQuoted(&out, mode);
  out << ",\"level\":"
      << (level == ExplainLevel::kOff
              ? "\"off\""
              : level == ExplainLevel::kSummary ? "\"summary\"" : "\"full\"");
  out << ",\"suffix_size\":" << suffix_size << ",\"replayed\":" << replayed
      << ",\"skipped\":" << skipped;
  out << ",\"verdict_counts\":{";
  bool first = true;
  for (int i = 0; i < kNumTxnVerdicts; ++i) {
    if (!verdict_counts[size_t(i)]) continue;
    if (!first) out << ',';
    first = false;
    AppendQuoted(&out, kVerdictNames[i]);
    out << ':' << verdict_counts[size_t(i)];
  }
  out << '}';
  out << ",\"hash_jump\":" << (hash_jump ? "true" : "false")
      << ",\"hash_jump_index\":" << hash_jump_index;
  out << ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i) out << ',';
    out << "{\"name\":";
    AppendQuoted(&out, phases[i].name);
    out << ",\"wall_us\":" << phases[i].wall_us
        << ",\"cpu_us\":" << phases[i].cpu_us << '}';
  }
  out << ']';
  out << ",\"staging\":{\"tables_staged\":" << tables_staged
      << ",\"pages_faulted\":" << pages_faulted
      << ",\"staged_bytes\":" << staged_bytes << '}';
  out << ",\"vm\":{\"plan_cache_hits\":" << plan_cache_hits
      << ",\"plan_cache_misses\":" << plan_cache_misses
      << ",\"index_path\":" << vm_index_path
      << ",\"scan_path\":" << vm_scan_path
      << ",\"advisory_built\":" << vm_advisory_built
      << ",\"tree_fallback\":" << vm_tree_fallbacks << '}';
  out << ",\"lifecycle\":{\"retries\":" << retries
      << ",\"faults_injected\":" << faults_injected << ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i) out << ',';
    out << "{\"kind\":";
    AppendQuoted(&out, events[i].kind);
    out << ",\"detail\":";
    AppendQuoted(&out, events[i].detail);
    out << ",\"at_us\":" << events[i].at_us << '}';
  }
  out << "]}";
  out << ",\"txns\":[";
  for (size_t i = 0; i < txns.size(); ++i) {
    const TxnExplain& t = txns[i];
    if (i) out << ',';
    out << "{\"index\":" << t.index
        << ",\"is_new\":" << (t.is_new ? "true" : "false") << ",\"verdict\":";
    AppendQuoted(&out, TxnVerdictName(t.verdict));
    out << ",\"evidence\":";
    AppendQuoted(&out, t.evidence);
    out << ",\"reads\":";
    AppendStringArray(&out, t.read_tables);
    out << ",\"writes\":";
    AppendStringArray(&out, t.write_tables);
    if (t.rebuild_widened) out << ",\"rebuild_widened\":true";
    if (t.cluster_id >= 0) out << ",\"cluster_id\":" << t.cluster_id;
    if (!t.digest.empty()) {
      out << ",\"digest\":";
      AppendQuoted(&out, t.digest);
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

std::optional<WhatIfReport> WhatIfReport::FromJson(const std::string& json) {
  auto parsed = JsonParser(json).Parse();
  if (!parsed || parsed->kind != JsonValue::kObject) return std::nullopt;
  const JsonValue& root = *parsed;
  WhatIfReport r;
  r.op = root.Str("op");
  r.target_index = root.U64("target_index");
  r.mode = root.Str("mode");
  std::string level = root.Str("level");
  r.level = level == "off" ? ExplainLevel::kOff
            : level == "full" ? ExplainLevel::kFull
                              : ExplainLevel::kSummary;
  r.suffix_size = root.U64("suffix_size");
  r.replayed = root.U64("replayed");
  r.skipped = root.U64("skipped");
  if (const JsonValue* vc = root.Get("verdict_counts")) {
    for (const auto& [name, count] : vc->obj) {
      auto v = TxnVerdictFromName(name);
      if (!v || count.kind != JsonValue::kNumber) return std::nullopt;
      r.verdict_counts[size_t(*v)] = uint64_t(count.num);
    }
  }
  r.hash_jump = root.Bool("hash_jump");
  r.hash_jump_index = root.U64("hash_jump_index");
  if (const JsonValue* phases = root.Get("phases")) {
    for (const auto& p : phases->arr) {
      PhaseBreakdown pb;
      pb.name = p.Str("name");
      pb.wall_us = p.U64("wall_us");
      pb.cpu_us = p.U64("cpu_us");
      r.phases.push_back(std::move(pb));
    }
  }
  if (const JsonValue* st = root.Get("staging")) {
    r.tables_staged = st->U64("tables_staged");
    r.pages_faulted = st->U64("pages_faulted");
    r.staged_bytes = st->U64("staged_bytes");
  }
  if (const JsonValue* vm = root.Get("vm")) {
    r.plan_cache_hits = vm->U64("plan_cache_hits");
    r.plan_cache_misses = vm->U64("plan_cache_misses");
    r.vm_index_path = vm->U64("index_path");
    r.vm_scan_path = vm->U64("scan_path");
    r.vm_advisory_built = vm->U64("advisory_built");
    r.vm_tree_fallbacks = vm->U64("tree_fallback");
  }
  if (const JsonValue* lc = root.Get("lifecycle")) {
    r.retries = lc->U64("retries");
    r.faults_injected = lc->U64("faults_injected");
    if (const JsonValue* ev = lc->Get("events")) {
      for (const auto& e : ev->arr) {
        LifecycleEvent le;
        le.kind = e.Str("kind");
        le.detail = e.Str("detail");
        le.at_us = e.U64("at_us");
        r.events.push_back(std::move(le));
      }
    }
  }
  if (const JsonValue* txns = root.Get("txns")) {
    for (const auto& t : txns->arr) {
      TxnExplain te;
      te.index = t.U64("index");
      te.is_new = t.Bool("is_new");
      auto v = TxnVerdictFromName(t.Str("verdict"));
      if (!v) return std::nullopt;
      te.verdict = *v;
      te.evidence = t.Str("evidence");
      te.read_tables = ReadStringArray(t.Get("reads"));
      te.write_tables = ReadStringArray(t.Get("writes"));
      te.rebuild_widened = t.Bool("rebuild_widened");
      te.cluster_id = t.I64("cluster_id", -1);
      te.digest = t.Str("digest");
      r.txns.push_back(std::move(te));
    }
  }
  return r;
}

std::string WhatIfReport::ToText(std::optional<uint64_t> txn_filter) const {
  std::ostringstream out;
  char buf[160];
  out << "what-if " << op << " @" << target_index << "  mode=" << mode
      << "  suffix=" << suffix_size << "  replayed=" << replayed
      << "  skipped=" << skipped;
  if (hash_jump) out << "  hash-jump@" << hash_jump_index;
  out << '\n';
  out << "verdicts:";
  for (int i = 0; i < kNumTxnVerdicts; ++i) {
    if (!verdict_counts[size_t(i)]) continue;
    out << ' ' << kVerdictNames[i] << '=' << verdict_counts[size_t(i)];
  }
  out << '\n';
  if (!phases.empty()) {
    out << "phases:\n";
    uint64_t wall_total = 0;
    for (const auto& p : phases) wall_total += p.wall_us;
    for (const auto& p : phases) {
      double pct = wall_total ? 100.0 * double(p.wall_us) / double(wall_total)
                              : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "  %-8s wall %8.3f ms  cpu %8.3f ms  %5.1f%%\n",
                    p.name.c_str(), double(p.wall_us) / 1e3,
                    double(p.cpu_us) / 1e3, pct);
      out << buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "staging: tables=%llu faults=%llu bytes=%llu\n",
                (unsigned long long)tables_staged,
                (unsigned long long)pages_faulted,
                (unsigned long long)staged_bytes);
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "vm: cache hit=%llu miss=%llu  index=%llu scan=%llu advisory=%llu "
      "tree-fallback=%llu\n",
      (unsigned long long)plan_cache_hits,
      (unsigned long long)plan_cache_misses, (unsigned long long)vm_index_path,
      (unsigned long long)vm_scan_path, (unsigned long long)vm_advisory_built,
      (unsigned long long)vm_tree_fallbacks);
  out << buf;
  if (retries || faults_injected || !events.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "lifecycle: retries=%llu faults=%llu events=%zu\n",
                  (unsigned long long)retries,
                  (unsigned long long)faults_injected, events.size());
    out << buf;
    for (const auto& e : events) {
      out << "  [" << e.kind << "] " << e.detail << '\n';
    }
  }
  if (!txns.empty()) {
    out << "transactions:\n";
    for (const auto& t : txns) {
      if (txn_filter && (t.index != *txn_filter || t.is_new)) continue;
      std::snprintf(buf, sizeof(buf), "  #%-6llu %-24s",
                    (unsigned long long)t.index,
                    t.is_new ? "new-statement" : TxnVerdictName(t.verdict));
      out << buf;
      if (!t.evidence.empty()) out << ' ' << t.evidence;
      if (t.rebuild_widened) out << " [rebuild-widened]";
      if (t.cluster_id >= 0) out << " cluster=" << t.cluster_id;
      if (!t.digest.empty()) out << " digest=" << t.digest;
      if (txn_filter && t.index == *txn_filter && !t.is_new) {
        out << "\n    reads:";
        for (const auto& rt : t.read_tables) out << ' ' << rt;
        out << "\n    writes:";
        for (const auto& wt : t.write_tables) out << ' ' << wt;
      }
      out << '\n';
    }
  }
  return out.str();
}

uint64_t NowCpuMicros() {
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return uint64_t(ts.tv_sec) * 1000000u + uint64_t(ts.tv_nsec) / 1000u;
}

}  // namespace ultraverse::obs
