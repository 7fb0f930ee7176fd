#include "serve/protocol.hpp"

#include "util/json.hpp"
#include "util/strings.hpp"

namespace rw::serve {

namespace {

using util::json::format_double;
using util::json::Reader;

void append_field(std::string& out, const char* key, const std::string& value, bool& first) {
  out += first ? "\"" : ",\"";
  first = false;
  out += key;
  out += "\":";
  util::append_json_string(out, value);
}

void append_field(std::string& out, const char* key, double value, bool& first) {
  out += first ? "\"" : ",\"";
  first = false;
  out += key;
  out += "\":";
  out += format_double(value);
}

void append_field(std::string& out, const char* key, bool value, bool& first) {
  out += first ? "\"" : ",\"";
  first = false;
  out += key;
  out += "\":";
  out += value ? "true" : "false";
}

}  // namespace

aging::AgingScenario Request::scenario() const {
  return aging::AgingScenario{lambda_p, lambda_n, years, include_mobility};
}

aging::AgingScenario WorkerTask::scenario() const {
  return aging::AgingScenario{lambda_p, lambda_n, years, include_mobility};
}

std::string to_json(const Request& r) {
  std::string out = "{";
  bool first = true;
  append_field(out, "id", r.id, first);
  append_field(out, "op", r.op, first);
  if (!r.cell.empty()) append_field(out, "cell", r.cell, first);
  append_field(out, "lambda_p", r.lambda_p, first);
  append_field(out, "lambda_n", r.lambda_n, first);
  append_field(out, "years", r.years, first);
  append_field(out, "mobility", r.include_mobility, first);
  if (!r.netlist.empty()) append_field(out, "netlist", r.netlist, first);
  if (r.guardband_ps >= 0.0) append_field(out, "guardband_ps", r.guardband_ps, first);
  if (r.deadline_ms > 0.0) append_field(out, "deadline_ms", r.deadline_ms, first);
  if (r.max_age_ms >= 0.0) append_field(out, "max_age_ms", r.max_age_ms, first);
  if (!r.corners.empty()) {
    out += ",\"corners\":[";
    for (std::size_t i = 0; i < r.corners.size(); ++i) {
      if (i != 0) out += ',';
      out += '[';
      out += format_double(r.corners[i][0]);
      out += ',';
      out += format_double(r.corners[i][1]);
      out += ']';
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string to_json(const Response& r) {
  std::string out = "{";
  bool first = true;
  append_field(out, "id", r.id, first);
  append_field(out, "status", r.status, first);
  if (!r.error.empty()) append_field(out, "error", r.error, first);
  if (!r.library.empty()) append_field(out, "library", r.library, first);
  if (!r.result.empty()) append_field(out, "result", r.result, first);
  if (r.retry_after_ms > 0.0) append_field(out, "retry_after_ms", r.retry_after_ms, first);
  if (!r.stats.empty()) {
    out += ",\"stats\":{";
    for (std::size_t i = 0; i < r.stats.size(); ++i) {
      if (i != 0) out += ',';
      util::append_json_string(out, r.stats[i].first);
      out += ':';
      out += format_double(r.stats[i].second);
    }
    out += '}';
  }
  out += '}';
  return out;
}

std::string to_json(const WorkerTask& t) {
  std::string out = "{";
  bool first = true;
  append_field(out, "task", t.task, first);
  append_field(out, "cell", t.cell, first);
  append_field(out, "lambda_p", t.lambda_p, first);
  append_field(out, "lambda_n", t.lambda_n, first);
  append_field(out, "years", t.years, first);
  append_field(out, "mobility", t.include_mobility, first);
  if (t.hang_ms > 0.0) append_field(out, "hang_ms", t.hang_ms, first);
  if (t.exit_now) append_field(out, "exit", t.exit_now, first);
  out += '}';
  return out;
}

std::string to_json(const WorkerReply& r) {
  std::string out = "{";
  bool first = true;
  append_field(out, "task", r.task, first);
  append_field(out, "status", r.status, first);
  if (!r.error.empty()) append_field(out, "error", r.error, first);
  append_field(out, "permanent", r.permanent, first);
  if (!r.payload.empty()) append_field(out, "payload", r.payload, first);
  out += '}';
  return out;
}

bool parse_request(const std::string& line, Request& out, std::string& error) {
  out = Request{};
  return util::json::parse_object(line, error, [&out](Reader& r, std::string_view key) {
    if (key == "id") return r.string(out.id);
    if (key == "op") return r.string(out.op);
    if (key == "cell") return r.string(out.cell);
    if (key == "lambda_p") return r.number(out.lambda_p);
    if (key == "lambda_n") return r.number(out.lambda_n);
    if (key == "years") return r.number(out.years);
    if (key == "mobility") return r.boolean(out.include_mobility);
    if (key == "netlist") return r.string(out.netlist);
    if (key == "guardband_ps") return r.number(out.guardband_ps);
    if (key == "deadline_ms") return r.number(out.deadline_ms);
    if (key == "max_age_ms") return r.number(out.max_age_ms);
    if (key == "corners") {
      return r.array([&out](Reader& r) {
        std::array<double, 2> corner{};
        std::size_t n = 0;
        if (!r.array([&](Reader& r) { return n < 2 && r.number(corner[n++]); }) || n != 2) {
          return false;
        }
        out.corners.push_back(corner);
        return true;
      });
    }
    return r.skip();
  });
}

bool parse_response(const std::string& line, Response& out, std::string& error) {
  out = Response{};
  return util::json::parse_object(line, error, [&out](Reader& r, std::string_view key) {
    if (key == "id") return r.string(out.id);
    if (key == "status") return r.string(out.status);
    if (key == "error") return r.string(out.error);
    if (key == "library") return r.string(out.library);
    if (key == "result") return r.string(out.result);
    if (key == "retry_after_ms") return r.number(out.retry_after_ms);
    if (key == "stats") {
      return r.object([&out](Reader& r, std::string_view name) {
        double value = 0.0;
        if (!r.number(value)) return false;
        out.stats.emplace_back(std::string(name), value);
        return true;
      });
    }
    return r.skip();
  });
}

bool read_worker_task_member(Reader& r, std::string_view key, WorkerTask& out) {
  if (key == "task") return r.string(out.task);
  if (key == "cell") return r.string(out.cell);
  if (key == "lambda_p") return r.number(out.lambda_p);
  if (key == "lambda_n") return r.number(out.lambda_n);
  if (key == "years") return r.number(out.years);
  if (key == "mobility") return r.boolean(out.include_mobility);
  if (key == "hang_ms") return r.number(out.hang_ms);
  if (key == "exit") return r.boolean(out.exit_now);
  return r.skip();
}

bool parse_worker_task(const std::string& line, WorkerTask& out, std::string& error) {
  out = WorkerTask{};
  return util::json::parse_object(line, error, [&out](Reader& r, std::string_view key) {
    return read_worker_task_member(r, key, out);
  });
}

bool parse_worker_reply(const std::string& line, WorkerReply& out, std::string& error) {
  out = WorkerReply{};
  return util::json::parse_object(line, error, [&out](Reader& r, std::string_view key) {
    if (key == "task") return r.string(out.task);
    if (key == "status") return r.string(out.status);
    if (key == "error") return r.string(out.error);
    if (key == "permanent") return r.boolean(out.permanent);
    if (key == "payload") return r.string(out.payload);
    return r.skip();
  });
}

}  // namespace rw::serve
