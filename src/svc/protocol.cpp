#include "svc/protocol.hpp"

namespace nomc::svc {

void LineSplitter::feed(const std::string& bytes) {
  for (const char byte : bytes) {
    if (byte == '\n') {
      if (discarding_) {
        lines_.emplace_back();
        oversized_.push_back(true);
        discarding_ = false;
      } else {
        lines_.push_back(std::move(buffer_));
        oversized_.push_back(false);
      }
      buffer_.clear();
      continue;
    }
    if (discarding_) continue;
    buffer_.push_back(byte);
    if (buffer_.size() >= max_line_) {
      buffer_.clear();
      discarding_ = true;
    }
  }
}

bool LineSplitter::take(std::string& line, bool& oversized) {
  if (next_ >= lines_.size()) {
    if (next_ != 0) {
      lines_.clear();
      oversized_.clear();
      next_ = 0;
    }
    return false;
  }
  line = std::move(lines_[next_]);
  oversized = oversized_[next_];
  ++next_;
  return true;
}

bool parse_request(const std::string& line, Request& out, std::string& error) {
  exp::JsonValue root;
  if (!exp::parse_json(line, root, error)) {
    error = "bad JSON: " + error;
    return false;
  }
  if (root.type != exp::JsonValue::Type::kObject) {
    error = "request must be a JSON object";
    return false;
  }
  const exp::JsonValue* op = root.find("op");
  if (op == nullptr || op->type != exp::JsonValue::Type::kString || op->string.empty()) {
    error = "request needs a string \"op\"";
    return false;
  }
  out = Request{};
  out.op = op->string;
  if (const exp::JsonValue* spec = root.find("spec");
      spec != nullptr && spec->type == exp::JsonValue::Type::kString)
    out.spec = spec->string;
  if (const exp::JsonValue* hash = root.find("spec_hash");
      hash != nullptr && hash->type == exp::JsonValue::Type::kString)
    out.spec_hash = hash->string;
  if (const exp::JsonValue* point = root.find("point");
      point != nullptr && point->type == exp::JsonValue::Type::kNumber) {
    if (!exp::json_int(point, out.point)) {
      error = "\"point\" must be an integer";
      return false;
    }
    out.has_point = true;
  }
  return true;
}

std::string error_reply(const std::string& message) {
  std::string out = "{\"ok\":false,\"error\":";
  exp::json_append_string(out, message);
  out += '}';
  return out;
}

std::string pong_reply() { return "{\"ok\":true,\"pong\":true}"; }

std::string submit_reply(const std::string& spec_hash, const std::string& campaign,
                         int points, int done) {
  std::string out = "{\"ok\":true,\"spec_hash\":";
  exp::json_append_string(out, spec_hash);
  out += ",\"campaign\":";
  exp::json_append_string(out, campaign);
  out += ",\"points\":" + std::to_string(points);
  out += ",\"done\":" + std::to_string(done);
  out += '}';
  return out;
}

std::string status_reply(const StatusInfo& info) {
  std::string out = "{\"ok\":true,\"submissions\":" + std::to_string(info.submissions);
  out += ",\"computed\":" + std::to_string(info.computed);
  out += ",\"cache_hits\":" + std::to_string(info.cache_hits);
  out += ",\"campaigns\":" + std::to_string(info.campaigns);
  out += ",\"retried\":" + std::to_string(info.retried);
  if (!info.campaign.empty()) {
    out += ",\"campaign\":";
    exp::json_append_string(out, info.campaign);
    out += ",\"spec_hash\":";
    exp::json_append_string(out, info.spec_hash);
    out += ",\"points\":" + std::to_string(info.points);
    out += ",\"done\":" + std::to_string(info.done);
    if (!info.state.empty()) {
      out += ",\"state\":";
      exp::json_append_string(out, info.state);
      if (info.state == "failed") {
        out += ",\"failed_first\":" + std::to_string(info.failed_first);
        out += ",\"failed_count\":" + std::to_string(info.failed_count);
      }
    }
  }
  out += '}';
  return out;
}

std::string query_reply(const std::string& record_line) {
  std::string out = "{\"ok\":true,\"record\":";
  exp::json_append_string(out, record_line);
  out += '}';
  return out;
}

std::string export_row(const std::string& csv_line) {
  std::string out = "{\"csv\":";
  exp::json_append_string(out, csv_line);
  out += '}';
  return out;
}

std::string export_done(std::uint64_t rows) {
  return "{\"ok\":true,\"done\":true,\"rows\":" + std::to_string(rows) + "}";
}

std::string shutdown_reply() { return "{\"ok\":true,\"shutdown\":true}"; }

bool parse_reply(const std::string& line, exp::JsonValue& out, std::string& error) {
  if (!exp::parse_json(line, out, error)) {
    error = "bad reply JSON: " + error;
    return false;
  }
  if (out.type != exp::JsonValue::Type::kObject) {
    error = "reply must be a JSON object";
    return false;
  }
  return true;
}

std::string lease_line(const LeaseRequest& lease) {
  std::string out = "{\"op\":\"lease\",\"spec\":";
  exp::json_append_string(out, lease.spec);
  out += ",\"first\":" + std::to_string(lease.first);
  out += ",\"count\":" + std::to_string(lease.count);
  out += ",\"jobs\":" + std::to_string(lease.jobs);
  out += '}';
  return out;
}

bool parse_lease(const std::string& line, LeaseRequest& out, std::string& error) {
  exp::JsonValue root;
  if (!exp::parse_json(line, root, error)) {
    error = "bad lease JSON: " + error;
    return false;
  }
  const exp::JsonValue* op = root.find("op");
  if (op == nullptr || op->type != exp::JsonValue::Type::kString || op->string != "lease") {
    error = "not a lease line";
    return false;
  }
  out = LeaseRequest{};
  const exp::JsonValue* spec = root.find("spec");
  if (spec == nullptr || spec->type != exp::JsonValue::Type::kString ||
      !exp::json_int(root.find("first"), out.first) ||
      !exp::json_int(root.find("count"), out.count)) {
    error = "lease needs \"spec\", \"first\", and \"count\"";
    return false;
  }
  out.spec = spec->string;
  if (const exp::JsonValue* jobs = root.find("jobs");
      jobs != nullptr && jobs->type == exp::JsonValue::Type::kNumber &&
      !exp::json_int(jobs, out.jobs)) {
    error = "lease \"jobs\" must be an integer";
    return false;
  }
  return true;
}

std::string worker_record_line(int point, double wall_ms, const std::string& record) {
  std::string out = "{\"point\":" + std::to_string(point) + ",\"wall_ms\":";
  exp::json_append_double(out, wall_ms);
  out += ",\"record\":";
  exp::json_append_string(out, record);
  out += '}';
  return out;
}

std::string worker_done_line(int first, int count) {
  return "{\"done\":true,\"first\":" + std::to_string(first) +
         ",\"count\":" + std::to_string(count) + "}";
}

bool parse_worker_reply(const std::string& line, WorkerReply& out, std::string& error) {
  exp::JsonValue root;
  if (!exp::parse_json(line, root, error)) {
    error = "bad worker JSON: " + error;
    return false;
  }
  if (root.type != exp::JsonValue::Type::kObject) {
    error = "worker line must be a JSON object";
    return false;
  }
  out = WorkerReply{};
  if (const exp::JsonValue* done = root.find("done");
      done != nullptr && done->type == exp::JsonValue::Type::kBool && done->boolean) {
    if (!exp::json_int(root.find("first"), out.first) ||
        !exp::json_int(root.find("count"), out.count)) {
      error = "done line needs \"first\" and \"count\"";
      return false;
    }
    out.done = true;
    return true;
  }
  const exp::JsonValue* wall_ms = root.find("wall_ms");
  const exp::JsonValue* record = root.find("record");
  if (!exp::json_int(root.find("point"), out.point) ||
      wall_ms == nullptr || wall_ms->type != exp::JsonValue::Type::kNumber ||
      record == nullptr || record->type != exp::JsonValue::Type::kString) {
    error = "worker line needs \"point\", \"wall_ms\", and \"record\"";
    return false;
  }
  out.wall_ms = wall_ms->number;
  out.record = record->string;
  return true;
}

}  // namespace nomc::svc
