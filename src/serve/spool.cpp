#include "serve/spool.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include "util/json.hpp"

namespace rw::serve {

namespace fs = std::filesystem;

double file_idle_ms(const std::string& path, double fallback) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return fallback;
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const double now_ms = std::chrono::duration<double, std::milli>(now).count();
  const double mtime_ms = static_cast<double>(st.st_mtim.tv_sec) * 1000.0 +
                          static_cast<double>(st.st_mtim.tv_nsec) / 1e6;
  return std::max(0.0, now_ms - mtime_ms);
}

std::string spool_dir(const std::string& grid_dir) { return grid_dir + "/spool"; }

std::string spool_path(const std::string& dir, const std::string& task_key) {
  std::string flat = task_key;
  std::replace(flat.begin(), flat.end(), '/', '_');
  return dir + "/" + flat + ".task";
}

std::optional<util::FileLease> publish_spool_record(const std::string& path,
                                                    const WorkerTask& task, double ttl_ms) {
  // The WorkerTask document with the owner's TTL spliced in as its first
  // key (parse_worker_task skips unknown keys, so the body is both).
  std::string body = "{\"ttl_ms\":" + util::json::format_double(ttl_ms) + ",";
  const std::string task_json = to_json(task);
  body.append(task_json, 1, task_json.size() - 1);  // splice past the '{'
  body += '\n';
  return util::FileLease::publish(path, body);
}

bool read_spool_record(const std::string& path, SpoolRecord& out) {
  // One pass over the WorkerTask document plus the spliced-in TTL.
  WorkerTask task;
  double ttl = 0.0;
  bool has_ttl = false;
  std::string error;
  const bool parsed = util::json::parse_object_file(
      path, error, [&](util::json::Reader& r, std::string_view key) {
        if (key == "ttl_ms") return has_ttl = r.number(ttl);
        return read_worker_task_member(r, key, task);
      });
  if (!parsed || !has_ttl || task.task.empty() || task.cell.empty()) return false;
  const double age = file_idle_ms(path, -1.0);
  if (age < 0.0) return false;
  out.task = std::move(task);
  out.ttl_ms = ttl;
  out.age_ms = age;
  return true;
}

std::vector<std::string> list_spool_tasks(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string p = it->path().string();
    if (p.size() >= 5 && p.compare(p.size() - 5, 5, ".task") == 0) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rw::serve
