#include "service/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "device/switch_tech.hpp"
#include "netlist/mcnc.hpp"
#include "netlist/synth_gen.hpp"

namespace nemfpga {
namespace {

/// Canonical backend name for the job's "variant" field. The registry
/// resolves the legacy protocol spellings ("nem", "nem_opt") itself; an
/// unknown name becomes a job-level error listing the registered
/// backends.
std::string backend_from_string(const std::string& s) {
  if (!switch_technology_registered(s)) {
    throw std::runtime_error("unknown variant '" + s + "' (registered: " +
                             registered_switch_technology_names() + ")");
  }
  return std::string(switch_technology(s).name());
}

/// Largest integer up to which every double is integer-exact (2^53).
constexpr double kMaxExactInt = 9007199254740992.0;

/// A client count: absent or null takes `def`; anything else must be a
/// JSON number holding an integer in [lo, 2^53], or the request fails
/// with an error naming the field. Protocol numbers arrive as doubles,
/// so a bare cast would turn -1 or 1e20 into undefined behaviour and
/// 2.5 into a silent truncation. A `def` below `lo` makes the field
/// required.
std::uint64_t count_field(const JsonObject& o, const std::string& key,
                          double def, double lo) {
  double v = def;
  const auto it = o.fields.find(key);
  if (it != o.fields.end() && it->second.kind != JsonValue::Kind::kNull) {
    v = it->second.kind == JsonValue::Kind::kNumber ? it->second.num : -1.0;
  }
  if (!(v >= lo && v <= kMaxExactInt && v == std::floor(v))) {
    throw std::runtime_error(key + " must be an integer in [" +
                             std::to_string(static_cast<int>(lo)) +
                             ", 2^53]");
  }
  return static_cast<std::uint64_t>(v);
}

char hex_digit(std::uint64_t v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

std::string hex64(std::uint64_t v) {
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    s += hex_digit((v >> shift) & 0xf);
  }
  return s;
}

std::string serialize_result(const JsonObject& req, const FlowJobResult& r) {
  JsonWriter w;
  if (req.has("id")) w.field("id", req.get_number("id"));
  w.field("ok", r.ok);
  w.field("name", r.name);
  if (!r.ok) {
    w.field("error", r.error);
    return w.str();
  }
  w.field("nx", static_cast<std::uint64_t>(r.nx));
  w.field("ny", static_cast<std::uint64_t>(r.ny));
  w.field("w", static_cast<std::uint64_t>(r.w));
  w.field("iterations", static_cast<std::uint64_t>(r.route_iterations));
  w.field("overused", static_cast<std::uint64_t>(r.overused_nodes));
  w.field("tree_checksum", hex64(r.tree_checksum));
  w.field("placement_cost", r.placement_cost);
  w.field("critical_path_s", r.critical_path_s);
  w.field("lookahead_cached", r.counters.lookahead_cached);
  w.field("t_lookahead_build_s", r.counters.t_lookahead_build_s);
  w.field("wall_s", r.wall_s);
  return w.str();
}

std::string serialize_error(const JsonObject& req, const std::string& why) {
  JsonWriter w;
  if (req.has("id")) w.field("id", req.get_number("id"));
  w.field("ok", false);
  w.field("error", why);
  return w.str();
}

/// One pending response: either already rendered, or a job in flight
/// whose result renders when its turn to be written comes.
struct PendingResponse {
  std::string ready;
  std::future<FlowJobResult> fut;
  JsonObject req;
  bool is_future = false;
};

bool send_line(int fd, const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + off, out.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

FlowJob job_from_json(const JsonObject& o, const ServeOptions& defaults) {
  FlowJob job;
  job.opt.arch = defaults.arch;
  const std::string bench = o.get_string("benchmark");
  if (!bench.empty()) {
    job.name = bench;
    job.netlist = generate_benchmark(bench);
  } else if (o.has("synth_luts")) {
    SynthSpec spec;
    spec.n_luts = count_field(o, "synth_luts", 0.0, 1.0);
    spec.n_inputs = count_field(o, "inputs", 32.0, 1.0);
    spec.n_outputs = count_field(o, "outputs", 32.0, 0.0);
    spec.n_latches = count_field(o, "latches", 0.0, 0.0);
    if (spec.n_latches > spec.n_luts) {
      throw std::runtime_error("latches must not exceed synth_luts");
    }
    spec.locality = o.get_number("locality", 1.0);
    spec.name = "synth-" + std::to_string(spec.n_luts);
    job.name = spec.name;
    job.netlist = generate_netlist(spec);
  } else {
    throw std::runtime_error(
        "flow request needs \"benchmark\" or \"synth_luts\"");
  }
  job.opt.arch.W =
      count_field(o, "w", static_cast<double>(job.opt.arch.W), 2.0);
  job.opt.place.seed = count_field(o, "seed", 1.0, 0.0);
  job.opt.route.timing_driven = o.get_bool("timing", false);
  job.opt.timing_backend =
      backend_from_string(o.get_string("variant", "cmos"));
  job.opt.arch.sb_pattern =
      sb_pattern_from_name(o.get_string("sb_pattern", "wilton"));
  return job;
}

ServeServer::ServeServer(const ServeOptions& opt)
    : opt_(opt),
      cache_(opt.cache_bytes),
      scheduler_(cache_, opt.workers) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opt.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(opt.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

ServeServer::~ServeServer() {
  shutdown();
  for (std::thread& t : conns_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ServeServer::shutdown() {
  if (!stop_.exchange(true) && listen_fd_ >= 0) {
    // Unblock the accept loop; run() joins the connections.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void ServeServer::run() {
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load()) break;
      continue;  // transient accept failure
    }
    conns_.emplace_back([this, fd] { connection_loop(fd); });
  }
  for (std::thread& t : conns_) {
    if (t.joinable()) t.join();
  }
  conns_.clear();
}

std::string ServeServer::stats_json() {
  const ArtifactCache::Stats cs = cache_.stats();
  const JobScheduler::Counters jc = scheduler_.counters();
  JsonWriter w;
  w.field("ok", true);
  w.field("workers", static_cast<std::uint64_t>(scheduler_.workers()));
  w.field("jobs_submitted", jc.submitted);
  w.field("jobs_completed", jc.completed);
  w.field("jobs_failed", jc.failed);
  w.field("cache_hits", cs.hits);
  w.field("cache_misses", cs.misses);
  w.field("cache_evictions", cs.evictions);
  w.field("cache_single_flight_waits", cs.single_flight_waits);
  w.field("cache_failed_builds", cs.failed_builds);
  w.field("cache_resident_bytes", static_cast<std::uint64_t>(cs.resident_bytes));
  w.field("cache_entries", static_cast<std::uint64_t>(cs.entries));
  w.field("cache_max_bytes", static_cast<std::uint64_t>(cache_.max_bytes()));
  return w.str();
}

std::string ServeServer::handle_request_line(const std::string& line) {
  JsonObject req;
  try {
    req = parse_json_object(line);
    const std::string op = req.get_string("op");
    if (op == "flow") {
      FlowJob job = job_from_json(req, opt_);
      return serialize_result(req, scheduler_.submit(std::move(job)).get());
    }
    if (op == "stats") {
      std::string s = stats_json();
      if (req.has("id")) {
        JsonWriter w;
        w.field("id", req.get_number("id"));
        const std::string idobj = w.str();
        // Splice the id in front of the stats body: {"id":N, + rest.
        s = idobj.substr(0, idobj.size() - 1) + "," + s.substr(1);
      }
      return s;
    }
    if (op == "shutdown") {
      shutdown();
      JsonWriter w;
      if (req.has("id")) w.field("id", req.get_number("id"));
      w.field("ok", true);
      w.field("shutting_down", true);
      return w.str();
    }
    throw std::runtime_error("unknown op '" + op + "'");
  } catch (const std::exception& e) {
    return serialize_error(req, e.what());
  }
}

void ServeServer::connection_loop(int fd) {
  // Reader (this thread) parses and submits; the writer thread renders
  // responses strictly in request order, blocking on each job future in
  // turn — so pipelined requests run concurrently on the scheduler while
  // the wire stays ordered.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<PendingResponse> pending;
  bool done = false;

  std::thread writer([&] {
    for (;;) {
      PendingResponse p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      std::string line;
      if (p.is_future) {
        try {
          line = serialize_result(p.req, p.fut.get());
        } catch (const std::exception& e) {
          line = serialize_error(p.req, e.what());
        }
      } else {
        line = std::move(p.ready);
      }
      if (!send_line(fd, line)) return;  // client went away
    }
  });

  const auto push = [&](PendingResponse p) {
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(p));
    }
    cv.notify_one();
  };

  std::string buf;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      if (opt_.verbose) {
        std::printf("serve: <- %s\n", line.c_str());
        std::fflush(stdout);
      }
      PendingResponse p;
      try {
        p.req = parse_json_object(line);
        const std::string op = p.req.get_string("op");
        if (op == "flow") {
          FlowJob job = job_from_json(p.req, opt_);
          p.fut = scheduler_.submit(std::move(job));
          p.is_future = true;
        } else {
          p.ready = handle_request_line(line);
        }
      } catch (const std::exception& e) {
        p.ready = serialize_error(p.req, e.what());
      }
      push(std::move(p));
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  writer.join();
  ::close(fd);
}

}  // namespace nemfpga
