#include "svc/server.hpp"

#include <chrono>
#include <cstddef>

#include <unistd.h>

namespace nomc::svc {
namespace {

/// A session mid-export stops generating rows once this many bytes wait in
/// its outbox; the pump resumes as the kernel drains them. This is what
/// bounds server memory against a slow reader.
constexpr std::size_t kExportHighWater = std::size_t{64} * 1024;

}  // namespace

std::int64_t Server::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Server::open(const ServerConfig& config, std::string& error) {
  close();
  if (config.workers > 0 && config.worker_argv.empty()) {
    error = "workers > 0 needs a worker command line";
    return false;
  }
  config_ = config;
  if (!cache_.configure(config.data_dir, error)) return false;
  if (!listen_unix(config.socket_path, listener_, error)) return false;
  return true;
}

void Server::close() {
  job_.reset();
  job_queue_.clear();
  pool_.stop();
  failed_.clear();
  sessions_.clear();
  if (listener_.valid()) {
    listener_.close();
    ::unlink(config_.socket_path.c_str());
  }
  shutdown_requested_ = false;
  submissions_ = computed_ = cache_hits_ = retried_ = 0;
  peak_outbox_ = 0;
  next_session_id_ = 1;
}

bool Server::shutdown_complete() const {
  if (!shutdown_requested_) return false;
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (session->sent < session->outbox.size()) return false;  // reply in flight
  }
  return true;
}

bool Server::run(std::string& error) {
  while (running()) {
    if (!step(-1, error)) return false;
  }
  return true;
}

Server::Session* Server::find_session(std::uint64_t id) {
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (session->id == id) return session.get();
  }
  return nullptr;
}

bool Server::step(int timeout_ms, std::string& error) {
  if (!listener_.valid()) {
    error = "server is not open";
    return false;
  }

  // Clamp the wait: an outstanding lease needs its deadline checked, and a
  // session mid-export with outbox headroom has rows ready to generate now.
  int timeout = timeout_ms;
  if (job_) {
    const std::int64_t deadline = job_->leases.next_deadline();
    if (deadline >= 0) {
      std::int64_t wait = deadline - now_ms();
      if (wait < 0) wait = 0;
      if (wait > 60000) wait = 60000;
      if (timeout < 0 || static_cast<std::int64_t>(timeout) > wait)
        timeout = static_cast<int>(wait);
    }
  }
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (session->export_job && session->outbox.size() - session->sent < kExportHighWater) {
      timeout = 0;
      break;
    }
  }

  std::vector<PollEntry> entries;
  entries.reserve(sessions_.size() + 2);
  PollEntry listen_entry;
  listen_entry.fd = listener_.fd();
  listen_entry.want_read = !shutdown_requested_;
  entries.push_back(listen_entry);
  const std::size_t polled_sessions = sessions_.size();
  for (const std::unique_ptr<Session>& session : sessions_) {
    PollEntry entry;
    entry.fd = session->socket.fd();
    entry.want_read = !session->peer_closed;
    entry.want_write = session->sent < session->outbox.size();
    entries.push_back(entry);
  }
  // Worker stdout pipes join the poll set while a sharded campaign runs
  // (poll_sockets is fd-generic).
  std::vector<int> worker_slots;
  if (job_) {
    for (int slot = 0; slot < pool_.size(); ++slot) {
      if (!pool_.alive(slot)) continue;
      PollEntry entry;
      entry.fd = pool_.read_fd(slot);
      entry.want_read = true;
      entries.push_back(entry);
      worker_slots.push_back(slot);
    }
  }
  if (!poll_sockets(entries, timeout, error)) return false;

  if (entries[0].readable) {
    // Drain the accept queue.
    while (true) {
      Socket accepted;
      bool got = false;
      if (!accept_unix(listener_, accepted, got, error)) return false;
      if (!got) break;
      auto session = std::make_unique<Session>();
      session->id = next_session_id_++;
      session->socket = std::move(accepted);
      session->splitter = LineSplitter{config_.max_line};
      sessions_.push_back(std::move(session));
    }
  }

  // Read + execute. New sessions appended above had no poll slot; they are
  // picked up next step.
  for (std::size_t i = 0; i < polled_sessions && i < sessions_.size(); ++i) {
    Session& session = *sessions_[i];
    const PollEntry& entry = entries[i + 1];
    if (entry.broken) {
      session.peer_closed = true;
      session.outbox.clear();
      session.sent = 0;
      session.export_job.reset();
      continue;
    }
    if (entry.readable && !session.peer_closed) {
      bool closed = false;
      bool would_block = false;
      std::string bytes;
      if (!read_available(session.socket, bytes, std::size_t{1} << 20, closed, would_block,
                          error)) {
        session.peer_closed = true;
        session.outbox.clear();
        session.sent = 0;
        session.export_job.reset();
        error.clear();  // a broken peer is not a server error
        continue;
      }
      session.splitter.feed(bytes);
      std::string line;
      bool oversized = false;
      while (session.splitter.take(line, oversized)) serve_line(session, line, oversized);
      if (closed) session.peer_closed = true;
    }
  }

  // Worker pipe events, then lease-deadline expiry, then hand fresh leases
  // to whoever is idle. Each stage can end the job (fault or completion),
  // so every one re-checks job_.
  for (std::size_t i = 0; i < worker_slots.size() && job_; ++i) {
    const PollEntry& entry = entries[1 + polled_sessions + i];
    if (entry.readable || entry.broken) handle_worker_io(worker_slots[i]);
  }
  if (job_) {
    for (const int slot : job_->leases.expired(now_ms())) {
      fault_worker(slot, "lease timed out");
      if (!job_) break;
    }
  }
  if (job_ && job_->leases.done()) complete_job();
  if (job_) assign_leases();

  // Generate export rows where there is headroom, then flush every outbox
  // (including sessions that gained replies outside their own poll slot —
  // sharded submit replies land on waiter sessions).
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& session = *sessions_[i];
    pump_export(session);
    if (session.sent < session.outbox.size()) {
      if (!write_some(session.socket, session.outbox, session.sent, error)) {
        session.peer_closed = true;
        session.outbox.clear();
        session.sent = 0;
        session.export_job.reset();
        error.clear();
      } else if (session.sent == session.outbox.size()) {
        session.outbox.clear();
        session.sent = 0;
      }
    }
  }

  // Drop sessions whose peer is gone and whose replies are flushed.
  for (std::size_t i = 0; i < sessions_.size();) {
    Session& session = *sessions_[i];
    if (session.peer_closed && session.sent >= session.outbox.size()) {
      sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return true;
}

void Server::reply(Session& session, const std::string& line) {
  session.outbox += line;
  session.outbox += '\n';
  const std::size_t pending = session.outbox.size() - session.sent;
  if (pending > peak_outbox_) peak_outbox_ = pending;
}

void Server::serve_line(Session& session, const std::string& line, bool oversized) {
  if (session.export_job) {
    // Mid-export the reply stream belongs to the CSV rows; later requests
    // are served after the terminator, in arrival order.
    session.deferred.emplace_back(line, oversized);
    return;
  }
  if (oversized) {
    reply(session, error_reply("request line exceeds " + std::to_string(config_.max_line) +
                               " bytes"));
    return;
  }
  if (line.empty()) return;  // blank keep-alive lines are ignored

  Request request;
  std::string error;
  if (!parse_request(line, request, error)) {
    reply(session, error_reply(error));
    return;
  }
  if (request.op == "ping") {
    reply(session, pong_reply());
  } else if (request.op == "submit") {
    handle_submit(session, request);
  } else if (request.op == "status") {
    handle_status(session, request);
  } else if (request.op == "query") {
    handle_query(session, request);
  } else if (request.op == "export") {
    handle_export(session, request);
  } else if (request.op == "shutdown") {
    abort_jobs("server is shutting down");
    reply(session, shutdown_reply());
    shutdown_requested_ = true;
  } else {
    reply(session, error_reply("unknown op: " + request.op));
  }
}

void Server::handle_submit(Session& session, const Request& request) {
  if (request.spec.empty()) {
    reply(session, error_reply("submit needs a \"spec\""));
    return;
  }
  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  if (!exp::parse_campaign(request.spec, spec, spec_error)) {
    reply(session, error_reply("bad spec: " + spec_error.str()));
    return;
  }
  std::string error;
  CampaignEntry* entry = cache_.intern(spec, error);
  if (entry == nullptr) {
    reply(session, error_reply(error));
    return;
  }

  // Cache probe: every grid point already on disk is a hit and is never
  // re-simulated; only the gap is computed (Resume keeps the existing
  // records' bytes verbatim).
  int present = 0;
  if (!cache_.probe(*entry, present, error)) {
    reply(session, error_reply(error));
    return;
  }
  cache_hits_ += static_cast<std::uint64_t>(present);
  failed_.erase(entry->spec_hash);  // a resubmit gets a fresh retry budget
  if (present >= entry->points) {
    ++submissions_;
    reply(session, submit_reply(entry->spec_hash, entry->spec.name, entry->points,
                                entry->points));
    return;
  }

  if (config_.workers <= 0) {
    // Synchronous path: simulate on the server thread.
    exp::CampaignOptions options;
    options.jobs = config_.jobs;
    options.point_jobs = config_.point_jobs;
    options.mode = exp::CampaignOptions::Mode::kResume;
    options.quiet = config_.quiet;
    exp::CampaignStats stats;
    if (!exp::run_campaign(entry->spec, entry->store_path, options, &stats, error)) {
      reply(session, error_reply(error));
      return;
    }
    computed_ += static_cast<std::uint64_t>(stats.computed);
    ++submissions_;
    // The reply is a pure function of the spec: clients racing on the same
    // campaign read identical bytes whether their points were computed or
    // served from cache (the split is visible in the status counters).
    reply(session, submit_reply(entry->spec_hash, entry->spec.name, entry->points,
                                entry->points));
    return;
  }

  // Sharded path: the reply is deferred until the workers finish the grid.
  // A submit for the campaign already running (or queued) just joins its
  // waiter list — the grid is still simulated exactly once.
  if (job_ && job_->entry == entry) {
    job_->waiters.push_back(session.id);
    return;
  }
  for (QueuedJob& queued : job_queue_) {
    if (queued.entry == entry) {
      queued.waiters.push_back(session.id);
      return;
    }
  }
  QueuedJob queued;
  queued.entry = entry;
  queued.waiters.push_back(session.id);
  job_queue_.push_back(std::move(queued));
  if (!job_) start_next_job();
}

void Server::reply_waiters_error(const std::vector<std::uint64_t>& waiters,
                                 const std::string& message) {
  for (const std::uint64_t id : waiters) {
    if (Session* session = find_session(id)) reply(*session, error_reply(message));
  }
}

void Server::start_next_job() {
  std::string error;
  while (!job_ && !job_queue_.empty()) {
    QueuedJob queued = std::move(job_queue_.front());
    job_queue_.pop_front();
    auto job = std::make_unique<ShardedJob>();
    job->entry = queued.entry;
    job->waiters = std::move(queued.waiters);
    if (!exp::prepare_store(queued.entry->spec, queued.entry->store_path,
                            exp::CampaignOptions::Mode::kResume, job->plan, error)) {
      reply_waiters_error(job->waiters, error);
      continue;
    }
    if (job->plan.pending.empty()) {
      // A job queued behind the one that finished this grid: nothing left.
      for (const std::uint64_t id : job->waiters) {
        if (Session* session = find_session(id)) {
          ++submissions_;
          reply(*session, submit_reply(job->entry->spec_hash, job->entry->spec.name,
                                       job->entry->points, job->entry->points));
        }
      }
      continue;
    }
    if (!pool_.start(config_.worker_argv, config_.workers, error)) {
      reply_waiters_error(job->waiters, "worker pool: " + error);
      continue;
    }
    job->spec_text = exp::format_campaign(queued.entry->spec);
    // max_pending = pending.size(): the single-threaded server must never
    // block in submit(), and the reorder buffer can never hold more than
    // the whole grid.
    job->checkpointer = std::make_unique<exp::OrderedCheckpointer>(
        job->plan.writer, job->plan.timing, job->plan.pending.size());
    for (std::size_t slot = 0; slot < job->plan.pending.size(); ++slot)
      job->slot_of_point[job->plan.pending[slot]] = static_cast<int>(slot);
    job->leases.reset(job->plan.pending, config_.worker_retries);
    job_ = std::move(job);
    assign_leases();
  }
}

void Server::assign_leases() {
  if (!job_) return;
  for (int slot = 0; slot < pool_.size() && job_; ++slot) {
    if (!pool_.alive(slot) || job_->leases.has_lease(slot)) continue;
    int first = 0;
    int count = 0;
    if (!job_->leases.acquire(slot, config_.lease_points,
                              now_ms() + config_.lease_timeout_ms, first, count))
      break;  // queue drained; stragglers keep their outstanding leases
    LeaseRequest lease;
    lease.spec = job_->spec_text;
    lease.first = first;
    lease.count = count;
    lease.jobs = config_.jobs;
    if (!pool_.send_lease(slot, lease)) fault_worker(slot, "lease write failed");
  }
}

void Server::handle_worker_io(int slot) {
  bool closed = false;
  if (!pool_.drain(slot, closed)) {
    fault_worker(slot, "pipe read failed");
    return;
  }
  std::string line;
  bool oversized = false;
  while (job_ && pool_.take_line(slot, line, oversized)) {
    if (oversized) {
      fault_worker(slot, "oversized worker line");
      return;
    }
    if (!process_worker_line(slot, line)) return;
  }
  // EOF after the buffered lines: the worker exited (crash, kill, or exec
  // failure). Whatever its lease still owed goes back on the queue.
  if (job_ && closed) fault_worker(slot, "worker exited");
}

bool Server::process_worker_line(int slot, const std::string& line) {
  WorkerReply worker_reply;
  std::string error;
  if (!parse_worker_reply(line, worker_reply, error)) {
    fault_worker(slot, "protocol fault: " + error);
    return false;
  }
  if (worker_reply.done) {
    if (!job_->leases.finish(slot)) {
      fault_worker(slot, "done line with points outstanding");
      return false;
    }
    if (job_->leases.done()) complete_job();
    return job_ != nullptr;
  }
  // Validate the record BEFORE completing it against the lease, so a bad
  // line costs the worker its lease instead of silently losing the point.
  if (!job_->leases.point_outstanding(slot, worker_reply.point)) {
    fault_worker(slot, "record for unleased point " + std::to_string(worker_reply.point));
    return false;
  }
  exp::ResultRecord record;
  if (!exp::parse_record(worker_reply.record, record, error) ||
      record.point != worker_reply.point || record.spec_hash != job_->entry->spec_hash) {
    fault_worker(slot, "record does not match the lease");
    return false;
  }
  job_->leases.complete(slot, worker_reply.point);
  std::string timing_line = "{\"point\":" + std::to_string(worker_reply.point) + ",\"wall_ms\":";
  exp::json_append_double(timing_line, worker_reply.wall_ms);
  timing_line += '}';
  job_->checkpointer->submit(job_->slot_of_point[worker_reply.point], worker_reply.record,
                             std::move(timing_line), std::string{});
  ++computed_;
  return true;
}

void Server::fault_worker(int slot, const std::string& reason) {
  pool_.kill_slot(slot);
  if (job_ && !job_->leases.revoke(slot)) {
    fail_active_job("points " + std::to_string(job_->leases.failed_first()) + ".." +
                    std::to_string(job_->leases.failed_first() + job_->leases.failed_count() -
                                   1) +
                    " exhausted their retry budget (" + reason + ")");
    return;
  }
  std::string error;
  if (!pool_.respawn(slot, error) && job_) {
    bool any_alive = false;
    for (int s = 0; s < pool_.size(); ++s) {
      if (pool_.alive(s)) any_alive = true;
    }
    if (!any_alive) fail_active_job("no workers left: " + error);
  }
}

void Server::fail_active_job(const std::string& message) {
  retried_ += job_->leases.retried();
  failed_[job_->entry->spec_hash] = {job_->leases.failed_first(), job_->leases.failed_count()};
  reply_waiters_error(job_->waiters,
                      "campaign " + job_->entry->spec_hash + " failed: " + message);
  job_.reset();
  // Surviving workers may still be computing leases of the dead job; their
  // output must not bleed into the next one.
  pool_.stop();
  start_next_job();
}

void Server::complete_job() {
  std::string error;
  retried_ += job_->leases.retried();
  if (!job_->checkpointer->finish(error)) {
    failed_[job_->entry->spec_hash] = {0, 0};
    reply_waiters_error(job_->waiters, error);
    job_.reset();
    pool_.stop();
    start_next_job();
    return;
  }
  for (const std::uint64_t id : job_->waiters) {
    if (Session* session = find_session(id)) {
      ++submissions_;
      reply(*session, submit_reply(job_->entry->spec_hash, job_->entry->spec.name,
                                   job_->entry->points, job_->entry->points));
    }
  }
  job_.reset();  // closes the store writers; the pool stays warm for the next job
  start_next_job();
}

void Server::abort_jobs(const std::string& message) {
  if (job_) {
    retried_ += job_->leases.retried();
    reply_waiters_error(job_->waiters, message);
    job_.reset();
  }
  for (QueuedJob& queued : job_queue_) reply_waiters_error(queued.waiters, message);
  job_queue_.clear();
  pool_.stop();
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (session->export_job) {
      reply(*session, error_reply(message));
      session->export_job.reset();
      session->deferred.clear();
    }
  }
}

void Server::handle_status(Session& session, const Request& request) {
  StatusInfo info;
  info.submissions = submissions_;
  info.computed = computed_;
  info.cache_hits = cache_hits_;
  info.campaigns = cache_.size();
  info.retried = retried();
  if (!request.spec_hash.empty()) {
    CampaignEntry* entry = cache_.find(request.spec_hash);
    if (entry == nullptr) {
      reply(session, error_reply("unknown campaign: " + request.spec_hash));
      return;
    }
    info.campaigns = cache_.size();  // find() may have lazy-loaded one
    std::string error;
    int present = 0;
    if (!cache_.probe(*entry, present, error)) {
      reply(session, error_reply(error));
      return;
    }
    info.campaign = entry->spec.name;
    info.spec_hash = entry->spec_hash;
    info.points = entry->points;
    info.done = present;
    bool running = job_ && job_->entry == entry;
    for (const QueuedJob& queued : job_queue_) {
      if (queued.entry == entry) running = true;
    }
    if (running) {
      info.state = "running";
    } else if (const auto it = failed_.find(entry->spec_hash); it != failed_.end()) {
      info.state = "failed";
      info.failed_first = it->second.first;
      info.failed_count = it->second.second;
    } else {
      info.state = present >= entry->points ? "complete" : "partial";
    }
  }
  reply(session, status_reply(info));
}

void Server::handle_query(Session& session, const Request& request) {
  if (request.spec_hash.empty() || !request.has_point) {
    reply(session, error_reply("query needs \"spec_hash\" and \"point\""));
    return;
  }
  CampaignEntry* entry = cache_.find(request.spec_hash);
  if (entry == nullptr) {
    reply(session, error_reply("unknown campaign: " + request.spec_hash));
    return;
  }
  exp::StoreIndex index;
  std::string error;
  if (!index.open(entry->store_path, entry->spec_hash, error)) {
    reply(session, error_reply(error));
    return;
  }
  const exp::StoreIndex::Entry* record = index.find(request.spec_hash, request.point);
  if (record == nullptr) {
    reply(session, error_reply("point " + std::to_string(request.point) +
                               " is not stored for " + request.spec_hash));
    return;
  }
  std::string line;
  if (!index.read_line(*record, line, error)) {
    reply(session, error_reply(error));
    return;
  }
  reply(session, query_reply(line));
}

void Server::handle_export(Session& session, const Request& request) {
  if (request.spec_hash.empty()) {
    reply(session, error_reply("export needs \"spec_hash\""));
    return;
  }
  CampaignEntry* entry = cache_.find(request.spec_hash);
  if (entry == nullptr) {
    reply(session, error_reply("unknown campaign: " + request.spec_hash));
    return;
  }
  auto job = std::make_unique<ExportJob>();
  job->index = std::make_unique<exp::StoreIndex>();
  std::string error;
  if (!job->index->open(entry->store_path, entry->spec_hash, error)) {
    reply(session, error_reply(error));
    return;
  }
  // Pass 1 (cheap, one record in memory at a time): the sweep-key union in
  // first-seen order — the same rule as export_csv_lines, so the streamed
  // bytes are identical to the local `nomc-campaign export-csv` output.
  exp::ResultRecord record;
  for (const exp::StoreIndex::Entry& entry_ref : job->index->entries()) {
    if (!job->index->read_record(entry_ref, record, error)) {
      reply(session, error_reply(error));
      return;
    }
    exp::csv_collect_sweep_keys(record, job->sweep_keys);
  }
  session.export_job = std::move(job);
  // Rows are generated by pump_export as the outbox drains; the reply to
  // any request that arrives mid-export is deferred past the terminator.
}

void Server::pump_export(Session& session) {
  std::string error;
  while (session.export_job && session.outbox.size() - session.sent < kExportHighWater) {
    ExportJob& job = *session.export_job;
    if (!job.header_sent) {
      std::string header = exp::csv_header(job.sweep_keys);
      header.pop_back();  // reply lines carry their own newline
      reply(session, export_row(header));
      job.header_sent = true;
      continue;
    }
    if (job.row_pos < job.rows.size()) {
      reply(session, export_row(job.rows[job.row_pos++]));
      ++job.emitted;
      continue;
    }
    if (job.next_entry >= job.index->entries().size()) {
      reply(session, export_done(job.emitted));
      session.export_job.reset();
      break;
    }
    exp::ResultRecord record;
    if (!job.index->read_record(job.index->entries()[job.next_entry], record, error)) {
      reply(session, error_reply(error));
      session.export_job.reset();
      break;
    }
    ++job.next_entry;
    job.rows = exp::csv_record_rows(record, job.sweep_keys);
    job.row_pos = 0;
  }
  // Serve requests that queued up behind the export stream (one of them may
  // start the next export, which re-defers the rest).
  while (!session.export_job && !session.deferred.empty()) {
    auto [line, oversized] = std::move(session.deferred.front());
    session.deferred.pop_front();
    serve_line(session, line, oversized);
  }
}

}  // namespace nomc::svc
