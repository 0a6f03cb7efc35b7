#include "service/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "analysis/congestion.h"
#include "common/error.h"
#include "obs/flightrec.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/spans.h"
#include "obs/trace.h"

namespace jrsvc {

using jroute::EndPoint;
using jroute::Pin;
using xcvsim::ContentionError;
using xcvsim::JRouteError;
using xcvsim::kInvalidNode;
using xcvsim::NetId;
using xcvsim::RowCol;
using xcvsim::UnroutableError;

const char* opName(Op op) {
  switch (op) {
    case Op::kRouteP2P: return "p2p";
    case Op::kRouteFanout: return "fanout";
    case Op::kRouteBus: return "bus";
    case Op::kUnroute: return "unroute";
  }
  return "?";
}

const char* rejectName(Reject r) {
  switch (r) {
    case Reject::kNone: return "none";
    case Reject::kContention: return "contention";
    case Reject::kUnroutable: return "unroutable";
    case Reject::kOverloaded: return "overloaded";
    case Reject::kDeadlineExpired: return "deadline-expired";
    case Reject::kNotOwner: return "not-owner";
    case Reject::kBadArgument: return "bad-argument";
    case Reject::kShutdown: return "shutdown";
  }
  return "?";
}

namespace {

/// Margin (tiles) added around each request's bounding box when deciding
/// tile-disjointness for the parallel phase. Commit-time checks make
/// correctness independent of this value; it only tunes how often two
/// plans want the same wire and one of them falls back at commit.
constexpr int kPartitionMargin = 1;
/// How long an idle engine waits for the first request of a batch.
constexpr std::chrono::milliseconds kIdleDrainTimeout{100};

RouteResult accepted(NodeId netSource, bool parallel) {
  RouteResult r;
  r.outcome = Outcome::kAccepted;
  r.reason = Reject::kNone;
  r.netSource = netSource;
  r.routedInParallel = parallel;
  return r;
}

RouteResult rejected(Reject reason, std::string detail) {
  RouteResult r;
  r.outcome = Outcome::kRejected;
  r.reason = reason;
  r.detail = std::move(detail);
  return r;
}

/// Engine telemetry: the distributions ServiceStats cannot hold. The
/// outcome counts live only in ServiceStats. One resolution per process.
struct EngineMetrics {
  jrobs::Gauge& queueDepth =
      jrobs::registry().gauge("service.queue.depth");
  jrobs::Histogram& batchSize =
      jrobs::registry().histogram("service.batch.size");
  jrobs::Histogram& batchDrcUs =
      jrobs::registry().histogram("service.batch.drc_us");
  jrobs::Histogram& paranoidUs =
      jrobs::registry().histogram("txn.drc_paranoid_us");
};

EngineMetrics& metrics() {
  static EngineMetrics m;
  return m;
}

/// JROUTE_DRC_PARANOID: cross-check the fabric against the static rule
/// set at every engine commit and rollback. The bitstream decode is
/// skipped here (it is O(config size)); the per-batch pass covers it.
void paranoidCheck(jroute::Router& router, const char* when) {
  if (!jrdrc::paranoidEnabled()) return;
  JR_TRACE_SCOPE("txn", "drc.paranoid");
  const uint64_t t0 = jrobs::nowNs();
  jrdrc::DrcInput in;
  in.fabric = &router.fabric();
  in.router = &router;
  in.checkBitstream = false;
  jrdrc::enforce(in, when);
  metrics().paranoidUs.record((jrobs::nowNs() - t0) / 1000);
}

/// The rejection a failed routing call's exception maps to.
RouteResult rejectedBy(const JRouteError& e) {
  if (const auto* c = dynamic_cast<const ContentionError*>(&e)) {
    RouteResult r = rejected(Reject::kContention, e.what());
    r.contendedNode = c->node();
    return r;
  }
  const bool unroutable = dynamic_cast<const UnroutableError*>(&e) != nullptr;
  return rejected(unroutable ? Reject::kUnroutable : Reject::kBadArgument,
                  e.what());
}

/// Do `req`'s endpoint counts fit its op?
bool wellShaped(const Request& req) {
  const size_t srcs = req.sources.size(), sinks = req.sinks.size();
  switch (req.op) {
    case Op::kRouteP2P: return srcs == 1 && sinks == 1;
    case Op::kRouteFanout: return srcs == 1 && sinks > 0;
    case Op::kRouteBus: return srcs > 0 && srcs == sinks;
    case Op::kUnroute: return srcs == 1 && sinks == 0;
  }
  return false;
}

/// The search effort a Router's cumulative stats grew by from `before`
/// to `after`: the part recorded in provenance.
jroute::RouteStats effortSince(const jroute::RouteStats& before,
                               const jroute::RouteStats& after) {
  jroute::RouteStats d;
  d.templateHits = after.templateHits - before.templateHits;
  d.shapeReuseHits = after.shapeReuseHits - before.shapeReuseHits;
  d.templateVisits = after.templateVisits - before.templateVisits;
  d.mazeRuns = after.mazeRuns - before.mazeRuns;
  d.mazeVisits = after.mazeVisits - before.mazeVisits;
  d.selTemplate = after.selTemplate - before.selTemplate;
  d.selLongLine = after.selLongLine - before.selLongLine;
  d.selMaze = after.selMaze - before.selMaze;
  return d;
}

}  // namespace

// --- Box ------------------------------------------------------------------------

void RoutingService::Box::add(RowCol rc) {
  r0 = std::min<int>(r0, rc.row);
  c0 = std::min<int>(c0, rc.col);
  r1 = std::max<int>(r1, rc.row);
  c1 = std::max<int>(c1, rc.col);
}

void RoutingService::Box::expand(int margin) {
  r0 -= margin;
  c0 -= margin;
  r1 += margin;
  c1 += margin;
}

bool RoutingService::Box::intersects(const Box& o) const {
  return r0 <= o.r1 && o.r0 <= r1 && c0 <= o.c1 && o.c0 <= c1;
}

// --- Lifecycle --------------------------------------------------------------------

RoutingService::RoutingService(xcvsim::Fabric& fabric, ServiceOptions opts)
    : fabric_(&fabric),
      opts_(opts),
      router_(fabric, opts.router),
      queue_(opts.queueCapacity) {
  unsigned planThreads = opts_.planThreads != 0
                             ? opts_.planThreads
                             : std::max(1u, std::thread::hardware_concurrency());
  enginePlanner_ = std::make_unique<Planner>(*fabric_, opts_.router);
  for (unsigned i = 1; i < planThreads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  if (!opts_.manualPump) {
    engine_ = std::thread([this] { engineLoop(); });
  }
}

RoutingService::~RoutingService() { stop(); }

void RoutingService::stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  if (engine_.joinable()) {
    engine_.join();
  } else {
    // Manual-pump mode: drain whatever is still queued.
    while (pumpOnce() > 0) {
    }
  }
  {
    jrsync::MutexLock lk(workMu_);
    shutdownWorkers_ = true;
  }
  workCv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

// --- Sessions ---------------------------------------------------------------------

Session RoutingService::openSession() {
  jrsync::MutexLock lk(fabricMu_);
  const uint64_t id = nextSessionId_++;
  openSessions_.insert(id);
  return Session(*this, id);
}

void RoutingService::closeSession(Session& session, bool unrouteOwned) {
  if (!session.valid()) return;
  const uint64_t id = session.id();
  // Under the fabric lock no batch is in flight, so every request of
  // this session has either committed (its nets are in netOwner_) or is
  // still queued (the engine will find the session closed and reject it).
  jrsync::MutexLock lk(fabricMu_);
  openSessions_.erase(id);
  if (unrouteOwned) {
    for (const NodeId src : netsOf(id)) {
      if (fabric_->isUsed(src)) unrouteNode(src);
    }
  }
  {
    jrsync::MutexLock olk(ownerMu_);
    std::erase_if(netOwner_,
                  [&](const auto& kv) { return kv.second == id; });
  }
  session.svc_ = nullptr;
  session.id_ = 0;
}

std::vector<NodeId> RoutingService::netsOf(uint64_t sessionId) const {
  jrsync::MutexLock lk(ownerMu_);
  std::vector<NodeId> out;
  for (const auto& [src, owner] : netOwner_) {
    if (owner == sessionId) out.push_back(src);
  }
  return out;
}

// --- Submission -------------------------------------------------------------------

std::future<RouteResult> RoutingService::submit(
    Op op, uint64_t sessionId, std::vector<EndPoint> sources,
    std::vector<EndPoint> sinks, Clock::time_point deadline) {
  Request req;
  req.op = op;
  req.id = nextRequestId_.fetch_add(1);
  req.sessionId = sessionId;
  req.sources = std::move(sources);
  req.sinks = std::move(sinks);
  req.deadline = deadline;
  req.span.stamp(jrobs::SpanStage::kEnqueue);
  std::future<RouteResult> fut = req.promise.get_future();
  stats_.submitted.fetch_add(1);
  if (!queue_.tryPush(std::move(req))) {
    // tryPush does not consume the request on failure. A refused request
    // resolves through finish() like any other, so its span, the SLO
    // monitor and the rejected counters all see it.
    const bool closed = queue_.closed();
    if (!closed) {
      stats_.overloaded.fetch_add(1);
    }
    finish(req, rejected(
                    closed ? Reject::kShutdown : Reject::kOverloaded,
                    closed ? "service stopped" : "request queue at capacity"));
  }
  return fut;
}

void RoutingService::withRouter(
    const std::function<void(jroute::Router&)>& fn) {
  jrsync::MutexLock lk(fabricMu_);
  fn(router_);
}

// --- Engine -----------------------------------------------------------------------

void RoutingService::engineLoop() {
  std::vector<Request> batch;
  while (true) {
    batch.clear();
    queue_.drain(batch, opts_.batchSize, kIdleDrainTimeout);
    if (batch.empty()) {
      if (queue_.closed() && queue_.size() == 0) return;
      continue;
    }
    for (Request& req : batch) {
      req.span.stamp(jrobs::SpanStage::kBatchClose);
    }
    jrsync::MutexLock lk(fabricMu_);
    processBatch(batch);
  }
}

size_t RoutingService::pumpOnce() {
  std::vector<Request> batch;
  queue_.drain(batch, opts_.batchSize, std::chrono::milliseconds(0));
  if (batch.empty()) return 0;
  for (Request& req : batch) {
    req.span.stamp(jrobs::SpanStage::kBatchClose);
  }
  jrsync::MutexLock lk(fabricMu_);
  processBatch(batch);
  return batch.size();
}

void RoutingService::finish(Request& req, RouteResult res) {
  // Fold the lifecycle span first: the record rides along in any
  // anomaly bundle this resolution fires, and the SLO monitor judges
  // the request by the span's end-to-end time (identical by
  // construction to the sum of its segments).
  req.span.stamp(jrobs::SpanStage::kReply);
  const jrobs::SpanRecord srec = jrobs::spanAggregator().fold(
      req.span, req.id, req.sessionId, opName(req.op),
      res.ok() ? "accepted" : rejectName(res.reason), res.routedInParallel);
  jrobs::sloMonitor().observe(srec.e2eUs, res.ok());
  if (res.ok()) {
    stats_.accepted.fetch_add(1);
  } else {
    stats_.rejected.fetch_add(1);
    switch (res.reason) {
      case Reject::kContention:
        stats_.contention.fetch_add(1);
        break;
      case Reject::kUnroutable:
        stats_.unroutable.fetch_add(1);
        break;
      case Reject::kDeadlineExpired:
        stats_.deadlineExpired.fetch_add(1);
        break;
      default: break;
    }
    if (res.reason == Reject::kContention ||
        res.reason == Reject::kDeadlineExpired) {
      // Post-mortem hook. Counters are always bumped inside anomaly();
      // the bundle context is only assembled when a dump will be written.
      jrobs::FlightRecorder& fr = jrobs::flightRecorder();
      const char* kind =
          res.reason == Reject::kContention ? "contention" : "deadline";
      fr.note("service", kind, req.id, res.contendedNode);
      std::string extra;
      if (fr.armed()) {
        extra = "{\"request_id\":" + std::to_string(req.id) +
                ",\"session_id\":" + std::to_string(req.sessionId) +
                ",\"op\":\"" + opName(req.op) + "\",\"provenance\":";
        // The most useful context for a contention dump is the record of
        // the net that already holds the contested wire.
        std::optional<jrobs::NetProvenance> holder;
        if (res.contendedNode != kInvalidNode &&
            fabric_->isUsed(res.contendedNode)) {
          holder = jrobs::provenance().find(
              fabric_->netSource(fabric_->netOf(res.contendedNode)));
        }
        extra += holder ? holder->json() : "null";
        extra += ",\"span\":" + srec.json();
        extra += "}";
      }
      fr.anomaly(kind, res.detail, extra);
    }
  }
  req.promise.set_value(std::move(res));
}

std::optional<RouteResult> RoutingService::precheck(const Request& req,
                                                    Checked& out) {
  const xcvsim::Graph& g = fabric_->graph();
  if (!wellShaped(req)) {
    return rejected(Reject::kBadArgument,
                    std::string(opName(req.op)) + " with " +
                        std::to_string(req.sources.size()) + " sources, " +
                        std::to_string(req.sinks.size()) + " sinks");
  }
  for (const EndPoint& ep : req.sources) {
    const auto pins = ep.resolve();
    if (pins.empty()) {
      return rejected(Reject::kBadArgument, "source has no bound pins");
    }
    for (const Pin& p : pins) out.box.add(p.rc);
    const NodeId n = g.nodeAt(pins.front().rc, pins.front().wire);
    if (n == kInvalidNode) {
      return rejected(Reject::kBadArgument, "source pin names no wire");
    }
    out.sources.push_back(n);
    if (!fabric_->isUsed(n)) {
      if (req.isRoute()) continue;
      return rejected(Reject::kBadArgument, g.nodeName(n) + " is not routed");
    }
    // Extending or freeing an existing net requires owning it.
    const NetId net = fabric_->netOf(n);
    jrsync::MutexLock lk(ownerMu_);
    const auto it = netOwner_.find(fabric_->netSource(net));
    if (it == netOwner_.end() || it->second != req.sessionId) {
      return rejected(Reject::kNotOwner, "net '" + fabric_->netName(net) +
                                             "' is not owned by this session");
    }
  }
  for (const EndPoint& ep : req.sinks) {
    const auto pins = ep.resolve();
    if (pins.empty()) {
      return rejected(Reject::kBadArgument, "sink has no bound pins");
    }
    for (const Pin& p : pins) out.box.add(p.rc);
  }
  return std::nullopt;
}

void RoutingService::processBatch(std::vector<Request>& reqs) {
  JR_TRACE_SCOPE("service", "batch");
  stats_.batches.fetch_add(1);
  metrics().batchSize.record(reqs.size());
  jrobs::flightRecorder().note("service", "batch", reqs.size(), queue_.size());
  metrics().queueDepth.set(static_cast<int64_t>(queue_.size()));
  const auto now = Clock::now();

  std::vector<PlanJob> jobs;
  std::vector<Request*> serial;
  std::vector<Box> taken;
  jobs.reserve(reqs.size());
  for (Request& req : reqs) {
    if (!openSessions_.contains(req.sessionId)) {
      // Closed after this request was queued (its nets are already gone)
      // or never opened: nothing may be routed in its name.
      finish(req, rejected(Reject::kBadArgument, "session closed"));
      continue;
    }
    if (req.hasDeadline() && now > req.deadline) {
      finish(req, rejected(Reject::kDeadlineExpired,
                           "expired before execution"));
      continue;
    }
    if (!req.isRoute()) {
      serial.push_back(&req);
      continue;
    }
    Checked checked;
    if (auto rej = precheck(req, checked)) {
      finish(req, std::move(*rej));
      continue;
    }
    Box& box = checked.box;
    box.expand(kPartitionMargin);
    const bool overlaps =
        std::any_of(taken.begin(), taken.end(),
                    [&](const Box& b) { return b.intersects(box); });
    if (overlaps) {
      serial.push_back(&req);
    } else {
      taken.push_back(box);
      jobs.push_back({.req = &req, .plan = {}});
    }
  }

  planAndCommit(jobs, serial);

  // Serialized phase: conflicting, fallen-back, and unroute requests, in
  // arrival order, against the post-commit fabric.
  if (!serial.empty()) {
    JR_TRACE_SCOPE("service", "serial");
    for (Request* req : serial) {
      finish(*req, executeSerial(*req));
    }
  }

  // Paranoid oracle: the batch is quiescent — every txn has committed or
  // rolled back — so the full static rule set must hold. The per-batch
  // pass includes the bitstream decode the per-txn checks skip.
  if (opts_.drcParanoid) {
    JR_TRACE_SCOPE("service", "drc.batch");
    const uint64_t t0 = jrobs::nowNs();
    std::vector<std::pair<NodeId, uint64_t>> owners;
    jrdrc::enforce(drcInput(/*includeBitstream=*/true, owners), "batch");
    metrics().batchDrcUs.record((jrobs::nowNs() - t0) / 1000);
  }
}

void RoutingService::planAndCommit(std::vector<PlanJob>& jobs,
                                   std::vector<Request*>& serial) {
  if (jobs.empty()) return;
  {
    // Parallel phase: fabric frozen, workers + engine plan concurrently.
    JR_TRACE_SCOPE("service", "plan.parallel");
    PlanPhase phase;
    phase.jobs = &jobs;
    const size_t numWorkers = workers_.size();
    if (numWorkers > 0) {
      {
        jrsync::MutexLock lk(workMu_);
        phase_ = &phase;
        ++workGen_;
      }
      workCv_.notify_all();
    }
    runJobs(phase, *enginePlanner_);
    if (numWorkers > 0) {
      jrsync::MutexLock lk(workMu_);
      doneCv_.wait(workMu_, [&]() JR_REQUIRES(workMu_) {
        return phase.workersDone.load(std::memory_order_acquire) ==
               numWorkers;
      });
      phase_ = nullptr;
    }
  }

  // Commit phase: apply plans serially, in submission order.
  JR_TRACE_SCOPE("service", "commit");
  for (PlanJob& job : jobs) {
    job.req->span.stamp(jrobs::SpanStage::kArbitration);
    if (job.plan.found) {
      if (std::optional<RouteResult> res = commitPlan(*job.req, job)) {
        finish(*job.req, std::move(*res));
        continue;
      }
    }
    if (job.plan.authoritative) {
      RouteResult rej = rejected(job.plan.reason, job.plan.detail);
      rej.contendedNode = job.plan.contendedNode;
      finish(*job.req, std::move(rej));
    } else {
      stats_.planFallbacks.fetch_add(1);
      serial.push_back(job.req);
    }
  }
}

void RoutingService::workerLoop() {
  Planner planner(*fabric_, opts_.router);
  uint64_t seen = 0;
  while (true) {
    PlanPhase* phase = nullptr;
    {
      jrsync::MutexLock lk(workMu_);
      workCv_.wait(workMu_, [&]() JR_REQUIRES(workMu_) {
        return shutdownWorkers_ || workGen_ != seen;
      });
      if (shutdownWorkers_) return;
      seen = workGen_;
      phase = phase_;
    }
    if (phase != nullptr) runJobs(*phase, planner);
    {
      jrsync::MutexLock lk(workMu_);
      if (phase != nullptr) {
        phase->workersDone.fetch_add(1, std::memory_order_release);
      }
    }
    doneCv_.notify_all();
  }
}

void RoutingService::runJobs(PlanPhase& phase, Planner& planner) {
  while (true) {
    const size_t i = phase.next.fetch_add(1);
    if (i >= phase.jobs->size()) return;
    PlanJob& job = (*phase.jobs)[i];
    // The planning thread owns this request's span until the engine
    // observes workersDone (release/acquire), so the cross-thread
    // stamps are ordered like the plan itself.
    job.req->span.stamp(jrobs::SpanStage::kPlanStart);
    job.plan = planner.plan(*job.req);
    job.req->span.stamp(jrobs::SpanStage::kPlanEnd);
  }
}

// --- Commit and serialized execution ---------------------------------------------

std::optional<RouteResult> RoutingService::commitPlan(Request& req,
                                                      const PlanJob& job) {
  // The plan was made against the fabric as the batch began, and an
  // earlier commit of this batch may have changed what its nets start
  // from: a fresh net's source must still be free, an extended net's
  // source still on that net. A global clock wire is one node that every
  // tile can name, so the bbox partition cannot keep two requests that
  // source it apart, and the later one must not extend the net the
  // earlier one just made.
  for (const PlannedNet& pn : job.plan.nets) {
    if (fabric_->netOf(pn.srcNode) != pn.existing) return std::nullopt;
  }
  jroute::Router::Txn txn(router_);
  std::vector<NodeId> netSources;
  try {
    for (const PlannedNet& pn : job.plan.nets) {
      router_.commitChain(pn.edges, router_.ensureNet(EndPoint(pn.srcPin)));
      netSources.push_back(pn.srcNode);
    }
  } catch (const JRouteError& e) {
    // A plan that wants a wire an earlier commit of this batch took is
    // retried on the authoritative serialized path.
    txn.rollback();
    paranoidCheck(router_, "txn rollback");
    jrobs::flightRecorder().anomaly(
        "rollback", std::string("parallel plan failed to apply: ") + e.what(),
        "{\"request_id\":" + std::to_string(req.id) + "}");
    return std::nullopt;
  }
  return commitRequest(req, txn, netSources, job.plan.effort,
                       /*parallel=*/true);
}

RouteResult RoutingService::executeSerial(Request& req) {
  if (req.hasDeadline() && Clock::now() > req.deadline) {
    return rejected(Reject::kDeadlineExpired, "expired before execution");
  }
  if (req.op == Op::kUnroute) return executeUnroute(req);

  // Serialized execution re-stamps plan/arbitration/commit: after a
  // parallel fallback these overwrite the abandoned attempt's stamps,
  // so the span attributes the time the authoritative path spent.
  req.span.stamp(jrobs::SpanStage::kPlanStart);

  // The fabric may have changed since the batch was classified; re-check.
  Checked checked;
  if (auto rej = precheck(req, checked)) return std::move(*rej);

  jroute::Router::Txn txn(router_);
  // Per-request search-effort deltas for provenance: the router's
  // cumulative counters bracket this txn (the engine serializes fabric
  // access, so no other request advances them in between).
  const jroute::RouteStats before = router_.stats();
  try {
    if (req.op == Op::kRouteBus) {
      router_.route(std::span<const EndPoint>(req.sources), req.sinks);
    } else {
      router_.route(req.sources.front(), req.sinks);
    }
  } catch (const JRouteError& e) {
    txn.rollback();
    paranoidCheck(router_, "txn rollback");
    return rejectedBy(e);
  }
  req.span.stamp(jrobs::SpanStage::kPlanEnd);
  req.span.stamp(jrobs::SpanStage::kArbitration);
  return commitRequest(req, txn, checked.sources,
                       effortSince(before, router_.stats()),
                       /*parallel=*/false);
}

RouteResult RoutingService::commitRequest(Request& req,
                                          jroute::Router::Txn& txn,
                                          const std::vector<NodeId>& netSources,
                                          const jroute::RouteStats& effort,
                                          bool parallel) {
  // The journal closes with the txn: read it first.
  std::vector<size_t> pipsPerNet;
  for (const NodeId src : netSources) {
    pipsPerNet.push_back(txn.pipsOf(fabric_->netOf(src)));
  }
  {
    jrsync::MutexLock lk(ownerMu_);
    for (const NetId net : txn.createdNets()) {
      netOwner_[fabric_->netSource(net)] = req.sessionId;
    }
  }
  txn.commit();
  paranoidCheck(router_, "txn commit");
  req.span.stamp(jrobs::SpanStage::kCommit);
  recordProvenance(req, parallel, netSources, pipsPerNet, effort);
  (parallel ? stats_.parallelPlanned : stats_.serialRouted).fetch_add(1);
  return accepted(netSources.front(), parallel);
}

RouteResult RoutingService::executeUnroute(Request& req) {
  Checked checked;
  if (auto rej = precheck(req, checked)) return std::move(*rej);
  const NodeId netSrc =
      fabric_->netSource(fabric_->netOf(checked.sources.front()));
  unrouteNode(netSrc);
  req.span.stamp(jrobs::SpanStage::kCommit);
  {
    jrsync::MutexLock lk(ownerMu_);
    netOwner_.erase(netSrc);
  }
  stats_.serialRouted.fetch_add(1);
  return accepted(netSrc, /*parallel=*/false);
}

void RoutingService::unrouteNode(NodeId source) {
  const NetId net = fabric_->netOf(source);
  router_.unrouteNode(source);
  // The net is gone; its provenance record goes with it ("rolled-back or
  // unrouted nets have none").
  jrobs::provenance().forget(source);
  jrobs::flightRecorder().note("service", "unroute", source, net);
}

void RoutingService::recordProvenance(const Request& req, bool parallel,
                                      const std::vector<NodeId>& netSources,
                                      const std::vector<size_t>& pipsPerNet,
                                      const jroute::RouteStats& effort) {
  if (!jrobs::compiledIn()) return;  // compile-time: the stub build pays 0
  // Enqueue-to-commit, from the span's own stamps: the caller stamped
  // kCommit just before.
  const uint64_t latencyUs = (req.span.at(jrobs::SpanStage::kCommit) -
                              req.span.at(jrobs::SpanStage::kEnqueue)) /
                             1000;
  const char* algo = jrobs::classifyAlgorithm(
      effort.templateHits, effort.mazeRuns, effort.shapeReuseHits);
  const char* selector = jrobs::classifySelector(
      effort.selTemplate, effort.selLongLine, effort.selMaze);
  // Bus bits are one net per source/sink pair; p2p/fanout put every sink
  // on the single net.
  const uint64_t sinksPerNet =
      req.op == Op::kRouteBus ? 1 : static_cast<uint64_t>(req.sinks.size());
  for (size_t i = 0; i < netSources.size(); ++i) {
    const NodeId src = netSources[i];
    jrobs::NetProvenance rec;
    rec.netSource = src;
    if (fabric_->isUsed(src)) rec.netName = fabric_->netName(fabric_->netOf(src));
    rec.requestId = req.id;
    rec.sessionId = req.sessionId;
    rec.op = opName(req.op);
    rec.algorithm = algo;
    rec.selector = selector;
    rec.parallel = parallel;
    rec.pips = i < pipsPerNet.size() ? pipsPerNet[i] : 0;
    rec.sinks = sinksPerNet;
    rec.searchVisits = effort.templateVisits + effort.mazeVisits;
    rec.latencyUs = latencyUs;
    rec.txn = "committed";
    // The commit ran the paranoid rule set and did not throw.
    rec.drc = jrdrc::paranoidEnabled() ? "pass" : "unchecked";
    jrobs::provenance().record(std::move(rec));
    jrobs::flightRecorder().note("service", "commit", req.id, src);
  }
}

jrdrc::DrcInput RoutingService::drcInput(
    bool includeBitstream,
    std::vector<std::pair<NodeId, uint64_t>>& ownersStorage) const {
  jrdrc::DrcInput in;
  in.fabric = fabric_;
  in.router = &router_;
  in.checkBitstream = includeBitstream;
  {
    jrsync::MutexLock lk(ownerMu_);
    ownersStorage.assign(netOwner_.begin(), netOwner_.end());
  }
  in.netOwners = &ownersStorage;
  return in;
}

jrdrc::DrcReport RoutingService::runDrc(bool includeBitstream) {
  jrsync::MutexLock lk(fabricMu_);
  std::vector<std::pair<NodeId, uint64_t>> owners;
  return jrdrc::runDrc(drcInput(includeBitstream, owners));
}

jrobs::MetricsSnapshot RoutingService::snapshotMetrics() const {
  metrics().queueDepth.set(static_cast<int64_t>(queue_.size()));
  return jrobs::registry().snapshot();
}

jrobs::Heatmap RoutingService::occupancy(int cellRows, int cellCols) const {
  jrsync::MutexLock lk(fabricMu_);
  return jrdrc::occupancyHeatmap(*fabric_, cellRows, cellCols);
}

ServiceStats RoutingService::stats() const {
  ServiceStats s;
  s.submitted = stats_.submitted.load();
  s.accepted = stats_.accepted.load();
  s.rejected = stats_.rejected.load();
  s.overloaded = stats_.overloaded.load();
  s.deadlineExpired = stats_.deadlineExpired.load();
  s.contention = stats_.contention.load();
  s.unroutable = stats_.unroutable.load();
  s.batches = stats_.batches.load();
  s.parallelPlanned = stats_.parallelPlanned.load();
  s.serialRouted = stats_.serialRouted.load();
  s.planFallbacks = stats_.planFallbacks.load();
  return s;
}

}  // namespace jrsvc
