// The concurrent routing service: sessions, transactional nets, and a
// batched request engine.
//
// The paper frames JRoute as a run-time API driven by live applications
// (BoardScope debug, RTP core replacement). This layer makes that
// multi-client: requests from any number of threads enter a bounded MPSC
// queue, and a single engine thread drains them in batches. Within a
// batch, requests whose tile bounding boxes are disjoint are planned in
// parallel by a worker pool against a frozen fabric, then the plans are
// committed serially, in submission order, each inside a Router::Txn. The
// fabric settles any wire two plans both want: the later plan fails to
// apply, its txn rolls it back, and the request runs on the serialized
// path, which is authoritative — as do requests that overlap an earlier
// one's region, unroutes, and plans that found no route. Backpressure is
// structural: a full queue rejects with kOverloaded, and per-request
// deadlines shed stale work before it costs routing effort.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/drc.h"
#include "common/sync.h"
#include "core/router.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "service/planner.h"
#include "service/queue.h"
#include "service/request.h"
#include "service/session.h"

namespace jrsvc {

struct ServiceOptions {
  /// Request queue capacity; a full queue rejects with kOverloaded.
  size_t queueCapacity = 1024;
  /// Maximum requests drained per batch.
  size_t batchSize = 64;
  /// Planning threads including the engine itself; 0 = use
  /// std::thread::hardware_concurrency().
  unsigned planThreads = 0;
  /// Manual mode: no engine thread; the owner drives pumpOnce(). Used by
  /// deterministic tests (backpressure, deadlines).
  bool manualPump = false;
  /// Run the full static DRC (src/analysis) after every processed batch —
  /// the quiescent point where all txns have committed or rolled back —
  /// and throw JRouteError on any
  /// violation. Defaults to the JROUTE_DRC_PARANOID environment variable,
  /// so the whole test suite and the benches can be run with
  /// the analyzer continuously cross-checking the concurrent engine.
  /// Costly (O(fabric) per batch); a violation escaping the engine thread
  /// terminates the process, which is the point of paranoid mode.
  bool drcParanoid = jrdrc::paranoidEnabled();
  /// Options for the underlying router and the parallel planners.
  jroute::RouterOptions router{};
};

class RoutingService {
 public:
  explicit RoutingService(xcvsim::Fabric& fabric, ServiceOptions opts = {});
  ~RoutingService();

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  // --- Sessions ----------------------------------------------------------------

  Session openSession();

  /// Unroute every net the session still owns (when `unrouteOwned`) and
  /// forget the session. The handle becomes invalid. Requests of the
  /// session still in the queue resolve with Rejected{kBadArgument,
  /// "session closed"} and route nothing, as does any request whose
  /// session id is not open.
  void closeSession(Session& session, bool unrouteOwned = true);

  // --- Requests ----------------------------------------------------------------

  /// Enqueue one request. Sessions call this through their sugar methods;
  /// it is public for custom drivers, whose `sessionId` must come from
  /// openSession(). Never blocks: a full queue resolves the future
  /// immediately with Rejected{kOverloaded}.
  std::future<RouteResult> submit(Op op, uint64_t sessionId,
                                  std::vector<jroute::EndPoint> sources,
                                  std::vector<jroute::EndPoint> sinks,
                                  Clock::time_point deadline = {});

  /// Manual-pump mode: drain and process at most one batch on the calling
  /// thread. Returns the number of requests processed.
  size_t pumpOnce();

  /// Run `fn` with exclusive access to the underlying router — for
  /// queries (trace, reports), core placement, and configuration while
  /// the engine is live. Nets created inside `fn` are not session-owned.
  /// Do not submit-and-wait, open or close sessions from inside `fn`
  /// (each needs the lock `fn` runs under).
  void withRouter(const std::function<void(jroute::Router&)>& fn);

  /// Stop accepting requests, drain the queue, join engine and workers.
  /// Idempotent; the destructor calls it.
  void stop();

  // --- Introspection -----------------------------------------------------------

  /// Run the static DRC over the service's full state — fabric, router
  /// connection memory and session-ownership table — with the engine
  /// excluded (takes the fabric lock). `includeBitstream` adds the
  /// O(config) frame-decode cross-check.
  jrdrc::DrcReport runDrc(bool includeBitstream = true);

  ServiceStats stats() const;

  /// Point-in-time copy of the process-wide telemetry registry (router,
  /// service, txn, and DRC metrics), with the queue-depth gauge refreshed
  /// first. Outcome counts are stats(), SLO state is
  /// jrobs::sloMonitor().report(), and the heatmap is occupancy(); none
  /// is mirrored here. Never takes the fabric lock.
  jrobs::MetricsSnapshot snapshotMetrics() const;

  /// Per-region count of in-use fabric nodes, consistent under the
  /// fabric lock (jrsh `heatmap`). Works in both telemetry build modes.
  jrobs::Heatmap occupancy(int cellRows = 4, int cellCols = 4) const;


  size_t queueDepth() const { return queue_.size(); }
  std::vector<NodeId> netsOf(uint64_t sessionId) const;
  const xcvsim::Fabric& fabric() const { return *fabric_; }

 private:
  struct PlanJob {
    Request* req = nullptr;
    Plan plan;
  };
  /// Shared state of one parallel planning phase.
  struct PlanPhase {
    std::vector<PlanJob>* jobs = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> workersDone{0};
  };
  /// Tile-space bounding box used for the disjointness partition.
  struct Box {
    int r0 = 1 << 20, c0 = 1 << 20, r1 = -(1 << 20), c1 = -(1 << 20);
    void add(xcvsim::RowCol rc);
    void expand(int margin);
    bool intersects(const Box& o) const;
  };

  void engineLoop();
  void workerLoop();
  void runJobs(PlanPhase& phase, Planner& planner);
  void processBatch(std::vector<Request>& reqs) JR_REQUIRES(fabricMu_);
  /// What precheck() resolved: each source's node, and the bounding box.
  struct Checked {
    std::vector<NodeId> sources;
    Box box;
  };
  /// The validator of every request, in both phases: its shape (p2p: one
  /// source and one sink; fanout: one source; bus: equal widths; unroute:
  /// one source, no sinks), every endpoint resolving to pins, and every
  /// source naming a wire that is free (routes only) or on a net this
  /// session owns. Returns a rejection, or nullopt and fills `out`.
  std::optional<RouteResult> precheck(const Request& req, Checked& out)
      JR_REQUIRES(fabricMu_);
  /// Commit a found plan; nullopt = it no longer applies to the live
  /// fabric, so the request falls back to the serialized path.
  std::optional<RouteResult> commitPlan(Request& req, const PlanJob& job)
      JR_REQUIRES(fabricMu_);
  RouteResult executeSerial(Request& req) JR_REQUIRES(fabricMu_);
  RouteResult executeUnroute(Request& req) JR_REQUIRES(fabricMu_);
  /// The one commit tail of both paths: register the nets `txn` created
  /// to the request's session, commit it, stamp kCommit, record
  /// provenance for the nets of `netSources`, count the path, and return
  /// the accepted result.
  RouteResult commitRequest(Request& req, jroute::Router::Txn& txn,
                            const std::vector<NodeId>& netSources,
                            const jroute::RouteStats& effort, bool parallel)
      JR_REQUIRES(fabricMu_);
  /// Run `jobs` through the worker pool and commit the found plans.
  /// Failures (plan not found, commit rollback) are appended to `serial`
  /// for the serialized path unless authoritative.
  void planAndCommit(std::vector<PlanJob>& jobs,
                     std::vector<Request*>& serial) JR_REQUIRES(fabricMu_);
  /// DrcInput over the full service state; caller must hold fabricMu_ (or
  /// otherwise exclude the engine). The ownership snapshot is written into
  /// `ownersStorage`, which must outlive the returned input.
  jrdrc::DrcInput drcInput(
      bool includeBitstream,
      std::vector<std::pair<NodeId, uint64_t>>& ownersStorage) const
      JR_REQUIRES(fabricMu_);
  /// Free the whole net driven from `source` (must be a net source node)
  /// through the Router's unrouter, and forget its provenance.
  void unrouteNode(NodeId source) JR_REQUIRES(fabricMu_);
  void finish(Request& req, RouteResult res);
  /// Record provenance for every net the request just committed.
  /// `netSources` are the nets' source nodes; `effort` describes the
  /// whole request (shared by its nets).
  void recordProvenance(const Request& req, bool parallel,
                        const std::vector<NodeId>& netSources,
                        const std::vector<size_t>& pipsPerNet,
                        const jroute::RouteStats& effort)
      JR_REQUIRES(fabricMu_);

  xcvsim::Fabric* fabric_;
  ServiceOptions opts_;
  jroute::Router router_;
  BoundedQueue<Request> queue_;

  // Lock hierarchy (outermost first; checked at run time by
  // ThreadSanitizer's lock-order detector, see DESIGN.md "Concurrency
  // checking"):
  //   fabricMu_ -> { workMu_, ownerMu_, the queue's lock, obs locks }
  //   workMu_, ownerMu_: leaves (take nothing underneath).
  // Serializes fabric mutation and exclusive access (withRouter) against
  // batch processing. Mutable: const introspection (occupancy) must
  // exclude the engine too.
  mutable jrsync::Mutex fabricMu_;
  // Ids of open sessions. The engine rejects queued requests of any
  // other id; checked under the fabric lock the batch already holds.
  std::unordered_set<uint64_t> openSessions_ JR_GUARDED_BY(fabricMu_);
  uint64_t nextSessionId_ JR_GUARDED_BY(fabricMu_) = 1;

  // Net ownership registry: net source node -> owning session.
  mutable jrsync::Mutex ownerMu_;
  std::unordered_map<NodeId, uint64_t> netOwner_ JR_GUARDED_BY(ownerMu_);

  // Parallel planning pool. The engine participates, so `workers_` holds
  // planThreads - 1 threads.
  std::vector<std::thread> workers_;
  std::unique_ptr<Planner> enginePlanner_;
  jrsync::Mutex workMu_;
  std::condition_variable_any workCv_, doneCv_;
  uint64_t workGen_ JR_GUARDED_BY(workMu_) = 0;
  PlanPhase* phase_ JR_GUARDED_BY(workMu_) = nullptr;
  bool shutdownWorkers_ JR_GUARDED_BY(workMu_) = false;

  std::thread engine_;
  std::atomic<uint64_t> nextRequestId_{1};
  bool stopped_ = false;

  struct AtomicStats {
    std::atomic<uint64_t> submitted{0}, accepted{0}, rejected{0},
        overloaded{0}, deadlineExpired{0}, contention{0}, unroutable{0},
        batches{0}, parallelPlanned{0}, serialRouted{0}, planFallbacks{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace jrsvc
