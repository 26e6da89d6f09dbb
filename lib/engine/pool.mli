(** Sharded work-stealing pool of worker domains for index-parallel
    jobs.

    Built on [Domain]/[Mutex]/[Condition] only.  [run t f n] evaluates
    [f i] for every [i < n], with the calling domain participating as
    one lane alongside the workers; it returns once all indices have
    completed, re-raising the first exception any [f i] raised.  [f]
    must confine its writes to per-index slots — that is what makes the
    result independent of claim order.

    Scheduling (DESIGN §13): submit deals contiguous index chunks
    round-robin across per-lane run queues (main lane first).  The
    pool keeps a running mean of the run time of one item, and a job
    of [n] items engages one lane per ~50 µs (about one wakeup's cost)
    of estimated work, [n] times that mean, capped at every lane; a
    pool with no history treats its first job as expensive.  So a job
    of a few millisecond-scale items engages every lane, one item per
    chunk, while a job of items measured far cheaper than a wakeup
    stays on the caller's lane and wakes no worker.  A lane
    claims chunks from its own queue and steals from the busiest other
    queue when it drains.  Wakeups are targeted [signal]s — only lanes
    that can make progress are woken — and a wake that finds nothing
    claimable counts [pool.wakeup.spurious].  Each steal counts
    [pool.steal.count]. *)

type t

exception Worker_killed
(** Test hook simulating an abrupt worker-domain death.  A job function
    raising this from a worker lane kills that domain: the supervisor
    requeues the unfinished remainder of the claimed chunk (current
    index included) onto the main lane's queue, increments
    [pool.worker.restarts] and spawns a replacement; chunks still
    queued on the dead lane survive for the replacement (or a thief).
    Raised on the main lane it simply requeues and continues (the
    caller's domain cannot be respawned).  Unlike ordinary exceptions
    it is not recorded as the job's failure — the indices are retried
    instead. *)

val create : ?eager:bool -> int -> t
(** [create workers] asks for that many worker domains (>= 1); they
    idle on per-lane condition variables between jobs and are joined
    at process exit.

    Sizing is hardware-aware by default: at most
    [Domain.recommended_domain_count () - 1] workers are actually
    spawned (possibly zero, leaving the stealing caller as the only
    lane).  A worker beyond the machine's available parallelism can
    only timeshare a saturated core, yet its existence taxes every
    stop-the-world minor collection — oversubscription measurably
    *loses* batch throughput, so the surplus simply never exists and
    scaling stays monotone in the requested lane count.
    [~eager:true] spawns the full request regardless; supervision
    tests use it to force worker-lane participation (and deaths)
    deterministically.  Results are bit-identical either way — only
    wall-clock changes. *)

val workers : t -> int
(** Worker domains actually spawned (lanes - 1); at most the request
    passed to {!create}. *)

val max_chunk : int
(** The scheduler's largest submit-time chunk (16). *)

type stats = {
  lanes : int;  (** workers + the participating main lane *)
  busy_lanes : int;  (** lanes running a claimed index right now *)
  job_active : bool;
  queue_depths : int list;  (** queued items per lane, main lane last *)
  steals : int;  (** lifetime stolen chunks *)
}

val stats : t -> stats
(** Instantaneous scheduler snapshot (takes the job mutex briefly;
    queue depths are atomic reads); safe from any domain, used by the
    live monitor.  Scheduling history accumulates in the
    [pool.queue.wait_ns] (post-to-first-claim latency per lane per
    job) and [pool.lane.busy] (occupancy observed at each chunk claim)
    histograms, plus the [pool.steal.count] and
    [pool.wakeup.spurious] counters. *)

val run : ?chunk:int -> t -> (int -> unit) -> int -> unit
(** [run ?chunk t f n] evaluates [f i] for all [i < n].  [chunk]
    overrides the submit-time chunk size (default: enough items to
    carry ~50 µs of measured work, no more than an even share of the
    engaged lanes, capped at {!max_chunk}) and disables the
    work-based engagement — the explicit-chunk deal covers every lane;
    mainly for tests and benchmarks that want to force queue
    traffic. *)

(** {1 Streaming submission (DESIGN §14)}

    [submit_stream] posts a whole job without blocking and returns a
    ticket; results are consumed out of order as lanes finish them.
    One job (streaming or [run]) is in flight at a time — posting over
    an undrained ticket raises [Invalid_argument]. *)

type 'a ticket
(** A streaming job in flight: [n] items, a result slot per index, and
    a completion queue filled by the lanes.  Not thread-safe — only
    the domain that called {!submit_stream} (the pool's main lane) may
    consume it. *)

val submit_stream : ?chunk:int -> t -> (int -> 'a) -> int -> 'a ticket
(** [submit_stream t f n] deals items [0..n-1] across the lanes under
    the same layout as {!run} (work-based engagement included) and returns
    immediately.  An ordinary exception raised by [f i] is captured as
    that item's result and re-raised by {!next_result} on delivery —
    after discarding the remainder of the job — rather than recorded
    as a pool-wide failure; {!Worker_killed} keeps its supervision
    semantics (the item is retried, exactly-once delivery holds). *)

val next_result : 'a ticket -> (int * 'a) option
(** Deliver the next completed item as [(index, result)], in
    completion order.  If nothing has completed, the calling domain
    claims queued work itself — one item at a time, so delivery
    granularity is a single item even with zero workers — and only
    sleeps when every remaining item is in flight on another lane.
    Returns [None] once all [n] items have been delivered (the pool is
    then free for the next job) or after {!discard}. *)

val drain : 'a ticket -> 'a array
(** Deliver everything still outstanding and return all [n] results
    assembled by index.  Raises the first item error it encounters,
    like {!run}; raises [Invalid_argument] on a discarded ticket. *)

val discard : 'a ticket -> unit
(** Abort: drop every still-queued item, wait out the in-flight ones,
    and free the pool for the next job.  Undelivered results are lost.
    Idempotent; a no-op on a fully delivered ticket. *)

val shutdown : t -> unit
(** Join all workers.  Idempotent; the pool is unusable afterwards. *)
