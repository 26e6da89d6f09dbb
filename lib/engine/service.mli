(** The central evaluation service.

    One simulate-and-measure entry point for every consumer —
    calibration sweeps, oracle/refab attack trials, the figure and
    table experiments, and the fault campaign.  Evaluation of a
    {!Request.t} is a pure function, so the service can front it with a
    content-addressed LRU cache and fan batches out across a fixed pool
    of OCaml 5 domains while keeping same-seed output byte-identical to
    the sequential backend:

    - single [eval]s run inline on the calling domain;
    - [eval_batch] looks the batch up in the cache in request order,
      computes the misses (sequentially or on the pool, writing each
      result into its own slot of an index-addressed array), then
      stores them back in request order — so result order, cache state
      and every trial odometer are independent of the backend;
    - cache hits replay the original evaluation's trial cost into the
      [measure.trials] odometer and any {!Account}, so printed query
      accounting is independent of cache warmth.

    Supervision (PR 6): an engine can carry a {!Checkpoint.t} journal —
    a persistent second cache level that makes completed evaluations
    durable (each one fsync'd as it finishes, from whichever domain ran
    it) so an interrupted campaign resumes bit-identically — and a
    deadline, enforced cooperatively by cancellation polls inside the
    simulator inner loop.  A deadline that fires surfaces as the typed
    denial {!Timed_out} (counted in [engine.deadline.hit]), never as a
    hang. *)

type t

val create :
  ?jobs:int ->
  ?cache:bool ->
  ?cache_capacity:int ->
  ?checkpoint:Checkpoint.t ->
  ?deadline_s:float ->
  unit ->
  t
(** [jobs] evaluation lanes (default 1 = sequential backend; [n >= 2]
    spawns [n - 1] worker domains and the caller participates);
    [cache] (default true) fronts evaluation with an LRU of
    [cache_capacity] (default 4096) results.  [checkpoint] journals
    every completed evaluation and replays journalled ones
    (caller-owned: the engine never closes it).  [deadline_s] arms an
    engine-wide deadline, measured from this call, that cancels any
    in-flight evaluation once it passes. *)

val jobs : t -> int
val cache_enabled : t -> bool
val checkpoint : t -> Checkpoint.t option

val shutdown : t -> unit
(** Join the worker pool (tests); also registered at process exit.
    Does not close the checkpoint — its owner does. *)

val configure :
  ?jobs:int ->
  ?cache:bool ->
  ?cache_capacity:int ->
  ?checkpoint:Checkpoint.t ->
  ?deadline_s:float ->
  unit ->
  unit
(** Replace the process-global default engine — the CLI calls this once
    from [--jobs] / [--no-cache] / [--checkpoint] / [--deadline] before
    running a workload. *)

val default : unit -> t
(** The process-global engine ([jobs = 1], cache on, until
    {!configure} says otherwise). *)

(** Trial accounting, engine-side: an account accumulates the actual
    bench-trial cost of every evaluation charged to it, and optionally
    enforces a hard limit (the oracle's watchdog).  Domain-safe: the
    odometer is atomic, so a single account can be shared across a
    parallel batch without losing charges. *)
module Account : sig
  type t

  val make : ?limit:int -> unit -> t
  val spent : t -> int
  val limit : t -> int option
  val charge : t -> int -> unit
  val exhausted : t -> bool
end

(** Why an evaluation was refused rather than run: the account's hard
    budget was already spent, or the deadline passed before the
    simulator finished. *)
type denial =
  | Budget_exhausted of {
      spent : int;
      limit : int;
    }
  | Timed_out of { deadline_s : float }

val eval : ?engine:t -> ?account:Account.t -> Request.t -> Metrics.Spec.measurement
(** Evaluate one request (cache-first, inline on the calling domain). *)

val eval_batch :
  ?engine:t -> ?account:Account.t -> Request.t list -> Metrics.Spec.measurement list
(** Evaluate a batch; results come back in request order, bit-identical
    across backends and cache states. *)

val eval_deadlined :
  ?engine:t ->
  ?account:Account.t ->
  deadline_s:float ->
  Request.t ->
  (Metrics.Spec.measurement, denial) result
(** [eval] under a per-call deadline (seconds from now).  A deadline
    that fires mid-simulation returns [Error (Timed_out _)] within one
    poll interval of the inner loop; cache and checkpoint hits never
    time out.  Counts [engine.deadline.hit]. *)

val eval_batch_deadlined :
  ?engine:t ->
  ?account:Account.t ->
  deadline_s:float ->
  Request.t list ->
  (Metrics.Spec.measurement list, denial) result
(** [eval_batch] under one shared deadline for the whole batch.  On
    timeout the in-flight lanes drain at their next poll; evaluations
    that completed before the deadline are already journalled (and
    cached), so a resumed batch does not repeat them. *)

(** {1 Streaming evaluation (DESIGN §14)}

    [eval_stream] hands the scheduler the whole request grid at once
    and returns a stream; {!stream_next} delivers [(index, measurement)]
    pairs as lanes finish them, out of order, so a straggler no longer
    gates the rest of the grid.  Cache and journal hits short-circuit
    before anything is enqueued (and are delivered first, in request
    order); for each computed miss, checkpoint journaling and cache
    publication happen on the main domain at delivery time, preserving
    journal-before-publish with a single writer.  Reassembling by index
    ({!stream_drain}) is bit-identical to {!eval_batch} on the same
    requests, for any lane count.

    One stream owns the engine's pool at a time: evaluations issued
    from inside the stream's own items (nested calibrations, &c.)
    transparently compute inline, and a second concurrent stream on
    the same engine degrades to a lazy sequential cursor.  A stream
    must be consumed on the domain that opened it, and either drained
    to [Ok None] / an [Error] or explicitly {!stream_abort}ed —
    abandoning it leaves the pool occupied. *)

type stream

val eval_stream : ?engine:t -> ?account:Account.t -> Request.t list -> stream
(** Submit the grid and return immediately.  Under an engine-wide
    deadline, a cancellation surfaces from {!stream_next} as the raw
    exception, exactly as {!eval_batch} would. *)

val eval_stream_deadlined :
  ?engine:t -> ?account:Account.t -> deadline_s:float -> Request.t list -> stream
(** Like {!eval_stream} under one shared per-stream deadline: once it
    fires, {!stream_next} aborts the remaining work and returns
    (stickily) [Error (Timed_out _)].  Completions delivered before the
    deadline are already journalled and cached. *)

val stream_next : stream -> ((int * Metrics.Spec.measurement) option, denial) result
(** Next completed evaluation, or [Ok None] once all have been
    delivered (or after {!stream_abort}).  Blocks only when every
    remaining item is in flight on a worker lane; with no workers the
    calling domain computes one item per pull, in index order. *)

val stream_drain : stream -> (Metrics.Spec.measurement list, denial) result
(** Consume to the end and return all measurements in request order —
    including ones already delivered through {!stream_next}.  Raises
    [Invalid_argument] on an aborted stream. *)

val stream_abort : stream -> unit
(** Drop undelivered work (in-flight items finish and are journalled;
    queued ones are discarded) and release the pool.  Idempotent. *)

val stream_length : stream -> int
(** Number of requests the stream was opened with. *)

val map_jobs : ?engine:t -> (int -> 'a) -> int -> 'a list
(** [map_jobs f n] runs [f i] for [i < n] on the engine's lanes as one
    streamed job and returns the results in index order — job-level
    streaming for fan-outs that are not request evaluations (die
    calibrations, attack trials).  [f] may call back into the engine:
    on every lane, and on a sequential engine too, such calls compute
    inline through the checkpoint and skip the cache, so the engine's
    counters ([engine.evals], [engine.cache.*], [sdm.steps], ...) do
    not depend on which lane ran an item or on [jobs].  Sequential
    engines (and nested calls) run [List.init n f]. *)

val eval_guarded :
  ?engine:t ->
  ?deadline_s:float ->
  account:Account.t ->
  Request.t ->
  (Metrics.Spec.measurement * int, denial) result
(** The budget watchdog: refuse (and count [engine.denied]) once the
    account is exhausted, otherwise evaluate and charge the actual
    trial cost, returning it alongside the measurement.  [deadline_s]
    additionally bounds the evaluation like {!eval_deadlined}. *)
