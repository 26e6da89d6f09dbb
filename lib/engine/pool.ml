(* Sharded work-stealing worker pool over Domain/Mutex/Condition — no
   dependencies beyond the stdlib, per the repo's no-new-deps rule.

   The pool runs index-parallel jobs: [run t f n] evaluates [f i] for
   every [i] in [0..n-1].  The calling (main) domain participates as a
   lane, so a pool built with [create (jobs - 1)] workers gives [jobs]
   evaluation lanes total.  Determinism is the caller's contract: [f]
   must write result [i] to slot [i] only, so claim order never shows
   in the output.

   Scheduling (DESIGN §13).  The previous design kept one shared claim
   cursor under one pool mutex with [Condition.broadcast] on every
   post, orphan and completion; its own histograms (DESIGN §12) showed
   first-claim latency growing past the work-item cost as lanes were
   added.  This design shards the schedule instead:

   - Submit chunks [0..n-1] into contiguous ranges and deals them
     round-robin across per-lane run queues, main lane first so the
     caller always starts on local work.  Each queue has its own mutex
     and condition variable.  How many lanes a job engages, and how
     large its chunks are, follows the measured cost of an item (see
     [job_layout]), so cheap jobs wake nobody and expensive ones spread
     one item at a time.
   - A lane claims whole chunks from its own queue; when that drains
     it steals a chunk from the busiest other queue.  Items inside a
     claimed chunk run without touching any lock.
   - Wakeups are targeted: submit [signal]s exactly the worker lanes
     that received chunks; the completion of the last item [signal]s
     the one lane (the caller) waiting in [run]; an orphan requeue
     signals only the main lane, which is guaranteed alive.  No
     broadcast remains on the submit/steal/complete path, and a lane
     that wakes to find nothing claimable counts
     [pool.wakeup.spurious].
   - Completion is an atomic counter; the job-lifecycle mutex [t.m] is
     taken only at submit, on the final completion, on failure and on
     orphan requeue — never per claim.

   Lock order: [t.m] may be held while taking a lane mutex (submit,
   stats); a lane mutex is never held while taking [t.m].

   Supervision: each worker domain runs under a supervisor wrapper.
   If a worker dies (any exception escaping its loop — [Worker_killed]
   is the test hook that simulates an abrupt domain death), the
   supervisor requeues the in-flight remainder of the chunk the lane
   had claimed (current index included) onto the *main* lane's queue,
   bumps [pool.worker.restarts], and spawns a replacement domain.
   Chunks still queued on the dead lane are not lost either: the
   replacement pops them, and until it arrives they are stealable like
   any other queue.  Orphaned work therefore delays, but never loses,
   its indices, and [run] still returns only when every index has
   actually completed.

   Streaming (DESIGN §14): [submit_stream] posts a whole job at once
   and returns a ticket instead of blocking.  Completions are pushed —
   index by index, from whichever lane finished the item — onto a
   per-job completion queue guarded by the job's own mutex, and
   [next_result] pops them in completion order.  When nothing has
   completed yet the consumer does not idle: it claims work on the
   main lane exactly like [run] does, but one item at a time (the
   remainder of a claimed chunk is pushed back, where a thief can
   still take it), so delivery granularity on a worker-less host is a
   single item.  Ordering inside [complete_one] is what makes teardown
   safe: the completion counter is incremented *before* the index is
   pushed, so once the consumer has popped all [n] completions every
   increment has happened and no lane will touch the job state
   again. *)

exception Worker_killed

let restarts_counter = Telemetry.Counter.make "pool.worker.restarts"
let steal_counter = Telemetry.Counter.make "pool.steal.count"
let spurious_counter = Telemetry.Counter.make "pool.wakeup.spurious"

(* Scheduling diagnostics (see DESIGN §12/§13): [pool.queue.wait_ns] is
   the latency from job post to each lane's *first* chunk claim of that
   job — direct evidence of how long freshly woken domains take to
   reach work; [pool.lane.busy] is the number of busy lanes observed at
   every chunk claim, i.e. the occupancy the job actually achieved. *)
let queue_wait_hist = Telemetry.Histogram.make "pool.queue.wait_ns"
let lane_busy_hist = Telemetry.Histogram.make "pool.lane.busy"

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* The scheduler's largest submit-time chunk. *)
let max_chunk = 16

(* The work worth one engaged lane, in ns: about what waking a parked
   domain costs (condvar signal, OS reschedule, its share of every
   stop-the-world minor GC; DESIGN §13).  A job engages one lane per
   [engage_ns] of estimated work, and a chunk carries at least that
   much work when the items are cheaper than it. *)
let engage_ns = 50_000

type lane = {
  lm : Mutex.t;  (* guards [chunks]; [queued] is atomic for racy scans *)
  ready : Condition.t;  (* this lane's private wakeup (workers only) *)
  mutable chunks : (int * int) list;  (* queued [lo, hi) ranges, FIFO *)
  queued : int Atomic.t;  (* items across queued chunks *)
  (* In-flight range of the chunk being run: [cur] is the item under
     evaluation (-1 idle), [hi] the range end.  Written only by the
     owning domain; read by its own supervisor after a death and
     (racily, monitoring-grade) by [stats]. *)
  mutable cur : int;
  mutable hi : int;
  (* Generation of the lane's last first-claim, owner-private: stamps
     one [pool.queue.wait_ns] observation per lane per job. *)
  mutable claim_gen : int;
}

(* Per-streaming-job completion channel.  [completions] holds the
   indices of finished items in completion order, guarded by [cm];
   lanes push under [cm] and signal [cready], the consumer (always the
   main domain) pops.  The queue is monomorphic — results themselves
   live in the ticket's array, written by the job closure — so the
   pool type stays unparameterised. *)
type stream_state = {
  cm : Mutex.t;
  cready : Condition.t;
  completions : int Queue.t;
}

type t = {
  m : Mutex.t;  (* job lifecycle: submit, final completion, failure, orphans *)
  work_done : Condition.t;  (* only the caller blocked in [run] waits here *)
  lanes : lane array;  (* slot [workers] is the main lane *)
  completed : int Atomic.t;
  mutable job : (int -> unit) option;
  mutable total : int;
  mutable failure : exn option;
  mutable generation : int;
  mutable posted_ns : int;  (* when the current job was posted *)
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
  steals : int Atomic.t;  (* lifetime stolen chunks, for [stats] *)
  (* Running geometric mean of the run time of one item, in ns, over
     the chunks this pool has run.  It starts at [engage_ns], so a
     fresh pool treats its first job as expensive.  Written by
     whichever lane finished a chunk, without a lock or fence: a lost
     or stale update only delays the estimate, it never affects a
     result. *)
  mutable item_ns : int;
  workers : int;  (* worker domains actually spawned (lanes - 1) *)
  (* Completion channel of the active streaming job, [None] for [run]
     jobs and between jobs.  Atomic because lanes read it on every
     completion without holding any lock. *)
  stream : stream_state option Atomic.t;
}

let new_lane () =
  {
    lm = Mutex.create ();
    ready = Condition.create ();
    chunks = [];
    queued = Atomic.make 0;
    cur = -1;
    hi = -1;
    claim_gen = 0;
  }

(* Queue ops; caller holds [lane.lm]. *)
let push_front lane ((lo, hi) as chunk) =
  lane.chunks <- chunk :: lane.chunks;
  ignore (Atomic.fetch_and_add lane.queued (hi - lo))

let pop lane =
  match lane.chunks with
  | [] -> None
  | ((lo, hi) as chunk) :: rest ->
    lane.chunks <- rest;
    ignore (Atomic.fetch_and_add lane.queued (lo - hi));
    Some chunk

(* Claim-site diagnostics, recorded at each chunk claim without any
   shared lock: one wait observation per lane per job, plus the racy
   busy-lane occupancy scan. *)
let observe_claim t lane =
  if lane.claim_gen <> t.generation then begin
    lane.claim_gen <- t.generation;
    Telemetry.Histogram.observe queue_wait_hist (float_of_int (now_ns () - t.posted_ns))
  end;
  let busy = ref 0 in
  Array.iter (fun l -> if l.cur >= 0 then incr busy) t.lanes;
  Telemetry.Histogram.observe lane_busy_hist (float_of_int !busy)

(* Steal one chunk for [thief]: scan the other queues racily for the
   busiest, then pop under that queue's own mutex (re-checking, since
   the owner may have drained it meanwhile).  One pass over descending
   candidates is enough — a miss means the work is in flight, not
   queued, and nothing queued can appear behind our back except on the
   main lane (which is woken explicitly). *)
let steal t thief =
  let best = ref None in
  Array.iter
    (fun lane ->
      if lane != thief then
        let q = Atomic.get lane.queued in
        if q > 0 then
          match !best with
          | Some (_, bq) when bq >= q -> ()
          | _ -> best := Some (lane, q))
    t.lanes;
  match !best with
  | None -> None
  | Some (victim, _) ->
    Mutex.lock victim.lm;
    let chunk = pop victim in
    Mutex.unlock victim.lm;
    (match chunk with
    | Some _ ->
      Telemetry.Counter.incr steal_counter;
      ignore (Atomic.fetch_and_add t.steals 1)
    | None -> ());
    chunk

(* Next chunk for [lane]: own queue first, then steal. *)
let get_work t lane =
  Mutex.lock lane.lm;
  let own = pop lane in
  Mutex.unlock lane.lm;
  match own with
  | Some chunk ->
    observe_claim t lane;
    Some chunk
  | None -> (
    match steal t lane with
    | Some chunk ->
      observe_claim t lane;
      Some chunk
    | None -> None)

let complete_one t i =
  (* Capture the stream identity *before* the increment: a [discard]
     may observe the counter hit [total] (via a sibling's signal),
     release the job and let a new one post while this lane is still
     between its increment and its push — the capture pins the push to
     the old job's (now unreferenced, harmless) queue instead of
     corrupting the new job's.  The increment itself comes strictly
     before the push: the streaming consumer treats "popped all [n]
     completions" as proof that all [n] increments have landed (each
     push happens-after its own increment in program order and the
     pushes are serialised by [cm]), which is what lets it tear the
     job state down without a second synchronisation. *)
  let stream = Atomic.get t.stream in
  let before = Atomic.fetch_and_add t.completed 1 in
  (match stream with
  | Some st ->
    Mutex.lock st.cm;
    Queue.push i st.completions;
    Condition.signal st.cready;
    Mutex.unlock st.cm
  | None -> ());
  if before + 1 >= t.total then begin
    (* Last item: wake the caller blocked in [run].  Exactly one lane
       ever waits on [work_done], so a targeted signal suffices. *)
    Mutex.lock t.m;
    Condition.signal t.work_done;
    Mutex.unlock t.m
  end

let set_failure t e =
  Mutex.lock t.m;
  if t.failure = None then t.failure <- Some e;
  Mutex.unlock t.m

(* Requeue the in-flight remainder of [lane]'s chunk (current index
   included) onto the main lane's queue — the one lane guaranteed to
   still be alive — and wake only the caller, which mops it up.  Used
   by the [Worker_killed] hook and by the supervisor after any death. *)
let requeue_inflight t lane =
  if lane.cur >= 0 then begin
    let chunk = (lane.cur, lane.hi) in
    lane.cur <- -1;
    let main = t.lanes.(t.workers) in
    Mutex.lock main.lm;
    push_front main chunk;
    Mutex.unlock main.lm;
    Mutex.lock t.m;
    Condition.signal t.work_done;
    Mutex.unlock t.m;
    (* A streaming consumer may be blocked on the completion condition
       waiting for progress; the orphan landing on the main queue *is*
       the progress (the consumer claims it), so poke that condition
       too. *)
    match Atomic.get t.stream with
    | Some st ->
      Mutex.lock st.cm;
      Condition.signal st.cready;
      Mutex.unlock st.cm
    | None -> ()
  end

(* Run one claimed chunk.  No lock is held while items execute.  A
   worker lane hit by [Worker_killed] requeues the unfinished
   remainder and re-raises so the supervisor can replace the domain;
   on the main lane the remainder is requeued and claiming continues
   (the caller's domain cannot be respawned).  Ordinary exceptions are
   the job's failure: recorded once, and the item still counts as
   completed so [run] can finish and re-raise.  The chunk's wall time
   per item it ran feeds the pool's per-item mean.  The mean is
   geometric, half old and half new: a cheap item whose lane was
   descheduled mid-chunk moves it by the square root of the outlier,
   not by a share of it, while a real change in item cost is tracked
   within two or three chunks. *)
let record_items t ~items ~ns =
  if items > 0 then begin
    let x = max 1 (ns / items) in
    t.item_ns <- int_of_float (Float.sqrt (float_of_int t.item_ns *. float_of_int x))
  end

let run_chunk t f lane ~is_worker (lo, hi) =
  let t0 = now_ns () in
  lane.hi <- hi;
  lane.cur <- lo;
  let i = ref lo in
  let live = ref true in
  while !live && !i < hi do
    (match f !i with
    | () -> complete_one t !i
    | exception Worker_killed ->
      requeue_inflight t lane;
      if is_worker then raise Worker_killed;
      live := false
    | exception e ->
      set_failure t e;
      complete_one t !i);
    if !live then begin
      incr i;
      lane.cur <- !i
    end
  done;
  lane.cur <- -1;
  record_items t ~items:(!i - lo) ~ns:(now_ns () - t0)

let worker_loop t lane =
  let running = ref true in
  while !running do
    match if t.shutdown then None else get_work t lane with
    | Some chunk -> (
      match t.job with
      | Some f -> run_chunk t f lane ~is_worker:true chunk
      | None -> () (* unreachable: chunks never outlive their job *))
    | None ->
      (* Nothing local, nothing stealable: sleep on the private
         condition until a submit deals this lane new chunks (or
         shutdown).  Queues only grow at submit (this lane is then
         signalled) and at orphan requeue (main lane only, and the
         main lane never sleeps here), so sleeping cannot strand
         claimable work.  A parked domain keeps costing the others a
         share of every major GC cycle in proportion to what it holds,
         so it drops its scratch arena first (DESIGN §15). *)
      Sigkit.Workspace.release ();
      Mutex.lock lane.lm;
      if lane.chunks = [] && not t.shutdown then begin
        Condition.wait lane.ready lane.lm;
        if lane.chunks = [] && not t.shutdown then
          Telemetry.Counter.incr spurious_counter
      end;
      if t.shutdown then running := false;
      Mutex.unlock lane.lm
  done

(* Worker supervisor.  An exception escaping the loop means the lane is
   gone: requeue whatever remained of its claimed chunk, count the
   restart, and spawn a replacement that joins the job already in
   flight (its queue — including any chunks the dead lane never got
   to — survives untouched). *)
let rec supervise t ~slot () =
  let lane = t.lanes.(slot) in
  try worker_loop t lane
  with e ->
    requeue_inflight t lane;
    (match e with
    | Worker_killed ->
      Telemetry.Log.debug
        ~fields:[ ("slot", string_of_int slot) ]
        "pool: worker killed (test hook), respawning"
    | e ->
      set_failure t e;
      Telemetry.Log.warn
        ~fields:[ ("slot", string_of_int slot); ("exn", Printexc.to_string e) ]
        "pool: worker domain died, respawning");
    Telemetry.Counter.incr restarts_counter;
    Mutex.lock t.m;
    if not t.shutdown then
      t.domains <- Domain.spawn (supervise t ~slot) :: t.domains;
    Condition.signal t.work_done;
    Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  if t.shutdown then Mutex.unlock t.m
  else begin
    t.shutdown <- true;
    (* Snapshot after the flag is set: any supervisor that locks the
       mutex later sees [shutdown] and does not spawn a replacement, so
       the snapshot covers every domain that will ever exist. *)
    let domains = t.domains in
    t.domains <- [];
    Mutex.unlock t.m;
    (* Targeted wakeups even here: each sleeping worker idles on its
       own condition variable. *)
    Array.iteri
      (fun slot lane ->
        if slot < t.workers then begin
          Mutex.lock lane.lm;
          Condition.signal lane.ready;
          Mutex.unlock lane.lm
        end)
      t.lanes;
    List.iter Domain.join domains
  end

(* Hardware-aware sizing: a worker domain beyond the machine's
   available parallelism can never speed a batch up — it can only
   timeshare a core the other lanes already saturate — yet its mere
   existence taxes every stop-the-world minor collection, which must
   synchronise with all live domains (even ones parked in
   [Condition.wait], via their backup threads; on an oversubscribed
   single-core host that synchronisation rides the OS scheduler and
   was measured to double an 8-item batch, DESIGN §13).  So by
   default [create] spawns at most [recommended_domain_count () - 1]
   workers — possibly zero, leaving the stealing caller as the only
   lane — and the requested surplus simply never exists.  [~eager]
   spawns the full request regardless, for supervision tests and
   deliberate oversubscription. *)
let create ?(eager = false) workers =
  if workers <= 0 then invalid_arg "Pool.create: need at least one worker";
  let workers =
    if eager then workers
    else min workers (max 0 (Domain.recommended_domain_count () - 1))
  in
  let t =
    {
      m = Mutex.create ();
      work_done = Condition.create ();
      lanes = Array.init (workers + 1) (fun _ -> new_lane ());
      completed = Atomic.make 0;
      job = None;
      total = 0;
      failure = None;
      generation = 0;
      posted_ns = 0;
      shutdown = false;
      domains = [];
      steals = Atomic.make 0;
      item_ns = engage_ns;
      workers;
      stream = Atomic.make None;
    }
  in
  t.domains <- List.init workers (fun slot -> Domain.spawn (supervise t ~slot));
  (* Idle workers block on their lane condition; make sure process exit
     does not hang waiting for them. *)
  at_exit (fun () -> shutdown t);
  t

let workers t = t.workers

type stats = {
  lanes : int;
  busy_lanes : int;
  job_active : bool;
  queue_depths : int list;
  steals : int;
}

let stats t =
  Mutex.lock t.m;
  let busy = ref 0 in
  Array.iter (fun l -> if l.cur >= 0 then incr busy) t.lanes;
  let s =
    {
      lanes = t.workers + 1;
      busy_lanes = !busy;
      job_active = t.job <> None;
      queue_depths = Array.to_list (Array.map (fun l -> Atomic.get l.queued) t.lanes);
      steals = Atomic.get t.steals;
    }
  in
  Mutex.unlock t.m;
  s

(* Deal [0..n-1] into contiguous chunks round-robin across the first
   [lanes_cap] lanes in deal order — the main lane, then workers 0, 1,
   ... — so the caller's first claim is always local.  Each lane's
   chunks are collected first and queued under one lock, so a job of
   many single-item chunks costs one append per lane, not one per
   chunk.  Returns how many lanes, in deal order, received a chunk. *)
let distribute (t : t) n chunk ~lanes_cap =
  let lanes = Array.length t.lanes in
  let use = min lanes (max 1 lanes_cap) in
  let dealt = Array.make use [] and items = Array.make use 0 in
  let l = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + chunk) in
    dealt.(!l) <- (!lo, hi) :: dealt.(!l);
    items.(!l) <- items.(!l) + (hi - !lo);
    l := (!l + 1) mod use;
    lo := hi
  done;
  for k = 0 to use - 1 do
    if items.(k) > 0 then begin
      let lane = t.lanes.((t.workers + k) mod lanes) in
      Mutex.lock lane.lm;
      lane.chunks <- lane.chunks @ List.rev dealt.(k);
      ignore (Atomic.fetch_and_add lane.queued items.(k));
      Mutex.unlock lane.lm
    end
  done;
  min use ((n + chunk - 1) / chunk)

(* Submit layout by measured work.  With a per-item mean of [m] ns, a
   job of [n] items engages ⌈n·m / engage_ns⌉ lanes (at most every
   lane, at least the caller's): waking a domain costs about
   [engage_ns], which is a bad trade for less work than that, and a
   good one for anything more.  Chunks are as small as lets each one
   carry [engage_ns] of work, no larger than an even share of the
   engaged lanes and never above [max_chunk] — so 8 dies of a lot go
   out one at a time and both lanes stay busy to the end, while a
   batch of no-op items stays whole on the caller's lane and wakes
   nobody.  A fresh pool's mean is [engage_ns], so its first job is
   treated as expensive: every lane, one item per chunk.  Stealing
   still rebalances inside the engaged set.  An explicit [?chunk]
   override keeps the every-lane deal so tests and benchmarks can
   force queue traffic. *)
let job_layout (t : t) n chunk =
  let lanes = Array.length t.lanes in
  match chunk with
  | Some c -> (max 1 c, lanes)
  | None ->
    let m = t.item_ns in
    let work = n * m in
    if work <= engage_ns then (min max_chunk n, 1)
    else
      let cap = min lanes ((work + engage_ns - 1) / engage_ns) in
      let share = (n + cap - 1) / cap in
      let carry = (engage_ns + m - 1) / m in
      (max 1 (min max_chunk (min share carry)), cap)

(* Post a job's bookkeeping (under [t.m]) and deal its chunks; shared
   by [run] and [submit_stream].  Exactly one job may be in flight:
   posting while another job (streaming or not) is active is a
   caller bug, reported rather than deadlocked on. *)
let post ~api (t : t) f n chunk stream =
  Mutex.lock t.m;
  if t.shutdown then begin
    Mutex.unlock t.m;
    invalid_arg (api ^ ": pool is shut down")
  end;
  if t.job <> None then begin
    Mutex.unlock t.m;
    invalid_arg (api ^ ": a job is already in flight (drain or discard it first)")
  end;
  t.job <- Some f;
  t.total <- n;
  Atomic.set t.completed 0;
  t.failure <- None;
  t.generation <- t.generation + 1;
  t.posted_ns <- now_ns ();
  Atomic.set t.stream stream;
  Mutex.unlock t.m;
  let chunk, lanes_cap = job_layout t n chunk in
  let dealt = distribute t n chunk ~lanes_cap in
  (* Targeted wakeups: only the worker lanes that actually received a
     chunk (workers [0 .. dealt - 2] in deal order) are signalled;
     everyone else keeps sleeping. *)
  for slot = 0 to dealt - 2 do
    Condition.signal t.lanes.(slot).ready
  done

let run ?chunk (t : t) f n =
  if n > 0 then begin
    post ~api:"Pool.run" t f n chunk None;
    (* The caller is a lane too: drain its own queue, then steal.  It
       also mops up orphans left by dead workers (requeued onto its
       queue), so completion never depends on a respawn racing in. *)
    let main = t.lanes.(t.workers) in
    let driving = ref true in
    while !driving do
      match get_work t main with
      | Some chunk -> run_chunk t f main ~is_worker:false chunk
      | None ->
        if Atomic.get t.completed >= t.total then driving := false
        else begin
          Mutex.lock t.m;
          while
            Atomic.get t.completed < t.total && Atomic.get main.queued = 0
          do
            Condition.wait t.work_done t.m
          done;
          Mutex.unlock t.m;
          if Atomic.get t.completed >= t.total then driving := false
          (* else: an orphan landed on our queue — go claim it. *)
        end
    done;
    (* Leave no job state behind even when re-raising, so the pool is
       immediately reusable after a failed run. *)
    Mutex.lock t.m;
    t.job <- None;
    let fail = t.failure in
    t.failure <- None;
    Mutex.unlock t.m;
    match fail with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------- streaming *)

type 'a ticket = {
  pool : t;
  results : ('a, exn) result option array;  (* slot [i] written by item [i] only *)
  tn : int;
  st : stream_state;
  mutable delivered : int;
  mutable closed : bool;  (* job state torn down (drained or discarded) *)
}

(* Clear the pool's job state once no lane can touch it again — the
   caller has either popped all [tn] completions or waited out the
   in-flight stragglers. *)
let release tk =
  let t = tk.pool in
  tk.closed <- true;
  Mutex.lock t.m;
  t.job <- None;
  Atomic.set t.stream None;
  t.failure <- None;
  Mutex.unlock t.m

let submit_stream ?chunk (t : t) f n =
  let st =
    { cm = Mutex.create (); cready = Condition.create (); completions = Queue.create () }
  in
  let results = Array.make (max n 0) None in
  (* The posted job computes and slots the result; ordinary exceptions
     become the item's [Error] (delivered, then re-raised, by
     [next_result]) rather than the job's failure, so one bad item
     cannot poison the rest of the grid mid-flight.  [Worker_killed]
     must keep escaping for the supervision machinery to retry the
     item. *)
  let g i =
    match f i with
    | v -> results.(i) <- Some (Ok v)
    | exception Worker_killed -> raise Worker_killed
    | exception e -> results.(i) <- Some (Error e)
  in
  if n > 0 then post ~api:"Pool.submit_stream" t g n chunk (Some st);
  { pool = t; results; tn = max n 0; st; delivered = 0; closed = n <= 0 }

(* Abort: drop every still-queued chunk (counting the dropped items as
   completed), then wait out the in-flight ones — each signals [cready]
   as it lands.  Undelivered results are discarded; the pool is ready
   for the next job on return.  Idempotent, and a no-op after the
   ticket drained naturally. *)
let discard tk =
  if not tk.closed then begin
    let t = tk.pool in
    let st = tk.st in
    Array.iter
      (fun lane ->
        Mutex.lock lane.lm;
        let dropped = ref 0 in
        let draining = ref true in
        while !draining do
          match pop lane with
          | Some (lo, hi) -> dropped := !dropped + (hi - lo)
          | None -> draining := false
        done;
        Mutex.unlock lane.lm;
        if !dropped > 0 then ignore (Atomic.fetch_and_add t.completed !dropped))
      t.lanes;
    Mutex.lock st.cm;
    while Atomic.get t.completed < t.total do
      Condition.wait st.cready st.cm
    done;
    Mutex.unlock st.cm;
    release tk
  end

let next_result (tk : 'a ticket) : (int * 'a) option =
  if tk.closed || tk.delivered >= tk.tn then None
  else begin
    let t = tk.pool in
    let st = tk.st in
    let main = t.lanes.(t.workers) in
    let rec deliver () =
      Mutex.lock st.cm;
      let popped =
        if Queue.is_empty st.completions then None else Some (Queue.pop st.completions)
      in
      Mutex.unlock st.cm;
      match popped with
      | Some i -> (
        tk.delivered <- tk.delivered + 1;
        (* Last delivery: every completion was pushed after its
           counter increment, so popping the [tn]-th proves all lanes
           are done with this job — safe to free the pool. *)
        if tk.delivered >= tk.tn then release tk;
        match tk.results.(i) with
        | Some (Ok v) -> Some (i, v)
        | Some (Error e) ->
          (* A failed item ends the stream: drop the rest of the grid
             so the pool is reusable, then surface the error exactly
             like [run] would. *)
          discard tk;
          raise e
        | None -> assert false)
      | None -> (
        (* Nothing completed yet — be a lane rather than a bystander.
           Claim like [run], but execute a single item and push the
           chunk remainder back (still stealable), so results flow to
           the consumer at item granularity even when the main lane is
           the only lane. *)
        match get_work t main with
        | Some (lo, hi) ->
          if hi > lo + 1 then begin
            Mutex.lock main.lm;
            push_front main (lo + 1, hi);
            Mutex.unlock main.lm
          end;
          (match t.job with
          | Some g -> run_chunk t g main ~is_worker:false (lo, lo + 1)
          | None -> ());
          deliver ()
        | None ->
          (* Everything is in flight on other lanes: sleep until a
             completion lands or an orphan is requeued onto the main
             lane (both signal [cready]). *)
          Mutex.lock st.cm;
          while Queue.is_empty st.completions && Atomic.get main.queued = 0 do
            Condition.wait st.cready st.cm
          done;
          Mutex.unlock st.cm;
          deliver ())
    in
    deliver ()
  end

let drain tk =
  let rec go () = match next_result tk with Some _ -> go () | None -> () in
  go ();
  if tk.delivered < tk.tn then
    invalid_arg "Pool.drain: ticket was discarded before completion";
  Array.init tk.tn (fun i ->
      match tk.results.(i) with
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false)
