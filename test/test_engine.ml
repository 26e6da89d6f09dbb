(* Tests for the central evaluation engine: cache hits must be free
   (zero simulator steps) and bit-identical, the LRU must evict at
   capacity, batches must preserve request order, and the Domains
   backend must agree with the sequential backend bit-for-bit. *)

let standard =
  match Rfchain.Standards.find_opt "bluetooth" with
  | Some s -> s
  | None -> Alcotest.fail "bluetooth standard missing"

let die = lazy (Engine.Request.die_of_seed 42)

let config_of_bit bit =
  Rfchain.Config.of_bits
    (Int64.logxor (Rfchain.Config.to_bits Rfchain.Config.nominal) (Int64.shift_left 1L bit))

let request config =
  Engine.Request.make ~die:(Lazy.force die) ~standard ~config Engine.Request.Snr_mod

let counter name =
  match Telemetry.Counter.find name with
  | Some c -> Telemetry.Counter.value c
  | None -> 0

let bits = Int64.bits_of_float

let same_measurement (a : Metrics.Spec.measurement) (b : Metrics.Spec.measurement) =
  bits a.Metrics.Spec.snr_mod_db = bits b.Metrics.Spec.snr_mod_db
  && bits a.Metrics.Spec.snr_rx_db = bits b.Metrics.Spec.snr_rx_db
  &&
  match (a.Metrics.Spec.sfdr_db, b.Metrics.Spec.sfdr_db) with
  | None, None -> true
  | Some x, Some y -> bits x = bits y
  | _ -> false

(* -------------------------------------------------------------- cache *)

let test_cache_hit () =
  let engine = Engine.Service.create () in
  let req = request Rfchain.Config.nominal in
  let trials0 = counter "measure.trials" in
  let first = Engine.Service.eval ~engine req in
  let miss_cost = counter "measure.trials" - trials0 in
  let steps0 = counter "sdm.steps" in
  let hits0 = counter "engine.cache.hit" in
  let trials1 = counter "measure.trials" in
  let second = Engine.Service.eval ~engine req in
  Alcotest.(check bool) "hit is bit-identical to the miss" true (same_measurement first second);
  Alcotest.(check int) "hit runs zero simulator steps" steps0 (counter "sdm.steps");
  Alcotest.(check int) "hit is recorded" (hits0 + 1) (counter "engine.cache.hit");
  (* The hit replays the original trial cost, so query accounting is
     invariant to cache warmth. *)
  Alcotest.(check int) "hit replays the trial cost" (trials1 + miss_cost)
    (counter "measure.trials");
  Engine.Service.shutdown engine

let test_lru_eviction () =
  let engine = Engine.Service.create ~cache_capacity:2 () in
  let r1 = request (config_of_bit 0) in
  let r2 = request (config_of_bit 1) in
  let r3 = request (config_of_bit 2) in
  ignore (Engine.Service.eval ~engine r1);
  ignore (Engine.Service.eval ~engine r2);
  let evict0 = counter "engine.cache.evict" in
  ignore (Engine.Service.eval ~engine r3);
  Alcotest.(check int) "third insert evicts at capacity 2" (evict0 + 1)
    (counter "engine.cache.evict");
  (* r1 was least recently used, so it is the one that went. *)
  let miss0 = counter "engine.cache.miss" in
  let hit0 = counter "engine.cache.hit" in
  ignore (Engine.Service.eval ~engine r1);
  Alcotest.(check int) "evicted entry misses" (miss0 + 1) (counter "engine.cache.miss");
  Alcotest.(check int) "no phantom hit for the evicted entry" hit0 (counter "engine.cache.hit");
  (* r3 is still resident. *)
  ignore (Engine.Service.eval ~engine r3);
  Alcotest.(check int) "recent entry still hits" (hit0 + 1) (counter "engine.cache.hit");
  Engine.Service.shutdown engine

let test_cache_peak () =
  let cache = Engine.Cache.create ~capacity:2 in
  let v =
    {
      Engine.Cache.measurement = { Metrics.Spec.snr_mod_db = 1.0; snr_rx_db = 2.0; sfdr_db = None };
      trial_cost = 1;
    }
  in
  Alcotest.(check int) "fresh cache has peak 0" 0 (Engine.Cache.peak cache);
  Engine.Cache.add cache "a" v;
  Engine.Cache.add cache "b" v;
  Engine.Cache.add cache "c" v;
  (* Eviction keeps occupancy at capacity: the high-water mark proves
     the bound actually bit, it never exceeds it. *)
  Alcotest.(check int) "peak saturates at capacity" 2 (Engine.Cache.peak cache);
  Alcotest.(check int) "live occupancy equals capacity" 2 (Engine.Cache.length cache);
  Engine.Cache.add cache "a" v;
  Alcotest.(check int) "refreshing an entry leaves the peak alone" 2 (Engine.Cache.peak cache)

(* -------------------------------------------------------------- batch *)

let test_batch_order () =
  let engine = Engine.Service.create ~cache:false () in
  let reqs = List.map (fun bit -> request (config_of_bit bit)) [ 3; 0; 7; 1; 5 ] in
  let batch = Engine.Service.eval_batch ~engine reqs in
  let singles = List.map (fun r -> Engine.Service.eval ~engine r) reqs in
  Alcotest.(check int) "one result per request" (List.length reqs) (List.length batch);
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch slot %d matches its request" i)
        true (same_measurement b s))
    (List.combine batch singles);
  Engine.Service.shutdown engine

let seq_engine = lazy (Engine.Service.create ~jobs:1 ~cache:false ())
let pool_engine = lazy (Engine.Service.create ~jobs:2 ~cache:false ())
let pool_engine4 = lazy (Engine.Service.create ~jobs:4 ~cache:false ())
let pool_engine8 = lazy (Engine.Service.create ~jobs:8 ~cache:false ())

(* The whole jobs sweep the CLI exposes: the sharded scheduler must be
   invisible in the results at every lane count. *)
let prop_backend_equivalence =
  QCheck.Test.make ~name:"Seq and Domains backends agree bit-for-bit at jobs 2/4/8"
    ~count:4
    QCheck.(list_of_size (Gen.int_range 1 4) (int_range 0 63))
    (fun flipped_bits ->
      let reqs = List.map (fun bit -> request (config_of_bit bit)) flipped_bits in
      let seq = Engine.Service.eval_batch ~engine:(Lazy.force seq_engine) reqs in
      List.for_all
        (fun engine ->
          let par = Engine.Service.eval_batch ~engine:(Lazy.force engine) reqs in
          List.for_all2 same_measurement seq par)
        [ pool_engine; pool_engine4; pool_engine8 ])

(* Campaign output across the jobs sweep: the fig7-style grid of cells
   and the flip probes must be bit-identical however the scheduler
   deals, steals and rebalances the batches.  (The CLI-level byte
   compare of the full fig7/campaign reports is `make engine-smoke` /
   `make sched-smoke`; this is the in-process property.) *)
let same_campaign (a : Faults.Campaign.t) (b : Faults.Campaign.t) =
  List.length a.Faults.Campaign.cells = List.length b.Faults.Campaign.cells
  && List.for_all2
       (fun (x : Faults.Campaign.cell) (y : Faults.Campaign.cell) ->
         x.Faults.Campaign.die_seed = y.Faults.Campaign.die_seed
         && x.Faults.Campaign.mechanism = y.Faults.Campaign.mechanism
         && bits x.Faults.Campaign.snr_mod_db = bits y.Faults.Campaign.snr_mod_db
         && bits x.Faults.Campaign.lock_margin_db = bits y.Faults.Campaign.lock_margin_db
         && x.Faults.Campaign.in_spec = y.Faults.Campaign.in_spec)
       a.Faults.Campaign.cells b.Faults.Campaign.cells
  && List.for_all2
       (fun (x : Faults.Campaign.flip_probe) (y : Faults.Campaign.flip_probe) ->
         x.Faults.Campaign.bit = y.Faults.Campaign.bit
         && bits x.Faults.Campaign.flip_snr_mod_db = bits y.Faults.Campaign.flip_snr_mod_db
         && x.Faults.Campaign.survives_full = y.Faults.Campaign.survives_full)
       a.Faults.Campaign.flips b.Faults.Campaign.flips
  && a.Faults.Campaign.unlocked_bits = b.Faults.Campaign.unlocked_bits

let prop_campaign_jobs_equivalence =
  QCheck.Test.make ~name:"campaign cells/flips bit-identical across jobs 1/4/8" ~count:1
    QCheck.(int_range 40 44)
    (fun seed ->
      let run engine =
        match
          Faults.Campaign.run ~dies:1 ~seed ~engine standard
        with
        | Ok c -> c
        | Error e -> QCheck.Test.fail_report (Faults.Error.to_string e)
      in
      let base = run (Lazy.force seq_engine) in
      same_campaign base (run (Lazy.force pool_engine4))
      && same_campaign base (run (Lazy.force pool_engine8)))

(* ------------------------------------------------------------ account *)

let test_account_atomic_hammer () =
  let a = Engine.Service.Account.make () in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Engine.Service.Account.charge a 3
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no charge lost across 4 domains" (4 * per_domain * 3)
    (Engine.Service.Account.spent a)

(* Shared account under concurrent evaluation: the main domain drives
   the jobs-4 pool while two extra domains evaluate the same list
   through the worker fallback path, all charging one account. *)
let prop_shared_account =
  QCheck.Test.make ~name:"shared account never loses charges under eval_batch --jobs 4"
    ~count:3
    QCheck.(list_of_size (Gen.int_range 1 3) (int_range 0 63))
    (fun flipped_bits ->
      let reqs = List.map (fun bit -> request (config_of_bit bit)) flipped_bits in
      let engine = Lazy.force pool_engine4 in
      let solo = Engine.Service.Account.make () in
      ignore (Engine.Service.eval_batch ~engine ~account:solo reqs);
      let expected = 3 * Engine.Service.Account.spent solo in
      let shared = Engine.Service.Account.make () in
      let evaluate () = ignore (Engine.Service.eval_batch ~engine ~account:shared reqs) in
      let others = List.init 2 (fun _ -> Domain.spawn evaluate) in
      evaluate ();
      List.iter Domain.join others;
      Engine.Service.Account.spent shared = expected)

(* --------------------------------------------------------------- pool *)

let test_pool_reusable_after_exception () =
  let pool = Engine.Pool.create 2 in
  let n = 32 in
  let out = Array.make n 0 in
  (match Engine.Pool.run pool (fun i -> if i = 7 then failwith "boom" else out.(i) <- i + 1) n with
  | () -> Alcotest.fail "the raising job must propagate its exception"
  | exception Failure msg -> Alcotest.(check string) "first failure surfaces" "boom" msg);
  Array.fill out 0 n 0;
  Engine.Pool.run pool (fun i -> out.(i) <- i + 1) n;
  Alcotest.(check bool) "pool still completes every index after a failed run" true
    (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

let test_pool_worker_respawn () =
  (* Eager: the test needs a worker lane to actually wake and claim so
     the one-shot kill lands on it — the default hardware-aware wake
     budget may leave every worker parked on a small machine. *)
  let pool = Engine.Pool.create ~eager:true 2 in
  let n = 64 in
  let main = Domain.self () in
  let killed = Atomic.make false in
  let restarts0 = counter "pool.worker.restarts" in
  let out = Array.make n 0 in
  (* Every lane spins until the one-shot kill has fired: the first
     worker lane to claim an index dies, so worker participation (and
     exactly one death) is guaranteed, not scheduler luck.  The main
     lane cannot deadlock — it spins with no lock held while an idle
     worker claims, dies, and releases everyone. *)
  Engine.Pool.run pool
    (fun i ->
      if Domain.self () <> main && Atomic.compare_and_set killed false true then
        raise Engine.Pool.Worker_killed;
      while not (Atomic.get killed) do
        Domain.cpu_relax ()
      done;
      out.(i) <- 1)
    n;
  Alcotest.(check bool) "every index completed despite the death" true
    (Array.for_all (fun v -> v = 1) out);
  Alcotest.(check bool) "a worker lane was killed" true (Atomic.get killed);
  Alcotest.(check int) "restart counted" (restarts0 + 1) (counter "pool.worker.restarts");
  Array.fill out 0 n 0;
  Engine.Pool.run pool (fun i -> out.(i) <- i + 1) n;
  Alcotest.(check bool) "pool usable after the respawn" true (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

(* Steal under skew: single-index chunks deal every 4th index to each
   of the 4 lanes, and the indices owned by worker lanes are made
   slow.  Whichever lane drains first (on a small CI box that is the
   main lane, whose items are fast and whose workers may barely get
   scheduled) must pull the remaining chunks off the loaded queues —
   completion plus a nonzero steal count proves the path, on one core
   or many. *)
let test_pool_steal_under_skew () =
  let pool = Engine.Pool.create ~eager:true 3 in
  let steals0 = counter "pool.steal.count" in
  let n = 64 in
  let out = Array.make n 0 in
  Engine.Pool.run ~chunk:1 pool
    (fun i ->
      (* Deal order is main,w0,w1,w2 — [i mod 4 <> 0] lands on a
         worker lane's queue.  A coarse spin stands in for a slow
         work item. *)
      if i mod 4 <> 0 then
        for _ = 1 to 20_000 do
          Domain.cpu_relax ()
        done;
      out.(i) <- out.(i) + 1)
    n;
  Alcotest.(check bool) "every index ran exactly once" true (Array.for_all (( = ) 1) out);
  Alcotest.(check bool) "at least one chunk was stolen" true
    (counter "pool.steal.count" > steals0);
  Engine.Pool.shutdown pool

(* Respawn mid-chunk: a worker dies partway through a multi-index
   chunk (possibly one it stole).  The unfinished remainder — the
   in-flight index included — must be requeued and completed by the
   survivors, exactly once each, and the dead lane must be replaced. *)
let test_pool_respawn_mid_chunk () =
  let pool = Engine.Pool.create ~eager:true 2 in
  let n = 24 in
  let main = Domain.self () in
  let killed = Atomic.make false in
  let restarts0 = counter "pool.worker.restarts" in
  let out = Array.make n 0 in
  Engine.Pool.run ~chunk:4 pool
    (fun i ->
      if Domain.self () <> main && Atomic.compare_and_set killed false true then
        raise Engine.Pool.Worker_killed;
      while not (Atomic.get killed) do
        Domain.cpu_relax ()
      done;
      out.(i) <- out.(i) + 1)
    n;
  Alcotest.(check bool) "a worker lane was killed" true (Atomic.get killed);
  Alcotest.(check bool) "every index completed exactly once" true
    (Array.for_all (( = ) 1) out);
  Alcotest.(check int) "restart counted" (restarts0 + 1) (counter "pool.worker.restarts");
  Array.fill out 0 n 0;
  Engine.Pool.run pool (fun i -> out.(i) <- i + 1) n;
  Alcotest.(check bool) "pool usable after the mid-chunk respawn" true
    (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

(* Engagement by measured work.  Four ~20 ms items are expensive
   against one wakeup, so both lanes of an eager 2-lane pool must run
   some: on the first job (no history, treated as expensive) and again
   once the pool has measured the items. *)
let test_pool_engages_expensive_items () =
  let pool = Engine.Pool.create ~eager:true 1 in
  let main = Domain.self () in
  let job () =
    let ran = Array.make 4 main in
    Engine.Pool.run pool
      (fun i ->
        Unix.sleepf 0.02;
        ran.(i) <- Domain.self ())
      4;
    Array.exists (fun d -> d <> main) ran
  in
  Alcotest.(check bool) "first job (no history) reaches the worker lane" true (job ());
  Alcotest.(check bool) "measured expensive items reach the worker lane" true (job ());
  Engine.Pool.shutdown pool

(* The other side of the rule: once the pool has measured no-op items,
   a job of 8 of them carries far less work than one wakeup and must
   stay on the caller's lane. *)
let test_pool_cheap_job_wakes_nobody () =
  let pool = Engine.Pool.create ~eager:true 1 in
  let main = Domain.self () in
  for _ = 1 to 5 do
    Engine.Pool.run pool (fun _ -> ()) 8
  done;
  (* Let a worker woken by the first (history-less) job park again. *)
  Unix.sleepf 0.05;
  let ran = Array.make 8 main in
  Engine.Pool.run pool (fun i -> ran.(i) <- Domain.self ()) 8;
  Alcotest.(check bool) "every no-op item ran on the caller's lane" true
    (Array.for_all (fun d -> d = main) ran);
  Engine.Pool.shutdown pool

(* Evals nested in a [map_jobs] item skip the cache on every lane, so a
   lot's counts are the same whichever lane took which die — and the
   same at jobs 1 as on two lanes. *)
let test_map_jobs_counters_lane_invariant () =
  let names =
    [ "engine.evals"; "engine.cache.hit"; "engine.cache.miss"; "sdm.steps"; "receiver.runs";
      "measure.trials" ]
  in
  let main = Domain.self () in
  let lot jobs =
    Engine.Service.configure ~jobs ();
    let before = List.map counter names in
    let off_main = Atomic.make 0 in
    let keys =
      Engine.Service.map_jobs
        (fun i ->
          if Domain.self () <> main then Atomic.incr off_main;
          let chip = Circuit.Process.fabricate ~seed:(7100 + i) () in
          let rx = Rfchain.Receiver.create chip standard in
          let o = Calibration.Calibrate.run ~passes:1 ~max_retries:0 rx in
          Rfchain.Config.to_bits o.Calibration.Calibrate.report.Calibration.Calibrate.key)
        4
    in
    (keys, List.map2 (fun n b -> (n, counter n - b)) names before, Atomic.get off_main)
  in
  let keys1, deltas1, _ = lot 1 in
  let keys2, deltas2, off_main = lot 2 in
  Engine.Service.configure ();
  Alcotest.(check (list int64)) "same keys at jobs 1 and on two lanes" keys1 keys2;
  Alcotest.(check (list (pair string int))) "same counter deltas at jobs 1 and on two lanes"
    deltas1 deltas2;
  if Domain.recommended_domain_count () >= 2 then
    Alcotest.(check bool) "the worker lane took a die" true (off_main > 0)

(* ------------------------------------------------------------- stream *)

(* Out-of-order delivery: item 0 blocks until item 1 (on the other
   lane) has run, then sleeps long enough for item 1's completion to be
   queued first.  Whichever lane ends up with which item — deal, steal
   or claim — item 1's completion strictly precedes item 0's, so the
   first delivery must be index 1.  That is the barrier's absence made
   observable: under the old per-chunk submit, nothing was delivered
   until the whole batch joined. *)
let test_pool_stream_out_of_order () =
  let pool = Engine.Pool.create ~eager:true 1 in
  let gate = Atomic.make false in
  let ticket =
    Engine.Pool.submit_stream ~chunk:1 pool
      (fun i ->
        if i = 0 then begin
          while not (Atomic.get gate) do
            Domain.cpu_relax ()
          done;
          (* Yield the core so the lane that ran item 1 certainly gets
             to push its completion before item 0's lands behind it. *)
          Unix.sleepf 0.05
        end
        else Atomic.set gate true;
        i * 10)
      2
  in
  (match Engine.Pool.next_result ticket with
  | Some (i, v) ->
    Alcotest.(check int) "item 1 is delivered first (out of order)" 1 i;
    Alcotest.(check int) "its result rides along" 10 v
  | None -> Alcotest.fail "a completed item must be deliverable");
  (match Engine.Pool.next_result ticket with
  | Some (i, v) ->
    Alcotest.(check int) "the gated item arrives second" 0 i;
    Alcotest.(check int) "gated item's result" 0 v
  | None -> Alcotest.fail "the gated item must still be delivered");
  Alcotest.(check bool) "delivery ends with None" true (Engine.Pool.next_result ticket = None);
  let out = Array.make 8 0 in
  Engine.Pool.run pool (fun i -> out.(i) <- i + 1) 8;
  Alcotest.(check bool) "pool free for an ordinary run after the stream" true
    (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

let test_pool_stream_discard () =
  let pool = Engine.Pool.create 1 in
  let ran = Array.make 64 0 in
  let ticket = Engine.Pool.submit_stream pool (fun i -> ran.(i) <- 1) 64 in
  (match Engine.Pool.next_result ticket with
  | Some _ -> ()
  | None -> Alcotest.fail "expected at least one delivery before the discard");
  (* A second job over an undrained ticket must be refused... *)
  (match Engine.Pool.run pool ignore 4 with
  | () -> Alcotest.fail "posting over an in-flight stream must be refused"
  | exception Invalid_argument _ -> ());
  Engine.Pool.discard ticket;
  Alcotest.(check bool) "discarded ticket delivers nothing" true
    (Engine.Pool.next_result ticket = None);
  (match Engine.Pool.drain ticket with
  | _ -> Alcotest.fail "draining a discarded ticket must be refused"
  | exception Invalid_argument _ -> ());
  (* ... and after the discard the pool is free again. *)
  let out = Array.make 8 0 in
  Engine.Pool.run pool (fun i -> out.(i) <- i + 1) 8;
  Alcotest.(check bool) "pool reusable after the discard" true
    (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

(* The tentpole equivalence: a drained stream is bit-identical to the
   batch API on the same requests, at every lane count the CLI
   exposes, out-of-order completion and all. *)
let prop_stream_equals_batch =
  QCheck.Test.make ~name:"eval_stream reassembled by index = eval_batch at jobs 1/4/8"
    ~count:4
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 0 63))
    (fun flipped_bits ->
      let reqs = List.map (fun bit -> request (config_of_bit bit)) flipped_bits in
      List.for_all
        (fun engine ->
          let engine = Lazy.force engine in
          let batch = Engine.Service.eval_batch ~engine reqs in
          match Engine.Service.stream_drain (Engine.Service.eval_stream ~engine reqs) with
          | Ok ms -> List.for_all2 same_measurement batch ms
          | Error _ -> QCheck.Test.fail_report "stream without a deadline was denied")
        [ seq_engine; pool_engine4; pool_engine8 ])

(* Cache hits short-circuit before anything reaches the scheduler and
   are delivered first, in request order, at replayed cost. *)
let test_stream_hits_first () =
  let engine = Engine.Service.create () in
  let ra = request (config_of_bit 33) in
  let rb = request (config_of_bit 34) in
  let cached = Engine.Service.eval ~engine rb in
  let steps0 = counter "sdm.steps" in
  let stream = Engine.Service.eval_stream ~engine [ ra; rb ] in
  (match Engine.Service.stream_next stream with
  | Ok (Some (i, m)) ->
    Alcotest.(check int) "the cache hit is delivered first" 1 i;
    Alcotest.(check bool) "hit is bit-identical" true (same_measurement cached m);
    Alcotest.(check int) "hit delivery ran zero simulator steps" steps0 (counter "sdm.steps")
  | _ -> Alcotest.fail "expected the hit as the first delivery");
  (match Engine.Service.stream_drain stream with
  | Ok ms ->
    Alcotest.(check int) "drain returns the full grid in request order" 2 (List.length ms)
  | Error _ -> Alcotest.fail "drain must succeed");
  Engine.Service.shutdown engine

let test_stream_abort_reusable () =
  let engine = Lazy.force pool_engine4 in
  let reqs = List.map (fun bit -> request (config_of_bit bit)) [ 45; 46; 47; 48; 49 ] in
  let stream = Engine.Service.eval_stream ~engine reqs in
  (match Engine.Service.stream_next stream with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "expected one delivery before the abort");
  Engine.Service.stream_abort stream;
  Alcotest.(check bool) "an aborted stream is at its end" true
    (Engine.Service.stream_next stream = Ok None);
  (match Engine.Service.stream_drain stream with
  | _ -> Alcotest.fail "draining an aborted stream must be refused"
  | exception Invalid_argument _ -> ());
  (* The pool was released: the next batch on the same engine agrees
     with the sequential backend. *)
  let par = Engine.Service.eval_batch ~engine reqs in
  let seq = Engine.Service.eval_batch ~engine:(Lazy.force seq_engine) reqs in
  Alcotest.(check bool) "engine fully usable after an aborted stream" true
    (List.for_all2 same_measurement seq par)

(* Job-level streaming with re-entrant engine calls: each job runs a
   nested eval_batch on the same engine — inline on the main lane (the
   streaming latch), off-main on worker lanes — and the assembled
   results match the sequential backend. *)
let test_map_jobs_nested () =
  let engine = Lazy.force pool_engine4 in
  let reqs = Array.of_list (List.map (fun bit -> request (config_of_bit bit)) [ 52; 53; 54 ]) in
  let via_jobs =
    Engine.Service.map_jobs ~engine
      (fun i -> List.hd (Engine.Service.eval_batch ~engine [ reqs.(i) ]))
      (Array.length reqs)
  in
  let direct =
    List.map (fun r -> Engine.Service.eval ~engine:(Lazy.force seq_engine) r) (Array.to_list reqs)
  in
  Alcotest.(check int) "one result per job" (Array.length reqs) (List.length via_jobs);
  Alcotest.(check bool) "nested-eval jobs assemble in index order, bit-identical" true
    (List.for_all2 same_measurement direct via_jobs)

(* ----------------------------------------------------------- deadline *)

let test_eval_deadlined () =
  let engine = Engine.Service.create ~cache:false () in
  let req = request (config_of_bit 9) in
  let hit0 = counter "engine.deadline.hit" in
  (match Engine.Service.eval_deadlined ~engine ~deadline_s:0.0 req with
  | Error (Engine.Service.Timed_out { deadline_s }) ->
    Alcotest.(check (float 0.0)) "denial echoes the deadline" 0.0 deadline_s
  | Error (Engine.Service.Budget_exhausted _) -> Alcotest.fail "wrong denial"
  | Ok _ -> Alcotest.fail "an expired deadline must not evaluate");
  Alcotest.(check int) "engine.deadline.hit incremented" (hit0 + 1)
    (counter "engine.deadline.hit");
  let plain = Engine.Service.eval ~engine req in
  (match Engine.Service.eval_deadlined ~engine ~deadline_s:60.0 req with
  | Ok m ->
    Alcotest.(check bool) "generous deadline is bit-identical to plain eval" true
      (same_measurement plain m)
  | Error _ -> Alcotest.fail "a generous deadline must succeed");
  Engine.Service.shutdown engine

let test_batch_deadlined () =
  let engine = Engine.Service.create ~jobs:2 ~cache:false () in
  let reqs = List.map (fun bit -> request (config_of_bit bit)) [ 11; 13; 17; 19 ] in
  (match Engine.Service.eval_batch_deadlined ~engine ~deadline_s:0.0 reqs with
  | Error (Engine.Service.Timed_out _) -> ()
  | Error (Engine.Service.Budget_exhausted _) -> Alcotest.fail "wrong denial"
  | Ok _ -> Alcotest.fail "an expired deadline must time the batch out");
  let plain = Engine.Service.eval_batch ~engine reqs in
  (match Engine.Service.eval_batch_deadlined ~engine ~deadline_s:60.0 reqs with
  | Ok ms ->
    Alcotest.(check bool) "generous deadline is bit-identical to plain batch" true
      (List.for_all2 same_measurement plain ms)
  | Error _ -> Alcotest.fail "a generous deadline must succeed");
  Engine.Service.shutdown engine

(* -------------------------------------------------------------- retry *)

let test_retry_escalates_to_success () =
  let p =
    Engine.Retry.policy ~max_attempts:5 ~initial:0
      ~escalate:(fun ~attempt prev -> (prev * 10) + attempt)
      ()
  in
  let seen = ref [] in
  let o =
    Engine.Retry.run p (fun ~attempt params ->
        seen := (attempt, params) :: !seen;
        if attempt < 3 then Error attempt else Ok "done")
  in
  Alcotest.(check int) "three attempts" 3 o.Engine.Retry.attempts;
  (match o.Engine.Retry.result with
  | Ok s -> Alcotest.(check string) "success value" "done" s
  | Error _ -> Alcotest.fail "third attempt succeeds");
  Alcotest.(check (list (pair int int)))
    "deterministic escalation ladder"
    [ (1, 0); (2, 2); (3, 23) ]
    (List.rev !seen)

let test_retry_terminal_error () =
  let p = Engine.Retry.policy ~max_attempts:5 ~initial:() ~escalate:(fun ~attempt:_ () -> ()) () in
  let o = Engine.Retry.run ~retryable:(fun _ -> false) p (fun ~attempt:_ () -> Error "fatal") in
  Alcotest.(check int) "terminal error stops at attempt 1" 1 o.Engine.Retry.attempts;
  Alcotest.(check bool) "error preserved" true (o.Engine.Retry.result = Error "fatal")

let test_retry_bound_and_fold () =
  let p = Engine.Retry.policy ~max_attempts:3 ~initial:() ~escalate:(fun ~attempt:_ () -> ()) () in
  let o = Engine.Retry.run p (fun ~attempt () -> Error attempt) in
  Alcotest.(check int) "bounded at max_attempts" 3 o.Engine.Retry.attempts;
  Alcotest.(check bool) "default keep reports the last error" true
    (o.Engine.Retry.result = Error 3);
  let o =
    Engine.Retry.run ~keep:min p (fun ~attempt () -> Error (if attempt = 2 then 1 else attempt))
  in
  Alcotest.(check bool) "keep folds to the best error" true (o.Engine.Retry.result = Error 1)

(* --------------------------------------------------------- checkpoint *)

let ok_checkpoint = function
  | Ok cp -> cp
  | Error c -> Alcotest.fail (Engine.Checkpoint.corruption_to_string c)

let cp_value snr_mod snr_rx sfdr cost =
  {
    Engine.Cache.measurement = { Metrics.Spec.snr_mod_db = snr_mod; snr_rx_db = snr_rx; sfdr_db = sfdr };
    trial_cost = cost;
  }

let check_cp_value msg (a : Engine.Cache.value) (b : Engine.Cache.value) =
  Alcotest.(check bool) msg true
    (same_measurement a.Engine.Cache.measurement b.Engine.Cache.measurement
    && a.Engine.Cache.trial_cost = b.Engine.Cache.trial_cost)

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  (* Deliberately hostile floats (nan, -inf, subnormal) and a key that
     needs escaping: the journal must round-trip all of them bit-for-
     bit. *)
  let v1 = cp_value 12.34 nan None 3 in
  let v2 = cp_value neg_infinity 1e-320 (Some 55.5) 0 in
  Engine.Checkpoint.record cp "plain|key" v1;
  Engine.Checkpoint.record cp "weird \"key\"\nwith|breaks" v2;
  Engine.Checkpoint.close cp;
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Alcotest.(check int) "both records replayed" 2 (Engine.Checkpoint.entries cp);
  (match Engine.Checkpoint.find cp "plain|key" with
  | Some v -> check_cp_value "nan survives the round trip" v1 v
  | None -> Alcotest.fail "plain key missing");
  (match Engine.Checkpoint.find cp "weird \"key\"\nwith|breaks" with
  | Some v -> check_cp_value "escaped key and subnormal survive" v2 v
  | None -> Alcotest.fail "escaped key missing");
  Alcotest.(check bool) "absent key is a miss" true
    (Engine.Checkpoint.find cp "missing" = None);
  Engine.Checkpoint.close cp;
  Sys.remove path

let test_checkpoint_torn_tail () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  Engine.Checkpoint.record cp "a" (cp_value 1.0 2.0 None 1);
  Engine.Checkpoint.record cp "b" (cp_value 3.0 4.0 None 1);
  Engine.Checkpoint.close cp;
  (* Simulate a crash mid-write: a final line cut before its newline. *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc {|{"type":"cell","key":"c","snr|};
  close_out oc;
  let torn0 = counter "engine.checkpoint.torn" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Alcotest.(check int) "torn tail dropped, good records kept" 2 (Engine.Checkpoint.entries cp);
  Alcotest.(check int) "torn tail counted" (torn0 + 1) (counter "engine.checkpoint.torn");
  (* The torn bytes were truncated away, so appending keeps the journal
     parseable. *)
  Engine.Checkpoint.record cp "c" (cp_value 5.0 6.0 None 1);
  Engine.Checkpoint.close cp;
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Alcotest.(check int) "journal clean after re-append" 3 (Engine.Checkpoint.entries cp);
  Engine.Checkpoint.close cp;
  Sys.remove path

let test_checkpoint_corrupt_middle () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"type\":\"journal\",\"version\":1}\n";
  output_string oc "this is not a journal record\n";
  output_string oc "{\"type\":\"journal\",\"version\":1}\n";
  close_out oc;
  (match Engine.Checkpoint.load ~resume:true path with
  | Error { Engine.Checkpoint.line; _ } ->
    Alcotest.(check int) "corruption reported at the offending line" 2 line
  | Ok _ -> Alcotest.fail "a malformed interior line must refuse to load");
  Sys.remove path

let test_checkpoint_provenance () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  (* A fresh journal stamps the current engine hash into its header. *)
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  Engine.Checkpoint.record cp "a" (cp_value 1.0 2.0 None 1);
  Engine.Checkpoint.close cp;
  let header = In_channel.with_open_bin path In_channel.input_line in
  (match header with
  | Some line ->
    let expected =
      Printf.sprintf {|"engine":"%s"|} (Telemetry.Manifest.engine_hash ())
    in
    Alcotest.(check bool) "header embeds the engine hash" true
      (let rec contains i =
         i + String.length expected <= String.length line
         && (String.sub line i (String.length expected) = expected || contains (i + 1))
       in
       contains 0)
  | None -> Alcotest.fail "journal has no header");
  (* Resuming our own journal raises no mismatch. *)
  let m0 = counter "engine.checkpoint.provenance_mismatch" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Engine.Checkpoint.close cp;
  Alcotest.(check int) "same build: no mismatch" m0
    (counter "engine.checkpoint.provenance_mismatch");
  (* A journal from a different build still loads — resumed values are
     trusted — but the mismatch is counted. *)
  let oc = open_out path in
  output_string oc
    "{\"type\":\"journal\",\"version\":1,\"engine\":\"deadbeefdeadbeefdeadbeefdeadbeef\"}\n";
  close_out oc;
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Engine.Checkpoint.close cp;
  Alcotest.(check int) "foreign build: mismatch counted" (m0 + 1)
    (counter "engine.checkpoint.provenance_mismatch");
  (* A seed-era header with no engine field loads silently. *)
  let oc = open_out path in
  output_string oc "{\"type\":\"journal\",\"version\":1}\n";
  close_out oc;
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Engine.Checkpoint.close cp;
  Alcotest.(check int) "legacy header: no mismatch" (m0 + 1)
    (counter "engine.checkpoint.provenance_mismatch");
  Sys.remove path

let test_checkpoint_engine_resume () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  let e1 = Engine.Service.create ~cache:false ~checkpoint:cp () in
  let req = request (config_of_bit 21) in
  let m1 = Engine.Service.eval ~engine:e1 req in
  Engine.Checkpoint.close cp;
  Engine.Service.shutdown e1;
  (* A fresh engine (cold cache) over the resumed journal replays the
     evaluation without a single simulator step, trial cost included. *)
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  let e2 = Engine.Service.create ~cache:false ~checkpoint:cp () in
  let steps0 = counter "sdm.steps" in
  let trials0 = counter "measure.trials" in
  let m2 = Engine.Service.eval ~engine:e2 req in
  Alcotest.(check bool) "replayed measurement bit-identical" true (same_measurement m1 m2);
  Alcotest.(check int) "replay runs zero simulator steps" steps0 (counter "sdm.steps");
  Alcotest.(check bool) "replay re-charges the trial cost" true
    (counter "measure.trials" > trials0);
  Engine.Checkpoint.close cp;
  Engine.Service.shutdown e2;
  Sys.remove path

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "cache",
        [
          Alcotest.test_case "hit is free and identical" `Quick test_cache_hit;
          Alcotest.test_case "LRU evicts at capacity" `Quick test_lru_eviction;
          Alcotest.test_case "peak gauge tracks the high-water mark" `Quick test_cache_peak;
        ] );
      ( "batch",
        [ Alcotest.test_case "order preservation" `Quick test_batch_order ]
        @ qcheck [ prop_backend_equivalence; prop_campaign_jobs_equivalence ] );
      ( "account",
        [ Alcotest.test_case "atomic charge hammer" `Quick test_account_atomic_hammer ]
        @ qcheck [ prop_shared_account ] );
      ( "pool",
        [
          Alcotest.test_case "reusable after a raising job" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "worker death respawns and requeues" `Quick
            test_pool_worker_respawn;
          Alcotest.test_case "steal under skew" `Quick test_pool_steal_under_skew;
          Alcotest.test_case "respawn mid-chunk requeues the remainder" `Quick
            test_pool_respawn_mid_chunk;
          Alcotest.test_case "expensive items engage every lane" `Quick
            test_pool_engages_expensive_items;
          Alcotest.test_case "a cheap job wakes no worker" `Quick
            test_pool_cheap_job_wakes_nobody;
        ] );
      ( "stream",
        [
          Alcotest.test_case "out-of-order delivery, no submit barrier" `Quick
            test_pool_stream_out_of_order;
          Alcotest.test_case "discard frees the pool, double-post refused" `Quick
            test_pool_stream_discard;
          Alcotest.test_case "cache hits are delivered first" `Quick test_stream_hits_first;
          Alcotest.test_case "abort releases the engine" `Quick test_stream_abort_reusable;
          Alcotest.test_case "map_jobs with nested engine calls" `Quick test_map_jobs_nested;
          Alcotest.test_case "map_jobs counters are lane-invariant" `Quick
            test_map_jobs_counters_lane_invariant;
        ]
        @ qcheck [ prop_stream_equals_batch ] );
      ( "deadline",
        [
          Alcotest.test_case "eval_deadlined times out and completes" `Quick
            test_eval_deadlined;
          Alcotest.test_case "eval_batch_deadlined on the pool backend" `Quick
            test_batch_deadlined;
        ] );
      ( "retry",
        [
          Alcotest.test_case "escalates to success" `Quick test_retry_escalates_to_success;
          Alcotest.test_case "terminal errors stop immediately" `Quick test_retry_terminal_error;
          Alcotest.test_case "attempt bound and error folding" `Quick test_retry_bound_and_fold;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "journal round-trips bit-identically" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "torn final line is dropped and truncated" `Quick
            test_checkpoint_torn_tail;
          Alcotest.test_case "interior corruption refuses to load" `Quick
            test_checkpoint_corrupt_middle;
          Alcotest.test_case "header provenance round-trip" `Quick
            test_checkpoint_provenance;
          Alcotest.test_case "fresh engine resumes from the journal" `Quick
            test_checkpoint_engine_resume;
        ] );
    ]
