type backend =
  | Seq
  | Domains of Pool.t

type t = {
  cache : Cache.t option;
  backend : backend;
  jobs : int;
  checkpoint : Checkpoint.t option;
  deadline : Telemetry.Cancel.t option;
  (* Main-domain re-entrancy latch: true while a streaming job or a
     [map_jobs] fan-out owns the engine.  Work running *inside* it (a
     calibration nested in a parallelised study, say) that calls back
     into this engine must not try to post a second pool job — with
     the latch up, nested evals, batches and streams compute inline
     instead, and take the same cache-less path on the main lane as on
     a worker lane, so no count depends on which lane ran an item.
     Only the main domain writes it. *)
  mutable streaming : bool;
}

let default_cache_capacity = 4096

let create ?(jobs = 1) ?(cache = true) ?(cache_capacity = default_cache_capacity) ?checkpoint
    ?deadline_s () =
  if jobs <= 0 then invalid_arg "Service.create: jobs must be positive";
  let backend = if jobs = 1 then Seq else Domains (Pool.create (jobs - 1)) in
  {
    cache = (if cache then Some (Cache.create ~capacity:cache_capacity) else None);
    backend;
    jobs;
    checkpoint;
    deadline = Option.map (fun s -> Telemetry.Cancel.with_deadline s) deadline_s;
    streaming = false;
  }

let jobs t = t.jobs
let cache_enabled t = t.cache <> None
let checkpoint t = t.checkpoint

let shutdown t = match t.backend with Seq -> () | Domains pool -> Pool.shutdown pool

(* Process-global default engine, configured once by the CLI from
   --jobs / --no-cache / --checkpoint / --deadline and used implicitly
   by every call site that does not pass ?engine. *)
let default_engine : t option ref = ref None

let configure ?jobs ?cache ?cache_capacity ?checkpoint ?deadline_s () =
  Option.iter shutdown !default_engine;
  let t = create ?jobs ?cache ?cache_capacity ?checkpoint ?deadline_s () in
  default_engine := Some t;
  Telemetry.Log.info
    ~fields:
      [
        ("jobs", string_of_int t.jobs);
        ("cache", string_of_bool (t.cache <> None));
        ("checkpoint", match t.checkpoint with Some cp -> Checkpoint.path cp | None -> "-");
        ("deadline_s", match deadline_s with Some d -> Printf.sprintf "%g" d | None -> "-");
      ]
    "engine: configured"

let default () =
  match !default_engine with
  | Some t -> t
  | None ->
    let t = create () in
    default_engine := Some t;
    t

let resolve = function Some t -> t | None -> default ()

(* Live-monitor provider: expose the default engine's cache occupancy,
   pool lane state, checkpoint size and deadline remaining as gauges on
   every scrape/heartbeat.  Reads are monitoring-grade: Pool.stats takes
   the pool mutex, the rest are racy-but-atomic field reads. *)
let monitor_gauges () =
  match !default_engine with
  | None -> []
  | Some t ->
    let cache_g =
      match t.cache with
      | None -> []
      | Some c ->
        [
          ("engine_cache_entries", float_of_int (Cache.length c));
          ("engine_cache_entries_peak", float_of_int (Cache.peak c));
          ("engine_cache_capacity", float_of_int (Cache.capacity c));
        ]
    in
    let pool_g =
      match t.backend with
      | Seq -> [ ("pool_lanes", 1.0); ("pool_lanes_busy", 0.0) ]
      | Domains p ->
        let s = Pool.stats p in
        [
          ("pool_lanes", float_of_int s.Pool.lanes);
          ("pool_lanes_busy", float_of_int s.Pool.busy_lanes);
          ("pool_steals", float_of_int s.Pool.steals);
        ]
        @ List.mapi
            (fun i d -> (Printf.sprintf "pool_queue_depth_lane%d" i, float_of_int d))
            s.Pool.queue_depths
    in
    let deadline_g =
      match t.deadline with
      | None -> []
      | Some tok -> (
        match Telemetry.Cancel.remaining_s tok with
        | Some r -> [ ("engine_deadline_remaining_seconds", r) ]
        | None -> [])
    in
    let cp_g =
      match t.checkpoint with
      | None -> []
      | Some cp -> [ ("engine_checkpoint_entries", float_of_int (Checkpoint.entries cp)) ]
    in
    (("engine_jobs", float_of_int t.jobs) :: cache_g) @ pool_g @ deadline_g @ cp_g

let () = Telemetry.Monitor.register "engine" monitor_gauges

let eval_counter = Telemetry.Counter.make "engine.evals"
let batch_counter = Telemetry.Counter.make "engine.batches"
let stream_counter = Telemetry.Counter.make "engine.streams"
let denied_counter = Telemetry.Counter.make "engine.denied"
let deadline_counter = Telemetry.Counter.make "engine.deadline.hit"

(* Same registered counter as Metrics.Measure's odometer (Counter.make
   is idempotent by name): cache hits replay their trial cost here so
   the global accounting is independent of cache warmth. *)
let trials_counter = Telemetry.Counter.make "measure.trials"

(* The cache and the pool are main-domain structures; an eval issued
   from a worker domain (e.g. a calibration nested inside a
   parallelised study) falls back to inline sequential compute (plus
   the checkpoint, which is mutex-protected and domain-safe).  An eval
   nested inside a stream or fan-out on the main lane takes that same
   path ([nested]), so the cache traffic and the simulator counts of
   a fan-out do not depend on the lanes it ran on. *)
let main_domain = Domain.self ()
let on_main () = Domain.self () = main_domain

(* The actual simulate-and-measure, a pure function of the request.  A
   fresh bench per request keeps the per-request trial cost observable
   without racing on global counters; unrequested fields come back as
   nan / None. *)
let compute (req : Request.t) : Cache.value =
  Telemetry.Counter.incr eval_counter;
  let rx = Request.receiver req.die req.standard in
  let bench = Metrics.Measure.create ~p_dbm:req.p_dbm rx in
  let blank = { Metrics.Spec.snr_mod_db = nan; snr_rx_db = nan; sfdr_db = None } in
  let measurement =
    match req.metric with
    | Request.Snr_mod -> { blank with snr_mod_db = Metrics.Measure.snr_mod_db bench req.config }
    | Request.Snr_mod_verified ->
      { blank with snr_mod_db = Metrics.Measure.snr_mod_verified_db bench req.config }
    | Request.Snr_rx { n_fft } ->
      { blank with snr_rx_db = Metrics.Measure.snr_rx_db ~n_fft bench req.config }
    | Request.Snr_rx_at_power { n_fft; p_dbm; gain_code } ->
      { blank with
        snr_rx_db = Metrics.Measure.snr_rx_at_power_db ~n_fft bench req.config ~p_dbm ~gain_code
      }
    | Request.Sfdr -> { blank with sfdr_db = Some (Metrics.Measure.sfdr_db bench req.config) }
    | Request.Full -> Metrics.Measure.full bench req.config
    | Request.Full_verified ->
      (* The oracle's try_key bundle: linearity-verified modulator SNR
         so an injection-locked tank cannot fool the check, then both
         remaining specified performances. *)
      {
        Metrics.Spec.snr_mod_db = Metrics.Measure.snr_mod_verified_db bench req.config;
        snr_rx_db = Metrics.Measure.snr_rx_db bench req.config;
        sfdr_db = Some (Metrics.Measure.sfdr_db bench req.config);
      }
  in
  { Cache.measurement; trial_cost = Metrics.Measure.trial_count bench }

(* Run the simulator under an explicit cancellation token (a per-call
   or engine-wide deadline); with no token, whatever ambient token the
   caller installed still applies through the DLS. *)
let compute_tok ~token req =
  match token with
  | None -> compute req
  | Some tok -> Telemetry.Cancel.with_token tok (fun () -> compute req)

module Account = struct
  type t = {
    spent : int Atomic.t;
    limit : int option;
  }

  let make ?limit () = { spent = Atomic.make 0; limit }
  let spent a = Atomic.get a.spent
  let limit a = a.limit
  let charge a n = ignore (Atomic.fetch_and_add a.spent n)
  let exhausted a = match a.limit with Some l -> Atomic.get a.spent >= l | None -> false
end

type denial =
  | Budget_exhausted of {
      spent : int;
      limit : int;
    }
  | Timed_out of { deadline_s : float }

(* Checkpoint plumbing: a journal hit replays the trial cost exactly
   like a cache hit, so odometers are independent of how a run was cut
   up; a journal miss computes and records before anything else can
   observe the value (durability precedes visibility). *)

let replay (value : Cache.value) =
  Telemetry.Counter.add trials_counter value.Cache.trial_cost;
  value

let lookup_checkpoint t key =
  match t.checkpoint with None -> None | Some cp -> Checkpoint.find cp key

let checkpoint_record t key value =
  match t.checkpoint with None -> () | Some cp -> Checkpoint.record cp key value

let compute_keyed t ~token key req =
  let value = compute_tok ~token req in
  checkpoint_record t key value;
  value

let nested t = t.streaming || not (on_main ())

let eval_value ?token t (req : Request.t) : Cache.value =
  let token = match token with Some _ as tk -> tk | None -> t.deadline in
  let key = Request.cache_key req in
  if nested t then
    match key with
    | Some k -> (
      match lookup_checkpoint t k with
      | Some value -> replay value
      | None -> compute_keyed t ~token k req)
    | None -> compute_tok ~token req
  else
    match t.cache, key with
    | Some cache, Some k -> (
      match Cache.find cache k with
      | Some value ->
        (* Hit: no simulator step ran; replay the trial cost so the
           odometer matches a cold run exactly. *)
        replay value
      | None -> (
        match lookup_checkpoint t k with
        | Some value ->
          let value = replay value in
          Cache.add cache k value;
          value
        | None ->
          let value = compute_keyed t ~token k req in
          Cache.add cache k value;
          value))
    | None, Some k -> (
      match lookup_checkpoint t k with
      | Some value -> replay value
      | None -> compute_keyed t ~token k req)
    | _, None -> compute_tok ~token req

let charge account (value : Cache.value) =
  Option.iter (fun a -> Account.charge a value.Cache.trial_cost) account

let eval ?engine ?account req =
  let value = eval_value (resolve engine) req in
  charge account value;
  value.Cache.measurement

let eval_batch_inner ?token t ?account reqs =
  let token = match token with Some _ as tk -> tk | None -> t.deadline in
  Telemetry.Counter.incr batch_counter;
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  if n = 0 then []
  else if nested t then
    List.map
      (fun req ->
        let value = eval_value ?token t req in
        charge account value;
        value.Cache.measurement)
      reqs
  else begin
    let results : Cache.value option array = Array.make n None in
    let keys = Array.map Request.cache_key arr in
    (* Cache pass in request order (deterministic LRU traffic). *)
    (match t.cache with
    | None -> ()
    | Some cache ->
      Array.iteri
        (fun i key ->
          match key with
          | None -> ()
          | Some key -> (
            match Cache.find cache key with
            | Some value -> results.(i) <- Some (replay value)
            | None -> ()))
        keys);
    (* Indices the cache must learn, whether the value comes from the
       journal or from a fresh compute. *)
    let to_store =
      Array.of_list (List.filter (fun i -> results.(i) = None) (List.init n (fun i -> i)))
    in
    (* Checkpoint pass: resume completed cells without touching the
       simulator. *)
    (match t.checkpoint with
    | None -> ()
    | Some cp ->
      Array.iter
        (fun i ->
          match keys.(i) with
          | None -> ()
          | Some key -> (
            match Checkpoint.find cp key with
            | Some value -> results.(i) <- Some (replay value)
            | None -> ()))
        to_store);
    let misses = Array.of_list (List.filter (fun i -> results.(i) = None) (Array.to_list to_store)) in
    (* The pool shards [misses] across its per-lane run queues (chunked
       round-robin + stealing, DESIGN §13); result-slot ordering is
       preserved because each worker writes only [results.(misses.(j))]
       for the [j] it claimed, so claim order never shows in the
       output.  Each completed compute journals itself before
       publishing, from whichever domain ran it — an interrupt
       mid-batch loses only the evaluations that had not finished. *)
    let run_one j =
      let i = misses.(j) in
      let value = compute_tok ~token arr.(i) in
      (match keys.(i) with None -> () | Some key -> checkpoint_record t key value);
      results.(i) <- Some value
    in
    (match t.backend with
    | Seq -> Array.iteri (fun j _ -> run_one j) misses
    | Domains pool -> Pool.run pool run_one (Array.length misses));
    (* Store pass in request order, after the barrier: cache state is a
       pure function of the request sequence, never of claim order. *)
    (match t.cache with
    | None -> ()
    | Some cache ->
      Array.iter
        (fun i ->
          match keys.(i), results.(i) with
          | Some key, Some value -> Cache.add cache key value
          | _ -> ())
        to_store);
    Array.to_list
      (Array.map
         (fun r ->
           let value = Option.get r in
           charge account value;
           value.Cache.measurement)
         results)
  end

let eval_batch ?engine ?account reqs = eval_batch_inner (resolve engine) ?account reqs

(* A cancellation that fired because [tok]'s deadline passed becomes a
   typed [Timed_out] denial; any other cancellation (a SIGINT, an outer
   token) keeps propagating as the exception it is. *)
let timed_out_guard tok deadline_s = function
  | Telemetry.Cancel.Cancelled _ when Telemetry.Cancel.is_set tok ->
    Telemetry.Counter.incr deadline_counter;
    Telemetry.Counter.incr denied_counter;
    Some (Timed_out { deadline_s })
  | _ -> None

let eval_deadlined ?engine ?account ~deadline_s req =
  let t = resolve engine in
  let tok = Telemetry.Cancel.with_deadline deadline_s in
  match eval_value ~token:tok t req with
  | value ->
    charge account value;
    Ok value.Cache.measurement
  | exception e -> (
    match timed_out_guard tok deadline_s e with Some d -> Error d | None -> raise e)

let eval_batch_deadlined ?engine ?account ~deadline_s reqs =
  let t = resolve engine in
  let tok = Telemetry.Cancel.with_deadline deadline_s in
  match eval_batch_inner ~token:tok t ?account reqs with
  | ms -> Ok ms
  | exception e -> (
    match timed_out_guard tok deadline_s e with Some d -> Error d | None -> raise e)

(* ---------------------------------------------------------- streaming
   DESIGN §14: the whole request grid is handed to the scheduler at
   once and results are consumed out of order as lanes finish them.
   Cache and journal lookups short-circuit before anything is
   enqueued; for every computed miss, checkpoint journaling (the
   durability write) and cache publication happen on the main domain
   at delivery time, in that order — workers only compute, so the
   journal-before-publish contract of §11 holds with a single writer.
   Delivery order is completion order (schedule-dependent); index
   assembly is what restores determinism, exactly as with [Pool.run]'s
   slot contract.  Measurement values and trial odometers are
   schedule-independent; the one thing that becomes schedule-dependent
   is the cache's LRU *recency* order for the streamed misses, which
   affects future hit latency only, never a value. *)

type stream = {
  s_n : int;
  (* Per-stream deadline token; [None] on plain [eval_stream], where
     an engine-wide deadline still cancels computes but surfaces as
     the raw cancellation exception, exactly like [eval_batch]. *)
  s_tok : Telemetry.Cancel.t option;
  s_deadline_s : float option;
  mutable s_hits : (int * Metrics.Spec.measurement) list;  (* request order *)
  s_out : Metrics.Spec.measurement option array;  (* every delivery, by index *)
  s_next_miss : unit -> (int * Metrics.Spec.measurement) option;
  s_on_stop : unit -> unit;  (* release pool / re-entrancy latch; idempotent *)
  mutable s_stopped : bool;
  mutable s_aborted : bool;  (* stopped early: drain would be partial *)
  mutable s_dead : denial option;  (* sticky after a deadline denial *)
}

let stream_length s = s.s_n

let eval_stream_inner ?token ?deadline_s (t : t) ?account reqs =
  let token = match token with Some _ as tk -> tk | None -> t.deadline in
  Telemetry.Counter.incr stream_counter;
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  let mk ?(hits = []) ?(on_stop = ignore) next_miss =
    {
      s_n = n;
      s_tok = (if deadline_s = None then None else token);
      s_deadline_s = deadline_s;
      s_hits = hits;
      s_out = Array.make n None;
      s_next_miss = next_miss;
      s_on_stop = on_stop;
      s_stopped = false;
      s_aborted = false;
      s_dead = None;
    }
  in
  if nested t then begin
    (* Off the main domain, or nested inside another stream on this
       engine: degrade to a lazy sequential cursor in index order.
       [eval_value] keeps the cache/journal semantics right for either
       situation. *)
    let cursor = ref 0 in
    mk (fun () ->
        if !cursor >= n then None
        else begin
          let i = !cursor in
          incr cursor;
          let value = eval_value ?token t arr.(i) in
          charge account value;
          Some (i, value.Cache.measurement)
        end)
  end
  else begin
    let results : Cache.value option array = Array.make n None in
    let keys = Array.map Request.cache_key arr in
    (* Cache pass in request order, then journal pass — identical
       short-circuit order to [eval_batch_inner], and journal hits are
       published to the cache here, before anything streams. *)
    (match t.cache with
    | None -> ()
    | Some cache ->
      Array.iteri
        (fun i key ->
          match key with
          | None -> ()
          | Some key -> (
            match Cache.find cache key with
            | Some value -> results.(i) <- Some (replay value)
            | None -> ()))
        keys);
    (match t.checkpoint with
    | None -> ()
    | Some cp ->
      Array.iteri
        (fun i key ->
          match key with
          | None -> ()
          | Some key ->
            if results.(i) = None then (
              match Checkpoint.find cp key with
              | Some value ->
                let value = replay value in
                (match t.cache with Some c -> Cache.add c key value | None -> ());
                results.(i) <- Some value
              | None -> ()))
        keys);
    let hits = ref [] in
    Array.iteri
      (fun i r ->
        match r with
        | Some value ->
          charge account value;
          hits := (i, value.Cache.measurement) :: !hits
        | None -> ())
      results;
    let hits = List.rev !hits in
    let misses =
      Array.of_list (List.filter (fun i -> results.(i) = None) (List.init n (fun i -> i)))
    in
    let m = Array.length misses in
    (* Journal-before-publish, on the main domain, per completion. *)
    let publish i (value : Cache.value) =
      (match keys.(i) with Some key -> checkpoint_record t key value | None -> ());
      (match t.cache, keys.(i) with
      | Some cache, Some key -> Cache.add cache key value
      | _ -> ());
      charge account value;
      (i, value.Cache.measurement)
    in
    match t.backend with
    | Seq ->
      (* One lane: misses compute lazily, one per pull, in index
         order — an interrupted consumer pays only for what it
         pulled. *)
      let cursor = ref 0 in
      mk ~hits (fun () ->
          if !cursor >= m then None
          else begin
            let i = misses.(!cursor) in
            incr cursor;
            Some (publish i (compute_tok ~token arr.(i)))
          end)
    | Domains pool ->
      (* Hand the scheduler the whole miss grid now; consume
         completions out of order.  Workers run [compute_tok] only —
         journaling and cache publication wait for delivery here on
         the main domain. *)
      t.streaming <- true;
      let ticket =
        try Pool.submit_stream pool (fun j -> compute_tok ~token arr.(misses.(j))) m
        with e ->
          t.streaming <- false;
          raise e
      in
      mk ~hits
        ~on_stop:(fun () ->
          Pool.discard ticket;
          t.streaming <- false)
        (fun () ->
          match Pool.next_result ticket with
          | None -> None
          | Some (j, value) -> Some (publish misses.(j) value))
  end

let stream_stop ~aborted s =
  if not s.s_stopped then begin
    s.s_stopped <- true;
    s.s_aborted <- aborted;
    s.s_on_stop ()
  end

let stream_abort s = if s.s_dead = None then stream_stop ~aborted:true s

let stream_next s =
  match s.s_dead with
  | Some d -> Error d
  | None ->
    if s.s_stopped then Ok None
    else (
      match s.s_hits with
      | ((i, measurement) as hit) :: rest ->
        s.s_hits <- rest;
        s.s_out.(i) <- Some measurement;
        Ok (Some hit)
      | [] -> (
        match s.s_next_miss () with
        | Some (i, measurement) ->
          s.s_out.(i) <- Some measurement;
          Ok (Some (i, measurement))
        | None ->
          stream_stop ~aborted:false s;
          Ok None
        | exception e -> (
          stream_stop ~aborted:true s;
          match s.s_tok, s.s_deadline_s with
          | Some tok, Some deadline_s -> (
            match timed_out_guard tok deadline_s e with
            | Some d ->
              s.s_dead <- Some d;
              Error d
            | None -> raise e)
          | _ -> raise e)))

let stream_drain s =
  if s.s_aborted then invalid_arg "Service.stream_drain: stream was aborted";
  let rec go () =
    match stream_next s with
    | Ok (Some _) -> go ()
    | Ok None -> Ok (List.map Option.get (Array.to_list s.s_out))
    | Error d -> Error d
  in
  go ()

let eval_stream ?engine ?account reqs = eval_stream_inner (resolve engine) ?account reqs

let eval_stream_deadlined ?engine ?account ~deadline_s reqs =
  let tok = Telemetry.Cancel.with_deadline deadline_s in
  eval_stream_inner ~token:tok ~deadline_s (resolve engine) ?account reqs

(* Generic job-level streaming for fan-outs that are not [Request]
   evaluations (a lot's die calibrations, an attack's trial set): run
   [f] over [0..n-1] on the pool, out of order, and assemble by index.
   [f] may call back into this engine; such calls take the nested
   path (checkpoint + inline compute, no cache) on every lane and on
   every backend, so a fan-out's counts are the same at any [jobs]. *)
let map_jobs ?engine f n =
  let t = resolve engine in
  if n <= 0 then []
  else if nested t then List.init n f
  else begin
    t.streaming <- true;
    Fun.protect
      ~finally:(fun () -> t.streaming <- false)
      (fun () ->
        match t.backend with
        | Seq -> List.init n f
        | Domains pool -> (
          let ticket = Pool.submit_stream pool f n in
          match Pool.drain ticket with
          | results -> Array.to_list results
          | exception e ->
            Pool.discard ticket;
            raise e))
  end

let eval_guarded ?engine ?deadline_s ~account req =
  if Account.exhausted account then begin
    Telemetry.Counter.incr denied_counter;
    let limit = Option.value (Account.limit account) ~default:0 in
    Error (Budget_exhausted { spent = Account.spent account; limit })
  end
  else
    match deadline_s with
    | None ->
      let value = eval_value (resolve engine) req in
      Account.charge account value.Cache.trial_cost;
      Ok (value.Cache.measurement, value.Cache.trial_cost)
    | Some deadline_s -> (
      let t = resolve engine in
      let tok = Telemetry.Cancel.with_deadline deadline_s in
      match eval_value ~token:tok t req with
      | value ->
        Account.charge account value.Cache.trial_cost;
        Ok (value.Cache.measurement, value.Cache.trial_cost)
      | exception e -> (
        match timed_out_guard tok deadline_s e with Some d -> Error d | None -> raise e))
