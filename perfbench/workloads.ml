(* The three closed-loop workloads, their correctness gate, and the
   traced run's stage replay.  One client loop drives the process-global
   engine at two lanes; every layer is timed from outside, through its
   public functions, plus before/after deltas of the library's
   always-on counters. *)

open Rfchain
module Svc = Engine.Service
module Calibrate = Calibration.Calibrate
module Oracle = Attacks.Oracle
module Optimize = Attacks.Optimize

let standard = Standards.bluetooth
let jobs = 2
let setup_reps = 5
let replay_samples = 32

(* The GA and SA budget of the attack's phase B, and of the attack
   probe every traced run makes. *)
let attack_budget = 48

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  workdir : string;
}

let now_s () = Int64.to_float (Spans.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let counter name = Telemetry.Counter.value (Telemetry.Counter.make name)

(* Counters that depend only on the seed, never on timing or lane
   scheduling: a repeat of the same round must reproduce them exactly. *)
let deterministic_counters =
  [
    "engine.evals";
    "engine.cache.hit";
    "engine.cache.miss";
    "engine.checkpoint.records";
    "engine.checkpoint.hits";
    "measure.trials";
    "sdm.steps";
    "sdm.osc_probes";
    "receiver.runs";
    "oracle.queries";
    "faults.cells";
    "calibrate.attempts";
    "calibrate.converged";
    "osc_tune.measurements";
  ]

(* When calibrations fan out over [map_jobs], a die on a worker lane
   computes inline without the cache, so the lane that takes a die
   decides whether its repeated probes hit the cache or run the
   simulator again.  Every request is either a cache hit or an
   evaluation, so hits + evals repeats for a seed whatever the lanes
   did, and such a round digests that sum in place of the two.  Cache
   misses, [sdm.steps] and [receiver.runs] follow the evaluations alone
   and no sum of counters makes them lane-invariant: they stay out of
   the digest, an open failure of the engine's determinism. *)
let lane_dependent_counters =
  [ "engine.evals"; "engine.cache.hit"; "engine.cache.miss"; "sdm.steps"; "receiver.runs" ]

let lane_invariant counts =
  ("engine.requests", List.assoc "engine.evals" counts + List.assoc "engine.cache.hit" counts)
  :: List.filter (fun (n, _) -> not (List.mem n lane_dependent_counters)) counts

let read_counters () = List.map (fun n -> (n, counter n)) deterministic_counters
let counter_delta before after = List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

(* --- digests ------------------------------------------------------ *)

let add_float b x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x))
let add_int b i = Buffer.add_string b (Printf.sprintf "%d;" i)
let add_config b c = Buffer.add_string b (Printf.sprintf "%Lx;" (Config.to_bits c))

let add_measurement b (m : Metrics.Spec.measurement) =
  add_float b m.snr_mod_db;
  add_float b m.snr_rx_db;
  add_float b (Option.value m.sfdr_db ~default:nan)

let add_outcome b (o : Calibrate.outcome) =
  let r = o.report in
  add_config b r.key;
  List.iter (add_float b) [ r.snr_mod_db; r.snr_rx_db; r.sfdr_db; r.freq_error_hz ];
  List.iter (add_int b) [ r.oscillation_measurements; r.snr_measurements; o.attempts ];
  Buffer.add_string b
    (match o.verdict with Converged -> "ok;" | Degraded f -> Calibrate.failure_to_string f ^ ";")

(* --- set-up ------------------------------------------------------- *)

(* The reference die every workload starts from: fabricated and
   calibrated from the seed, its key deployed in an oracle. *)
type reference = {
  ref_rx : Receiver.t;
  ref_outcome : Calibrate.outcome;
  oracle : Oracle.t;
}

let setup_reference ~seed =
  Spans.with_ "setup" @@ fun () ->
  Spans.with_ "engine.configure" (fun () -> Svc.configure ~jobs ());
  let die_seed = Inputs.derive ~seed Reference_die 0 in
  let chip = Circuit.Process.fabricate ~seed:die_seed () in
  let ref_rx = Receiver.create chip standard in
  let ref_outcome =
    Spans.with_ "calibration.run" (fun () -> Calibrate.run ~passes:1 ~max_retries:0 ref_rx)
  in
  let key = Core.Key.make ~standard ~chip ref_outcome.report.key in
  let oracle = Oracle.deploy standard ~chip_seed:die_seed ~key in
  ignore
    (Spans.with_ "attacks.reference_performance" (fun () -> Oracle.reference_performance oracle));
  { ref_rx; ref_outcome; oracle }

(* --- what a workload hands the common runner ---------------------- *)

type round = {
  digest : string;       (* results and scheduling-invariant counter deltas *)
  counts : (string * int) list;
  ungated : string list;  (* counts the digest does not carry one by one *)
  attempted : int;
  failed : int;
  wall_s : float;
}

(* A workload instance: [round r] runs the r-th fixed unit of work;
   [fresh ()] rebuilds the per-run state on a fresh engine (for the
   repeat); the rest is read once the timed phase has ended. *)
type instance = {
  round : int -> round;
  fresh : unit -> instance;
  e2e : unit -> (string * float * int) list;  (* ops_per_s, op_ms_p50, phase_s *)
  aliases : unit -> (string * float * string * int) list;  (* per-workload names *)
  gate : unit -> int * int;  (* attempted, failed *)
  generic_share : unit -> float;
  replay_set : unit -> Replay.sample list;
  osc_set : unit -> Receiver.t list;
  outcomes : unit -> Calibrate.outcome list;  (* round-0 calibrations *)
  journal_bytes : unit -> int;
  busy_s : unit -> float option;
      (* Σ job busy seconds of the timed phase on the benchmark's clocks;
         None when the jobs are the library's own closures *)
}

let finish_round ?(fans_out = false) buf ~before ~attempted ~failed ~wall_s =
  let counts = counter_delta before (read_counters ()) in
  List.iter
    (fun (n, d) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" n d))
    (if fans_out then lane_invariant counts else counts);
  {
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    counts;
    ungated = (if fans_out then lane_dependent_counters else []);
    attempted;
    failed;
    wall_s;
  }

let protect_count failed f = try f () with _ -> incr failed

(* Share of (receiver, word) pairs whose word takes the generic ΣΔ loop. *)
let share_generic pairs =
  let generic = List.filter (fun (rx, c) -> not (Replay.fused_path rx c)) pairs in
  Stats.ratio (float_of_int (List.length generic)) (float_of_int (List.length pairs))

(* --- attack ------------------------------------------------------- *)

module Attack = struct
  (* Small rounds, so a run holds many of them and the per-round
     medians below rest on many samples. *)
  let queries_per_round = 32

  type state = {
    seed : int;
    attacker_seed : int;
    refab : Oracle.refab;
    mutable latencies_ms : float list list;  (* per round, newest first *)
    mutable phase_a_s : float;
    mutable phase_b_s : float list;
    mutable answered : (Config.t * float) list;  (* key, fast-probe SNR *)
    mutable round0_keys : Config.t list;
  }

  let phase_a st r buf failed =
    let keys = Inputs.keys ~seed:st.seed ~round:r queries_per_round in
    if r = 0 then st.round0_keys <- keys;
    let lat =
      List.map
        (fun key ->
          let t0 = now_s () in
          protect_count failed (fun () ->
              match Spans.with_ "attacks.try_key_fast" (fun () -> Oracle.try_key_fast st.refab key) with
              | Error _ -> incr failed
              | Ok snr ->
                add_config buf key;
                add_float buf snr;
                st.answered <- (key, snr) :: st.answered;
                if snr >= standard.Standards.min_snr_db then begin
                  match Spans.with_ "attacks.try_key" (fun () -> Oracle.try_key st.refab key) with
                  | Ok m -> add_measurement buf m
                  | Error _ -> incr failed
                end);
          (now_s () -. t0) *. 1e3)
        keys
    in
    st.latencies_ms <- lat :: st.latencies_ms;
    st.phase_a_s <- st.phase_a_s +. (Stats.sum lat /. 1e3)

  let add_result buf (res : Optimize.result) =
    add_int buf res.evaluations;
    add_config buf res.best_config;
    add_float buf res.best_snr_mod_db;
    Buffer.add_string buf (Optimize.termination_to_string res.termination)

  let phase_b st r buf failed =
    let t0 = now_s () in
    protect_count failed (fun () ->
        let ga_seed = Inputs.derive ~seed:st.seed Ga r and sa_seed = Inputs.derive ~seed:st.seed Sa r in
        add_result buf
          (Spans.with_ "attacks.genetic" (fun () ->
               Optimize.genetic ~seed:ga_seed ~budget:attack_budget st.refab));
        add_result buf
          (Spans.with_ "attacks.simulated_annealing" (fun () ->
               Optimize.simulated_annealing ~seed:sa_seed ~budget:attack_budget st.refab)));
    st.phase_b_s <- (now_s () -. t0) :: st.phase_b_s

  (* Oracle audit: what the refab's account was charged equals the
     process-wide query odometer and the oracle's own query counter. *)
  let round st r =
    let before = read_counters () in
    let spent0 = Oracle.trials_spent st.refab and global0 = Oracle.global_queries () in
    let buf = Buffer.create 4096 and failed = ref 0 in
    let (), wall_s =
      timed (fun () ->
          phase_a st r buf failed;
          phase_b st r buf failed)
    in
    let spent = Oracle.trials_spent st.refab - spent0 in
    let global = Oracle.global_queries () - global0 in
    let counted = List.assoc "oracle.queries" (counter_delta before (read_counters ())) in
    if not (spent = global && spent = counted) then incr failed;
    finish_round buf ~before ~attempted:(queries_per_round + 3) ~failed:!failed ~wall_s

  let attacker_rx st = Engine.Request.receiver (Engine.Request.die_of_seed st.attacker_seed) standard

  let rec instance ~seed (reference : reference) =
    let attacker_seed = Inputs.derive ~seed Attacker_die 0 in
    let st =
      {
        seed;
        attacker_seed;
        refab = Oracle.refabricate reference.oracle ~attacker_seed;
        latencies_ms = [];
        phase_a_s = 0.0;
        phase_b_s = [];
        answered = [];
        round0_keys = [];
      }
    in
    let all_latencies () = List.concat st.latencies_ms in
    (* Re-evaluate a seeded sample of the answered queries on a fresh
       sequential, cache-less engine: the SNRs must be bit-identical. *)
    let gate () =
      let answered = Array.of_list (List.rev st.answered) in
      let picks = Inputs.sample ~seed ~salt:1 ~k:16 (Array.length answered) in
      let engine = Svc.create ~jobs:1 ~cache:false () in
      let die = Engine.Request.die_of_seed attacker_seed in
      let failed =
        List.fold_left
          (fun acc i ->
            let key, snr = answered.(i) in
            let m =
              Svc.eval ~engine
                (Engine.Request.make ~die ~standard ~config:key Engine.Request.Snr_mod)
            in
            if Int64.equal (Int64.bits_of_float m.snr_mod_db) (Int64.bits_of_float snr) then acc
            else acc + 1)
          0 picks
      in
      Svc.shutdown engine;
      (List.length picks, failed)
    in
    {
      round = round st;
      fresh = (fun () -> Svc.configure ~jobs (); instance ~seed reference);
      e2e =
        (fun () ->
          let lat = all_latencies () in
          let n = List.length lat in
          (* The median of the rounds' query rates: a round that pays
             for a full check or a burst of host load moves it little. *)
          let rates =
            List.map (fun l -> float_of_int (List.length l) /. (Stats.sum l /. 1e3)) st.latencies_ms
          in
          [
            ("ops_per_s", Stats.median rates, List.length rates);
            ("op_ms_p50", Stats.median lat, n);
            ("phase_s", Stats.median st.phase_b_s, List.length st.phase_b_s);
          ]);
      aliases =
        (fun () ->
          let lat = all_latencies () in
          let n = List.length lat in
          [
            ("query_ms_p50", Stats.median lat, "ms", n);
            ("query_ms_p99", Stats.quantile lat 0.99, "ms", n);
            ("attack_s", Stats.median st.phase_b_s, "s", List.length st.phase_b_s);
          ]);
      gate;
      generic_share =
        (fun () ->
          let rx = attacker_rx st in
          share_generic (List.map (fun k -> (rx, k)) st.round0_keys));
      replay_set =
        (fun () ->
          let rx = attacker_rx st in
          let answered = Array.of_list (List.rev st.answered) in
          Inputs.sample ~seed ~salt:2 ~k:replay_samples (Array.length answered)
          |> List.map (fun i -> { Replay.rx; config = fst answered.(i) }));
      osc_set = (fun () -> [ attacker_rx st ]);
      outcomes = (fun () -> []);
      journal_bytes = (fun () -> 0);
      (* Every evaluation runs inline in the client loop. *)
      busy_s = (fun () -> Some (st.phase_a_s +. Stats.sum st.phase_b_s));
    }
end

(* --- lot-calibrate ------------------------------------------------ *)

module Lot = struct
  let lot_size = 8

  type die = {
    die_seed : int;
    outcome : Calibrate.outcome;
    die_s : float;
  }

  type state = {
    seed : int;
    mutable dies : die list list;  (* per round, newest first *)
    mutable lot_s : float list;
  }

  let calibrate_die die_seed =
    Spans.with_ "calibration.die" @@ fun () ->
    let rx = Receiver.create (Circuit.Process.fabricate ~seed:die_seed ()) standard in
    let outcome, die_s = timed (fun () -> Calibrate.run ~passes:1 ~max_retries:0 rx) in
    { die_seed; outcome; die_s }

  let round st r =
    let before = read_counters () in
    let buf = Buffer.create 4096 and failed = ref 0 in
    let dies, wall_s =
      timed (fun () ->
          try
            Spans.with_ "engine.map_jobs" (fun () ->
                Svc.map_jobs
                  (fun i -> calibrate_die (Inputs.derive ~seed:st.seed Lot_die ((r * lot_size) + i)))
                  lot_size)
          with _ ->
            failed := lot_size;
            [])
    in
    List.iter
      (fun d ->
        add_int buf d.die_seed;
        add_outcome buf d.outcome)
      dies;
    st.dies <- dies :: st.dies;
    st.lot_s <- wall_s :: st.lot_s;
    finish_round ~fans_out:true buf ~before ~attempted:lot_size ~failed:!failed ~wall_s

  let rx_of d = Receiver.create (Circuit.Process.fabricate ~seed:d.die_seed ()) standard

  let rec instance ~seed (reference : reference) =
    let st = { seed; dies = []; lot_s = [] } in
    let all_dies () = List.concat (List.rev st.dies) in
    let round0 () = match List.rev st.dies with d :: _ -> d | [] -> [] in
    (* Re-calibrate one seeded die of round 0 on a fresh sequential,
       cache-less engine: the whole outcome must be bit-identical. *)
    let gate () =
      match round0 () with
      | [] -> (1, 1)
      | dies ->
        let d = List.nth dies (List.hd (Inputs.sample ~seed ~salt:3 ~k:1 (List.length dies))) in
        Svc.configure ~jobs:1 ~cache:false ();
        let again = calibrate_die d.die_seed in
        Svc.configure ~jobs ();
        let digest o =
          let b = Buffer.create 256 in
          add_outcome b o;
          Buffer.contents b
        in
        (1, if digest again.outcome = digest d.outcome then 0 else 1)
    in
    {
      round = round st;
      fresh = (fun () -> Svc.configure ~jobs (); instance ~seed reference);
      e2e =
        (fun () ->
          let times = List.map (fun d -> d.die_s *. 1e3) (all_dies ()) in
          let n = List.length times in
          [
            ("ops_per_s", float_of_int n /. Stats.sum st.lot_s, n);
            ("op_ms_p50", Stats.median times, n);
            ("phase_s", Stats.median st.lot_s, List.length st.lot_s);
          ]);
      aliases =
        (fun () ->
          let times = List.map (fun d -> d.die_s) (all_dies ()) in
          let n = List.length times in
          [
            ("dies_per_s", float_of_int n /. Stats.sum st.lot_s, "1/s", n);
            ("die_s_p50", Stats.median times, "s", n);
          ]);
      gate;
      generic_share =
        (fun () -> share_generic (List.map (fun d -> (rx_of d, d.outcome.report.key)) (round0 ())));
      replay_set =
        (fun () ->
          let dies = Array.of_list (all_dies ()) in
          Inputs.sample ~seed ~salt:4 ~k:replay_samples (Array.length dies)
          |> List.map (fun i ->
                 let d = dies.(i) in
                 { Replay.rx = rx_of d; config = d.outcome.report.key }));
      osc_set = (fun () -> List.filteri (fun i _ -> i < 3) (List.map rx_of (round0 ())));
      outcomes = (fun () -> List.map (fun d -> d.outcome) (round0 ()));
      journal_bytes = (fun () -> 0);
      busy_s = (fun () -> Some (Stats.sum (List.map (fun d -> d.die_s) (all_dies ()))));
    }
end

(* --- fault-campaign ----------------------------------------------- *)

module Fault = struct
  let dies = 2

  type run = {
    report : Faults.Campaign.t;
    fresh_s : float;
    resume_s : float;
    bytes : int;
  }

  type state = {
    seed : int;
    workdir : string;
    mutable runs : run list;  (* newest first *)
  }

  let open_journal ~resume path =
    match Engine.Checkpoint.load ~resume path with
    | Ok cp -> cp
    | Error c -> failwith (Engine.Checkpoint.corruption_to_string c)

  (* One campaign on a fresh engine carrying the journal at [path]. *)
  let campaign ~resume ~cseed path =
    let cp = Spans.with_ "engine.checkpoint.load" (fun () -> open_journal ~resume path) in
    Spans.with_ "engine.configure" (fun () -> Svc.configure ~jobs ~checkpoint:cp ());
    let r =
      Spans.with_ (if resume then "faults.campaign.resume" else "faults.campaign.fresh") (fun () ->
          Faults.Campaign.run ~dies ~seed:cseed standard)
    in
    Engine.Checkpoint.close cp;
    r

  let round st r =
    let before = read_counters () in
    let buf = Buffer.create 65536 and failed = ref 0 in
    let cseed = Inputs.derive ~seed:st.seed Campaign r in
    let path = Filename.concat st.workdir (Printf.sprintf "journal-%d-%d.jsonl" (Unix.getpid ()) r) in
    let result, wall_s =
      timed (fun () ->
          try
            let fresh, fresh_s = timed (fun () -> campaign ~resume:false ~cseed path) in
            let bytes = (Unix.stat path).Unix.st_size in
            let resumed, resume_s = timed (fun () -> campaign ~resume:true ~cseed path) in
            Some (fresh, resumed, fresh_s, resume_s, bytes)
          with _ -> None)
    in
    if Sys.file_exists path then Sys.remove path;
    (match result with
    | Some (Ok fresh, Ok resumed, fresh_s, resume_s, bytes) ->
      let lines = Faults.Report.json_lines fresh in
      (* The resume must reproduce the fresh report byte for byte. *)
      if
        not
          (Faults.Campaign.complete fresh && Faults.Campaign.complete resumed
          && lines = Faults.Report.json_lines resumed)
      then incr failed;
      List.iter (Buffer.add_string buf) lines;
      add_int buf bytes;
      st.runs <- { report = fresh; fresh_s; resume_s; bytes } :: st.runs
    | _ -> failed := 2);
    finish_round buf ~before ~attempted:2 ~failed:!failed ~wall_s

  let round0 st = match List.rev st.runs with r :: _ -> Some r | [] -> None

  (* The campaign calibrates its dies with Calibrate.quick from
     [seed + 17 i]; recomputing that gives each die's golden key. *)
  let golden_keys (report : Faults.Campaign.t) =
    List.init report.dies (fun i ->
        let die_seed = report.seed + (17 * i) in
        let chip = Circuit.Process.fabricate ~seed:die_seed () in
        (die_seed, (chip, Calibrate.quick (Receiver.create chip standard))))

  let cell_sample (cell : Faults.Campaign.cell) keys =
    let chip, key = List.assoc cell.die_seed keys in
    { Replay.rx = Engine.Request.receiver (Faults.Inject.die chip cell.faults) standard; config = key }

  let rec instance ~seed ~workdir (reference : reference) =
    let st = { seed; workdir; runs = [] } in
    let runs () = List.rev st.runs in
    let sum f = Stats.sum (List.map f (runs ())) in
    let cells r = float_of_int r.report.completed_cells in
    let keys0 = lazy (match round0 st with None -> [] | Some r -> golden_keys r.report) in
    let round0_samples k salt =
      match round0 st with
      | None -> []
      | Some r ->
        let cells = Array.of_list r.report.cells in
        Inputs.sample ~seed ~salt ~k (Array.length cells)
        |> List.map (fun i -> cell_sample cells.(i) (Lazy.force keys0))
    in
    {
      round = round st;
      fresh = (fun () -> instance ~seed ~workdir reference);
      e2e =
        (fun () ->
          let n = List.length (runs ()) in
          [
            ("ops_per_s", sum cells /. sum (fun r -> r.fresh_s), n);
            ("op_ms_p50", Stats.median (List.map (fun r -> r.fresh_s *. 1e3 /. cells r) (runs ())), n);
            ("phase_s", Stats.median (List.map (fun r -> r.resume_s) (runs ())), n);
          ]);
      aliases =
        (fun () ->
          let n = List.length (runs ()) in
          [
            ("cells_per_s", sum cells /. sum (fun r -> r.fresh_s), "1/s", n);
            ("resume_s", Stats.median (List.map (fun r -> r.resume_s) (runs ())), "s", n);
          ]);
      (* The resume identity is checked inside every round. *)
      gate = (fun () -> (0, 0));
      generic_share =
        (fun () ->
          share_generic
            (List.map (fun s -> (s.Replay.rx, s.Replay.config)) (round0_samples max_int 5)));
      replay_set = (fun () -> round0_samples replay_samples 6);
      osc_set =
        (fun () ->
          List.map (fun (_, (chip, _)) -> Receiver.create chip standard) (Lazy.force keys0));
      outcomes =
        (fun () ->
          match round0 st with
          | None -> []
          | Some r -> List.map (fun (d : Faults.Campaign.demo) -> d.outcome) r.report.demos);
      journal_bytes = (fun () -> match round0 st with None -> 0 | Some r -> r.bytes);
      (* The campaign's jobs are closures inside [Faults.Campaign.run]. *)
      busy_s = (fun () -> None);
    }
end
