(* One benchmark run: set up (several times, for a median), run the
   workload's rounds for the requested seconds, gate the results, and
   — in the traced run — replay a sample stage by stage.  Returns every
   metric; Main prints them. *)

open Workloads

type value = {
  v_name : string;
  value : float;
  v_unit : string;
  samples : int;
}

type report = {
  end_to_end : value list;
  per_layer : value list;
  aliases : value list;  (* per-workload names: query_ms_p50, dies_per_s, ... *)
  attempted : int;
  failed : int;
  digest : string;
  count_diffs : (string * int * int * bool) list;  (* round 0 vs its repeat; gated? *)
  spans : Spans.summary list;
  trace_file : string option;
}

let unit_of name =
  let all = Metric_table.end_to_end @ Metric_table.per_layer in
  match List.find_opt (fun m -> m.Metric_table.name = name) all with
  | Some m -> m.unit_
  | None -> invalid_arg ("unknown metric " ^ name)

let v ?(samples = 1) name value =
  (* An empty sample set reads as 0 with n=0, never as nan. *)
  let value = if Float.is_finite value then value else 0.0 in
  { v_name = name; value; v_unit = unit_of name; samples }

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let instance cfg reference =
  match cfg.workload with
  | "attack" -> Attack.instance ~seed:cfg.seed reference
  | "lot-calibrate" -> Lot.instance ~seed:cfg.seed reference
  | "fault-campaign" -> Fault.instance ~seed:cfg.seed ~workdir:cfg.workdir reference
  | w -> invalid_arg ("unknown workload " ^ w)

(* Untraced/traced repeats of round 0 in the traced run. *)
let trace_pairs = 2

(* The GA and SA every traced run replays against the workload's
   oracle, at the attack workload's phase-B budget, so the attack layer
   is measured on every workload. *)
let attack_probe cfg reference =
  let refab =
    Oracle.refabricate reference.oracle ~attacker_seed:(Inputs.derive ~seed:cfg.seed Probe 0)
  in
  let q0 = Oracle.global_queries () in
  let _, ga_s =
    timed (fun () ->
        Spans.with_ "attacks.genetic" (fun () ->
            Optimize.genetic ~seed:(Inputs.derive ~seed:cfg.seed Probe 1) ~budget:attack_budget refab))
  in
  let _, sa_s =
    timed (fun () ->
        Spans.with_ "attacks.simulated_annealing" (fun () ->
            Optimize.simulated_annealing ~seed:(Inputs.derive ~seed:cfg.seed Probe 2)
              ~budget:attack_budget refab))
  in
  (ga_s, sa_s, Oracle.global_queries () - q0)

let run cfg =
  if not (Sys.file_exists cfg.workdir) then Sys.mkdir cfg.workdir 0o755;
  Spans.set_enabled cfg.trace;
  (* Set-up, several times on fresh engines; the histogram window opens
     with the last one. *)
  let setups =
    List.init setup_reps (fun i ->
        if i = setup_reps - 1 then Telemetry.Histogram.reset_all ();
        timed (fun () -> setup_reference ~seed:cfg.seed))
  in
  let reference = fst (List.nth setups (setup_reps - 1)) in
  let setup_times = List.map snd setups in
  let inst = instance cfg reference in
  (* Timed phase: whole rounds until the requested seconds are spent. *)
  let c0 = Telemetry.Counter.snapshot () and gc0 = Gc.quick_stat () and cpu0 = cpu_s () in
  let t0 = now_s () in
  let rec loop r acc =
    if r > 0 && now_s () -. t0 >= cfg.seconds then List.rev acc
    else loop (r + 1) (inst.round r :: acc)
  in
  let rounds = Spans.with_ "timed" (fun () -> loop 0 []) in
  let wall = now_s () -. t0 in
  let c1 = Telemetry.Counter.snapshot () and gc1 = Gc.quick_stat () and cpu1 = cpu_s () in
  let rss = peak_rss_mb () in
  let delta name = float_of_int (List.assoc name c1 - Option.value ~default:0 (List.assoc_opt name c0)) in
  let round0 = List.hd rounds in
  (* Gate: the same seed must give the same round 0 again on a fresh
     engine — digest of results and scheduling-invariant counts.  The
     traced run repeats it in alternating untraced/traced pairs, all on
     fresh warm engines, and the pair ratio is the tracing overhead. *)
  let repeat traced =
    Spans.set_enabled traced;
    let r = (inst.fresh ()).round 0 in
    Spans.set_enabled false;
    r
  in
  let repeats =
    if cfg.trace then List.concat (List.init trace_pairs (fun _ -> [ repeat false; repeat true ]))
    else [ repeat false ]
  in
  let untraced, traced =
    List.partition (fun (i, _) -> i mod 2 = 0) (List.mapi (fun i r -> (i, r)) repeats)
  in
  let wall_of l = Stats.sum (List.map (fun (_, (r : round)) -> r.wall_s) l) in
  let trace_overhead = (wall_of traced /. wall_of untraced) -. 1.0 in
  let repeat = List.hd repeats in
  let repeat_failed =
    List.length (List.filter (fun (r : round) -> r.digest <> round0.digest || r.failed > 0) repeats)
  in
  let count_diffs =
    List.filter_map
      (fun ((n, a), (_, b)) ->
        if a <> b then Some (n, a, b, not (List.mem n round0.ungated)) else None)
      (List.combine round0.counts repeat.counts)
  in
  let gate_attempted, gate_failed = inst.gate () in
  (* What follows runs on a plain engine: no journal, a cold cache. *)
  Svc.configure ~jobs ();
  (* Traced run only: stage replay, oscillation tuning and attack probe. *)
  let replay_attempted, replay_failed, layer_extra =
    if not cfg.trace then (0, 0, [])
    else begin
      let anchors =
        let key = reference.ref_outcome.report.key in
        [
          { Replay.rx = reference.ref_rx; config = key };
          { Replay.rx = reference.ref_rx; config = Calibration.Osc_tune.oscillation_config key };
        ]
      in
      let results = List.map Replay.run (inst.replay_set () @ anchors) in
      let med f rs = Stats.median (List.map f rs) in
      let generic, fused = List.partition (fun r -> not r.Replay.fused) results in
      let staged r = r.Replay.vglna_us +. r.sdm_us +. r.mixer_us +. r.decimator_us in
      let n = List.length results in
      let osc =
        List.map
          (fun rx -> snd (timed (fun () -> ignore (Calibration.Osc_tune.run rx))) *. 1e3)
          (reference.ref_rx :: inst.osc_set ())
      in
      let ga_s, sa_s, queries = attack_probe cfg reference in
      let failed =
        List.length (List.filter (fun r -> not (r.Replay.identical && r.path_agrees)) results)
      in
      ( n,
        failed,
        [
          v "rfchain.sdm_generic_us" (med (fun r -> r.Replay.sdm_us) generic)
            ~samples:(List.length generic);
          v "rfchain.sdm_fused_us" (med (fun r -> r.Replay.sdm_us) fused) ~samples:(List.length fused);
          v "rfchain.vglna_us" (med (fun r -> r.Replay.vglna_us) results) ~samples:n;
          v "rfchain.mixer_us" (med (fun r -> r.Replay.mixer_us) results) ~samples:n;
          v "rfchain.decimator_us" (med (fun r -> r.Replay.decimator_us) results) ~samples:n;
          v "rfchain.receiver_run_us" (med (fun r -> r.Replay.receiver_run_us) results) ~samples:n;
          v "rfchain.unattributed_share"
            (1.0
            -. Stats.sum (List.map staged results)
               /. Stats.sum (List.map (fun r -> r.Replay.receiver_run_us) results))
            ~samples:n;
          v "metrics.measure_us" (med (fun r -> r.Replay.measure_us) results) ~samples:n;
          v "calibration.osc_tune_ms" (Stats.median osc) ~samples:(List.length osc);
          v "attacks.ga_s" ga_s;
          v "attacks.sa_s" sa_s;
          v "attacks.queries" (float_of_int queries);
        ] )
    end
  in
  let spans = Spans.collect () in
  let trace_file =
    if cfg.trace then begin
      let path =
        Filename.concat cfg.workdir (Printf.sprintf "%s-%d.trace.json" cfg.workload cfg.seed)
      in
      Spans.write_chrome path spans;
      Some path
    end
    else None
  in
  let count name = float_of_int (List.assoc name round0.counts) in
  let outcomes = reference.ref_outcome :: inst.outcomes () in
  let per_die f = Stats.mean (List.map (fun o -> float_of_int (f o)) outcomes) in
  let trials = delta "measure.trials" in
  let hist name q =
    match Telemetry.Histogram.find name with
    | Some h when Telemetry.Histogram.count h > 0 ->
      (Telemetry.Histogram.quantile h q /. 1e3, Telemetry.Histogram.count h)
    | _ -> (nan, 0)
  in
  let qw50, nq = hist "pool.queue.wait_ns" 0.5 and qw99, _ = hist "pool.queue.wait_ns" 0.99 in
  let nrounds = List.length rounds in
  let e2e_common =
    [ v "setup_s" (Stats.median setup_times) ~samples:setup_reps; v "peak_rss_mb" rss ]
  in
  let e2e_workload = List.map (fun (name, x, n) -> v name x ~samples:n) (inst.e2e ()) in
  let per_layer =
    layer_extra
    @ [
        v "rfchain.generic_share" (inst.generic_share ());
        v "rfchain.sim_msamples_per_s" (delta "sdm.steps" /. wall /. 1e6) ~samples:nrounds;
        v "metrics.trials_per_s" (trials /. wall) ~samples:nrounds;
        v "engine.lane_occupancy"
          (Option.value (inst.busy_s ()) ~default:(cpu1 -. cpu0) /. (wall *. float_of_int jobs))
          ~samples:nrounds;
        v "engine.cache_hit_ratio"
          (Stats.ratio (count "engine.cache.hit") (count "engine.cache.hit" +. count "engine.cache.miss"));
        v "engine.evals" (count "engine.evals");
        v "engine.queue_wait_us_p50" qw50 ~samples:nq;
        v "engine.queue_wait_us_p99" qw99 ~samples:nq;
        v "engine.steals" (delta "pool.steal.count") ~samples:nrounds;
        v "engine.checkpoint_records" (count "engine.checkpoint.records");
        v "engine.journal_bytes" (float_of_int (inst.journal_bytes ()));
        v "engine.checkpoint_hits" (count "engine.checkpoint.hits");
        v "calibration.trials_per_die" (per_die (fun o -> o.Calibrate.report.snr_measurements))
          ~samples:(List.length outcomes);
        v "calibration.osc_probes_per_die" (per_die (fun o -> o.Calibrate.report.oscillation_measurements))
          ~samples:(List.length outcomes);
        v "calibration.converged_ratio"
          (per_die (fun o -> if o.Calibrate.verdict = Calibrate.Converged then 1 else 0))
          ~samples:(List.length outcomes);
        v "faults.cells" (count "faults.cells");
        v "gc.minor_words_per_trial" ((gc1.minor_words -. gc0.minor_words) /. trials) ~samples:nrounds;
        v "gc.major_collections" (float_of_int (gc1.major_collections - gc0.major_collections));
      ]
    @
    if cfg.trace then [ v "telemetry.trace_overhead" trace_overhead ~samples:(List.length traced) ]
    else []
  in
  let order ~complete l table =
    List.filter_map
      (fun (m : Metric_table.metric) ->
        match List.find_opt (fun x -> x.v_name = m.name) l with
        | Some x -> Some x
        | None when complete -> invalid_arg ("metric not measured: " ^ m.name)
        | None -> None)
      table
  in
  let rounds_attempted = List.fold_left (fun acc (r : round) -> acc + r.attempted) 0 rounds in
  let rounds_failed = List.fold_left (fun acc (r : round) -> acc + r.failed) 0 rounds in
  {
    end_to_end = order ~complete:true (e2e_common @ e2e_workload) Metric_table.end_to_end;
    per_layer = order ~complete:cfg.trace per_layer Metric_table.per_layer;
    aliases =
      List.map
        (fun (n, x, u, s) -> { v_name = n; value = x; v_unit = u; samples = s })
        (inst.aliases ());
    attempted = rounds_attempted + List.length repeats + gate_attempted + replay_attempted;
    failed = rounds_failed + repeat_failed + gate_failed + replay_failed;
    digest = round0.digest;
    count_diffs;
    spans = Spans.summarize spans;
    trace_file;
  }
