(* Benchmark harness.

   Part 1 — Bechamel micro/macro benchmarks: one Test.make per
   figure/table of the paper (its computational kernel at a bounded
   size) plus the hot simulator kernels.  Part 2 — the full-size
   regeneration harness: re-prints every figure's and table's data
   series, exactly as `repro all` does, so one executable both times
   the kernels and reproduces the evaluation. *)

open Bechamel

(* Shared fixtures, built once: a calibrated die and a test stimulus. *)
let ctx = lazy (Experiments.Context.create ())

let stimulus =
  lazy
    (let c = Lazy.force ctx in
     let fs = Rfchain.Receiver.fs c.Experiments.Context.rx in
     let f_in = Rfchain.Receiver.test_tone_frequency c.Experiments.Context.rx ~n:8192 in
     Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:f_in ~fs 8192)

(* The spectral kernel as the measurement pipeline runs it: one planned
   real-input transform of the 8192-sample stimulus (packed n/2 complex
   FFT + untangling).  The seed harness ran a full complex transform
   here; that path stays below as its own kernel for the trajectory. *)
let bench_fft () =
  let x = Lazy.force stimulus in
  ignore (Sigkit.Fft.real_forward x)

let bench_fft_complex () =
  let x = Lazy.force stimulus in
  let re, im = Sigkit.Fft.of_real x in
  Sigkit.Fft.forward re im

(* FIG7/FIG9 kernel: one key evaluated through modulator + receiver. *)
let bench_fig7_key () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore (Metrics.Measure.snr_mod_db bench c.Experiments.Context.golden)

let bench_fig9_key () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore (Metrics.Measure.snr_rx_db ~n_fft:512 bench c.Experiments.Context.golden)

(* FIG8 kernel: a transient capture. *)
let bench_fig8_transient () =
  let c = Lazy.force ctx in
  ignore (Experiments.Fig8.run ~window:64 c)

(* FIG10 kernel: one PSD estimate. *)
let bench_fig10_psd () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  let record = Metrics.Measure.mod_output bench c.Experiments.Context.golden in
  ignore (Sigkit.Spectrum.periodogram ~fs:(Rfchain.Receiver.fs c.Experiments.Context.rx) record)

(* FIG11 kernel: one sweep point. *)
let bench_fig11_point () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore
    (Metrics.Measure.snr_rx_at_power_db ~n_fft:256 bench c.Experiments.Context.golden
       ~p_dbm:(-40.0) ~gain_code:9)

(* FIG12 kernel: one two-tone SFDR measurement. *)
let bench_fig12_sfdr () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore (Metrics.Measure.sfdr_db bench c.Experiments.Context.golden)

(* SEC-TABLE kernel: one brute-force trial on a re-fabbed die (this is
   the number that anchors the hardware attack-cost row). *)
let refab =
  lazy
    (let c = Lazy.force ctx in
     let key =
       Core.Key.make ~standard:c.Experiments.Context.standard ~chip:c.Experiments.Context.chip
         c.Experiments.Context.golden
     in
     let oracle =
       Attacks.Oracle.deploy c.Experiments.Context.standard ~chip_seed:c.Experiments.Context.seed
         ~key
     in
     Attacks.Oracle.refabricate oracle ~attacker_seed:99)

let trial_rng = lazy (Sigkit.Rng.create 0xBEEF)

let bench_security_trial () =
  ignore (Attacks.Oracle.try_key_fast (Lazy.force refab) (Rfchain.Config.random (Lazy.force trial_rng)))

(* CMP-TABLE kernel: the full baseline corruption probe set. *)
let bench_compare_probes () = ignore (Baselines.Compare.corruption_probes ())

(* Calibration kernels. *)
let bench_osc_tune () =
  let c = Lazy.force ctx in
  ignore (Calibration.Osc_tune.run c.Experiments.Context.rx)

(* LOT kernel: one full die calibration (the per-die production cost). *)
let lot_counter = ref 0

let bench_lot_die () =
  incr lot_counter;
  let chip = Circuit.Process.fabricate ~seed:(50_000 + !lot_counter) () in
  let rx = Rfchain.Receiver.create chip Rfchain.Standards.max_frequency in
  ignore (Calibration.Calibrate.run ~passes:1 ~refine_sfdr:false ~max_retries:0 rx)

(* ONCHIP kernel: one gate-level ALU comparison (the self-calibration
   engine's inner operation). *)
let onchip_alu = lazy (Calibration.Onchip.lock_alu (Sigkit.Rng.create 3) ())

let bench_onchip_alu () =
  let locked = Lazy.force onchip_alu in
  ignore
    (Netlist.Gate.eval locked.Netlist.Logic_lock.circuit
       ~key:locked.Netlist.Logic_lock.correct_key
       (Array.init 32 (fun i -> i land 1 = 0)))

(* FAULTS kernel: one stress-campaign cell — the golden key measured on
   a faulted copy of the die (the inner loop of `repro faults`). *)
let bench_faults_cell () =
  let c = Lazy.force ctx in
  let rx_faulted =
    Faults.Inject.receiver c.Experiments.Context.chip c.Experiments.Context.standard
      [ Faults.Fault.pvt Faults.Fault.Moderate ]
  in
  ignore (Metrics.Measure.snr_mod_db (Metrics.Measure.create rx_faulted) c.Experiments.Context.golden)

(* GENERALITY kernel: one AFE characterisation. *)
let afe_fixture = lazy (Afe.Afe_chain.create (Circuit.Process.fabricate ~seed:9001 ()))

let bench_afe_measure () = ignore (Afe.Afe_chain.measure (Lazy.force afe_fixture) Afe.Afe_config.nominal)

(* ENGINE kernels: the evaluation service's own costs.  Hit vs miss
   bounds what the cache buys per evaluation; the batch kernels time
   the same 8-key batch on the sequential backend and on 2-, 4- and
   8-lane domain pools (caching off, so every iteration re-simulates —
   this measures throughput, not cache warmth; the scheduler sizes
   lanes to the hardware, so the sweep must be monotone, DESIGN §13). *)
let engine_cached = lazy (Engine.Service.create ~jobs:1 ~cache:true ())
let engine_uncached = lazy (Engine.Service.create ~jobs:1 ~cache:false ())
let engine_pool2 = lazy (Engine.Service.create ~jobs:2 ~cache:false ())
let engine_pool4 = lazy (Engine.Service.create ~jobs:4 ~cache:false ())
let engine_pool8 = lazy (Engine.Service.create ~jobs:8 ~cache:false ())

let engine_request =
  lazy
    (let c = Lazy.force ctx in
     Engine.Request.make
       ~die:(Engine.Request.die_of_receiver c.Experiments.Context.rx)
       ~standard:c.Experiments.Context.standard ~config:c.Experiments.Context.golden
       Engine.Request.Snr_mod)

let engine_batch =
  lazy
    (let c = Lazy.force ctx in
     let die = Engine.Request.die_of_receiver c.Experiments.Context.rx in
     let golden = Rfchain.Config.to_bits c.Experiments.Context.golden in
     List.init 8 (fun bit ->
         Engine.Request.make ~die ~standard:c.Experiments.Context.standard
           ~config:(Rfchain.Config.of_bits (Int64.logxor golden (Int64.shift_left 1L bit)))
           Engine.Request.Snr_mod))

let bench_engine_hit () =
  ignore (Engine.Service.eval ~engine:(Lazy.force engine_cached) (Lazy.force engine_request))

let bench_engine_miss () =
  ignore (Engine.Service.eval ~engine:(Lazy.force engine_uncached) (Lazy.force engine_request))

(* [engine:cache-miss] re-evaluates the golden key on one die, so it
   times the memo-hit path: the VGLNA-conditioned stimulus comes from
   tagged scratch, the die's draws from the per-domain memo, and what
   runs is the fused modulator loop and the spectrum.  An attack's
   common case is a new random key per query: mostly the generic loop,
   and a front end that is reused only when consecutive keys share the
   gain code (1 in 16). *)
let miss_random_rng = lazy (Sigkit.Rng.create 0xC0FFEE)

let bench_engine_miss_random () =
  let c = Lazy.force ctx in
  let request =
    Engine.Request.make
      ~die:(Engine.Request.die_of_receiver c.Experiments.Context.rx)
      ~standard:c.Experiments.Context.standard
      ~config:(Rfchain.Config.random (Lazy.force miss_random_rng))
      Engine.Request.Snr_mod
  in
  ignore (Engine.Service.eval ~engine:(Lazy.force engine_uncached) request)

let bench_engine_batch engine () =
  ignore (Engine.Service.eval_batch ~engine:(Lazy.force engine) (Lazy.force engine_batch))

(* STAGE kernels: one stage of an eval each, on the reference die's
   8192-point test tone with the default 1024-sample settle prefix, the
   record a [Snr_mod] eval runs.  Each times its stage alone, on
   buffers allocated once here, and says which path it takes. *)
let stage_n = 8192
let stage_settle = 1024

(* The settle-extended stimulus, the VGLNA-conditioned record under the
   golden word, and that record's bitstream. *)
let stage_records =
  lazy
    (let c = Lazy.force ctx in
     let rx = c.Experiments.Context.rx in
     let x = Lazy.force stimulus in
     let extended =
       Array.init (stage_settle + stage_n) (fun i -> x.((i + stage_n - stage_settle) mod stage_n))
     in
     let vglna = Rfchain.Vglna.create c.Experiments.Context.chip ~fs:(Rfchain.Receiver.fs rx) in
     let conditioned = Array.copy extended in
     Rfchain.Vglna.run_inplace vglna ~code:c.Experiments.Context.golden.vglna_gain conditioned;
     let bits =
       Rfchain.Sdm.run (Rfchain.Receiver.sdm_of_config rx c.Experiments.Context.golden) conditioned
     in
     (vglna, extended, conditioned, bits))

let stage_buf = lazy (Array.make (stage_settle + stage_n) 0.0)

(* The bitstream's last 8192 samples mixed to I/Q: written here once,
   and again (identically) by every [stage:mixer] run. *)
let stage_iq =
  lazy
    (let _, _, _, bits = Lazy.force stage_records in
     let i_out = Array.make stage_n 0.0 and q_out = Array.make stage_n 0.0 in
     Rfchain.Mixer.downconvert_into ~slice:true bits ~pos:stage_settle ~n:stage_n ~i_out ~q_out;
     (i_out, q_out))

(* [stage:vglna]: the front end's miss cost without the settle copy —
   one record copy, then the amplifier in place.  Its noise batch is a
   tag hit (slot 13), as on every eval of one die and code. *)
let bench_stage_vglna () =
  let c = Lazy.force ctx in
  let vglna, extended, _, _ = Lazy.force stage_records in
  let buf = Lazy.force stage_buf in
  Array.blit extended 0 buf 0 (Array.length extended);
  Rfchain.Vglna.run_inplace vglna ~code:c.Experiments.Context.golden.vglna_gain buf

(* [stage:sdm-fused]: the golden word, so the fused loop with its noise
   batches from tagged scratch (slots 8-9). *)
let bench_stage_sdm_fused () =
  let c = Lazy.force ctx in
  let _, _, conditioned, _ = Lazy.force stage_records in
  Rfchain.Sdm.run_into
    (Rfchain.Receiver.sdm_of_config c.Experiments.Context.rx c.Experiments.Context.golden)
    conditioned (Lazy.force stage_buf)

(* [stage:sdm-generic]: the first seeded random word that the fused
   loop does not take (the attacks' common case), drawing its noise
   sample by sample. *)
let generic_word =
  lazy
    (let rng = Sigkit.Rng.create 0xC0FFEE in
     let rec next () =
       let w = Rfchain.Config.random rng in
       if w.comp_clock_enable && w.fb_enable && w.gmin_enable && not w.cal_buffer_enable then next ()
       else w
     in
     next ())

let bench_stage_sdm_generic () =
  let c = Lazy.force ctx in
  let _, _, conditioned, _ = Lazy.force stage_records in
  Rfchain.Sdm.run_into
    (Rfchain.Receiver.sdm_of_config c.Experiments.Context.rx (Lazy.force generic_word))
    conditioned (Lazy.force stage_buf)

(* [stage:mixer]: the sliced fs/4 mix of the bitstream's last 8192
   samples into I/Q. *)
let bench_stage_mixer () =
  let _, _, _, bits = Lazy.force stage_records in
  let i_out, q_out = Lazy.force stage_iq in
  Rfchain.Mixer.downconvert_into ~slice:true bits ~pos:stage_settle ~n:stage_n ~i_out ~q_out

(* [stage:decimator]: the default CIC + half-band decimation of those
   I/Q channels. *)
let bench_stage_decimator () =
  ignore (Rfchain.Decimator.run_iq Rfchain.Decimator.default_config (Lazy.force stage_iq))

(* POOL kernel: the sharded scheduler's own claim/steal overhead,
   isolated from the simulator.  An eager 4-lane pool runs 256 no-op
   items dealt as single-index chunks, so every index crosses the
   submit -> queue -> claim (or steal) path; the per-item figure is
   the scheduling tax a real work item pays on top of its compute. *)
let steal_pool = lazy (Engine.Pool.create ~eager:true 3)

let bench_pool_steal () =
  Engine.Pool.run ~chunk:1 (Lazy.force steal_pool) (fun _ -> ()) 256

(* STREAM kernels (DESIGN §14).  [engine:stream-grid] pushes the same
   8-key grid through submit/next_result/drain instead of the joined
   batch — against engine:batch8-1domain the difference is the
   streaming layer's own tax (ticket, completion queue, per-item
   delivery) now that the submit barrier is gone.  [pool:wakeup-capped]
   times a default-chunk submit of items the pool has measured as far
   cheaper than a wakeup, so it engages a single lane: the eager
   workers stay parked, and the figure is the cost of posting and
   completing a batch without poking any sleeping domain. *)
let bench_engine_stream () =
  let stream =
    Engine.Service.eval_stream ~engine:(Lazy.force engine_uncached) (Lazy.force engine_batch)
  in
  match Engine.Service.stream_drain stream with
  | Ok ms -> ignore ms
  | Error _ -> assert false (* no per-stream deadline is attached here *)

let bench_pool_wakeup_capped () =
  (* 8 no-op items under the default layout: the no-op runs of
     [pool:steal] before it gave the pool a per-item mean of tens of ns,
     so 8 items are far below one wakeup's worth — one lane engaged, three
     eager workers left asleep. *)
  Engine.Pool.run (Lazy.force steal_pool) (fun _ -> ()) 8

(* TELEMETRY kernels: the instrumentation's own cost.  The disabled
   span is the price every instrumented call site pays on a plain run
   (the overhead policy says near-zero); counter increments are
   always-on, so their cost rides on every simulator step. *)
let telemetry_bench_counter = Telemetry.Counter.make "bench.telemetry_probe"

let bench_span_disabled () = Telemetry.Span.with_ ~name:"bench.disabled" (fun () -> ())
let bench_counter_incr () = Telemetry.Counter.incr telemetry_bench_counter

(* Cancellation-point cost: what every 4096-sample poll window pays in
   the simulator inner loops (no token installed, no interrupt — the
   common case). *)
let bench_cancel_poll () =
  for _ = 1 to 1_000 do
    Telemetry.Cancel.poll ()
  done

(* Checkpoint record cost: serialise + write + flush + fsync of one
   journal line, the per-cell durability price a checkpointed campaign
   pays.  Keys rotate so the dedup check never short-circuits the
   write. *)
let checkpoint_fixture =
  lazy
    (let path = Filename.temp_file "bench_ckpt" ".jsonl" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     match Engine.Checkpoint.load ~resume:false path with
     | Ok cp -> cp
     | Error c -> failwith (Engine.Checkpoint.corruption_to_string c))

let checkpoint_key_seq = ref 0

let bench_checkpoint_record () =
  let cp = Lazy.force checkpoint_fixture in
  incr checkpoint_key_seq;
  Engine.Checkpoint.record cp
    (Printf.sprintf "bench|%d" !checkpoint_key_seq)
    {
      Engine.Cache.measurement =
        { Metrics.Spec.snr_mod_db = 12.5; snr_rx_db = 9.25; sfdr_db = Some 44.0 };
      trial_cost = 1;
    }

let tests =
  [
    Test.make ~name:"kernel:fft-8192" (Staged.stage bench_fft);
    Test.make ~name:"kernel:fft-complex-8192" (Staged.stage bench_fft_complex);
    Test.make ~name:"fig7:snr-mod-per-key" (Staged.stage bench_fig7_key);
    Test.make ~name:"fig8:transient-capture" (Staged.stage bench_fig8_transient);
    Test.make ~name:"fig9:snr-rx-per-key" (Staged.stage bench_fig9_key);
    Test.make ~name:"fig10:psd-estimate" (Staged.stage bench_fig10_psd);
    Test.make ~name:"fig11:sweep-point" (Staged.stage bench_fig11_point);
    Test.make ~name:"fig12:two-tone-sfdr" (Staged.stage bench_fig12_sfdr);
    Test.make ~name:"security:attack-trial" (Staged.stage bench_security_trial);
    Test.make ~name:"compare:baseline-probes" (Staged.stage bench_compare_probes);
    Test.make ~name:"calibration:osc-tune" (Staged.stage bench_osc_tune);
    Test.make ~name:"lot:die-calibration" (Staged.stage bench_lot_die);
    Test.make ~name:"onchip:alu-evaluation" (Staged.stage bench_onchip_alu);
    Test.make ~name:"faults:campaign-cell" (Staged.stage bench_faults_cell);
    Test.make ~name:"generality:afe-measure" (Staged.stage bench_afe_measure);
    Test.make ~name:"engine:cache-hit" (Staged.stage bench_engine_hit);
    Test.make ~name:"engine:cache-miss" (Staged.stage bench_engine_miss);
    Test.make ~name:"engine:cache-miss-random" (Staged.stage bench_engine_miss_random);
    (* The stage kernels run before the batch kernels create any pool,
       so no parked domain joins their minor collections (§13). *)
    Test.make ~name:"stage:vglna" (Staged.stage bench_stage_vglna);
    Test.make ~name:"stage:sdm-fused" (Staged.stage bench_stage_sdm_fused);
    Test.make ~name:"stage:sdm-generic" (Staged.stage bench_stage_sdm_generic);
    Test.make ~name:"stage:mixer" (Staged.stage bench_stage_mixer);
    Test.make ~name:"stage:decimator" (Staged.stage bench_stage_decimator);
    Test.make ~name:"engine:batch8-1domain" (Staged.stage (bench_engine_batch engine_uncached));
    Test.make ~name:"engine:batch8-2domains" (Staged.stage (bench_engine_batch engine_pool2));
    Test.make ~name:"engine:batch8-4domains" (Staged.stage (bench_engine_batch engine_pool4));
    Test.make ~name:"engine:batch8-8domains" (Staged.stage (bench_engine_batch engine_pool8));
    (* stream-grid must run before any pool:* kernel forces the eager
       3-worker fixture into existence: from that point on every minor
       GC pays the parked-domain barrier tax (§13), which would double
       an allocation-heavy kernel's figure.  The zero-allocation pool
       kernels are immune to the ordering. *)
    Test.make ~name:"engine:stream-grid" (Staged.stage bench_engine_stream);
    Test.make ~name:"pool:steal" (Staged.stage bench_pool_steal);
    Test.make ~name:"pool:wakeup-capped" (Staged.stage bench_pool_wakeup_capped);
    Test.make ~name:"telemetry:span-disabled" (Staged.stage bench_span_disabled);
    Test.make ~name:"telemetry:counter-incr" (Staged.stage bench_counter_incr);
    Test.make ~name:"telemetry:cancel-poll-1k" (Staged.stage bench_cancel_poll);
    Test.make ~name:"engine:checkpoint-record" (Staged.stage bench_checkpoint_record);
  ]

let bench_json_file = "BENCH_4.json"

(* Machine-readable perf trajectory (schema bench-kernels/2, stamped
   with a run manifest), sorted by name so re-runs diff cleanly. *)
let write_json ~out results =
  let kernels =
    List.map
      (fun (name, ns, mwd) ->
        { Benchkit.Bench_json.name; ns_per_run = ns; minor_words_per_run = mwd })
      results
  in
  let manifest = Telemetry.Manifest.create () in
  Telemetry.Manifest.finish ~exit_status:0 manifest;
  Benchkit.Bench_json.write ~path:out ~manifest kernels;
  Printf.printf "\nwrote %s (%d kernels)\n" out (List.length kernels)

(* The regression gate: compare this run against a committed baseline
   (v1 or v2); any regression or — for full runs — missing kernel is
   fatal (exit 4) so CI fails the build. *)
let compare_against ~baseline_path ~require_all results =
  match Benchkit.Bench_json.read baseline_path with
  | Error reason ->
    Printf.eprintf "bench: cannot read baseline %s: %s\n" baseline_path reason;
    exit 4
  | Ok baseline ->
    let current =
      List.map
        (fun (name, ns, mwd) ->
          { Benchkit.Bench_json.name; ns_per_run = ns; minor_words_per_run = mwd })
        results
    in
    let comparisons =
      Benchkit.Bench_json.compare_results ~baseline:baseline.Benchkit.Bench_json.kernels
        ~current ~require_all
    in
    let bad = Benchkit.Bench_json.regressions comparisons in
    Printf.printf "\n## Regression gate vs %s (schema v%d)\n" baseline_path
      baseline.Benchkit.Bench_json.schema;
    List.iter (fun c -> Printf.printf "  %s\n" (Benchkit.Bench_json.verdict_to_string c))
      (if bad = [] then comparisons else bad);
    if bad = [] then Printf.printf "  gate: PASS (%d kernels)\n" (List.length comparisons)
    else begin
      Printf.printf "  gate: FAIL (%d regression%s)\n" (List.length bad)
        (if List.length bad = 1 then "" else "s");
      exit 4
    end

(* Minor words one run of [test] allocates on the calling domain,
   counted with [Gc.minor_words] over [runs] runs after one warm-up run
   (the steady state bechamel samples too); [nan] for a test that is
   not one plain function. *)
let counted_minor_words ~runs test =
  match Test.elements test with
  | [ elt ] -> (
    match Test.Elt.fn elt with
    | Test.V { fn; kind = Test.Uniq; allocate; free } ->
      let resource = allocate () in
      let arg = Test.Uniq.prj resource in
      ignore (Sys.opaque_identity (fn `Init arg));
      let before = Gc.minor_words () in
      for _ = 1 to runs do
        ignore (Sys.opaque_identity (fn `Init arg))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int runs in
      free resource;
      words
    | Test.V { kind = Test.Multiple; _ } -> nan)
  | _ -> nan

let run_benchmarks ~fast ~json ~out ~compare_to ~only () =
  print_endline "## Bechamel timings (one Test per figure/table kernel)";
  let limit, quota = if fast then (20, 0.25) else (50, 1.0) in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = Toolkit.Instance.minor_allocated in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let pretty_ns ns =
    if ns < 1e3 then Printf.sprintf "%.0f ns" ns
    else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.2f s" (ns /. 1e9)
  in
  let estimate instance raw =
    let v = ref nan in
    if Sys.getenv_opt "BENCH_DEBUG" <> None then
      Hashtbl.iter
        (fun name result -> Fmt.pr "DEBUG %s: %a@." name Analyze.OLS.pp result)
        (Analyze.all ols instance raw);
    Hashtbl.iter
      (fun _ result ->
        match Analyze.OLS.estimates result with
        | Some [ x ] -> v := x
        | Some _ | None -> ())
      (Analyze.all ols instance raw)
    ;
    !v
  in
  let contains s sub =
    let ls = String.length s and lb = String.length sub in
    let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
    lb = 0 || go 0
  in
  let selected =
    List.filter
      (fun t -> match only with None -> true | Some s -> contains (Test.name t) s)
      tests
  in
  let results =
    List.map
      (fun test ->
        let raw = Benchmark.all cfg [ clock; alloc ] test in
        (Test.name test, estimate clock raw, estimate alloc raw))
      selected
  in
  List.iter
    (fun (name, ns, mwd) ->
      Printf.printf "  %-28s %12s / run  %10.0f mWd / run\n" name (pretty_ns ns) mwd)
    (List.sort compare results);
  if json then write_json ~out:(Option.value out ~default:bench_json_file) results;
  (match compare_to with
  | None -> ()
  | Some baseline_path -> compare_against ~baseline_path ~require_all:(only = None) results);
  (* Absolute allocation budgets (make alloc-smoke): unlike the
     baseline gate these are baseline-free, so a regenerated
     BENCH_4.json cannot quietly ratchet a reintroduced per-stage
     copy into the committed "normal".  A budget holds against the
     larger of bechamel's estimate and a direct count: the OLS
     estimate reads 0 for kernels that allocate a few thousand words a
     run, and the direct count sees only the calling domain. *)
  let counted =
    List.filter_map
      (fun (name, ns, mwd) ->
        Option.map
          (fun budget ->
            let words =
              counted_minor_words ~runs:20 (List.find (fun t -> Test.name t = name) selected)
            in
            (name, ns, mwd, words, budget))
          (Benchkit.Bench_json.budget_for name))
      results
  in
  let budgeted =
    Benchkit.Bench_json.check_budgets
      (List.map
         (fun (name, ns, mwd, words, _) ->
           { Benchkit.Bench_json.name; ns_per_run = ns;
             minor_words_per_run = Float.max_num mwd words })
         counted)
  in
  if budgeted <> [] then begin
    let bad = Benchkit.Bench_json.regressions budgeted in
    Printf.printf "\n## Allocation budgets (arena-converted kernels)\n";
    List.iter
      (fun (name, _, mwd, words, budget) ->
        Printf.printf "  %-28s counted %8.0f  bechamel %8.0f  budget %8.0f words / run\n" name
          words mwd budget)
      counted;
    List.iter
      (fun c -> Printf.printf "  %s\n" (Benchkit.Bench_json.verdict_to_string c))
      (if bad = [] then budgeted else bad);
    if bad = [] then Printf.printf "  budgets: PASS (%d kernels)\n" (List.length budgeted)
    else begin
      Printf.printf "  budgets: FAIL (%d kernel%s over budget)\n" (List.length bad)
        (if List.length bad = 1 then "" else "s");
      exit 4
    end
  end;
  (* Anchor the attack-cost table with the measured behavioural-sim
     trial time: even a simulator millions of times faster than the
     paper's 20-minute transistor-level runs leaves brute force
     hopeless. *)
  match List.find_opt (fun (name, _, _) -> name = "security:attack-trial") results with
  | Some (_, ns, _) when Float.is_finite ns ->
    let seconds = ns /. 1e9 in
    Printf.printf
      "\nmeasured behavioural trial: %s -> full key search at this rate: %s\n"
      (pretty_ns ns)
      (Attacks.Cost.seconds_to_human (seconds *. Attacks.Cost.expected_brute_force_trials))
  | Some _ | None -> ()

let run_harness () =
  let c = Lazy.force ctx in
  print_endline "\n## Full-size regeneration harness (paper figures and tables)\n";
  Experiments.Fig7_fig9.print (Experiments.Fig7_fig9.run c);
  print_newline ();
  Experiments.Fig8.print (Experiments.Fig8.run c);
  print_newline ();
  Experiments.Fig10.print (Experiments.Fig10.run c);
  print_newline ();
  Experiments.Fig11.print c (Experiments.Fig11.run c);
  print_newline ();
  Experiments.Fig12.print c (Experiments.Fig12.run c);
  print_newline ();
  Experiments.Security_table.print (Experiments.Security_table.run c);
  print_newline ();
  Experiments.Compare_table.print (Experiments.Compare_table.run c);
  print_newline ();
  Experiments.Ablations.print c (Experiments.Ablations.run c);
  print_newline ();
  Experiments.Onchip_lock.print c (Experiments.Onchip_lock.run c);
  print_newline ();
  let aging = Experiments.Aging_study.run c in
  Experiments.Aging_study.print aging;
  List.iter
    (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name)
    (Experiments.Aging_study.checks c aging);
  print_newline ();
  let avalanche = Experiments.Avalanche.run c in
  Experiments.Avalanche.print avalanche;
  List.iter
    (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name)
    (Experiments.Avalanche.checks c avalanche);
  print_newline ();
  Experiments.Lot_study.print (Experiments.Lot_study.run ~lot:4 ~seed_base:6000 c.Experiments.Context.standard);
  print_newline ();
  (match Faults.Campaign.run ~dies:2 ~seed:c.Experiments.Context.seed c.Experiments.Context.standard with
  | Ok campaign -> Faults.Report.print campaign
  | Error e -> print_endline (Faults.Error.to_string e));
  print_newline ();
  Experiments.Generality.print (Experiments.Generality.run ())

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let metrics = Array.exists (( = ) "--metrics") Sys.argv in
  let fast = Array.exists (( = ) "--fast") Sys.argv in
  let json = Array.exists (( = ) "--json") Sys.argv in
  let arg_value flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: tl -> find tl
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  let only = arg_value "--only" in
  let out = arg_value "--out" in
  let compare = arg_value "--compare" in
  if metrics then Telemetry.Control.set_enabled true;
  Printf.printf "calibrating the reference die ...\n%!";
  let c = Lazy.force ctx in
  Printf.printf "reference calibration: SNR(mod) %.1f dB, SNR(rx) %.1f dB, SFDR %.1f dB\n\n%!"
    c.Experiments.Context.calibration.Calibration.Calibrate.snr_mod_db
    c.Experiments.Context.calibration.Calibration.Calibrate.snr_rx_db
    c.Experiments.Context.calibration.Calibration.Calibrate.sfdr_db;
  run_benchmarks ~fast ~json ~out ~compare_to:compare ~only ();
  if not quick then run_harness ();
  if metrics then begin
    print_newline ();
    Telemetry.Export.summary_table ()
  end
