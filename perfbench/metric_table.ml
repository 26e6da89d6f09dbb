(* The benchmark's metric catalogue: the single source the report
   prints from, mirrored by BENCHMARK.json, which adds each metric's
   direction and bound (a test checks the two agree). *)

type metric = {
  name : string;
  unit_ : string;
}

let m name unit_ = { name; unit_ }

(* End-to-end metrics, measured with tracing off.  Every workload
   reports every one; what the workload-neutral names mean on each
   workload is spelled out in RATIONALE.md. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "peak_rss_mb" "MB";
    m "ops_per_s" "1/s";
    m "op_ms_p50" "ms";
    m "phase_s" "s";
  ]

(* Per-layer metrics of the traced run, named layer.metric after the
   library's modules. *)
let per_layer =
  [
    m "rfchain.sdm_generic_us" "us";
    m "rfchain.sdm_fused_us" "us";
    m "rfchain.vglna_us" "us";
    m "rfchain.mixer_us" "us";
    m "rfchain.decimator_us" "us";
    m "rfchain.receiver_run_us" "us";
    m "rfchain.unattributed_share" "ratio";
    m "rfchain.generic_share" "ratio";
    m "rfchain.sim_msamples_per_s" "Msample/s";
    m "metrics.measure_us" "us";
    m "metrics.trials_per_s" "1/s";
    m "engine.lane_occupancy" "ratio";
    m "engine.cache_hit_ratio" "ratio";
    m "engine.evals" "count";
    m "engine.queue_wait_us_p50" "us";
    m "engine.queue_wait_us_p99" "us";
    m "engine.steals" "count";
    m "engine.checkpoint_records" "count";
    m "engine.journal_bytes" "bytes";
    m "engine.checkpoint_hits" "count";
    m "calibration.osc_tune_ms" "ms";
    m "calibration.trials_per_die" "count";
    m "calibration.osc_probes_per_die" "count";
    m "calibration.converged_ratio" "ratio";
    m "attacks.ga_s" "s";
    m "attacks.sa_s" "s";
    m "attacks.queries" "count";
    m "faults.cells" "count";
    m "gc.minor_words_per_trial" "words";
    m "gc.major_collections" "count";
    m "telemetry.trace_overhead" "ratio";
  ]

let workloads = [ "attack"; "lot-calibrate"; "fault-campaign" ]

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let is_unit_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
  | _ -> false

(* A name starts with a letter or digit and has at most 64 characters
   of [A-Za-z0-9_.-]; a unit has 1 to 16 of [A-Za-z0-9_/%.-]. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all is_unit_char s
