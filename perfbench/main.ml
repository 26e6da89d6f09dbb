(* The end-to-end benchmark's command line.

     main.exe --workload attack|lot-calibrate|fault-campaign
              --seed N --seconds S --trace 0|1 [--workdir DIR]

   Prints every metric by name with its unit and sample count, then,
   as the last line of standard output, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   Exits 1 when any output fails its correctness check. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload attack|lot-calibrate|fault-campaign --seed N --seconds S \
     --trace 0|1 [--workdir DIR]";
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload Metric_table.workloads) then usage ();
  {
    Workloads.workload;
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = int "trace" <> 0;
    workdir = Option.value (List.assoc_opt "workdir" opts) ~default:"perfbench/_out";
  }

let json_number x = Printf.sprintf "%.17g" x

let () =
  let cfg = parse Sys.argv in
  Telemetry.Log.set_level Telemetry.Log.Error;
  let r = Runner.run cfg in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d jobs=%d\n" cfg.workload cfg.seed
    cfg.seconds (if cfg.trace then 1 else 0) Workloads.jobs;
  let line kind (x : Runner.value) =
    Printf.printf "%-10s %-32s %16.6f %-10s n=%d\n" kind x.v_name x.value x.v_unit x.samples
  in
  List.iter (line "e2e") r.end_to_end;
  List.iter (line "workload") r.aliases;
  List.iter (line "layer") r.per_layer;
  let failed_ratio = float_of_int r.failed /. float_of_int r.attempted in
  Printf.printf "%-10s %-32s %16.6f %-10s n=%d\n" "e2e" "failed_ratio" failed_ratio "ratio" r.attempted;
  if r.spans <> [] then begin
    Printf.printf "spans (benchmark side; self = total minus child spans):\n";
    List.iter
      (fun (s : Spans.summary) ->
        Printf.printf "  %-32s count=%-6d total_ms=%-12.3f self_ms=%.3f\n" s.s_name s.count
          s.total_ms s.self_ms)
      r.spans
  end;
  Option.iter (Printf.printf "trace written to %s\n") r.trace_file;
  Printf.printf "round-0 digest %s\n" r.digest;
  (* Differences between round 0 and its repeat.  A difference in a
     digested count has already failed the run.  lot-calibrate digests
     its lane-dependent counts only as evals + cache hits; a difference
     in them one by one is an open failure of the engine's determinism,
     printed as such. *)
  List.iter
    (fun (n, a, b, gated) ->
      Printf.printf "count differs on repeat%s: %s %d vs %d\n"
        (if gated then "" else " (lane-dependent: open failure)")
        n a b)
    r.count_diffs;
  let correct = r.failed = 0 in
  let metrics = if cfg.trace then r.per_layer else r.end_to_end in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (x : Runner.value) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.v_name (json_number x.value) x.v_unit)
          metrics));
  exit (if correct then 0 else 1)
