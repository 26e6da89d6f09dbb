(* Tests of the benchmark's own code: seed -> inputs determinism, the
   metric-name charset (and agreement with BENCHMARK.json), and the
   stage replay's bit-identity with Receiver.run on both sigma-delta
   paths. *)

open Perfbench

let inputs_deterministic () =
  let d = Inputs.derive in
  Alcotest.(check int) "same seed, same draw" (d ~seed:7 Lot_die 3) (d ~seed:7 Lot_die 3);
  Alcotest.(check bool) "seeds differ" true (d ~seed:7 Lot_die 3 <> d ~seed:8 Lot_die 3);
  Alcotest.(check bool) "streams differ" true (d ~seed:7 Lot_die 3 <> d ~seed:7 Ga 3);
  Alcotest.(check bool) "indices differ" true (d ~seed:7 Lot_die 3 <> d ~seed:7 Lot_die 4);
  Alcotest.(check bool) "non-negative" true (d ~seed:(-5) Probe 0 >= 0);
  let keys ~round = List.map Rfchain.Config.to_bits (Inputs.keys ~seed:3 ~round 16) in
  Alcotest.(check (list int64)) "same keys" (keys ~round:2) (keys ~round:2);
  Alcotest.(check bool) "rounds differ" true (keys ~round:2 <> keys ~round:3)

let sample_shape () =
  let s = Inputs.sample ~seed:11 ~salt:1 ~k:10 50 in
  Alcotest.(check (list int)) "deterministic" s (Inputs.sample ~seed:11 ~salt:1 ~k:10 50);
  Alcotest.(check int) "k picks" 10 (List.length s);
  Alcotest.(check (list int)) "sorted, distinct" (List.sort_uniq compare s) s;
  Alcotest.(check bool) "in range" true (List.for_all (fun i -> i >= 0 && i < 50) s);
  Alcotest.(check int) "k capped by n" 4 (List.length (Inputs.sample ~seed:11 ~salt:1 ~k:10 4))

let quantiles () =
  Alcotest.(check (float 1e-12)) "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "p99 interpolates" 99.01
    (Stats.quantile (List.init 101 float_of_int) 0.9901)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let metric_names () =
  let all = Metric_table.end_to_end @ Metric_table.per_layer in
  List.iter
    (fun (m : Metric_table.metric) ->
      Alcotest.(check bool) ("name charset: " ^ m.name) true (Metric_table.valid_name m.name);
      Alcotest.(check bool) ("unit charset: " ^ m.unit_) true (Metric_table.valid_unit m.unit_))
    all;
  List.iter
    (fun w -> Alcotest.(check bool) ("workload charset: " ^ w) true (Metric_table.valid_name w))
    Metric_table.workloads;
  let names = List.map (fun (m : Metric_table.metric) -> m.name) all in
  Alcotest.(check int) "names unique" (List.length names) (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "rejects a bad start" false (Metric_table.valid_name "_x");
  Alcotest.(check bool) "rejects a space" false (Metric_table.valid_name "a b");
  Alcotest.(check bool) "rejects a long unit" false (Metric_table.valid_unit (String.make 17 'u'))

(* BENCHMARK.json names exactly these workloads and metrics. *)
let benchmark_json_agrees () =
  let json = read_file "../BENCHMARK.json" in
  let named n = contains json (Printf.sprintf "\"name\": \"%s\"" n) in
  List.iter
    (fun (m : Metric_table.metric) ->
      Alcotest.(check bool) ("listed: " ^ m.name) true
        (named m.name && contains json (Printf.sprintf "\"unit\": \"%s\"" m.unit_)))
    (Metric_table.end_to_end @ Metric_table.per_layer);
  List.iter (fun w -> Alcotest.(check bool) ("listed: " ^ w) true (named w)) Metric_table.workloads;
  let entries = List.length (String.split_on_char '{' json) - 2 in
  Alcotest.(check int) "no other entries"
    (List.length Metric_table.workloads + List.length Metric_table.end_to_end
    + List.length Metric_table.per_layer)
    entries

let replay_identity () =
  let chip = Circuit.Process.fabricate ~seed:4242 () in
  let rx = Rfchain.Receiver.create chip Rfchain.Standards.bluetooth in
  let check label config ~fused =
    let r = Replay.run ~reps:1 { Replay.rx; config } in
    Alcotest.(check bool) (label ^ " path") fused r.Replay.fused;
    Alcotest.(check bool) (label ^ " path matches the modulator's allocation") true r.path_agrees;
    Alcotest.(check bool) (label ^ " bit-identical") true r.identical
  in
  check "nominal word" Rfchain.Config.nominal ~fused:true;
  check "oscillation word" (Calibration.Osc_tune.oscillation_config Rfchain.Config.nominal) ~fused:false;
  check "open loop" { Rfchain.Config.nominal with fb_enable = false } ~fused:false;
  check "cal buffer in path" { Rfchain.Config.nominal with cal_buffer_enable = true } ~fused:false

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seed to inputs is deterministic" `Quick inputs_deterministic;
          Alcotest.test_case "seeded sample shape" `Quick sample_shape;
        ] );
      ("stats", [ Alcotest.test_case "quantiles" `Quick quantiles ]);
      ( "metrics",
        [
          Alcotest.test_case "name and unit charset" `Quick metric_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick benchmark_json_agrees;
        ] );
      ("replay", [ Alcotest.test_case "stage replay is Receiver.run" `Quick replay_identity ]);
    ]
