(* Unit tests for the SNR/SFDR/dynamic-range metrology. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* Synthetic bandpass record: tone at fs/4 + offset plus white noise of
   a known level — the SNR estimator must recover the analytic ratio. *)
let synthetic_record ~fs ~n ~amplitude ~noise_sigma ~offset =
  let rng = Sigkit.Rng.create 31337 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:((fs /. 4.0) +. offset) ~fs ~n in
  let tone = Sigkit.Waveform.tone ~amplitude ~freq ~fs n in
  (freq, Array.map (fun v -> v +. (noise_sigma *. Sigkit.Rng.gaussian rng)) tone)

let test_snr_analytic () =
  let fs = 12e9 and n = 8192 and osr = 64 in
  let amplitude = 0.5 and noise_sigma = 0.01 in
  let freq, record = synthetic_record ~fs ~n ~amplitude ~noise_sigma ~offset:20e6 in
  let snr = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr record in
  (* Analytic: P_sig = A^2/2; in-band noise = sigma^2 / OSR. *)
  let expected =
    Sigkit.Decibel.db_of_power_ratio
      (amplitude ** 2.0 /. 2.0 /. (noise_sigma ** 2.0 /. float_of_int osr))
  in
  check_close ~eps:1.5 "bandpass SNR matches analytic" expected snr

let test_snr_scales_with_osr () =
  let fs = 12e9 and n = 8192 in
  let freq, record = synthetic_record ~fs ~n ~amplitude:0.5 ~noise_sigma:0.02 ~offset:10e6 in
  let snr32 = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr:32 record in
  let snr64 = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr:64 record in
  let snr128 = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr:128 record in
  (* Halving a white-noise band buys ~3 dB; the carrier-lobe exclusion
     inflates the narrow-band steps somewhat, so bound rather than pin. *)
  let step1 = snr64 -. snr32 and step2 = snr128 -. snr64 in
  Alcotest.(check bool)
    (Printf.sprintf "octave steps in [2, 6] dB (got %.2f, %.2f)" step1 step2)
    true
    (step1 > 2.0 && step1 < 6.0 && step2 > 2.0 && step2 < 6.0)

let test_snr_iq_analytic () =
  let fs = 187.5e6 and n = 2048 in
  let rng = Sigkit.Rng.create 7 in
  let sigma = 0.01 and amplitude = 0.3 in
  let f_off = Sigkit.Waveform.coherent_frequency ~freq:20e6 ~fs ~n in
  let w = 2.0 *. Float.pi *. f_off /. fs in
  let i_ch =
    Array.init n (fun k -> (amplitude *. cos (w *. float_of_int k)) +. (sigma *. Sigkit.Rng.gaussian rng))
  in
  let q_ch =
    Array.init n (fun k -> (amplitude *. sin (w *. float_of_int k)) +. (sigma *. Sigkit.Rng.gaussian rng))
  in
  let f_band = 46.875e6 in
  let snr = Metrics.Snr.of_baseband_iq ~n_fft:n ~fs ~f_signal:f_off ~f_band (i_ch, q_ch) in
  (* Complex tone power A^2; complex noise in +-f_band: 2 sigma^2 * (2 f_band / fs). *)
  let expected =
    Sigkit.Decibel.db_of_power_ratio
      (amplitude ** 2.0 /. (2.0 *. sigma ** 2.0 *. (2.0 *. f_band /. fs)))
  in
  check_close ~eps:1.5 "IQ SNR matches analytic" expected snr

let test_snr_rejects_short () =
  Alcotest.check_raises "short record" (Invalid_argument "Snr: record too short") (fun () ->
      ignore (Metrics.Snr.of_bandpass ~fs:1e9 ~f_signal:1e8 ~osr:64 (Array.make 16 0.0)))

let test_sfdr_known_spur () =
  let fs = 12e9 and n = 8192 in
  let f0 = 3e9 in
  let f1, f2 = Metrics.Sfdr.tones_for ~f0 ~fs ~n in
  check_close ~eps:3e6 "tone spacing" Metrics.Sfdr.tone_spacing_hz (f2 -. f1);
  (* Hand-build two tones plus one -40 dBc spur in band. *)
  let spur_freq = Sigkit.Waveform.coherent_frequency ~freq:(f0 +. 30e6) ~fs ~n in
  let a = 0.5 in
  let x =
    Sigkit.Waveform.add
      (Sigkit.Waveform.add
         (Sigkit.Waveform.tone ~amplitude:a ~freq:f1 ~fs n)
         (Sigkit.Waveform.tone ~amplitude:a ~freq:f2 ~fs n))
      (Sigkit.Waveform.tone ~amplitude:(a /. 100.0) ~freq:spur_freq ~fs n)
  in
  let sfdr = Metrics.Sfdr.of_bandpass ~fs ~f1 ~f2 ~osr:64 x in
  check_close ~eps:1.0 "SFDR finds the -40 dBc spur" 40.0 sfdr

let test_dynamic_range_sweep () =
  (* A fake chip whose SNR rises 1 dB per dBm from -90 dBm. *)
  let measure ~p_dbm ~gain_code:_ = p_dbm +. 90.0 in
  let segs = Metrics.Dynamic_range.sweep ~measure in
  Alcotest.(check int) "three segments" 3 (List.length segs);
  let total_points = List.fold_left (fun acc s -> acc + List.length s.Metrics.Dynamic_range.points) 0 segs in
  Alcotest.(check int) "27 sweep points" 27 total_points;
  (* Passing region with threshold 25: p >= -65 up to 0 dBm -> 70 dB. *)
  check_close "dynamic range" 70.0 (Metrics.Dynamic_range.dynamic_range_db segs ~min_snr_db:25.0)

let test_dynamic_range_empty () =
  let measure ~p_dbm:_ ~gain_code:_ = -100.0 in
  let segs = Metrics.Dynamic_range.sweep ~measure in
  check_close "dead chip has no range" 0.0 (Metrics.Dynamic_range.dynamic_range_db segs ~min_snr_db:25.0)

let test_spec_check () =
  let std = Rfchain.Standards.max_frequency in
  let good = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 44.0; sfdr_db = Some 40.0 } in
  let bad = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 20.0; sfdr_db = Some 40.0 } in
  Alcotest.(check bool) "good passes" true (Metrics.Spec.check std good).Metrics.Spec.functional;
  Alcotest.(check bool) "bad rx fails" false (Metrics.Spec.check std bad).Metrics.Spec.functional;
  check_close "distance zero when passing" 0.0 (Metrics.Spec.spec_distance std good);
  check_close "distance counts shortfall" (std.Rfchain.Standards.min_snr_db -. 20.0)
    (Metrics.Spec.spec_distance std bad)

let test_spec_optional_sfdr () =
  let std = Rfchain.Standards.max_frequency in
  let m = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 44.0; sfdr_db = None } in
  Alcotest.(check bool) "missing SFDR is not a failure" true
    (Metrics.Spec.check std m).Metrics.Spec.functional

let test_measure_counts_trials () =
  let rx = Rfchain.Receiver.create (Circuit.Process.fabricate ~seed:9 ()) Rfchain.Standards.max_frequency in
  let bench = Metrics.Measure.create rx in
  Alcotest.(check int) "starts at zero" 0 (Metrics.Measure.trial_count bench);
  let _ = Metrics.Measure.snr_mod_db bench Rfchain.Config.nominal in
  Alcotest.(check int) "one trial" 1 (Metrics.Measure.trial_count bench);
  let _ = Metrics.Measure.sfdr_db bench Rfchain.Config.nominal in
  Alcotest.(check int) "two trials" 2 (Metrics.Measure.trial_count bench)

let test_measure_mod_output () =
  let rx = Rfchain.Receiver.create (Circuit.Process.fabricate ~seed:9 ()) Rfchain.Standards.max_frequency in
  let bench = Metrics.Measure.create rx in
  let record = Metrics.Measure.mod_output bench Rfchain.Config.nominal in
  Alcotest.(check int) "8192-point record" 8192 (Array.length record)

(* Measurements read the die's noise batches and the stimuli from
   tagged scratch and skip the digital section where they can.  The
   reference is the plain path: a fresh stimulus from [Waveform], the
   whole [Receiver.run], and an arena released first so that no tagged
   slot can serve it. *)
module Reference = struct
  let osr = Rfchain.Standards.oversampling_ratio
  let p_dbm = -25.0

  let tone rx config ~p_dbm ~n =
    Sigkit.Workspace.release ();
    let freq = Rfchain.Receiver.test_tone_frequency rx ~n in
    let input = Sigkit.Waveform.tone_dbm ~p_dbm ~freq ~fs:(Rfchain.Receiver.fs rx) n in
    (freq, Rfchain.Receiver.run rx ~analog:config ~input ())

  let snr_mod rx config =
    let freq, res = tone rx config ~p_dbm ~n:Metrics.Snr.default_fft_points in
    Metrics.Snr.of_bandpass ~fs:res.Rfchain.Receiver.fs ~f_signal:freq ~osr
      res.Rfchain.Receiver.mod_output

  let snr_mod_verified rx config =
    let tone_power p_dbm =
      let freq, res = tone rx config ~p_dbm ~n:Metrics.Snr.default_fft_points in
      Sigkit.Spectrum.tone_power
        (Sigkit.Spectrum.periodogram ~fs:res.Rfchain.Receiver.fs res.Rfchain.Receiver.mod_output)
        ~freq
    in
    let p_hi = tone_power p_dbm in
    let p_lo = tone_power (p_dbm -. 6.0) in
    let drop_db = Sigkit.Decibel.db_of_power_ratio (p_hi /. Float.max 1e-300 p_lo) in
    if Float.abs (drop_db -. 6.0) > 3.0 then neg_infinity else snr_mod rx config

  let snr_rx rx config =
    let n_fft = 2048 in
    let freq, res =
      tone rx config ~p_dbm ~n:(n_fft * Rfchain.Decimator.ratio Rfchain.Decimator.default_config)
    in
    let band = Rfchain.Standards.band_hz (Rfchain.Receiver.standard rx) in
    Metrics.Snr.of_baseband_iq ~n_fft ~fs:res.Rfchain.Receiver.fs_baseband
      ~f_signal:(freq -. (res.Rfchain.Receiver.fs /. 4.0))
      ~f_band:(band /. 2.0)
      (res.Rfchain.Receiver.baseband_i, res.Rfchain.Receiver.baseband_q)

  let sfdr rx config =
    Sigkit.Workspace.release ();
    let n = Metrics.Snr.default_fft_points and fs = Rfchain.Receiver.fs rx in
    let f0 = (Rfchain.Receiver.standard rx).Rfchain.Standards.f0_hz in
    let f1, f2 = Metrics.Sfdr.tones_for ~f0 ~fs ~n in
    let input = Sigkit.Waveform.two_tone_dbm ~p_dbm ~f1 ~f2 ~fs n in
    let res = Rfchain.Receiver.run rx ~analog:config ~input () in
    Metrics.Sfdr.of_bandpass ~fs ~f1 ~f2 ~osr res.Rfchain.Receiver.mod_output
end

let test_measure_matches_receiver_run () =
  let std = Rfchain.Standards.max_frequency in
  let rx seed = Rfchain.Receiver.create (Circuit.Process.fabricate ~seed ()) std in
  let a = rx 9 and b = rx 23 in
  (* A calibrated key, so that the verified metric passes its
     linearity guard and re-measures. *)
  let key = Calibration.Calibrate.quick a in
  let nominal = Rfchain.Config.nominal in
  let low_gain = { nominal with vglna_gain = 4 } in
  let open_loop = { nominal with fb_enable = false } in
  if not (Float.is_finite (Reference.snr_mod_verified a key)) then
    Alcotest.fail "the calibrated key must pass the linearity guard";
  (* Each metric: name, the measured value(s) on a fresh bench, the
     reference value(s). *)
  let metric name measure reference =
    (name, (fun rx c -> measure (Metrics.Measure.create rx) c), reference)
  in
  let snr_mod =
    metric "Snr_mod"
      (fun m c -> [ Metrics.Measure.snr_mod_db m c ])
      (fun rx c -> [ Reference.snr_mod rx c ])
  in
  let verified =
    metric "Snr_mod_verified"
      (fun m c -> [ Metrics.Measure.snr_mod_verified_db m c ])
      (fun rx c -> [ Reference.snr_mod_verified rx c ])
  in
  let snr_rx =
    metric "Snr_rx"
      (fun m c -> [ Metrics.Measure.snr_rx_db m c ])
      (fun rx c -> [ Reference.snr_rx rx c ])
  in
  let sfdr =
    metric "Sfdr" (fun m c -> [ Metrics.Measure.sfdr_db m c ]) (fun rx c -> [ Reference.sfdr rx c ])
  in
  let full =
    metric "Full"
      (fun m c ->
        let r = Metrics.Measure.full m c in
        [ r.snr_mod_db; r.snr_rx_db; Option.get r.sfdr_db ])
      (fun rx c -> [ Reference.snr_mod rx c; Reference.snr_rx rx c; Reference.sfdr rx c ])
  in
  (* Dies and metrics interleaved on one domain; repeats are tag hits. *)
  let schedule =
    [
      (a, nominal, snr_mod); (a, nominal, snr_mod); (b, nominal, snr_mod); (a, low_gain, snr_mod);
      (a, nominal, sfdr); (a, nominal, sfdr); (b, nominal, sfdr); (b, open_loop, snr_mod);
      (b, open_loop, snr_mod); (a, key, verified); (a, key, verified); (b, nominal, verified);
      (a, nominal, snr_rx); (a, key, snr_mod); (b, low_gain, snr_rx); (b, nominal, full);
      (a, key, full); (a, key, snr_mod);
    ]
  in
  (* Measure everything first, so the tags of one trial meet the next. *)
  let measured = List.map (fun (rx, c, (_, measure, _)) -> measure rx c) schedule in
  let bits = List.map Int64.bits_of_float in
  List.iteri
    (fun i ((rx, c, (name, _, reference)), got) ->
      if bits got <> bits (reference rx c) then
        Alcotest.failf "step %d (%s) differs from the Receiver.run path" i name)
    (List.combine schedule measured)

(* Retention: a long capture's scratch is dropped by the next short
   eval.  Short evals rewrite every slot the long one grew except the
   CIC intermediate (slot 12), whose length is the capture's
   n / (decimation ratio / 2).  That holds for an SFDR eval too (the
   order a calibration ends a die with), although its two-tone memo
   hit runs no VGLNA and so writes neither slot 6 nor slot 13. *)
let test_measure_scratch_retention () =
  let rx =
    Rfchain.Receiver.create (Circuit.Process.fabricate ~seed:9 ()) Rfchain.Standards.max_frequency
  in
  let bench = Metrics.Measure.create rx in
  let config = Rfchain.Config.nominal in
  let ws = Sigkit.Workspace.get () in
  Sigkit.Workspace.release ();
  ignore (Metrics.Measure.snr_mod_db bench config);
  ignore (Metrics.Measure.sfdr_db bench config);
  let short = Sigkit.Workspace.footprint ws in
  let ratio = Rfchain.Decimator.ratio Rfchain.Decimator.default_config in
  let n = 2048 * ratio in
  ignore (Metrics.Measure.snr_rx_db ~n_fft:2048 bench config);
  let long = Sigkit.Workspace.footprint ws in
  if long - short < 6 * (n - Metrics.Snr.default_fft_points - 1024) then
    Alcotest.failf "the long capture was not held while current (%d -> %d)" short long;
  ignore (Metrics.Measure.snr_mod_db bench config);
  let cic = n / (ratio / 2) in
  Alcotest.(check int) "back at the short-eval footprint" (short + cic)
    (Sigkit.Workspace.footprint ws);
  ignore (Metrics.Measure.snr_rx_db ~n_fft:2048 bench config);
  ignore (Metrics.Measure.sfdr_db bench config);
  let after_sfdr = Sigkit.Workspace.footprint ws in
  if after_sfdr > short + cic then
    Alcotest.failf "an SFDR eval kept the long capture (%d floats, short-eval footprint %d)"
      after_sfdr (short + cic);
  ignore (Metrics.Measure.snr_mod_db bench config);
  Alcotest.(check int) "short-eval footprint after SFDR" (short + cic)
    (Sigkit.Workspace.footprint ws)

(* The front-end memo (DESIGN §15): a named stimulus's settle-extended,
   VGLNA-conditioned record is kept in tagged slot 6 (tone, long
   capture) or 14 (two-tone), and each die's VGLNA and modulator draws
   in a per-domain memo keyed on the chip value.  Random interleavings
   on one domain of die variants, gain codes, stimulus kinds and settle
   lengths must measure exactly what the untagged path does.  The die
   pool holds the cases a tag could confuse: same-seed variants whose
   VGLNA differs only in its polynomial (the offset bias) or in its
   noise sigma (age, drift, lot sigma scale), and two ideal-process
   dies whose VGLNAs differ only in their noise streams' seed. *)
module Front_memo = struct
  let std = Rfchain.Standards.max_frequency
  let fab ?lot_sigma_scale seed = Circuit.Process.fabricate ?lot_sigma_scale ~seed ()
  let codes = [| 9; 14 |]

  let dies =
    let plain = fab 9 in
    [|
      plain;
      Circuit.Process.with_offset_bias
        (Circuit.Process.with_offset_bias plain ~name:"vglna.gain9" ~bias:0.3)
        ~name:"vglna.iip314" ~bias:0.4;
      fab ~lot_sigma_scale:0.0 9;
      fab ~lot_sigma_scale:0.0 23;
      Circuit.Process.age plain ~hours:3000.0;
      Circuit.Process.environment plain ~drift:0.01;
      fab ~lot_sigma_scale:0.5 9;
    |]

  (* The first four dies are the confusable pairs: drawn three times as
     often as the others. *)
  let die_gen = QCheck.Gen.frequencyl [ (3, 0); (3, 1); (3, 2); (3, 3); (1, 4); (1, 5); (1, 6) ]

  type step =
    | Measure of string  (* one of the five measurements *)
    | Direct of { two_tone : bool; settle : int }  (* Receiver.modulate on a short named record *)

  let step_gen =
    QCheck.Gen.(
      frequency
        [
          (3, return (Measure "Snr_mod"));
          (1, return (Measure "Snr_mod_verified"));
          (1, return (Measure "Snr_rx"));
          (2, return (Measure "Sfdr"));
          (1, return (Measure "Full"));
          ( 3,
            map2
              (fun two_tone settle -> Direct { two_tone; settle })
              bool (oneofl [ 0; 256; 1024; 1500 ]) );
        ])

  (* A word: a gain code, and whether the comparator is clocked.  The
     clocked loop's 1-bit output hides the VGLNA's input-referred noise
     (~60 uV): two records that differ only in their noise draws
     usually give the same bitstream.  Unclocked, the comparator buffers
     its input to the output, so every sample of the record shows. *)
  let word_gen = QCheck.Gen.(pair (int_bound 1) bool)

  (* Each die's most confusable partner: the same seed with only the
     polynomial changed, the other ideal-process seed, or the plain die
     for the variants. *)
  let twin = [| 1; 0; 3; 2; 0; 0; 0 |]

  (* Ten steps, each followed half the time by the same step on the
     die's twin, so a tag that misses a dependency meets the record it
     would confuse. *)
  let case_gen =
    QCheck.Gen.(
      map List.concat
        (list_size (return 10)
           (map2
              (fun ((d, w, s) as step) twinned ->
                if twinned then [ step; (twin.(d), w, s) ] else [ step ])
              (triple die_gen word_gen step_gen) bool)))

  let print_case =
    let step = function
      | Measure m -> m
      | Direct { two_tone; settle } ->
        Printf.sprintf "%s/settle=%d" (if two_tone then "two-tone" else "tone") settle
    in
    QCheck.Print.list (fun (d, (c, clocked), s) ->
        Printf.sprintf "die%d code%d%s %s" d codes.(c)
          (if clocked then "" else " unclocked")
          (step s))

  (* The short named records of the direct steps. *)
  let n_direct = 1024
  let fs = Rfchain.Standards.fs std
  let tone = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n_direct
  let two_tone = Sigkit.Waveform.two_tone_dbm ~p_dbm:(-25.0) ~f1:3.01e9 ~f2:3.03e9 ~fs n_direct

  let config (c, clocked) =
    { Rfchain.Config.nominal with vglna_gain = codes.(c); comp_clock_enable = clocked }

  (* Every step on a receiver created for it, as the engine does. *)
  let measured (d, c, step) =
    let rx = Rfchain.Receiver.create dies.(d) std in
    let m = Metrics.Measure.create rx and config = config c in
    match step with
    | Measure "Snr_mod" -> [ Metrics.Measure.snr_mod_db m config ]
    | Measure "Snr_mod_verified" -> [ Metrics.Measure.snr_mod_verified_db m config ]
    | Measure "Snr_rx" -> [ Metrics.Measure.snr_rx_db m config ]
    | Measure "Sfdr" -> [ Metrics.Measure.sfdr_db m config ]
    | Measure _ ->
      let r = Metrics.Measure.full m config in
      [ r.snr_mod_db; r.snr_rx_db; Option.get r.sfdr_db ]
    | Direct { two_tone = tt; settle } ->
      let stimulus, input =
        if tt then (Rfchain.Receiver.Two_tone "two-tone", two_tone)
        else (Rfchain.Receiver.Tone "tone", tone)
      in
      let bits = Rfchain.Receiver.modulate rx ~analog:config ~settle ~stimulus ~input () in
      Array.to_list (Array.sub bits settle n_direct)

  (* A receiver for a die of its own first evicts the draw memo, so the
     reference draws afresh whatever the memo is keyed on. *)
  let evict = fab 424242

  let reference (d, c, step) =
    ignore (Rfchain.Receiver.create evict std);
    let rx = Rfchain.Receiver.create dies.(d) std and config = config c in
    match step with
    | Measure "Snr_mod" -> [ Reference.snr_mod rx config ]
    | Measure "Snr_mod_verified" -> [ Reference.snr_mod_verified rx config ]
    | Measure "Snr_rx" -> [ Reference.snr_rx rx config ]
    | Measure "Sfdr" -> [ Reference.sfdr rx config ]
    | Measure _ ->
      [ Reference.snr_mod rx config; Reference.snr_rx rx config; Reference.sfdr rx config ]
    | Direct { two_tone = tt; settle } ->
      Sigkit.Workspace.release ();
      let input = if tt then two_tone else tone in
      Array.to_list (Rfchain.Receiver.run rx ~analog:config ~settle ~input ()).mod_output
end

let prop_front_memo_identity =
  QCheck.Test.make ~name:"front-end memo equals the untagged path" ~count:20
    (QCheck.make Front_memo.case_gen ~print:Front_memo.print_case)
    (fun schedule ->
      Sigkit.Workspace.release ();
      (* Measure everything first, so the tags of one step meet the next. *)
      let measured = List.map Front_memo.measured schedule in
      let bits = List.map Int64.bits_of_float in
      List.for_all2
        (fun step got -> bits got = bits (Front_memo.reference step))
        schedule measured)

let prop_spec_distance_nonneg =
  QCheck.Test.make ~name:"spec distance is non-negative" ~count:200
    QCheck.(triple (float_range (-200.) 100.) (float_range (-200.) 100.) (float_range (-200.) 100.))
    (fun (a, b, c) ->
      let m = { Metrics.Spec.snr_mod_db = a; snr_rx_db = b; sfdr_db = Some c } in
      Metrics.Spec.spec_distance Rfchain.Standards.max_frequency m >= 0.0)

let prop_spec_functional_iff_zero =
  QCheck.Test.make ~name:"functional iff zero distance" ~count:200
    QCheck.(pair (float_range 0. 80.) (float_range 0. 80.))
    (fun (a, b) ->
      let m = { Metrics.Spec.snr_mod_db = a; snr_rx_db = b; sfdr_db = None } in
      let std = Rfchain.Standards.max_frequency in
      (Metrics.Spec.check std m).Metrics.Spec.functional
      = (Metrics.Spec.spec_distance std m = 0.0))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "metrics"
    [
      ( "snr",
        [
          Alcotest.test_case "analytic bandpass" `Quick test_snr_analytic;
          Alcotest.test_case "OSR scaling" `Quick test_snr_scales_with_osr;
          Alcotest.test_case "analytic IQ" `Quick test_snr_iq_analytic;
          Alcotest.test_case "short record" `Quick test_snr_rejects_short;
        ] );
      ("sfdr", [ Alcotest.test_case "known spur" `Quick test_sfdr_known_spur ]);
      ( "dynamic range",
        [
          Alcotest.test_case "sweep" `Quick test_dynamic_range_sweep;
          Alcotest.test_case "dead chip" `Quick test_dynamic_range_empty;
        ] );
      ( "spec",
        [
          Alcotest.test_case "check" `Quick test_spec_check;
          Alcotest.test_case "optional SFDR" `Quick test_spec_optional_sfdr;
        ] );
      ( "measure",
        [
          Alcotest.test_case "trial counting" `Quick test_measure_counts_trials;
          Alcotest.test_case "mod output" `Quick test_measure_mod_output;
          Alcotest.test_case "matches the Receiver.run path" `Quick test_measure_matches_receiver_run;
          Alcotest.test_case "long capture scratch is dropped" `Quick test_measure_scratch_retention;
        ] );
      ( "properties",
        qcheck [ prop_spec_distance_nonneg; prop_spec_functional_iff_zero; prop_front_memo_identity ]
      );
    ]
