(* Unit and property tests for the RF receiver chain. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let chip ?(seed = 42) () = Circuit.Process.fabricate ~seed ()
let std = Rfchain.Standards.max_frequency

(* ------------------------------------------------------------ Standards *)

let test_standards_fs () =
  check_close "fs = 4 f0" 12e9 (Rfchain.Standards.fs std);
  check_close "band = fs / (2 OSR)" 93.75e6 (Rfchain.Standards.band_hz std)

let test_standards_lookup () =
  Alcotest.(check string) "find bluetooth" "bluetooth" (Rfchain.Standards.find "bluetooth").name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Rfchain.Standards.find "nope"));
  Alcotest.(check bool) "range covered" true
    (List.for_all
       (fun s -> s.Rfchain.Standards.f0_hz >= 1.5e9 && s.Rfchain.Standards.f0_hz <= 3.0e9)
       Rfchain.Standards.all)

(* --------------------------------------------------------------- Config *)

let test_config_roundtrip_nominal () =
  let c = Rfchain.Config.nominal in
  Alcotest.(check bool) "roundtrip" true
    (Rfchain.Config.equal c (Rfchain.Config.of_bits (Rfchain.Config.to_bits c)))

let test_config_field_access () =
  let c = Rfchain.Config.nominal in
  Alcotest.(check int) "read" c.Rfchain.Config.gm_q (Rfchain.Config.field c "gm_q");
  let c2 = Rfchain.Config.with_field c "gm_q" 17 in
  Alcotest.(check int) "write" 17 c2.Rfchain.Config.gm_q;
  Alcotest.(check int) "bool as int" 1 (Rfchain.Config.field c "fb_enable");
  Alcotest.check_raises "unknown field" (Invalid_argument "Config: unknown field nope") (fun () ->
      ignore (Rfchain.Config.field c "nope"))

let test_config_widths_cover_64 () =
  let total =
    List.fold_left (fun acc f -> acc + Rfchain.Config.field_width f) 0 Rfchain.Config.field_names
  in
  Alcotest.(check int) "fields cover all 64 bits" 64 total

let test_config_validate () =
  Alcotest.(check bool) "nominal valid" true
    (Result.is_ok (Rfchain.Config.validate Rfchain.Config.nominal))

let test_config_hamming () =
  let c = Rfchain.Config.nominal in
  Alcotest.(check int) "self distance" 0 (Rfchain.Config.hamming_distance c c);
  let c2 = Rfchain.Config.with_field c "gm_q" (c.Rfchain.Config.gm_q lxor 1) in
  Alcotest.(check int) "one bit" 1 (Rfchain.Config.hamming_distance c c2)

(* ---------------------------------------------------------------- Vglna *)

let test_vglna_gain_table () =
  check_close "code 0" 8.0 (Rfchain.Vglna.nominal_gain_db ~code:0);
  check_close "code 15" 38.0 (Rfchain.Vglna.nominal_gain_db ~code:15);
  Alcotest.(check int) "inverse" 9 (Rfchain.Vglna.code_for_gain_db 26.0)

let test_vglna_segments () =
  Alcotest.(check int) "weak signal, high gain" 14 (Rfchain.Vglna.segment_code ~p_dbm:(-70.0));
  Alcotest.(check int) "mid" 9 (Rfchain.Vglna.segment_code ~p_dbm:(-30.0));
  Alcotest.(check int) "strong signal, low gain" 3 (Rfchain.Vglna.segment_code ~p_dbm:(-5.0))

let test_vglna_amplifies () =
  let lna = Rfchain.Vglna.create (chip ()) ~fs:12e9 in
  let x = Sigkit.Waveform.tone_dbm ~p_dbm:(-40.0) ~freq:3e9 ~fs:12e9 4096 in
  let y = Rfchain.Vglna.run lna ~code:10 x in
  let gain_db =
    Sigkit.Decibel.db_of_amplitude_ratio (Sigkit.Waveform.rms y /. Sigkit.Waveform.rms x)
  in
  check_close ~eps:1.5 "realised gain near table" 28.0 gain_db

let test_vglna_nf_trend () =
  let lna = Rfchain.Vglna.create (chip ()) ~fs:12e9 in
  Alcotest.(check bool) "NF worsens at low gain" true
    (Rfchain.Vglna.noise_figure_db lna ~code:0 > Rfchain.Vglna.noise_figure_db lna ~code:15);
  Alcotest.(check bool) "IIP3 improves at low gain" true
    (Rfchain.Vglna.iip3_dbm lna ~code:0 > Rfchain.Vglna.iip3_dbm lna ~code:15)

let test_vglna_code_range () =
  let lna = Rfchain.Vglna.create (chip ()) ~fs:12e9 in
  Alcotest.check_raises "bad code" (Invalid_argument "Vglna: gain code out of range") (fun () ->
      ignore (Rfchain.Vglna.gain_db lna ~code:16))

(* ------------------------------------------------------------------ Sdm *)

let tuned_config rx =
  (* Ground-truth tuning helper for tests. *)
  let f0 = (Rfchain.Receiver.standard rx).Rfchain.Standards.f0_hz in
  let best = ref Rfchain.Config.nominal and best_err = ref infinity in
  for coarse = 0 to 255 do
    let cfg = { Rfchain.Config.nominal with cap_coarse = coarse } in
    let err =
      Float.abs (Rfchain.Sdm.tank_frequency (Rfchain.Receiver.sdm_of_config rx cfg) -. f0)
    in
    if err < !best_err then begin
      best := cfg;
      best_err := err
    end
  done;
  let coarse = !best.Rfchain.Config.cap_coarse in
  for fine = 0 to 255 do
    let cfg = { Rfchain.Config.nominal with cap_coarse = coarse; cap_fine = fine } in
    let err =
      Float.abs (Rfchain.Sdm.tank_frequency (Rfchain.Receiver.sdm_of_config rx cfg) -. f0)
    in
    if err < !best_err then begin
      best := cfg;
      best_err := err
    end
  done;
  let gm_q = ref 0 in
  for code = 0 to 63 do
    if not (Rfchain.Sdm.oscillates (Rfchain.Receiver.sdm_of_config rx { !best with gm_q = code }))
    then gm_q := code
  done;
  {
    !best with
    gm_q = !gm_q;
    loop_delay = Rfchain.Sdm.required_delay_code (Rfchain.Receiver.chip rx) ~fs:(Rfchain.Receiver.fs rx);
  }

let test_sdm_tank_monotone_in_caps () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let freq coarse =
    Rfchain.Sdm.tank_frequency
      (Rfchain.Receiver.sdm_of_config rx { Rfchain.Config.nominal with cap_coarse = coarse })
  in
  Alcotest.(check bool) "more capacitance, lower frequency" true
    (freq 0 > freq 64 && freq 64 > freq 192)

let test_sdm_tuning_range () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let f_max =
    Rfchain.Sdm.tank_frequency
      (Rfchain.Receiver.sdm_of_config rx
         { Rfchain.Config.nominal with cap_coarse = 0; cap_fine = 0 })
  in
  let f_min =
    Rfchain.Sdm.tank_frequency
      (Rfchain.Receiver.sdm_of_config rx
         { Rfchain.Config.nominal with cap_coarse = 255; cap_fine = 255 })
  in
  Alcotest.(check bool) "covers 1.5-3.0 GHz" true (f_min < 1.5e9 && f_max > 3.0e9)

let test_sdm_oscillation_threshold () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let sdm_at gm_q =
    Rfchain.Receiver.sdm_of_config rx { Rfchain.Config.nominal with gm_q }
  in
  Alcotest.(check bool) "max -Gm oscillates" true (Rfchain.Sdm.oscillates (sdm_at 63));
  Alcotest.(check bool) "min -Gm is damped" false (Rfchain.Sdm.oscillates (sdm_at 0))

let test_sdm_bitstream_output () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = tuned_config rx in
  let sdm = Rfchain.Receiver.sdm_of_config rx cfg in
  let fs = Rfchain.Receiver.fs rx in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-30.0) ~freq:3.02e9 ~fs 4096 in
  let amplified = Array.map (fun v -> v *. 20.0) input in
  let out = Rfchain.Sdm.run sdm amplified in
  Alcotest.(check bool) "clocked output is a bitstream" true
    (Array.for_all (fun v -> v = 1.0 || v = -1.0) out)

let test_sdm_noise_shaping () =
  (* The tuned modulator must clear 35 dB SNR; a 60-code cap offset must
     wreck it — the essence of the locking mechanism. *)
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = tuned_config rx in
  let bench = Metrics.Measure.create rx in
  let good = Metrics.Measure.snr_mod_db bench cfg in
  let detuned =
    Metrics.Measure.snr_mod_db bench
      { cfg with cap_coarse = min 255 (cfg.Rfchain.Config.cap_coarse + 60) }
  in
  Alcotest.(check bool) (Printf.sprintf "tuned SNR > 35 (got %.1f)" good) true (good > 35.0);
  Alcotest.(check bool) (Printf.sprintf "detuned SNR < 10 (got %.1f)" detuned) true (detuned < 10.0)

let test_sdm_buffer_mode_analog () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = { (tuned_config rx) with Rfchain.Config.comp_clock_enable = false; fb_enable = false } in
  let sdm = Rfchain.Receiver.sdm_of_config rx cfg in
  let fs = Rfchain.Receiver.fs rx in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs 4096 in
  let out = Rfchain.Sdm.run sdm (Array.map (fun v -> v *. 20.0) input) in
  let analog = Array.exists (fun v -> Float.abs v <> 1.0 && Float.abs v > 1e-12) out in
  Alcotest.(check bool) "buffer mode passes analog values" true analog

let test_sdm_gmin_disable () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = { (tuned_config rx) with Rfchain.Config.gmin_enable = false } in
  let bench = Metrics.Measure.create rx in
  let snr = Metrics.Measure.snr_mod_db bench cfg in
  Alcotest.(check bool) (Printf.sprintf "no input, no signal (got %.1f)" snr) true (snr < 15.0)

let test_sdm_osc_matches_tank () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = { (tuned_config rx) with Rfchain.Config.gm_q = 63 } in
  let sdm = Rfchain.Receiver.sdm_of_config rx cfg in
  match Rfchain.Sdm.oscillation_frequency sdm ~n:8192 with
  | Some f -> check_close ~eps:2e6 "oscillation at tank frequency" (Rfchain.Sdm.tank_frequency sdm) f
  | None -> Alcotest.fail "must oscillate at gm_q 63"

(* ---------------------------------------------------------------- Mixer *)

let test_mixer_translates () =
  let fs = 12e9 and n = 4096 in
  let offset = 100e6 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:((fs /. 4.0) +. offset) ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let i_ch, q_ch = Rfchain.Mixer.downconvert x in
  (* Complex baseband tone at +offset: spectrum of i + jq peaks there.
     The real input also carries an exactly equal-magnitude image at
     fs/2 - offset (the aliased negative-frequency component), so
     search only the channel's quarter-band — the global argmax between
     two equal bins is decided by last-bit FFT rounding. *)
  let re = Array.copy i_ch and im = Array.copy q_ch in
  Sigkit.Fft.forward re im;
  let mag = Sigkit.Fft.magnitude_squared re im in
  let peak = ref 0 in
  for k = 0 to n / 4 do
    if mag.(k) > mag.(!peak) then peak := k
  done;
  let f_peak = float_of_int !peak *. fs /. float_of_int n in
  check_close ~eps:(fs /. float_of_int n) "baseband offset" (freq -. (fs /. 4.0)) f_peak

let test_mixer_quadrature () =
  let x = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let i_ch, q_ch = Rfchain.Mixer.downconvert x in
  Alcotest.(check (list (float 1e-9))) "I sequence" [ 1.; 0.; -3.; 0.; 5.; 0.; -7.; 0. ]
    (Array.to_list i_ch);
  Alcotest.(check (list (float 1e-9))) "Q sequence" [ 0.; -2.; 0.; 4.; 0.; -6.; 0.; 8. ]
    (Array.to_list q_ch)

(* ------------------------------------------------------------ Decimator *)

let test_decimator_bits () =
  let c = Rfchain.Decimator.default_config in
  Alcotest.(check int) "default ratio 64" 64 (Rfchain.Decimator.ratio c);
  for bits = 0 to 7 do
    Alcotest.(check int) "3-bit codec roundtrip" bits
      (Rfchain.Decimator.bits_of_config (Rfchain.Decimator.config_of_bits bits))
  done

let test_decimator_dc_gain () =
  let c = Rfchain.Decimator.default_config in
  let x = Array.make 8192 1.0 in
  let y = Rfchain.Decimator.decimate c x in
  Alcotest.(check int) "output length" 128 (Array.length y);
  (* Interior sample: the first outputs carry the CIC transient and the
     last the FIR edge. *)
  check_close ~eps:1e-6 "unity DC gain (steady state)" 1.0 y.(Array.length y / 2)

let test_decimator_passband () =
  let c = Rfchain.Decimator.default_config in
  let fs = 12e9 and n = 65536 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:20e6 ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let y = Rfchain.Decimator.decimate c x in
  let steady = Array.sub y 64 (Array.length y - 64) in
  check_close ~eps:0.1 "in-band tone survives" (1.0 /. sqrt 2.0) (Sigkit.Waveform.rms steady)

let test_decimator_stopband () =
  let c = Rfchain.Decimator.default_config in
  let fs = 12e9 and n = 65536 in
  (* A tone just below an alias image of the output rate must be crushed. *)
  let freq = Sigkit.Waveform.coherent_frequency ~freq:(187.5e6 -. 20e6) ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let y = Rfchain.Decimator.decimate c x in
  let steady = Array.sub y 64 (Array.length y - 64) in
  Alcotest.(check bool) "alias image suppressed > 30 dB" true
    (Sigkit.Waveform.rms steady < 0.02)

(* ------------------------------------------------------------- Receiver *)

let test_receiver_end_to_end () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = tuned_config rx in
  let fs = Rfchain.Receiver.fs rx in
  let n = 2048 * 64 in
  let f_in = Rfchain.Receiver.test_tone_frequency rx ~n in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:f_in ~fs n in
  let res = Rfchain.Receiver.run rx ~analog:cfg ~input () in
  Alcotest.(check int) "mod output length" n (Array.length res.Rfchain.Receiver.mod_output);
  Alcotest.(check int) "baseband length" (n / 64) (Array.length res.Rfchain.Receiver.baseband_i);
  check_close "baseband rate" (fs /. 64.0) res.Rfchain.Receiver.fs_baseband;
  let snr =
    Metrics.Snr.of_baseband_iq ~n_fft:2048 ~fs:res.Rfchain.Receiver.fs_baseband
      ~f_signal:(f_in -. (fs /. 4.0))
      ~f_band:(Rfchain.Standards.band_hz std /. 2.0)
      (res.Rfchain.Receiver.baseband_i, res.Rfchain.Receiver.baseband_q)
  in
  Alcotest.(check bool) (Printf.sprintf "receiver SNR > 35 dB (got %.1f)" snr) true (snr > 35.0)

let test_receiver_slice () =
  let sliced = Rfchain.Receiver.slice_to_bit [| 0.3; -0.2; 0.0; -1.5 |] in
  Alcotest.(check (list (float 1e-9))) "slicing" [ 1.; -1.; 1.; -1. ] (Array.to_list sliced)

let test_receiver_deterministic () =
  let run () =
    let rx = Rfchain.Receiver.create (chip ()) std in
    let cfg = Rfchain.Config.nominal in
    let fs = Rfchain.Receiver.fs rx in
    let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs 4096 in
    (Rfchain.Receiver.run rx ~analog:cfg ~input ()).Rfchain.Receiver.mod_output
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_decimator_all_ratios () =
  List.iter
    (fun select ->
      let c = { Rfchain.Decimator.ratio_select = select; compensator = true } in
      let r = Rfchain.Decimator.ratio c in
      Alcotest.(check int) "ratio table" (16 lsl select) r;
      let y = Rfchain.Decimator.decimate c (Array.make (r * 64) 1.0) in
      Alcotest.(check int) "output length" 64 (Array.length y);
      Alcotest.(check (float 1e-6)) "unity DC gain" 1.0 y.(32))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------ Workspace arena *)

(* The allocating chain, composed from the public per-stage wrappers
   exactly as [Receiver.run] was written before the arena refactor.
   Comparing it against [Receiver.run] is both the bit-identity check
   for every into-style variant and the aliasing guard: if two live
   stages shared a workspace slot, the arena chain's output would
   diverge from this one. *)
let reference_chain rx ~analog ?(digital = Rfchain.Decimator.default_config) ?(settle = 1024)
    ?(slice = true) ~input () =
  let applied = Rfchain.Receiver.applied_config rx analog in
  let n = Array.length input in
  let extended = Array.make (settle + n) 0.0 in
  for i = 0 to settle + n - 1 do
    extended.(i) <- input.((i + n - (settle mod n)) mod n)
  done;
  let extended =
    match Rfchain.Receiver.rf_fault rx with
    | None -> extended
    | Some f -> f extended
  in
  let vglna =
    Rfchain.Vglna.create (Rfchain.Receiver.chip rx) ~fs:(Rfchain.Receiver.fs rx)
  in
  let amplified = Rfchain.Vglna.run vglna ~code:applied.Rfchain.Config.vglna_gain extended in
  (* [sdm_of_config] applies the fabric hook itself, so pass the raw word. *)
  let sdm = Rfchain.Receiver.sdm_of_config rx analog in
  let mod_full = Rfchain.Sdm.run sdm amplified in
  let mod_output = Array.sub mod_full settle n in
  let bits = if slice then Rfchain.Receiver.slice_to_bit mod_output else mod_output in
  let i_ch, q_ch = Rfchain.Mixer.downconvert bits in
  let baseband_i, baseband_q = Rfchain.Decimator.run_iq digital (i_ch, q_ch) in
  (mod_output, baseband_i, baseband_q)

let arena_case_gen =
  QCheck.Gen.(
    let* seed = int_range 1 5000 in
    let* coarse = int_range 0 255 in
    let* gain = int_range 0 15 in
    let* gm_q = int_range 0 40 in
    let* slice = bool in
    let* fault = int_range 0 2 in
    return (seed, coarse, gain, gm_q, slice, fault))

let prop_arena_chain_identity =
  QCheck.Test.make ~name:"arena-backed Receiver.run equals the allocating stage chain"
    ~count:12
    (QCheck.make arena_case_gen ~print:(fun (s, c, g, q, sl, f) ->
         Printf.sprintf "seed=%d coarse=%d gain=%d gm_q=%d slice=%b fault=%d" s c g q sl f))
    (fun (seed, coarse, gain, gm_q, slice, fault) ->
      let rf_fault input =
        (* Deterministic burst-like perturbation, fresh output array —
           the contract inject.ml's hooks follow. *)
        Array.mapi (fun i x -> x +. (0.002 *. float_of_int (i land 7))) input
      in
      let fabric cfg =
        Rfchain.Config.of_bits (Int64.logxor (Rfchain.Config.to_bits cfg) 0x110L)
      in
      let c = chip ~seed () in
      let rx =
        match fault with
        | 0 -> Rfchain.Receiver.create c std
        | 1 -> Rfchain.Receiver.create ~rf_fault c std
        | _ -> Rfchain.Receiver.create ~fabric c std
      in
      let analog =
        { Rfchain.Config.nominal with cap_coarse = coarse; vglna_gain = gain; gm_q }
      in
      let fs = Rfchain.Receiver.fs rx in
      let n = 1024 and settle = 256 in
      let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n in
      let res = Rfchain.Receiver.run rx ~analog ~settle ~slice ~input () in
      let m, bi, bq = reference_chain rx ~analog ~settle ~slice ~input () in
      res.Rfchain.Receiver.mod_output = m
      && res.Rfchain.Receiver.baseband_i = bi
      && res.Rfchain.Receiver.baseband_q = bq)

let test_arena_slots_distinct () =
  (* The chain's documented slot map (DESIGN §15): every stage that is
     live at the same time must hold a physically distinct scratch
     array, including the slots whose lengths coincide.  The stimuli
     (10-11) are live through the whole analog half. *)
  let n = 1024 and settle = 256 in
  let total = settle + n in
  let ws = Sigkit.Workspace.get () in
  let live =
    [
      ("extended (6)", Sigkit.Workspace.arr ws ~slot:6 ~len:total);
      ("mod_full (7)", Sigkit.Workspace.arr ws ~slot:7 ~len:total);
      ("sdm comp noise (8)", Sigkit.Workspace.arr ws ~slot:8 ~len:total);
      ("sdm input noise (9)", Sigkit.Workspace.arr ws ~slot:9 ~len:total);
      ("tone stimulus (10)", Sigkit.Workspace.arr ws ~slot:10 ~len:n);
      ("two-tone stimulus (11)", Sigkit.Workspace.arr ws ~slot:11 ~len:n);
      ("vglna noise (13)", Sigkit.Workspace.arr ws ~slot:13 ~len:total);
      ("two-tone front end (14)", Sigkit.Workspace.arr ws ~slot:14 ~len:total);
    ]
  in
  List.iteri
    (fun i (ni, a) ->
      List.iteri
        (fun j (nj, b) ->
          if i < j && a == b then Alcotest.failf "slots alias: %s and %s" ni nj)
        live)
    live

let test_arena_reuse_across_evals () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let analog = Rfchain.Config.nominal in
  let fs = Rfchain.Receiver.fs rx in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs 1024 in
  let eval () = ignore (Rfchain.Receiver.run rx ~analog ~input ()) in
  (* Two warm-up evals materialise every (slot, len) pair this chain
     needs; after that the arena must stop growing. *)
  eval ();
  eval ();
  let before = Sigkit.Workspace.allocations () in
  for _ = 1 to 4 do
    eval ()
  done;
  Alcotest.(check int) "no new scratch arrays across steady-state evals" before
    (Sigkit.Workspace.allocations ());
  (* And the steady-state eval must stay within the minor-words budget
     the bench gate enforces (~10k today; generous headroom here). *)
  let w0 = Gc.minor_words () in
  eval ();
  let dw = Gc.minor_words () -. w0 in
  if dw > 100_000.0 then Alcotest.failf "steady-state eval allocates %.0f minor words" dw

(* A die's noise batch is reused from its tagged slot across runs; it
   must always equal a fresh draw of the die's stream, for every chip
   variant of one die (the tag is the seed and the stream name) and
   with two dies interleaved on one domain. *)
let prop_noise_batch_identity =
  QCheck.Test.make ~name:"tagged noise batch equals a fresh draw of the die's stream" ~count:40
    QCheck.(
      quad (int_range 1 100_000) (int_range 1 100_000)
        (oneofl [ "vglna.noise3"; "vglna.noise14"; "run.comp"; "run.input" ])
        (pair (int_range 1 400) bool))
    (fun (s1, s2, name, (half, odd)) ->
      let n = (2 * half) + if odd then 1 else 0 in
      let fresh c =
        let b = Array.make n 0.0 in
        Sigkit.Rng.gaussian_fill (Circuit.Process.noise_stream c ~name) b ~n;
        b
      in
      let variants c =
        [
          c;
          Circuit.Process.age c ~hours:5000.0;
          Circuit.Process.environment c ~drift:0.02;
          Circuit.Process.with_offset_bias c ~name:"sdm.comp_offset" ~bias:0.01;
        ]
      in
      let a = variants (chip ~seed:s1 ()) and b = variants (chip ~seed:s2 ()) in
      (* Each variant twice in a row (a hit), alternating dies. *)
      let schedule = List.concat (List.map2 (fun x y -> [ x; x; y; y; x ]) a b) in
      List.for_all
        (fun c ->
          let batch = Circuit.Process.noise_batch c ~name ~slot:15 ~n in
          Array.length batch = n && batch = fresh c)
        schedule)

(* A receiver with an [rf_fault] hook rebuilds the front end untagged
   even when the stimulus is named: the tags do not name the hook, so a
   tagged faulty record would be served to the next healthy eval of the
   same die, and a tagged healthy one to the next faulty eval.  Each
   eval below follows one of the other kind under the same stimulus
   name, and each must equal the reference chain. *)
let test_fault_front_untagged () =
  let c = chip ~seed:77 () in
  let rf_fault input = Array.mapi (fun i x -> x +. (0.05 *. sin (0.37 *. float_of_int i))) input in
  let faulty = Rfchain.Receiver.create ~rf_fault c std in
  let healthy = Rfchain.Receiver.create c std in
  let fs = Rfchain.Receiver.fs healthy in
  let n = 1024 and settle = 256 in
  let tone = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n in
  let two_tone = Sigkit.Waveform.two_tone_dbm ~p_dbm:(-25.0) ~f1:3.01e9 ~f2:3.03e9 ~fs n in
  let analog = Rfchain.Config.nominal in
  let run rx stimulus input =
    Array.sub (Rfchain.Receiver.modulate rx ~analog ~settle ~stimulus ~input ()) settle n
  in
  Sigkit.Workspace.release ();
  let f1 = run faulty (Tone "tone") tone in
  let h1 = run healthy (Tone "tone") tone in
  let f1' = run faulty (Tone "tone") tone in
  let h1' = run healthy (Tone "tone") tone in
  let f2 = run faulty (Two_tone "two-tone") two_tone in
  let h2 = run healthy (Two_tone "two-tone") two_tone in
  let f2' = run faulty (Two_tone "two-tone") two_tone in
  let m_f1, _, _ = reference_chain faulty ~analog ~settle ~slice:false ~input:tone () in
  let m_f2, _, _ = reference_chain faulty ~analog ~settle ~slice:false ~input:two_tone () in
  let m_h1, _, _ = reference_chain healthy ~analog ~settle ~slice:false ~input:tone () in
  let m_h2, _, _ = reference_chain healthy ~analog ~settle ~slice:false ~input:two_tone () in
  Alcotest.(check bool) "faulty tone" true (f1 = m_f1 && f1' = m_f1);
  Alcotest.(check bool) "healthy tone after a faulty one" true (h1 = m_h1 && h1' = m_h1);
  Alcotest.(check bool) "faulty two-tone" true (f2 = m_f2 && f2' = m_f2);
  Alcotest.(check bool) "healthy two-tone after a faulty one" true (h2 = m_h2);
  Alcotest.(check bool) "the fault shows" true (f1 <> m_h1 && f2 <> m_h2)

(* A receiver's modulator comes from the per-domain draw memo; under
   every word it must equal a modulator built from fresh draws, with
   two dies alternating on the domain and with an aged copy of one die
   (same seed, other draws). *)
let test_sdm_draw_memo () =
  let a = chip ~seed:31 () and b = chip ~seed:57 () in
  let aged = Circuit.Process.age a ~hours:4000.0 in
  let rng = Sigkit.Rng.create 99 in
  let fs = Rfchain.Standards.fs std in
  List.iteri
    (fun i c ->
      let config = Rfchain.Config.random rng in
      let memoised = Rfchain.Receiver.sdm_of_config (Rfchain.Receiver.create c std) config in
      if memoised <> Rfchain.Sdm.create c ~fs config then
        Alcotest.failf "step %d: memoised modulator differs from fresh draws" i)
    [ a; b; a; a; aged; a; aged; aged; b; aged ]

(* The fused/generic counter pair: one bump per run, on the loop the
   word selects. *)
let test_sdm_path_counters () =
  let counter name = Telemetry.Counter.value (Telemetry.Counter.make name) in
  let fs = Rfchain.Standards.fs std in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs 512 in
  let check label config ~fused =
    let f0 = counter "sdm.path.fused" and g0 = counter "sdm.path.generic" in
    ignore (Rfchain.Sdm.run (Rfchain.Sdm.create (chip ()) ~fs config) input);
    Alcotest.(check int) (label ^ ": sdm.path.fused") (if fused then f0 + 1 else f0)
      (counter "sdm.path.fused");
    Alcotest.(check int) (label ^ ": sdm.path.generic") (if fused then g0 else g0 + 1)
      (counter "sdm.path.generic")
  in
  check "nominal word" Rfchain.Config.nominal ~fused:true;
  check "open loop" { Rfchain.Config.nominal with fb_enable = false } ~fused:false;
  check "cal buffer in path" { Rfchain.Config.nominal with cal_buffer_enable = true } ~fused:false

(* ------------------------------------------------------------ Properties *)

let prop_config_roundtrip =
  QCheck.Test.make ~name:"config codec is a bijection on int64" ~count:500 QCheck.int64
    (fun bits -> Rfchain.Config.to_bits (Rfchain.Config.of_bits bits) = bits)

let prop_config_with_field =
  QCheck.Test.make ~name:"with_field/field roundtrip" ~count:200
    QCheck.(pair (int_range 0 15) small_int)
    (fun (field_idx, v) ->
      let name = List.nth Rfchain.Config.field_names field_idx in
      let width = Rfchain.Config.field_width name in
      let v = v land ((1 lsl width) - 1) in
      let c = Rfchain.Config.with_field Rfchain.Config.nominal name v in
      Rfchain.Config.field c name = v)

let prop_mixer_energy =
  QCheck.Test.make ~name:"mixer conserves sample energy" ~count:50
    QCheck.(list_of_size (Gen.return 64) (float_range (-2.) 2.))
    (fun xs ->
      let x = Array.of_list xs in
      let i_ch, q_ch = Rfchain.Mixer.downconvert x in
      let e a = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 a in
      Float.abs (e x -. (e i_ch +. e q_ch)) < 1e-9)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rfchain"
    [
      ( "standards",
        [
          Alcotest.test_case "fs and band" `Quick test_standards_fs;
          Alcotest.test_case "lookup" `Quick test_standards_lookup;
        ] );
      ( "config",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip_nominal;
          Alcotest.test_case "field access" `Quick test_config_field_access;
          Alcotest.test_case "64-bit coverage" `Quick test_config_widths_cover_64;
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "hamming" `Quick test_config_hamming;
        ] );
      ( "vglna",
        [
          Alcotest.test_case "gain table" `Quick test_vglna_gain_table;
          Alcotest.test_case "segments" `Quick test_vglna_segments;
          Alcotest.test_case "amplifies" `Quick test_vglna_amplifies;
          Alcotest.test_case "NF/IIP3 trends" `Quick test_vglna_nf_trend;
          Alcotest.test_case "code range" `Quick test_vglna_code_range;
        ] );
      ( "sdm",
        [
          Alcotest.test_case "tank monotone in caps" `Quick test_sdm_tank_monotone_in_caps;
          Alcotest.test_case "tuning range" `Quick test_sdm_tuning_range;
          Alcotest.test_case "oscillation threshold" `Quick test_sdm_oscillation_threshold;
          Alcotest.test_case "bitstream output" `Quick test_sdm_bitstream_output;
          Alcotest.test_case "noise shaping" `Slow test_sdm_noise_shaping;
          Alcotest.test_case "buffer mode analog" `Quick test_sdm_buffer_mode_analog;
          Alcotest.test_case "gmin disable" `Quick test_sdm_gmin_disable;
          Alcotest.test_case "oscillation matches tank" `Quick test_sdm_osc_matches_tank;
          Alcotest.test_case "path counters" `Quick test_sdm_path_counters;
        ] );
      ( "mixer",
        [
          Alcotest.test_case "translation" `Quick test_mixer_translates;
          Alcotest.test_case "quadrature sequences" `Quick test_mixer_quadrature;
        ] );
      ( "decimator",
        [
          Alcotest.test_case "3-bit codec" `Quick test_decimator_bits;
          Alcotest.test_case "DC gain" `Quick test_decimator_dc_gain;
          Alcotest.test_case "all ratios" `Quick test_decimator_all_ratios;
          Alcotest.test_case "passband" `Quick test_decimator_passband;
          Alcotest.test_case "stopband" `Quick test_decimator_stopband;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "end to end" `Slow test_receiver_end_to_end;
          Alcotest.test_case "slicer" `Quick test_receiver_slice;
          Alcotest.test_case "deterministic" `Quick test_receiver_deterministic;
        ] );
      ( "arena",
        Alcotest.test_case "slot map is alias-free" `Quick test_arena_slots_distinct
        :: Alcotest.test_case "scratch reuse across evals" `Quick test_arena_reuse_across_evals
        :: Alcotest.test_case "faulty front end stays untagged" `Quick test_fault_front_untagged
        :: Alcotest.test_case "modulator draw memo equals fresh draws" `Quick test_sdm_draw_memo
        :: qcheck [ prop_arena_chain_identity; prop_noise_batch_identity ] );
      ("properties", qcheck [ prop_config_roundtrip; prop_config_with_field; prop_mixer_energy ]);
    ]
