(* Stage replay: re-run one receiver evaluation stage by stage through
   the public stage functions, time each stage, and prove the replay is
   the evaluation — bit-for-bit equal to [Receiver.run], settle prefix
   included.  The stimulus is the one [Metrics.Measure] applies for the
   modulator-SNR trial (an 8192-point single tone at -25 dBm). *)

open Rfchain

type sample = {
  rx : Receiver.t;
  config : Config.t;  (* the word handed to Receiver.run, before any fabric fault *)
}

type result = {
  fused : bool;             (* took the fused modulator loop *)
  path_agrees : bool;       (* [fused] agrees with what Sdm.run_into allocated *)
  identical : bool;         (* replay = Receiver.run, bit for bit *)
  vglna_us : float;
  sdm_us : float;           (* Sdm.create + Sdm.run_into *)
  mixer_us : float;
  decimator_us : float;
  measure_us : float;       (* SNR extraction from the modulator output *)
  receiver_run_us : float;  (* the same evaluation through Receiver.run *)
}

let settle = 1024
let p_dbm = -25.0

(* The predicate [Sdm.run_into] uses to pick its fused loop, evaluated
   on the word the analog knobs see.  The comparator-noise sigma is the
   die's process draw (positive on any realistic die). *)
let fused_path rx config =
  let cfg = Receiver.applied_config rx config in
  let sigma =
    Circuit.Process.parameter (Receiver.chip rx) ~name:"sdm.comp_noise" ~nominal:0.004
      ~sigma_pct:10.0
  in
  let sigma = if cfg.Config.comp_clock_enable then sigma else Float.max sigma 0.05 in
  cfg.Config.comp_clock_enable && cfg.fb_enable && cfg.gmin_enable
  && (not cfg.cal_buffer_enable) && sigma > 0.0

let stimulus rx =
  let n = Metrics.Snr.default_fft_points in
  let freq = Receiver.test_tone_frequency rx ~n in
  (freq, Sigkit.Waveform.tone_dbm ~p_dbm ~freq ~fs:(Receiver.fs rx) n)

(* The settle prefix repeats the record head, as Receiver.run does. *)
let extend input =
  let n = Array.length input in
  Array.init (settle + n) (fun i -> input.((i + n - (settle mod n)) mod n))

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let us_since t0 = Int64.to_float (Int64.sub (Spans.now_ns ()) t0) /. 1e3

type outputs = {
  mod_full : float array;  (* settle prefix included *)
  mod_output : float array;
  baseband_i : float array;
  baseband_q : float array;
  snr_db : float;
}

(* One staged evaluation; returns the outputs and the per-stage times. *)
let staged vglna s ~freq ~input =
  let rx = s.rx in
  let chip = Receiver.chip rx and fs = Receiver.fs rx in
  let analog = Receiver.applied_config rx s.config in
  let n = Array.length input in
  let extended = extend input in
  let extended = match Receiver.rf_fault rx with None -> extended | Some f -> f extended in
  let mod_full = Array.make (settle + n) 0.0 in
  let i_out = Array.make n 0.0 and q_out = Array.make n 0.0 in
  let t0 = Spans.now_ns () in
  Vglna.run_inplace vglna ~code:analog.Config.vglna_gain extended;
  let vglna_us = us_since t0 in
  let t1 = Spans.now_ns () in
  let sdm = Sdm.create chip ~fs analog in
  let w0 = Gc.minor_words () in
  Sdm.run_into sdm extended mod_full;
  let sdm_words = Gc.minor_words () -. w0 in
  let sdm_us = us_since t1 in
  let t2 = Spans.now_ns () in
  Mixer.downconvert_into ~slice:true mod_full ~pos:settle ~n ~i_out ~q_out;
  let mixer_us = us_since t2 in
  let t3 = Spans.now_ns () in
  let baseband_i, baseband_q = Decimator.run_iq Decimator.default_config (i_out, q_out) in
  let decimator_us = us_since t3 in
  let mod_output = Array.sub mod_full settle n in
  let t4 = Spans.now_ns () in
  let snr_db =
    Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr:Standards.oversampling_ratio mod_output
  in
  let measure_us = us_since t4 in
  ( { mod_full; mod_output; baseband_i; baseband_q; snr_db },
    sdm_words,
    (vglna_us, sdm_us, mixer_us, decimator_us, measure_us) )

(* The replay against the library's own path: Receiver.run with the
   default settle for the outputs, Receiver.run on the pre-extended
   record with no settle for the full bitstream, and the Measure bench
   for the SNR. *)
let identical s ~input (o : outputs) =
  let r = Receiver.run s.rx ~analog:s.config ~input () in
  let r0 = Receiver.run s.rx ~analog:s.config ~settle:0 ~input:(extend input) () in
  let snr = Metrics.Measure.snr_mod_db (Metrics.Measure.create ~p_dbm s.rx) s.config in
  bits_equal r.Receiver.mod_output o.mod_output
  && bits_equal r.Receiver.baseband_i o.baseband_i
  && bits_equal r.Receiver.baseband_q o.baseband_q
  && bits_equal r0.Receiver.mod_output o.mod_full
  && bits_equal [| snr |] [| o.snr_db |]

(* Replay one sample [reps] times after one warm-up; each stage time is
   the median over the reps, and so is the Receiver.run time measured
   between them.  The path [fused_path] names is checked against what
   the modulator step did: the fused loop draws its noise into the
   workspace and allocates next to nothing, while the generic loop
   boxes every sample (hundreds of thousands of minor words a run).
   One minor word per sample separates the two. *)
let run ?(reps = 3) s =
  let freq, input = stimulus s.rx in
  let vglna = Vglna.create (Receiver.chip s.rx) ~fs:(Receiver.fs s.rx) in
  let first, _, _ = staged vglna s ~freq ~input in
  let identical = identical s ~input first in
  let times =
    List.init reps (fun _ ->
        let _, words, st = staged vglna s ~freq ~input in
        let t0 = Spans.now_ns () in
        ignore (Receiver.run s.rx ~analog:s.config ~input ());
        (words, st, us_since t0))
  in
  let med f = Stats.median (List.map f times) in
  let fused = fused_path s.rx s.config in
  let allocating =
    List.fold_left (fun acc (w, _, _) -> Float.min acc w) infinity times
    > float_of_int (settle + Array.length input)
  in
  {
    fused;
    path_agrees = fused <> allocating;
    identical;
    vglna_us = med (fun (_, (v, _, _, _, _), _) -> v);
    sdm_us = med (fun (_, (_, d, _, _, _), _) -> d);
    mixer_us = med (fun (_, (_, _, m, _, _), _) -> m);
    decimator_us = med (fun (_, (_, _, _, c, _), _) -> c);
    measure_us = med (fun (_, (_, _, _, _, e), _) -> e);
    receiver_run_us = med (fun (_, _, r) -> r);
  }
