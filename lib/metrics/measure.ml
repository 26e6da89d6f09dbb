type t = {
  rx : Rfchain.Receiver.t;
  p_dbm : float;
  mutable trials : int;
}

let create ?(p_dbm = -25.0) rx = { rx; p_dbm; trials = 0 }

let trial_count t = t.trials

(* The process-wide bench odometer: every measurement on every bench,
   the denominator of all oracle-query accounting. *)
let trials_counter = Telemetry.Counter.make "measure.trials"

let global_trial_count () = Telemetry.Counter.value trials_counter

let osr = Rfchain.Standards.oversampling_ratio

let count_trial t =
  t.trials <- t.trials + 1;
  Telemetry.Counter.incr trials_counter

(* One single-tone trial through the analog half only.  The stimuli
   live in tagged workspace slots (DESIGN §15), 10 for the single tone
   and 11 for the two-tone; a tag lists every parameter the samples
   depend on, floats in exact hex, so consecutive trials on one domain
   under the same stimulus reuse it as written.  The same tag names
   the stimulus to the receiver, which keeps the VGLNA-conditioned
   record under it.  The bitstream is the receiver's slot-7 scratch:
   read it before the next trial. *)
let modulate_tone t config ~p_dbm ~n =
  count_trial t;
  let fs = Rfchain.Receiver.fs t.rx in
  let freq = Rfchain.Receiver.test_tone_frequency t.rx ~n in
  let tag = Printf.sprintf "%h:%h:%h" p_dbm freq fs in
  let input =
    Sigkit.Workspace.filled (Sigkit.Workspace.get ()) ~slot:10 ~len:n ~tag
      ~fill:(Sigkit.Waveform.tone_into ~amplitude:(Sigkit.Decibel.amplitude_of_dbm p_dbm) ~freq ~fs)
  in
  (freq, Rfchain.Receiver.modulate t.rx ~analog:config ~stimulus:(Tone tag) ~input ())

let mod_output t config =
  let n = Snr.default_fft_points in
  let _, bits = modulate_tone t config ~p_dbm:t.p_dbm ~n in
  Array.sub bits (Array.length bits - n) n

let snr_mod_db t config =
  Telemetry.Span.with_ ~name:"measure.snr_mod" (fun () ->
      let f_in, bits = modulate_tone t config ~p_dbm:t.p_dbm ~n:Snr.default_fft_points in
      Snr.of_bandpass ~fs:(Rfchain.Receiver.fs t.rx) ~f_signal:f_in ~osr bits)

let tone_power_at t config ~p_dbm =
  let n = Snr.default_fft_points in
  let f_in, bits = modulate_tone t config ~p_dbm ~n in
  let spec =
    Sigkit.Spectrum.periodogram ~pos:(Array.length bits - n) ~len:n
      ~fs:(Rfchain.Receiver.fs t.rx) bits
  in
  Sigkit.Spectrum.tone_power spec ~freq:f_in

let snr_mod_verified_db t config =
  Telemetry.Span.with_ ~name:"measure.snr_mod_verified" (fun () ->
      let p_hi = tone_power_at t config ~p_dbm:t.p_dbm in
      let p_lo = tone_power_at t config ~p_dbm:(t.p_dbm -. 6.0) in
      let drop_db = Sigkit.Decibel.db_of_power_ratio (p_hi /. Float.max 1e-300 p_lo) in
      if Float.abs (drop_db -. 6.0) > 3.0 then neg_infinity
      else
        (* Linearity confirmed; the first record's SNR stands.  Re-measure
           to return it (counted: it is one more capture). *)
        snr_mod_db t config)

let baseband_snr t config ~p_dbm ~n_fft =
  Telemetry.Span.with_ ~name:"measure.snr_rx" (fun () ->
      let ratio = Rfchain.Decimator.ratio Rfchain.Decimator.default_config in
      let n = n_fft * ratio in
      let f_in, bits = modulate_tone t config ~p_dbm ~n in
      let fs = Rfchain.Receiver.fs t.rx in
      let band = Rfchain.Standards.band_hz (Rfchain.Receiver.standard t.rx) in
      Snr.of_baseband_iq ~n_fft ~fs:(fs /. float_of_int ratio)
        ~f_signal:(f_in -. (fs /. 4.0))
        ~f_band:(band /. 2.0)
        (Rfchain.Receiver.baseband bits ~n))

let snr_rx_db ?(n_fft = 2048) t config = baseband_snr t config ~p_dbm:t.p_dbm ~n_fft

let snr_rx_at_power_db ?(n_fft = 1024) t config ~p_dbm ~gain_code =
  let config = { config with Rfchain.Config.vglna_gain = gain_code } in
  baseband_snr t config ~p_dbm ~n_fft

let sfdr_db t config =
  count_trial t;
  Telemetry.Span.with_ ~name:"measure.sfdr" (fun () ->
      let n = Snr.default_fft_points in
      let fs = Rfchain.Receiver.fs t.rx in
      let standard = Rfchain.Receiver.standard t.rx in
      let f1, f2 = Sfdr.tones_for ~f0:standard.Rfchain.Standards.f0_hz ~fs ~n in
      let p_dbm = t.p_dbm in
      let tag = Printf.sprintf "%h:%h:%h:%h" p_dbm f1 f2 fs in
      let ws = Sigkit.Workspace.get () in
      (* A two-tone trial does not write the tone stimulus: drop a long
         capture's from slot 10 so it does not outlive the capture (the
         receiver does the same for its slots 6 and 13). *)
      Sigkit.Workspace.trim ws ~slot:10 ~len:n;
      let input =
        Sigkit.Workspace.filled ws ~slot:11 ~len:n ~tag
          ~fill:(Sigkit.Waveform.two_tone_dbm_into ~p_dbm ~f1 ~f2 ~fs)
      in
      Sfdr.of_bandpass ~fs ~f1 ~f2 ~osr
        (Rfchain.Receiver.modulate t.rx ~analog:config ~stimulus:(Two_tone tag) ~input ()))

let full t config =
  {
    Spec.snr_mod_db = snr_mod_db t config;
    snr_rx_db = snr_rx_db t config;
    sfdr_db = Some (sfdr_db t config);
  }
