(** Signal-to-noise ratio metrology (paper Section VI-A).

    SNR is computed from an 8192-point windowed FFT: signal power is
    the carrier's main-lobe bins; noise (plus distortion) is everything
    else inside the band of interest, which for the band-pass modulator
    is [fs / (2 OSR)] wide and centred on [fs / 4]. *)

val default_fft_points : int
(** 8192, as in the paper. *)

val of_bandpass :
  ?n_fft:int ->
  fs:float ->
  f_signal:float ->
  osr:int ->
  float array ->
  float
(** [of_bandpass ~fs ~f_signal ~osr record] is the SNR in dB of the
    modulator-output record: band centred at [fs/4], width
    [fs/(2 osr)], carrier at [f_signal].  Only the record's last
    [n_fft] samples (default {!default_fft_points}) are analysed, read
    in place. *)

val of_baseband :
  ?n_fft:int ->
  fs:float ->
  f_signal:float ->
  f_band:float ->
  float array ->
  float
(** SNR of a real decimated baseband channel: carrier at [f_signal]
    (offset from the original carrier), noise integrated over
    [0, f_band].  Image noise from the other side of the carrier folds
    in; prefer {!of_baseband_iq} when both quadratures are available. *)

val of_baseband_iq :
  ?n_fft:int ->
  fs:float ->
  f_signal:float ->
  f_band:float ->
  float array * float array ->
  float
(** SNR of the complex (i, q) baseband: carrier at the signed offset
    [f_signal], noise integrated over [-f_band, f_band] without image
    folding — the receiver-output metric of Fig. 9. *)

val power_in_band_dbfs : ?n_fft:int -> fs:float -> f_lo:float -> f_hi:float -> float array -> float
(** Band power in dB relative to a full-scale (+-1) square wave —
    a helper for noise-floor diagnostics. *)
