(** Spurious-free dynamic range (paper Fig. 12).

    Measured with a two-tone stimulus: two equal-power tones 10 MHz
    apart.  SFDR is the difference in dB between the fundamental power
    and the strongest in-band spur (the third-order intermodulation
    products [2f1 - f2] and [2f2 - f1] dominate for a weakly nonlinear
    front end). *)

val tone_spacing_hz : float
(** 10 MHz, as in the paper. *)

val tones_for : f0:float -> fs:float -> n:int -> float * float
(** The two coherent test frequencies straddling the carrier. *)

val of_bandpass :
  ?n_fft:int ->
  fs:float ->
  f1:float ->
  f2:float ->
  osr:int ->
  float array ->
  float
(** [of_bandpass ~fs ~f1 ~f2 ~osr record] is the SFDR in dB measured at
    the modulator output: fundamentals at [f1]/[f2], spurs searched in
    the (OSR) band of interest around [fs/4] excluding the fundamental
    lobes.  Only the record's last [n_fft] samples (default
    {!Snr.default_fft_points}) are analysed, read in place. *)
