(** Test-signal generation and time-domain utilities. *)

val tone : amplitude:float -> freq:float -> fs:float -> ?phase:float -> int -> float array
(** [tone ~amplitude ~freq ~fs n] is [n] samples of a sinusoid. *)

val tone_into : amplitude:float -> freq:float -> fs:float -> ?phase:float -> float array -> unit
(** [tone_into ~amplitude ~freq ~fs out] overwrites every cell of [out]
    with the sinusoid {!tone} would return for [Array.length out]
    samples, bit for bit. *)

val tone_dbm : p_dbm:float -> freq:float -> fs:float -> ?phase:float -> int -> float array
(** Sinusoid whose power into the 50-ohm reference load is [p_dbm]. *)

val two_tone_dbm : p_dbm:float -> f1:float -> f2:float -> fs:float -> int -> float array
(** Two equal-power tones, each at [p_dbm] (the classic IM3/SFDR
    stimulus). *)

val two_tone_dbm_into : p_dbm:float -> f1:float -> f2:float -> fs:float -> float array -> unit
(** In-place {!two_tone_dbm}: overwrites every cell of the array with
    the same samples, bit for bit. *)

val add : float array -> float array -> float array
val scale : float -> float array -> float array

val gaussian_noise : Rng.t -> sigma:float -> int -> float array

val rms : float array -> float
val peak : float array -> float

val mean : float array -> float

val coherent_frequency : freq:float -> fs:float -> n:int -> float
(** Nearest frequency to [freq] that lands exactly on a bin of an
    [n]-point FFT at rate [fs] (and is odd-indexed when possible, the
    standard coherent-sampling choice that avoids harmonic aliasing onto
    the carrier bin). *)
