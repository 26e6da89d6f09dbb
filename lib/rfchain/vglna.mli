(** Variable-Gain Low-Noise Amplifier.

    Five gain stages with resistive feedback and a 4-bit configuration
    word giving 16 gain levels, used to match the receiver's sensitivity
    and dynamic range to the target standard (paper, Fig. 5).  Gain,
    noise figure and linearity all depend on the gain code and carry
    per-chip process variation. *)

type t

val create : Circuit.Process.chip -> fs:float -> t
(** Draws the die's 16 gain errors at once; each code's noise figure,
    IIP3 and noise set-up are drawn on the code's first use and kept in
    the value, so a [t] reused across runs of one die draws each only
    once ({!Receiver.create} keeps one per domain and die). *)

val gain_db : t -> code:int -> float
(** Realised (per-chip) gain in dB for a code in [0, 15]. *)

val nominal_gain_db : code:int -> float
(** Design-table gain: 8 dB + 2 dB per code step. *)

val code_for_gain_db : float -> int
(** Nearest design code for a wanted gain. *)

val segment_code : p_dbm:float -> int
(** The gain code the datasheet assigns to an input-power segment:
    high gain below -45 dBm, mid gain in [-60, -20], low gain above
    (the three segments of Fig. 11). *)

val noise_figure_db : t -> code:int -> float
(** NF rises as gain is backed off (feedback attenuates first). *)

val iip3_dbm : t -> code:int -> float
(** Linearity improves as gain is backed off. *)

val run : t -> code:int -> float array -> float array
(** Amplify a record: adds input-referred thermal noise, applies the
    gain-dependent compressive nonlinearity.  Codes outside [0, 15] are
    rejected with [Invalid_argument].  Thin allocating wrapper over
    {!run_inplace}. *)

val run_inplace : t -> code:int -> float array -> unit
(** Arena variant: amplify the record in place (the stage is pointwise,
    so input and output share the buffer).  Takes its noise batch from
    {!Sigkit.Workspace} slot 13 through {!Circuit.Process.noise_batch},
    so consecutive runs of one die at one code and length draw it only
    once; bit-identical to {!run}. *)

val noise_slot : int
(** The {!Sigkit.Workspace} slot {!run_inplace} keeps its noise batch
    in (13). *)

val tag : t -> code:int -> string
(** A string naming everything {!run_inplace} adds to a record at
    [code] on this die, besides the record's length: the die's seed and
    the noise stream's name (which fix the noise batch), the noise
    sigma and the stage polynomial and rail (floats in exact hex).  Two
    runs whose tags, input records and lengths are equal write equal
    outputs, also across {!create} calls and chip variants (aged,
    drifted, biased, rescaled) of one die.  Computed once per code. *)
