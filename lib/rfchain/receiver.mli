(** The complete programmable multi-standard RF receiver (paper Fig. 4).

    Chain: VGLNA -> band-pass RF sigma-delta modulator -> digital fs/4
    down-conversion mixer -> digital decimation filter.  The analog
    section is configured by the 64-bit {!Config} word (the secret key
    under the locking scheme); the digital section by the 3-bit
    {!Decimator.config}.

    The digital section's input is a single-bit port: whatever waveform
    the modulator emits is hard-sliced to +-1 at that boundary.  For a
    correctly keyed chip this is the identity (the output already is a
    bitstream); for the "deceptive" open-loop keys of Fig. 7 it is what
    collapses the receiver-output SNR in Fig. 9. *)

type t

type result = {
  mod_output : float array;   (** modulator output at [fs] (settle dropped) *)
  baseband_i : float array;   (** decimated in-phase channel *)
  baseband_q : float array;   (** decimated quadrature channel *)
  fs : float;                 (** modulator sampling rate *)
  fs_baseband : float;        (** decimated output rate *)
}

val create :
  ?fabric:(Config.t -> Config.t) ->
  ?rf_fault:(float array -> float array) ->
  Circuit.Process.chip ->
  Standards.t ->
  t
(** [fabric] models a faulty programming fabric: it rewrites the
    configuration word between the key register and the analog knobs
    (stuck programming bits, transient register upsets) and applies to
    every run, including calibration — the golden path passes no hook
    and is untouched.  [rf_fault] perturbs the antenna-referred input
    record (burst noise / interferers) before the VGLNA.

    The die's {!Vglna.t} and modulator draws ({!Sdm.draws}) come from a
    one-entry memo per domain, keyed on the chip's physical identity
    ([==]) and [fs]: receivers created one after another for the same
    chip value share them, so a per-eval receiver costs no process
    draw.  A chip is immutable, so the key is exact; a transformed copy
    ({!Circuit.Process.age} and the like) is another value and draws
    afresh. *)

val chip : t -> Circuit.Process.chip
val standard : t -> Standards.t
val fs : t -> float

val has_hooks : t -> bool
(** True when a [fabric] or [rf_fault] hook is installed.  A hook-free
    receiver is a pure function of its chip fingerprint, which is what
    lets the evaluation engine cache its measurements. *)

val fabric : t -> (Config.t -> Config.t) option
val rf_fault : t -> (float array -> float array) option
(** The injection hooks as passed to {!create} — exposed so the
    evaluation engine can rebuild an equivalent receiver from a request
    without this module depending on the engine. *)

val run :
  t ->
  analog:Config.t ->
  ?digital:Decimator.config ->
  ?settle:int ->
  ?slice:bool ->
  input:float array ->
  unit ->
  result
(** Simulate the chain on an antenna-referred input record (volts into
    50 ohm).  [settle] extra samples (default 1024) are prepended and
    dropped so records are steady-state.  [slice] (default true) keeps
    the digital section's 1-bit input boundary; false is the ablation
    that pretends the digital section accepted analog samples.
    Equivalent to {!modulate}, then {!baseband} on its result, then a
    copy of the last [Array.length input] bits into [mod_output]. *)

type stimulus =
  | Tone of string      (** a single tone or long capture, named by the string *)
  | Two_tone of string  (** a two-tone record, named by the string *)
(** An exact name for an input record: the string must name everything
    the record's samples depend on besides its length (power,
    frequencies, sample rate; floats in exact hex). *)

val modulate :
  t ->
  analog:Config.t ->
  ?settle:int ->
  ?stimulus:stimulus ->
  input:float array ->
  unit ->
  float array
(** The analog half of {!run}: settle prefix, VGLNA and modulator.
    Returns the full modulator bitstream, [settle + Array.length input]
    samples with the settle prefix first, so its last
    [Array.length input] samples are {!run}'s [mod_output].

    Front-end memo: with [stimulus], and on a receiver without an
    [rf_fault] hook, the settle-extended, VGLNA-conditioned record is
    kept in a tagged {!Sigkit.Workspace} slot (6 for [Tone], 14 for
    [Two_tone]).  Its tag is the stimulus name, the settle length, the
    record length and {!Vglna.tag} at the word's gain code, so the next
    call on this domain with the same die, gain code and stimulus skips
    the settle copy and the VGLNA.  [input] must then be the record the
    name describes.  Without [stimulus], or with an [rf_fault] hook, the
    record is rebuilt in slot 6 untagged.  The output is the same
    either way.  A [Two_tone] call also drops slots 6 and 13 (the VGLNA
    noise batch) when they hold another length, such as a long
    capture's: a two-tone hit runs no VGLNA, so without this they would
    outlive the capture.

    Lifetime: the result is {!Sigkit.Workspace} slot 7 of the calling
    domain, not a fresh array.  It stays valid until the next
    [modulate] or [run] on this domain, and the caller must not write
    to it or hand it to another domain.  This is the one exception to
    the rule that the chain returns fresh arrays (DESIGN §15 rule (d)):
    modulator-only measurements read the record in place. *)

val baseband :
  ?digital:Decimator.config -> ?slice:bool -> float array -> n:int -> float array * float array
(** The digital half of {!run}: the fs/4 mixer and the decimator on the
    last [n] samples of a bitstream (typically {!modulate}'s result).
    Returns the decimated (i, q) channels, freshly allocated.
    [digital] and [slice] as in {!run}. *)

val test_tone_frequency : t -> n:int -> float
(** The single-tone test frequency used throughout the evaluation: a
    coherent bin frequency one third of the half-band above the
    carrier, for an [n]-point FFT at [fs]. *)

val sdm_of_config : t -> Config.t -> Sdm.t
(** The modulator instance this receiver would run under a given word —
    exposed for calibration (oscillation mode) and white-box tests.
    A [fabric] fault hook applies here too.  Built by {!Sdm.of_draws}
    from the receiver's memoised draws, so it equals
    [Sdm.create (chip t) ~fs:(fs t) (applied_config t config)]. *)

val applied_config : t -> Config.t -> Config.t
(** The word the analog knobs actually see: identity on a healthy
    receiver, the fault-rewritten word when a [fabric] hook is set. *)

val slice_to_bit : float array -> float array
(** The digital section's 1-bit input boundary. *)
