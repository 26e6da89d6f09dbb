(** Band-pass RF sigma-delta modulator (behavioural model of paper Fig. 6).

    Architecture: input transconductance [Gmin], an LC band-pass loop
    filter realised as two cascaded tunable resonators with coarse/fine
    capacitor arrays [Cc]/[Cf] and a Q-enhancement negative-Gm cell, a
    pre-amplifier, a clocked 1-bit comparator, a programmable loop
    delay, a feedback DAC, and an output buffer used during calibration.

    The discrete-time prototype is the 4th-order fs/4 band-pass
    modulator obtained from the second-order low-pass modulator by the
    [z -> -z^2] mapping: with both resonators tuned to fs/4 (pole radius
    1) and feedback coefficients [k1 = 1, k2 = -2] the noise transfer
    function is exactly [(1 + z^-2)^2] — a noise notch at the carrier.
    Every knob of the 64-bit configuration word perturbs this loop the
    way the physical block would:

    - [cap_coarse]/[cap_fine] move the resonator angles via the LC tank;
    - [gm_q] moves the pole radius (above 1 the tank self-oscillates:
      calibration's oscillation mode);
    - [gmin_bias]/[dac_bias] scale signal and loop gain;
    - [preamp_bias], [comp_bias], [preamp_trim] set the comparator's
      effective input noise, offset and hysteresis;
    - [loop_delay] mis-sets the DAC timing (fractional-delay error);
    - the mode bits open/close the loop, clock or bypass the comparator,
      enable the input and insert the calibration buffer. *)

type t

val create : Circuit.Process.chip -> fs:float -> Config.t -> t
(** Instantiate the modulator of one die at sampling rate [fs] under a
    configuration word: [of_draws (draws chip ~fs) config].  Makes the
    die's 33 named process draws afresh on every call; a caller that
    instantiates one die under many words should keep the {!draws} and
    use {!of_draws}, as {!Receiver} does. *)

type draws
(** The die's configuration-independent process draws at one sampling
    rate: the tank-1 capacitor arrays, fixed capacitor and inductor,
    the tank-2 offsets, the gm/DAC/comparator/input-noise parameters,
    the per-die bias sweet spots, the required loop-delay code and the
    Q-enhancement base and slope.  Immutable. *)

val draws : Circuit.Process.chip -> fs:float -> draws
(** Make the die's draws.  Each is a pure function of the chip and its
    parameter name, so the result is a pure function of [(chip, fs)]. *)

val of_draws : draws -> Config.t -> t
(** The modulator under one word: per-word arithmetic on the draws, no
    process draw.  [of_draws (draws chip ~fs) config] is structurally
    equal to [create chip ~fs config], field for field. *)

val run : t -> float array -> float array
(** Simulate sample by sample.  Input is the (post-VGLNA) analog record;
    output is the modulator output: a +-1 bitstream when the comparator
    is clocked, an analog waveform when it is in buffer mode.  Thin
    allocating wrapper over {!run_into}. *)

val run_into : t -> float array -> float array -> unit
(** [run_into t input output] writes the modulator output for [input]
    into the first [Array.length input] cells of [output] (which must be
    at least that long; every cell in that range is overwritten, so a
    stale scratch buffer is fine).  [output] must not alias [input].
    On the fused loop (clocked comparator, loop closed, input on,
    calibration buffer out) the noise batches come from the tagged
    {!Sigkit.Workspace} slots 8-9 through
    {!Circuit.Process.noise_batch}; every other word draws sample by
    sample.  Each run bumps the [sdm.path.fused] or [sdm.path.generic]
    counter accordingly.  Bit-identical to {!run}. *)

val tank_frequency : t -> float
(** True resonance frequency of the (first) tank under this die and
    configuration — ground truth for tests; not observable on silicon. *)

val pole_radius : t -> float
(** Realised Q-enhancement pole radius for this configuration. *)

val oscillates : t -> bool
(** Whether the tank self-oscillates (pole radius >= 1) — what a bench
    engineer observes in calibration oscillation mode. *)

val oscillation_frequency : t -> n:int -> float option
(** Open-loop oscillation-mode measurement (calibration steps 5-6):
    kick the tank and measure the output frequency.  [None] when the
    oscillation dies out (step 7's vanishing test). *)

val global_probe_count : unit -> int
(** Process-wide count of oscillation-mode probes performed, from the
    always-on telemetry counter [sdm.osc_probes].  Together with
    {!Metrics.Measure.global_trial_count} this is the complete
    measurement odometer an oracle-query audit reads. *)

val required_delay_code : Circuit.Process.chip -> fs:float -> int
(** The loop-delay code that exactly compensates this die's excess loop
    delay at [fs] — design knowledge the calibration derives from the
    sampling frequency (paper step 11). *)

val signal_gain : t -> float
(** In-band signal transfer gain (gmin / gdac), for level planning. *)
