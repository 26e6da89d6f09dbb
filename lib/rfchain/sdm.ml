type tank = {
  theta : float;
  l_henry : float;
  c_farad : float;
}

type t = {
  chip : Circuit.Process.chip;
  fs : float;
  config : Config.t;
  tank1 : tank;
  tank2 : tank;
  r : float;                   (* Q-enhancement pole radius *)
  gmin : float;                (* input transconductance gain *)
  gmin_stage : Circuit.Nonlinear.t;
  gdac : float;                (* feedback DAC gain *)
  dac_mismatch : float;        (* residual level mismatch after trim *)
  preamp_gain : float;
  comp_offset : float;         (* residual comparator offset after trim *)
  comp_hysteresis : float;     (* regeneration dead zone, bias-dependent *)
  comp_noise_sigma : float;    (* decision noise referred to preamp output *)
  delay_samples : float;       (* fractional excess loop delay *)
  input_noise_sigma : float;   (* modulator input-referred circuit noise *)
  buffer_gain : float;         (* calibration output buffer, when in path *)
}

(* Design constants of the case study (65 nm, 0.5 nH tank). *)
let l_nominal = 0.5e-9
let coarse_unit = 80e-15
let fine_unit = 0.35e-15
let fixed_cap = 4.3e-12

(* Trim DACs: 6-bit codes, mid-code = unity. *)
let trim6 code = 0.52 +. (0.015 *. float_of_int code)

(* The die's configuration-independent process draws at one sampling
   rate: everything [of_draws] needs besides the word.  Each field is
   one named [Process] draw (or a pure function of one), so splitting
   [create] at this boundary is bit-identical. *)
type draws = {
  d_chip : Circuit.Process.chip;
  d_fs : float;
  c_coarse : Circuit.Cap_array.t;  (* tank 1 coarse array *)
  c_fine : Circuit.Cap_array.t;    (* tank 1 fine array *)
  c_fixed : float;
  l1 : float;
  tank2_dl : float;                (* tank 2 relative offsets from tank 1 *)
  tank2_dc : float;
  gmin_nom : float;
  gmin_sweet : int;
  gdac_nom : float;
  dac_mismatch_raw : float;
  comp_offset_raw : float;
  comp_noise : float;
  comp_sweet : int;
  delay_code : int;                (* required loop-delay code at [d_fs] *)
  input_noise : float;
  r_base : float;
  r_slope : float;
}

let required_delay_code chip ~fs =
  let skew = Circuit.Process.offset chip ~name:"sdm.delay_skew" ~sigma:1.5 in
  let code = Float.round (4.0 +. (4.0 *. fs /. 12e9) +. skew) in
  max 0 (min 15 (int_of_float code))

(* A per-die bias optimum in [8, 56], the transconductor's and the
   comparator's. *)
let sweet_spot chip ~name ~sigma =
  let d = Circuit.Process.offset chip ~name ~sigma in
  max 8 (min 56 (32 + int_of_float (Float.round d)))

let draws chip ~fs =
  let prefix = "sdm.tank1" in
  let arrays name bits unit =
    Circuit.Cap_array.create chip ~name:(prefix ^ "." ^ name) ~bits ~unit_cap:unit
      ~mismatch_sigma_pct:1.0
  in
  {
    d_chip = chip;
    d_fs = fs;
    c_coarse = arrays "cc" 8 coarse_unit;
    c_fine = arrays "cf" 8 fine_unit;
    c_fixed =
      Circuit.Process.parameter chip ~name:(prefix ^ ".cfixed") ~nominal:fixed_cap ~sigma_pct:5.0;
    l1 = Circuit.Process.parameter chip ~name:(prefix ^ ".L") ~nominal:l_nominal ~sigma_pct:8.0;
    (* The two tanks sit side by side on-die and share the tuning
       codes; they track each other to local-mismatch accuracy (~0.3%),
       not to the global-corner accuracy of independent draws. *)
    tank2_dl = Circuit.Process.offset chip ~name:"sdm.tank2.dl" ~sigma:0.003;
    tank2_dc = Circuit.Process.offset chip ~name:"sdm.tank2.dc" ~sigma:0.003;
    gmin_nom = Circuit.Process.parameter chip ~name:"sdm.gmin" ~nominal:1.0 ~sigma_pct:5.0;
    (* The transconductor's linearity peaks at a per-die bias sweet spot. *)
    gmin_sweet = sweet_spot chip ~name:"sdm.gmin_sweet" ~sigma:3.0;
    gdac_nom = Circuit.Process.parameter chip ~name:"sdm.gdac" ~nominal:1.0 ~sigma_pct:5.0;
    dac_mismatch_raw = Circuit.Process.offset chip ~name:"sdm.dac_mismatch" ~sigma:0.0015;
    comp_offset_raw = Circuit.Process.offset chip ~name:"sdm.comp_offset" ~sigma:0.03;
    comp_noise =
      Circuit.Process.parameter chip ~name:"sdm.comp_noise" ~nominal:0.004 ~sigma_pct:10.0;
    (* Regeneration strength peaks at a per-die comparator bias; away
       from it the dead zone widens and injects in-band noise. *)
    comp_sweet = sweet_spot chip ~name:"sdm.comp_sweet" ~sigma:4.0;
    delay_code = required_delay_code chip ~fs;
    input_noise =
      Circuit.Process.parameter chip ~name:"sdm.input_noise" ~nominal:0.0105 ~sigma_pct:8.0;
    r_base = Circuit.Process.parameter chip ~name:"sdm.r_base" ~nominal:0.968 ~sigma_pct:0.4;
    r_slope = Circuit.Process.parameter chip ~name:"sdm.r_slope" ~nominal:1.05e-3 ~sigma_pct:3.0;
  }

let of_draws d (config : Config.t) =
  let fs = d.d_fs in
  let tank1 =
    let l = d.l1 in
    let c =
      d.c_fixed
      +. Circuit.Cap_array.capacitance d.c_coarse config.cap_coarse
      +. Circuit.Cap_array.capacitance d.c_fine config.cap_fine
    in
    { theta = Circuit.Resonator.theta_of_lc ~l ~c ~fs; l_henry = l; c_farad = c }
  in
  let tank2 =
    let l = tank1.l_henry *. (1.0 +. d.tank2_dl) and c = tank1.c_farad *. (1.0 +. d.tank2_dc) in
    { theta = Circuit.Resonator.theta_of_lc ~l ~c ~fs; l_henry = l; c_farad = c }
  in
  let gmin = d.gmin_nom *. trim6 config.gmin_bias in
  let gmin_iip3 = 16.0 -. (0.4 *. float_of_int (abs (config.gmin_bias - d.gmin_sweet))) in
  let gdac = d.gdac_nom *. trim6 config.dac_bias in
  let dac_mismatch = d.dac_mismatch_raw -. (float_of_int (config.dac_trim - 2) *. 0.001) in
  let preamp_gain = 0.2 +. (0.05 *. float_of_int config.preamp_bias) in
  let comp_offset =
    d.comp_offset_raw
    -. (float_of_int (config.comp_bias - 32) *. 0.002)
    -. (float_of_int (config.preamp_trim - 2) *. 0.004)
  in
  let comp_hysteresis =
    0.0003 +. (0.002 *. float_of_int (abs (config.comp_bias - d.comp_sweet)))
  in
  let delay_samples = 0.25 *. Float.abs (float_of_int (config.loop_delay - d.delay_code)) in
  let buffer_gain =
    if config.cal_buffer_enable then 0.88 +. (0.04 *. float_of_int config.out_buffer) else 1.0
  in
  {
    chip = d.d_chip;
    fs;
    config;
    tank1;
    tank2;
    r = d.r_base +. (d.r_slope *. float_of_int config.gm_q);
    gmin;
    gmin_stage = Circuit.Nonlinear.create ~gain:1.0 ~iip3_dbm:gmin_iip3 ~rail:1.5 ();
    gdac;
    dac_mismatch;
    preamp_gain;
    comp_offset;
    comp_hysteresis;
    comp_noise_sigma = d.comp_noise;
    delay_samples;
    input_noise_sigma = d.input_noise;
    buffer_gain;
  }

let create chip ~fs config = of_draws (draws chip ~fs) config

let tank_frequency t = 1.0 /. (2.0 *. Float.pi *. sqrt (t.tank1.l_henry *. t.tank1.c_farad))
let pole_radius t = t.r
let oscillates t = t.r >= 1.0
let signal_gain t = t.gmin /. t.gdac

let osc_probes = Telemetry.Counter.make "sdm.osc_probes"

let global_probe_count () = Telemetry.Counter.value osc_probes

let oscillation_frequency t ~n =
  Telemetry.Counter.incr osc_probes;
  Telemetry.Span.with_ ~name:"sdm.oscillation_probe" (fun () ->
      let res = Circuit.Resonator.create ~theta:t.tank1.theta ~r:t.r ~limit:1.2 () in
      Circuit.Resonator.oscillation_frequency res ~fs:t.fs ~n)

(* Loop-filter feedback coefficients of the z -> -z^2 mapped MOD2:
   k1 = 1 (outer feedback, through both resonators), k2 = -2 (inner). *)
let k1 = 1.0
let k2 = -2.0

let runs = Telemetry.Counter.make "sdm.runs"
let steps = Telemetry.Counter.make "sdm.steps"

(* Which inner loop a run took.  The choice is a function of the word
   and the die, so the pair does not depend on the lane. *)
let fused_runs = Telemetry.Counter.make "sdm.path.fused"
let generic_runs = Telemetry.Counter.make "sdm.path.generic"

(* Decision history length for the feedback DAC: a power of two so the
   circular index is a mask, deep enough for the largest delay code. *)
let hist_len = 8
let hist_mask = hist_len - 1

(* Fused inner loop for the normal operating mode (clocked comparator,
   loop closed, input on, calibration buffer out of the path — every
   measurement-side evaluation of a key lands here).  All per-sample
   branches of the generic loop are decided before the loop; resonator
   and comparator states live in local floats (the recurrences are
   replicated expression-for-expression from [Circuit.Resonator] and
   [Circuit.Comparator], so the output is bit-identical to the generic
   path); noise comes pre-filled; the history shift is a masked
   circular index.  Array accesses are unsafe after one bounds check
   ([input], [output], and both noise buffers have length >= n). *)
let run_fused t ~n ~comp_noise_sigma ~d_int ~d_frac ~comp_buf ~input_buf input output =
  let a1_1 = 2.0 *. t.r *. cos t.tank1.theta in
  let a1_2 = 2.0 *. t.r *. cos t.tank2.theta in
  let a2 = -.(t.r *. t.r) in
  let limit = 50.0 in
  let r1y1 = ref 0.0 and r1y2 = ref 0.0 and r1x1 = ref 0.0 and r1x2 = ref 0.0 in
  let r2y1 = ref 0.0 and r2y2 = ref 0.0 and r2x1 = ref 0.0 and r2x2 = ref 0.0 in
  let comp_prev = ref 1.0 in
  let preamp = t.preamp_gain in
  let offset = t.comp_offset and hyst = t.comp_hysteresis in
  let gdac = t.gdac and mismatch = t.dac_mismatch in
  let gmin = t.gmin in
  (* Input transconductor nonlinearity, inlined from Nonlinear.apply
     (same expression, so bit-identical) to keep the per-sample result
     unboxed. *)
  let g_a1, g_a2, g_a3, g_rail = Circuit.Nonlinear.coefficients t.gmin_stage in
  let g_railed = Float.is_finite g_rail in
  let in_sigma = t.input_noise_sigma in
  let fa = 1.0 -. d_frac in
  let hist = Array.make hist_len 0.0 in
  let head = ref 0 in
  for i = 0 to n - 1 do
    (* Cancellation point: a deadline or SIGINT stops the capture
       within 4096 samples (raises; never perturbs the recurrence). *)
    Telemetry.Cancel.tick_poll i;
    (* Resonator 1 output (uses only past inputs). *)
    let w1 =
      let y = (a1_1 *. !r1y1) +. (a2 *. !r1y2) +. !r1x2 in
      let y = if y > limit then limit else if y < -.limit then -.limit else y in
      r1y2 := !r1y1;
      r1y1 := y;
      r1x2 := !r1x1;
      y
    in
    let w2 =
      let y = (a1_2 *. !r2y1) +. (a2 *. !r2y2) +. !r2x2 in
      let y = if y > limit then limit else if y < -.limit then -.limit else y in
      r2y2 := !r2y1;
      r2y1 := y;
      r2x2 := !r2x1;
      y
    in
    let s = preamp *. (w2 +. 0.0) in
    (* Clocked comparator with hysteresis. *)
    let v_in = s +. offset +. (comp_noise_sigma *. Array.unsafe_get comp_buf i) in
    let v =
      if Float.abs v_in <= hyst then !comp_prev else if v_in > 0.0 then 1.0 else -1.0
    in
    comp_prev := v;
    (* Circular decision history; tap k of the seed's shifted array is
       the decision k samples old, i.e. index (head + k) under the mask. *)
    let h = (!head + hist_mask) land hist_mask in
    head := h;
    Array.unsafe_set hist h v;
    let v_delayed =
      (fa *. Array.unsafe_get hist ((h + d_int) land hist_mask))
      +. (d_frac *. Array.unsafe_get hist ((h + d_int + 1) land hist_mask))
    in
    let fb = gdac *. (v_delayed +. mismatch) in
    let u =
      let x = Array.unsafe_get input i in
      let y = (g_a1 *. x) +. (g_a2 *. x *. x) +. (g_a3 *. x *. x *. x) in
      let y = if g_railed then g_rail *. tanh (y /. g_rail) else y in
      (gmin *. y) +. (in_sigma *. Array.unsafe_get input_buf i)
    in
    r1x1 := u -. (k1 *. fb);
    r2x1 := w1 -. (k2 *. fb);
    Array.unsafe_set output i v
  done

let run_into t input output =
  let n = Array.length input in
  if Array.length output < n then invalid_arg "Sdm.run_into: output shorter than input";
  Telemetry.Counter.incr runs;
  Telemetry.Counter.add steps n;
  Telemetry.Span.with_ ~name:"sdm.run" (fun () ->
  let cfg = t.config in
  (* Without the clock the latch never regenerates: its full
     input-referred noise shows up on the buffered output. *)
  let comp_noise_sigma =
    if cfg.comp_clock_enable then t.comp_noise_sigma else Float.max t.comp_noise_sigma 0.05
  in
  let d_int = min (hist_len - 2) (int_of_float (Float.floor t.delay_samples)) in
  let d_frac = t.delay_samples -. float_of_int d_int in
  let fused =
    cfg.comp_clock_enable && cfg.fb_enable && cfg.gmin_enable
    && (not cfg.cal_buffer_enable) && comp_noise_sigma > 0.0
  in
  if fused then begin
    Telemetry.Counter.incr fused_runs;
    (* Both noise streams as pre-filled batches: each stream restarts at
       its origin every run, so batching the draws preserves the exact
       sequence, and consecutive runs of one die at one length share
       the batches through their tagged slots. *)
    let comp_buf = Circuit.Process.noise_batch t.chip ~name:"run.comp" ~slot:8 ~n in
    let input_buf = Circuit.Process.noise_batch t.chip ~name:"run.input" ~slot:9 ~n in
    run_fused t ~n ~comp_noise_sigma ~d_int ~d_frac ~comp_buf ~input_buf input output
  end
  else begin
    Telemetry.Counter.incr generic_runs;
    let comp_noise = Circuit.Process.noise_stream t.chip ~name:"run.comp" in
    let input_noise = Circuit.Process.noise_stream t.chip ~name:"run.input" in
    (* Generic path: calibration buffer mode, open-loop and ablation
       configurations.  Same structure as the fused loop but through
       the circuit modules, with noise drawn sample by sample. *)
    let res1 = Circuit.Resonator.create ~theta:t.tank1.theta ~r:t.r ~limit:50.0 () in
    let res2 = Circuit.Resonator.create ~theta:t.tank2.theta ~r:t.r ~limit:50.0 () in
    let comp_mode =
      if cfg.comp_clock_enable then Circuit.Comparator.Clocked else Circuit.Comparator.Buffer
    in
    let comparator =
      Circuit.Comparator.create ~mode:comp_mode ~offset:t.comp_offset
        ~hysteresis:t.comp_hysteresis ~noise:comp_noise ~noise_sigma:comp_noise_sigma ()
    in
    (* Opening the feedback loop removes the DAC's DC path that defines
       the loop filter's operating point: the comparator input floats to
       a large offset. *)
    let open_loop_offset = if cfg.fb_enable then 0.0 else 0.5 in
    (* An unclocked comparator output crosses into the clocked digital
       domain asynchronously: no retiming, so the effective sampling
       instant wanders (metastability + clock skew).  ~0.2 samples rms at
       12 GS/s; first-order jitter error is slope * delta_t.  The clocked
       path is synchronous and jitter-free. *)
    let jitter_noise = Circuit.Process.noise_stream t.chip ~name:"run.jitter" in
    let jitter_sigma = if cfg.comp_clock_enable then 0.0 else 0.2 in
    let v_prev = ref 0.0 in
    (* Fractional loop-delay error is modelled as linear interpolation
       between decision-history taps (a shifted DAC pulse delivers
       charge split across two periods). *)
    let hist = Array.make hist_len 0.0 in
    let head = ref 0 in
    for i = 0 to n - 1 do
      Telemetry.Cancel.tick_poll i;
      (* Forward path first: both resonator outputs depend only on past
         loop inputs, so no algebraic loop arises. *)
      let w1 = Circuit.Resonator.output res1 in
      let w2 = Circuit.Resonator.output res2 in
      let s = t.preamp_gain *. (w2 +. open_loop_offset) in
      let v = Circuit.Comparator.step comparator s in
      let h = (!head + hist_mask) land hist_mask in
      head := h;
      hist.(h) <- v;
      let v_delayed =
        ((1.0 -. d_frac) *. hist.((h + d_int) land hist_mask))
        +. (d_frac *. hist.((h + d_int + 1) land hist_mask))
      in
      let fb = if cfg.fb_enable then t.gdac *. (v_delayed +. t.dac_mismatch) else 0.0 in
      let u =
        let signal =
          if cfg.gmin_enable then t.gmin *. Circuit.Nonlinear.apply t.gmin_stage input.(i)
          else 0.0
        in
        signal +. (t.input_noise_sigma *. Sigkit.Rng.gaussian input_noise)
      in
      Circuit.Resonator.feed res1 (u -. (k1 *. fb));
      Circuit.Resonator.feed res2 (w1 -. (k2 *. fb));
      let v_sampled =
        if jitter_sigma = 0.0 then v
        else begin
          let slope = v -. !v_prev in
          v_prev := v;
          v +. (jitter_sigma *. Sigkit.Rng.gaussian jitter_noise *. slope)
        end
      in
      output.(i) <-
        (if cfg.cal_buffer_enable then 1.2 *. tanh (t.buffer_gain *. v_sampled /. 1.2)
         else v_sampled)
    done
  end)

let run t input =
  let output = Array.make (Array.length input) 0.0 in
  run_into t input output;
  output
