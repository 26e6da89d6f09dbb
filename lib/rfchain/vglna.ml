(* Per-code hot-path setup, derived once from the chip's (pure) process
   draws on first use: the amplifier's polynomial, the noise stream's
   name and per-sample sigma, and the tag naming all three.  Memoising
   is bit-identical because every Process draw is a pure function of
   (chip, name), and it hoists the Printf name construction, the
   Nonlinear/Noise_source setup and their process draws out of every
   run. *)
type setup = {
  stage : Circuit.Nonlinear.t;
  noise_name : string;
  noise_sigma : float;
  tag : string;
}

type t = {
  chip : Circuit.Process.chip;
  fs : float;
  gain_error_db : float array;   (** per-code realised-gain deviation *)
  setups : setup option array;   (* per-code, lazily memoised *)
}

let levels = 16
let base_gain_db = 8.0
let step_db = 2.0

let create chip ~fs =
  let gain_error code =
    Circuit.Process.offset chip ~name:(Printf.sprintf "vglna.gain%d" code) ~sigma:0.4
  in
  { chip; fs; gain_error_db = Array.init levels gain_error; setups = Array.make levels None }

let check_code code =
  if code < 0 || code >= levels then invalid_arg "Vglna: gain code out of range"

let nominal_gain_db ~code = base_gain_db +. (step_db *. float_of_int code)

let gain_db t ~code =
  check_code code;
  nominal_gain_db ~code +. t.gain_error_db.(code)

let code_for_gain_db g =
  let code = int_of_float (Float.round ((g -. base_gain_db) /. step_db)) in
  max 0 (min (levels - 1) code)

let segment_code ~p_dbm =
  if p_dbm <= -45.0 then 14        (* [-85,-45]: high gain *)
  else if p_dbm <= -20.0 then 9    (* [-60,-20]: mid gain *)
  else 3                           (* [-40,0]:   low gain *)

let noise_figure_db t ~code =
  check_code code;
  let nominal = 3.0 +. ((float_of_int (levels - 1 - code)) *. 0.35) in
  Circuit.Process.parameter t.chip
    ~name:(Printf.sprintf "vglna.nf%d" code)
    ~nominal ~sigma_pct:4.0

let iip3_dbm t ~code =
  check_code code;
  let nominal = -10.0 +. (float_of_int (levels - 1 - code) *. 1.2) in
  nominal +. Circuit.Process.offset t.chip ~name:(Printf.sprintf "vglna.iip3%d" code) ~sigma:0.5

let setup t ~code =
  match t.setups.(code) with
  | Some s -> s
  | None ->
    let gain = Sigkit.Decibel.power_ratio_of_db (gain_db t ~code /. 2.0) in
    (* power_ratio_of_db(g/2) = 10^(g/20): voltage gain. *)
    let stage = Circuit.Nonlinear.create ~gain ~iip3_dbm:(iip3_dbm t ~code) ~rail:1.4 () in
    let noise_name = Printf.sprintf "vglna.noise%d" code in
    let noise_sigma =
      Circuit.Noise_source.sigma_of_noise_figure ~nf_db:(noise_figure_db t ~code) ~fs:t.fs
    in
    (* Everything [run_inplace] does to a record besides its length:
       the noise batch, a function of (seed, stream name)
       ([Process.noise_batch]), and the arithmetic, a function of sigma
       and the polynomial.  Floats in exact hex. *)
    let a1, a2, a3, rail = Circuit.Nonlinear.coefficients stage in
    let tag =
      Printf.sprintf "%d:%s:%h:%h:%h:%h:%h" (Circuit.Process.seed t.chip) noise_name noise_sigma
        a1 a2 a3 rail
    in
    let s = { stage; noise_name; noise_sigma; tag } in
    t.setups.(code) <- Some s;
    s

let tag t ~code =
  check_code code;
  (setup t ~code).tag

(* Workspace slot for the batched noise draw (see DESIGN §15). *)
let noise_slot = 13

let run_inplace t ~code buf =
  check_code code;
  let s = setup t ~code in
  let n = Array.length buf in
  (* The noise stream restarts at its origin every run (as
     Noise_source.create would), so every run of this die and code at
     this length reads the same batch: drawn once, then kept in the
     tagged slot.  gaussian_fill draws the same sequence as the
     per-sample Noise_source.sample calls it replaces. *)
  let nbuf = Circuit.Process.noise_batch t.chip ~name:s.noise_name ~slot:noise_slot ~n in
  let sigma = s.noise_sigma in
  let a1, a2, a3, rail = Circuit.Nonlinear.coefficients s.stage in
  let railed = Float.is_finite rail in
  for i = 0 to n - 1 do
    let x = Array.unsafe_get buf i +. (sigma *. Array.unsafe_get nbuf i) in
    (* Nonlinear.apply, replicated expression-for-expression so direct
       float stores keep the loop unboxed. *)
    let y = (a1 *. x) +. (a2 *. x *. x) +. (a3 *. x *. x *. x) in
    Array.unsafe_set buf i (if railed then rail *. tanh (y /. rail) else y)
  done

let run t ~code input =
  let out = Array.copy input in
  run_inplace t ~code out;
  out
