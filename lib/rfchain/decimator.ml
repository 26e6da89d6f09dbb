type config = {
  ratio_select : int;
  compensator : bool;
}

let default_config = { ratio_select = 2; compensator = true }

let config_of_bits bits = { ratio_select = bits land 3; compensator = bits land 4 <> 0 }

let bits_of_config c = (c.ratio_select land 3) lor (if c.compensator then 4 else 0)

let ratio c = 16 lsl c.ratio_select

let cic_order = 3

(* Workspace slot for the CIC intermediate (see DESIGN §15).  The two
   quadrature channels run sequentially, so one slot serves both. *)
let cic_slot = 12

(* CIC decimator: [order] integrators at the input rate, decimation by
   [r], [order] combs at the output rate, gain-normalised.  The result
   is a workspace scratch array — valid only until the next decimation
   on this domain; callers must consume it before then (the comb pass
   overwrites every cell before any is read, so stale contents are
   fine). *)
let cic ~r x =
  let n_out = Array.length x / r in
  if n_out = 0 then [||]
  else begin
    let acc = Array.make cic_order 0.0 in
    let decimated = Sigkit.Workspace.arr (Sigkit.Workspace.get ()) ~slot:cic_slot ~len:n_out in
    let out_idx = ref 0 in
    (* Samples left until the next output (every [r]-th), counted down
       so the loop divides nothing. *)
    let countdown = ref r in
    for i = 0 to (n_out * r) - 1 do
      acc.(0) <- acc.(0) +. x.(i);
      for s = 1 to cic_order - 1 do
        acc.(s) <- acc.(s) +. acc.(s - 1)
      done;
      decr countdown;
      if !countdown = 0 then begin
        countdown := r;
        decimated.(!out_idx) <- acc.(cic_order - 1);
        incr out_idx
      end
    done;
    (* Comb stages fused into one in-place pass: element j only needs
       each stage's previous output, so the [cic_order] separate
       [Array.map] allocations collapse into a [prev] vector, with the
       gain normalisation folded into the final stage.  The per-stage
       difference chain is evaluated in the same order as the staged
       version, so the result is bit-identical. *)
    let gain = float_of_int r ** float_of_int cic_order in
    let prev = Array.make cic_order 0.0 in
    for j = 0 to n_out - 1 do
      let d = ref (Array.unsafe_get decimated j) in
      for s = 0 to cic_order - 1 do
        let v = !d in
        d := v -. Array.unsafe_get prev s;
        Array.unsafe_set prev s v
      done;
      Array.unsafe_set decimated j (!d /. gain)
    done;
    decimated
  end

(* 31-tap Hann-windowed half-band low-pass for the final 2x stage: the
   sharp stage that keeps shaped quantization noise from aliasing into
   the channel (the CIC alone leaks ~-30 dB images). *)
let halfband_taps =
  let taps = 31 in
  let mid = taps / 2 in
  let h =
    Array.init taps (fun k ->
        let m = k - mid in
        let ideal =
          if m = 0 then 0.5
          else sin (Float.pi *. float_of_int m /. 2.0) /. (Float.pi *. float_of_int m)
        in
        let w = 0.5 -. (0.5 *. cos (2.0 *. Float.pi *. float_of_int k /. float_of_int (taps - 1))) in
        ideal *. w)
  in
  (* DC normalisation folded into the tap table, in place, once. *)
  let dc = Array.fold_left ( +. ) 0.0 h in
  for k = 0 to taps - 1 do
    h.(k) <- h.(k) /. dc
  done;
  h

let fir_decimate2 x =
  let n = Array.length x in
  let taps = Array.length halfband_taps in
  let half_taps = taps / 2 in
  let n_out = n / 2 in
  let out = Array.make n_out 0.0 in
  let h = halfband_taps in
  (* Interior outputs touch only in-range samples: no bounds tests and
     unsafe accesses; the two record edges keep the guarded loop. *)
  let j_lo = min n_out ((half_taps + 1) / 2) in
  let j_hi = max j_lo ((n - half_taps) / 2) in
  let edge j =
    let centre = 2 * j in
    let acc = ref 0.0 in
    for k = 0 to taps - 1 do
      let idx = centre + k - half_taps in
      if idx >= 0 && idx < n then acc := !acc +. (h.(k) *. x.(idx))
    done;
    out.(j) <- !acc
  in
  for j = 0 to j_lo - 1 do
    edge j
  done;
  for j = j_lo to j_hi - 1 do
    let base = (2 * j) - half_taps in
    let acc = ref 0.0 in
    for k = 0 to taps - 1 do
      acc := !acc +. (Array.unsafe_get h k *. Array.unsafe_get x (base + k))
    done;
    Array.unsafe_set out j !acc
  done;
  for j = j_hi to n_out - 1 do
    edge j
  done;
  out

(* Crude fallback 2x stage (compensator bit off): a two-sample average,
   which lets images through — the "wrong digital setting" behaviour. *)
let average_decimate2 x =
  Array.init (Array.length x / 2) (fun j -> 0.5 *. (x.(2 * j) +. x.((2 * j) + 1)))

let decimate c x =
  let r = ratio c in
  let mid = cic ~r:(r / 2) x in
  if c.compensator then fir_decimate2 mid else average_decimate2 mid

(* The [decimator.run] span, built only when spans record: off, it is
   one flag load and a branch. *)
let run_iq c (i_ch, q_ch) =
  if Telemetry.Control.enabled () then
    Telemetry.Span.with_ ~name:"decimator.run" (fun () -> (decimate c i_ch, decimate c q_ch))
  else (decimate c i_ch, decimate c q_ch)
