(* Every tone writer goes through this loop, so the allocating and the
   in-place stimuli are one expression.  [add] sums the tone onto
   [out] instead of overwriting it.  Explicit fill: Array.init would
   box every sample through the closure. *)
let write_tone ~add ~amplitude ~freq ~fs ~phase out =
  let w = 2.0 *. Float.pi *. freq /. fs in
  for i = 0 to Array.length out - 1 do
    let v = amplitude *. sin ((w *. float_of_int i) +. phase) in
    Array.unsafe_set out i (if add then Array.unsafe_get out i +. v else v)
  done

let tone_into ~amplitude ~freq ~fs ?(phase = 0.0) out =
  write_tone ~add:false ~amplitude ~freq ~fs ~phase out

let tone ~amplitude ~freq ~fs ?(phase = 0.0) n =
  let out = Array.make n 0.0 in
  tone_into ~amplitude ~freq ~fs ~phase out;
  out

let tone_dbm ~p_dbm ~freq ~fs ?(phase = 0.0) n =
  tone ~amplitude:(Decibel.amplitude_of_dbm p_dbm) ~freq ~fs ~phase n

let two_tone_dbm_into ~p_dbm ~f1 ~f2 ~fs out =
  let amplitude = Decibel.amplitude_of_dbm p_dbm in
  write_tone ~add:false ~amplitude ~freq:f1 ~fs ~phase:0.0 out;
  write_tone ~add:true ~amplitude ~freq:f2 ~fs ~phase:(Float.pi /. 3.0) out

let two_tone_dbm ~p_dbm ~f1 ~f2 ~fs n =
  let out = Array.make n 0.0 in
  two_tone_dbm_into ~p_dbm ~f1 ~f2 ~fs out;
  out

let add a b =
  if Array.length a <> Array.length b then invalid_arg "Waveform.add: length mismatch";
  Array.mapi (fun i x -> x +. b.(i)) a

let scale k = Array.map (fun x -> k *. x)

let gaussian_noise rng ~sigma n = Array.init n (fun _ -> sigma *. Rng.gaussian rng)

let rms x =
  let acc = ref 0.0 in
  Array.iter (fun v -> acc := !acc +. (v *. v)) x;
  sqrt (!acc /. float_of_int (max 1 (Array.length x)))

let peak x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let mean x =
  if Array.length x = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 x /. float_of_int (Array.length x)

let coherent_frequency ~freq ~fs ~n =
  let k = Float.round (freq *. float_of_int n /. fs) in
  let k = if k < 1.0 then 1.0 else k in
  (* Prefer an odd bin index: coherent-sampling practice. *)
  let ki = int_of_float k in
  let ki = if ki mod 2 = 0 then ki + 1 else ki in
  float_of_int ki *. fs /. float_of_int n
