(* The workspace variant fuses the digital section's 1-bit slicing into
   the mix and writes both channels at every index: the allocating
   wrapper relied on Array.make zeroing the idle channel, but a reused
   scratch buffer carries stale data. *)
let mix ~slice src ~pos ~n ~i_out ~q_out =
  if pos < 0 || pos + n > Array.length src then invalid_arg "Mixer.downconvert_into: bad window";
  if Array.length i_out < n || Array.length q_out < n then
    invalid_arg "Mixer.downconvert_into: output shorter than window";
  for k = 0 to n - 1 do
    let x = Array.unsafe_get src (pos + k) in
    let x = if slice then (if x >= 0.0 then 1.0 else -1.0) else x in
    (* cos(pi k / 2) on I, -sin(pi k / 2) on Q. *)
    match k land 3 with
    | 0 ->
      Array.unsafe_set i_out k x;
      Array.unsafe_set q_out k 0.0
    | 1 ->
      Array.unsafe_set i_out k 0.0;
      Array.unsafe_set q_out k (-.x)
    | 2 ->
      Array.unsafe_set i_out k (-.x);
      Array.unsafe_set q_out k 0.0
    | _ ->
      Array.unsafe_set i_out k 0.0;
      Array.unsafe_set q_out k x
  done

(* The [mixer.downconvert] span, built only when spans record: off, it
   is one flag load and a branch. *)
let downconvert_into ?(slice = false) src ~pos ~n ~i_out ~q_out =
  if Telemetry.Control.enabled () then
    Telemetry.Span.with_ ~name:"mixer.downconvert" (fun () -> mix ~slice src ~pos ~n ~i_out ~q_out)
  else mix ~slice src ~pos ~n ~i_out ~q_out

let downconvert x =
  let n = Array.length x in
  let i_out = Array.make n 0.0 and q_out = Array.make n 0.0 in
  downconvert_into x ~pos:0 ~n ~i_out ~q_out;
  (i_out, q_out)
