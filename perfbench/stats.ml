(* Order statistics over float samples, linear interpolation between
   closest ranks. *)

let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (Array.length a - 1) (lo + 1) in
    let w = pos -. float_of_int lo in
    (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

let ratio num den = if den = 0.0 then 0.0 else num /. den
