(* Every input of a run — dies, keys, attack and campaign seeds — is a
   keyed mix of the workload seed, so one --seed fixes them all and
   two streams never share a value by construction. *)

type stream =
  | Reference_die
  | Attacker_die
  | Query_keys
  | Ga
  | Sa
  | Lot_die
  | Campaign
  | Replay
  | Probe

let stream_id = function
  | Reference_die -> 1
  | Attacker_die -> 2
  | Query_keys -> 3
  | Ga -> 4
  | Sa -> 5
  | Lot_die -> 6
  | Campaign -> 7
  | Replay -> 8
  | Probe -> 9

(* SplitMix64 finaliser. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let derive ~seed stream index =
  let lane = Int64.of_int ((stream_id stream lsl 32) lor (index land 0xFFFFFFFF)) in
  let z = Int64.(add (mul (of_int seed) 0x9e3779b97f4a7c15L) (mix64 lane)) in
  (* 30 bits: a positive int on every platform, and a valid die seed. *)
  Int64.to_int (Int64.shift_right_logical (mix64 z) 34)

let keys ~seed ~round n =
  let rng = Sigkit.Rng.create (derive ~seed Query_keys round) in
  List.init n (fun _ -> Rfchain.Config.random rng)

(* A seeded choice of [k] distinct positions out of [n], in ascending
   order (partial Fisher-Yates). *)
let sample ~seed ~salt ~k n =
  let k = min k n in
  let idx = Array.init n Fun.id in
  let rng = Sigkit.Rng.create (derive ~seed Replay salt) in
  for i = 0 to k - 1 do
    let j = Sigkit.Rng.int_range rng i (n - 1) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  List.sort compare (Array.to_list (Array.sub idx 0 k))
