(* One array per slot, replaced when the requested length changes: the
   old array becomes garbage at once instead of staying live for the
   life of the domain (DESIGN §15).  A slot may also carry a tag naming
   its contents (see [filled]); [None] means unspecified contents. *)
type t = {
  slots : float array array;
  tags : string option array;
}

(* A plain atomic, not a telemetry counter: materialisations depend on
   what ran on each domain before, so they would make otherwise
   identical workloads leave different counter snapshots (breaking
   telemetry determinism). *)
let allocs = Atomic.make 0

let key = Domain.DLS.new_key (fun () -> { slots = Array.make 16 [||]; tags = Array.make 16 None })

let get () = Domain.DLS.get key

let check ~slot ~len =
  if slot < 0 || slot > 15 then invalid_arg "Workspace: slot must be in 0..15";
  if len < 0 then invalid_arg "Workspace: negative length"

let arr t ~slot ~len =
  check ~slot ~len;
  Array.unsafe_set t.tags slot None;
  let a = Array.unsafe_get t.slots slot in
  if Array.length a = len then a
  else begin
    Atomic.incr allocs;
    let a = Array.make len 0.0 in
    Array.unsafe_set t.slots slot a;
    a
  end

let filled t ~slot ~len ~tag ~fill =
  check ~slot ~len;
  let a = Array.unsafe_get t.slots slot in
  match Array.unsafe_get t.tags slot with
  | Some held when Array.length a = len && String.equal held tag -> a
  | Some _ | None ->
    (* [arr] untags the slot first, so a fill that raises leaves it
       untagged. *)
    let a = arr t ~slot ~len in
    fill a;
    Array.unsafe_set t.tags slot (Some tag);
    a

let trim t ~slot ~len =
  check ~slot ~len;
  if Array.length (Array.unsafe_get t.slots slot) <> len then begin
    Array.unsafe_set t.slots slot [||];
    Array.unsafe_set t.tags slot None
  end

let release () =
  let t = get () in
  Array.fill t.slots 0 16 [||];
  Array.fill t.tags 0 16 None

let footprint t = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.slots

let allocations () = Atomic.get allocs
