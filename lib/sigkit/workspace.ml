(* One array per slot, replaced when the requested length changes: the
   old array becomes garbage at once instead of staying live for the
   life of the domain (DESIGN §15). *)
type t = { slots : float array array }

(* A plain atomic, not a telemetry counter: materialisations depend on
   what ran on each domain before, so they would make otherwise
   identical workloads leave different counter snapshots (breaking
   telemetry determinism). *)
let allocs = Atomic.make 0

let key = Domain.DLS.new_key (fun () -> { slots = Array.make 16 [||] })

let get () = Domain.DLS.get key

let arr t ~slot ~len =
  if slot < 0 || slot > 15 then invalid_arg "Workspace.arr: slot must be in 0..15";
  if len < 0 then invalid_arg "Workspace.arr: negative length";
  let a = Array.unsafe_get t.slots slot in
  if Array.length a = len then a
  else begin
    Atomic.incr allocs;
    let a = Array.make len 0.0 in
    Array.unsafe_set t.slots slot a;
    a
  end

let release () = Array.fill (get ()).slots 0 16 [||]

let allocations () = Atomic.get allocs
