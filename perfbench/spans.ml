(* The benchmark's own span recorder.  Spans wrap the benchmark's calls
   into each layer, never code inside the library.  Each domain appends
   to its own buffer (found through Domain.DLS), so job closures running
   on worker lanes are recorded too; buffers are merged only when the
   run ends.  Off, a span costs one atomic load. *)

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  name : string;
  domain : int;
  start_ns : int64;
  stop_ns : int64;
}

type buffer = {
  b_domain : int;
  mutable spans : span list;
  mutable stack : int list;
}

let now_ns () = Monotonic_clock.now ()
let enabled = Atomic.make false
let next_id = Atomic.make 1
let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { b_domain = (Domain.self () :> int); spans = []; stack = [] } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let set_enabled on = Atomic.set enabled on

let with_ name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.stack with p :: _ -> p | [] -> 0 in
    b.stack <- id :: b.stack;
    let start_ns = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let stop_ns = now_ns () in
        b.stack <- List.tl b.stack;
        b.spans <- { id; parent; name; domain = b.b_domain; start_ns; stop_ns } :: b.spans)
      f
  end

(* Call only once every lane is idle (after the last pool job drained). *)
let collect () =
  Mutex.protect registry_lock (fun () -> List.concat_map (fun b -> b.spans) !registry)
  |> List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id))

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

type summary = {
  s_name : string;
  count : int;
  total_ms : float;
  self_ms : float;  (* total minus the time covered by child spans *)
}

let summarize spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (duration_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id) in
      let c, tot, slf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (c + 1, tot +. duration_ns s, slf +. self))
    spans;
  Hashtbl.fold
    (fun s_name (count, tot, slf) acc ->
      { s_name; count; total_ms = tot /. 1e6; self_ms = slf /. 1e6 } :: acc)
    by_name []
  |> List.sort (fun a b -> compare b.total_ms a.total_ms)

(* Chrome trace-event format: one complete ("X") event per span, one
   [tid] per domain. *)
let write_chrome path spans =
  let t0 = match spans with s :: _ -> s.start_ns | [] -> 0L in
  let us ns = Int64.to_float (Int64.sub ns t0) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name s.domain (us s.start_ns) (duration_ns s /. 1e3) s.id s.parent)
    spans;
  output_string oc "\n]}\n";
  close_out oc
