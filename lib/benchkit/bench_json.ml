(* The bench JSON trajectory file and its regression gate.

   Schema history:
   - "bench-kernels/1": {"schema", "results": [{name, ns_per_run,
     minor_words_per_run}]} — what the seed harness wrote.
   - "bench-kernels/2": adds a "manifest" object (run provenance, see
     Telemetry.Manifest) so a committed baseline records exactly which
     build and argv produced it.

   The reader accepts both, so `bench --compare BENCH_4.json` keeps
   working against baselines committed before the schema bump.

   The gate compares ns/run and minor-words/run per kernel against a
   baseline under generous multiplicative tolerances: the committed
   baseline and a CI run sit on different machines and different bench
   quotas, so only multiple-of-baseline blowups are actionable.
   Allocation tolerances are tighter (allocation per run is
   machine-independent) but carry an absolute slack so a kernel that
   allocates nearly nothing cannot fail on a few words of noise. *)

type kernel = {
  name : string;
  ns_per_run : float;
  minor_words_per_run : float;
}

type file = {
  schema : int;
  manifest : Telemetry.Manifest.t option;
  kernels : kernel list;
}

(* --------------------------------------------------------------- write *)

let schema_name = "bench-kernels/2"

let write ~path ?manifest kernels =
  let num x = if Float.is_finite x then Printf.sprintf "%.3f" x else "null" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"schema\": %S,\n" schema_name;
      (match manifest with
      | None -> ()
      | Some m -> Printf.fprintf oc "  \"manifest\": %s,\n" (Telemetry.Manifest.to_json m));
      output_string oc "  \"results\": [\n";
      let sorted = List.sort (fun a b -> String.compare a.name b.name) kernels in
      let n = List.length sorted in
      List.iteri
        (fun i k ->
          Printf.fprintf oc
            "    { \"name\": %S, \"ns_per_run\": %s, \"minor_words_per_run\": %s }%s\n" k.name
            (num k.ns_per_run)
            (num k.minor_words_per_run)
            (if i = n - 1 then "" else ","))
        sorted;
      output_string oc "  ]\n}\n")

(* ---------------------------------------------------------------- read *)

(* Minimal recursive-descent JSON reader — objects, arrays, strings,
   numbers, booleans, null.  Object values remember their byte span in
   the source so the nested manifest can be handed to
   Telemetry.Manifest.of_json verbatim. *)

type jv =
  | Obj of (string * jv) list * (int * int)  (* fields, source span *)
  | Arr of jv list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Bad of string

let parse src =
  let n = String.length src in
  let i = ref 0 in
  let skip_ws () =
    while
      !i < n && (src.[!i] = ' ' || src.[!i] = '\t' || src.[!i] = '\n' || src.[!i] = '\r')
    do
      incr i
    done
  in
  let expect c =
    skip_ws ();
    if !i < n && src.[!i] = c then incr i
    else raise (Bad (Printf.sprintf "expected '%c' at byte %d" c !i))
  in
  let literal word v =
    if !i + String.length word <= n && String.sub src !i (String.length word) = word then begin
      i := !i + String.length word;
      v
    end
    else raise (Bad (Printf.sprintf "unrecognised value at byte %d" !i))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 32 in
    let rec go () =
      if !i >= n then raise (Bad "unterminated string");
      let c = src.[!i] in
      incr i;
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !i >= n then raise (Bad "truncated escape");
        let e = src.[!i] in
        incr i;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !i + 4 > n then raise (Bad "truncated \\u escape");
          let code =
            try int_of_string ("0x" ^ String.sub src !i 4) with _ -> raise (Bad "bad \\u escape")
          in
          i := !i + 4;
          Buffer.add_char buf (Char.chr (code land 0xff))
        | _ -> raise (Bad "unknown escape"));
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !i in
    let numeric c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !i < n && numeric src.[!i] do
      incr i
    done;
    if !i = start then raise (Bad (Printf.sprintf "unrecognised value at byte %d" start));
    match float_of_string_opt (String.sub src start (!i - start)) with
    | Some v -> v
    | None -> raise (Bad "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    if !i >= n then raise (Bad "missing value")
    else
      match src.[!i] with
      | '"' -> Str (parse_string ())
      | '{' -> parse_object ()
      | '[' -> parse_array ()
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (parse_number ())
  and parse_object () =
    let start = !i in
    expect '{';
    skip_ws ();
    if !i < n && src.[!i] = '}' then begin
      incr i;
      Obj ([], (start, !i))
    end
    else begin
      let fields = ref [] in
      let parsing = ref true in
      while !parsing do
        let k = parse_string () in
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        if !i < n && src.[!i] = ',' then incr i
        else begin
          expect '}';
          parsing := false
        end
      done;
      Obj (List.rev !fields, (start, !i))
    end
  and parse_array () =
    expect '[';
    skip_ws ();
    if !i < n && src.[!i] = ']' then begin
      incr i;
      Arr []
    end
    else begin
      let items = ref [] in
      let parsing = ref true in
      while !parsing do
        items := parse_value () :: !items;
        skip_ws ();
        if !i < n && src.[!i] = ',' then incr i
        else begin
          expect ']';
          parsing := false
        end
      done;
      Arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then raise (Bad "trailing bytes");
  v

let of_string src =
  match parse src with
  | exception Bad reason -> Error reason
  | Obj (fields, _) -> (
    let find name = List.assoc_opt name fields in
    let schema =
      match find "schema" with
      | Some (Str "bench-kernels/1") -> Ok 1
      | Some (Str "bench-kernels/2") -> Ok 2
      | Some (Str other) -> Error (Printf.sprintf "unsupported schema %S" other)
      | _ -> Error "missing schema"
    in
    match schema with
    | Error e -> Error e
    | Ok schema -> (
      let manifest =
        match find "manifest" with
        | Some (Obj (_, (s, e))) -> (
          match Telemetry.Manifest.of_json (String.sub src s (e - s)) with
          | Ok m -> Some m
          | Error _ -> None)
        | _ -> None
      in
      let kernel_of = function
        | Obj (kf, _) ->
          let num name =
            match List.assoc_opt name kf with
            | Some (Num v) -> v
            | Some Null | None -> nan
            | Some _ -> raise (Bad (name ^ " must be a number"))
          in
          let name =
            match List.assoc_opt "name" kf with
            | Some (Str s) -> s
            | _ -> raise (Bad "kernel name must be a string")
          in
          { name; ns_per_run = num "ns_per_run"; minor_words_per_run = num "minor_words_per_run" }
        | _ -> raise (Bad "results entries must be objects")
      in
      match find "results" with
      | Some (Arr items) -> (
        match List.map kernel_of items with
        | kernels -> Ok { schema; manifest; kernels }
        | exception Bad reason -> Error reason)
      | _ -> Error "missing results array"))
  | _ -> Error "top level must be an object"

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | raw -> of_string raw

(* ---------------------------------------------------------------- gate *)

type tolerance = {
  ns_ratio : float;
  mwd_ratio : float;
  mwd_slack : float;
}

(* The allocation slack must absorb a quota systematic, not just
   noise: the baseline is measured at the full bechamel quota, the
   gate at the fast one, and per-sample fixed allocations amortise
   over fewer runs there (engine:cache-hit reads ~6 words/run at full
   quota and ~90 at fast on the same build). *)
let default_tolerance = { ns_ratio = 2.0; mwd_ratio = 1.25; mwd_slack = 128.0 }

(* Sub-microsecond kernels: the measured quantity is a handful of
   instructions, where scheduler noise, frequency scaling and bechamel
   quota differences dominate — give them extra headroom. *)
let noisy_kernels =
  [
    "telemetry:span-disabled";
    "telemetry:counter-incr";
    "engine:cache-hit";
    "telemetry:cancel-poll-1k";
    "onchip:alu-evaluation";
  ]

(* fsync-bound kernels: wall time is disk latency under whatever else
   is touching the disk (observed 140 us to 13 ms for the same build
   in one session).  Only an order-of-magnitude blowup — an
   algorithmic change, not the environment — is actionable. *)
let io_kernels = [ "engine:checkpoint-record" ]

(* Arena-converted kernels: the workspace refactor (DESIGN §15) made
   these allocate only their returned result records, so the 128-word
   quota slack — sized for kernels whose fixed per-sample allocations
   amortise differently at the fast quota — is more headroom than they
   need.  Keep them on half of it so a stage that quietly falls back
   to an allocating path cannot hide inside the slack. *)
let arena_kernels =
  [
    "engine:cache-miss";
    "engine:batch8-1domain";
    "engine:batch8-2domains";
    "engine:batch8-4domains";
    "engine:batch8-8domains";
    "engine:stream-grid";
    "faults:campaign-cell";
    "fig7:snr-mod-per-key";
    "fig9:snr-rx-per-key";
    "fig10:psd-estimate";
    "fig11:sweep-point";
    "fig12:two-tone-sfdr";
    "security:attack-trial";
    "compare:baseline-probes";
    "lot:die-calibration";
  ]

let tolerance_for name =
  if List.mem name io_kernels then { default_tolerance with ns_ratio = 20.0 }
  else if List.mem name noisy_kernels then { default_tolerance with ns_ratio = 3.0 }
  else if List.mem name arena_kernels then { default_tolerance with mwd_slack = 64.0 }
  else default_tolerance

(* Absolute minor-words budgets for the converted kernels — the
   alloc-smoke contract.  Unlike the ratio gate these do not need a
   baseline file: they are the allocation model itself (result record
   + per-eval bookkeeping, no full-record scratch arrays), with ~4x
   headroom over measured values so a different machine or bechamel
   quota cannot trip them, while any reintroduced per-stage copy of
   even one 9216-sample record (+18k words minimum) fails outright.
   The two golden-key kernels re-evaluate one die under one stimulus,
   so they run the front-end memo's hit path (DESIGN §15): ~0.9k and
   ~0.7k words an eval counted with Gc.minor_words, which the bench
   checks beside bechamel's estimate, so a per-eval [Sdm.create]
   (~9.4k words) or a dead draw memo (~13k) fails them too. *)
let alloc_budgets =
  [
    ("engine:cache-miss", 4_000.0);
    ("engine:batch8-1domain", 340_000.0);
    ("engine:batch8-2domains", 340_000.0);
    ("engine:batch8-4domains", 340_000.0);
    ("engine:batch8-8domains", 340_000.0);
    ("engine:stream-grid", 340_000.0);
    ("faults:campaign-cell", 80_000.0);
    ("fig7:snr-mod-per-key", 3_000.0);
  ]

let budget_for name = List.assoc_opt name alloc_budgets

type verdict =
  | Pass
  | Regressed of {
      field : string;
      baseline : float;
      current : float;
      limit : float;
    }
  | Missing

type comparison = {
  kernel : string;
  verdict : verdict;
}

(* Compare current results against a baseline.  Kernels only in the
   current run pass silently (new kernels are not regressions); kernels
   only in the baseline are [Missing] when [require_all] (a full-suite
   gate must notice a kernel that silently stopped running, but a
   --only run must not fail on everything it skipped). *)
let compare_results ~baseline ~current ~require_all =
  let find xs name = List.find_opt (fun k -> k.name = name) xs in
  List.filter_map
    (fun b ->
      match find current b.name with
      | None -> if require_all then Some { kernel = b.name; verdict = Missing } else None
      | Some c ->
        let tol = tolerance_for b.name in
        let ns_limit = b.ns_per_run *. tol.ns_ratio in
        let mwd_limit = (b.minor_words_per_run *. tol.mwd_ratio) +. tol.mwd_slack in
        let verdict =
          if Float.is_finite b.ns_per_run && Float.is_finite c.ns_per_run
             && c.ns_per_run > ns_limit
          then
            Regressed
              { field = "ns_per_run"; baseline = b.ns_per_run; current = c.ns_per_run;
                limit = ns_limit }
          else if
            Float.is_finite b.minor_words_per_run
            && Float.is_finite c.minor_words_per_run
            && c.minor_words_per_run > mwd_limit
          then
            Regressed
              { field = "minor_words_per_run"; baseline = b.minor_words_per_run;
                current = c.minor_words_per_run; limit = mwd_limit }
          else Pass
        in
        Some { kernel = b.name; verdict })
    (List.sort (fun a b -> String.compare a.name b.name) baseline)

let check_budgets current =
  List.filter_map
    (fun (name, budget) ->
      match List.find_opt (fun k -> k.name = name) current with
      | None -> None  (* --only runs check whatever subset they measured *)
      | Some c when Float.is_finite c.minor_words_per_run ->
        if c.minor_words_per_run > budget then
          Some
            {
              kernel = name;
              verdict =
                Regressed
                  { field = "minor_words_budget"; baseline = budget;
                    current = c.minor_words_per_run; limit = budget };
            }
        else Some { kernel = name; verdict = Pass }
      | Some _ -> None)
    alloc_budgets

let regressions comparisons =
  List.filter (fun c -> c.verdict <> Pass) comparisons

let verdict_to_string c =
  match c.verdict with
  | Pass -> Printf.sprintf "PASS     %s" c.kernel
  | Missing -> Printf.sprintf "MISSING  %s (in baseline, absent from this run)" c.kernel
  | Regressed { field; baseline; current; limit } ->
    Printf.sprintf "REGRESS  %s: %s %.1f -> %.1f (limit %.1f)" c.kernel field baseline current
      limit
