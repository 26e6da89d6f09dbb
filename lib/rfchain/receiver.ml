type t = {
  chip : Circuit.Process.chip;
  standard : Standards.t;
  vglna : Vglna.t;
  sdm_draws : Sdm.draws;
  fabric : (Config.t -> Config.t) option;
  rf_fault : (float array -> float array) option;
}

type result = {
  mod_output : float array;
  baseband_i : float array;
  baseband_q : float array;
  fs : float;
  fs_baseband : float;
}

type stimulus =
  | Tone of string
  | Two_tone of string

(* The die's fixed front end: its VGLNA (with the per-code set-ups it
   fills in on first use) and its modulator draws at one sampling rate.
   One entry per domain, keyed on the chip's physical identity: a
   [Process.chip] is immutable, so an equal pointer means equal draws,
   and the engine's die record holds one chip for all of a die's
   requests.  Any other chip, a transformed copy of this one included,
   replaces the entry. *)
type front = {
  f_chip : Circuit.Process.chip;
  f_fs : float;
  f_vglna : Vglna.t;
  f_draws : Sdm.draws;
}

let front_memo : front option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let front_of chip ~fs =
  let memo = Domain.DLS.get front_memo in
  match !memo with
  | Some f when f.f_chip == chip && Float.equal f.f_fs fs -> f
  | Some _ | None ->
    let f =
      { f_chip = chip; f_fs = fs; f_vglna = Vglna.create chip ~fs; f_draws = Sdm.draws chip ~fs }
    in
    memo := Some f;
    f

let create ?fabric ?rf_fault chip standard =
  let front = front_of chip ~fs:(Standards.fs standard) in
  { chip; standard; vglna = front.f_vglna; sdm_draws = front.f_draws; fabric; rf_fault }

let chip t = t.chip
let standard t = t.standard
let fs t = Standards.fs t.standard
let has_hooks t = t.fabric <> None || t.rf_fault <> None
let fabric t = t.fabric
let rf_fault t = t.rf_fault

(* The programming fabric sits between the key register and the analog
   knobs: a faulty fabric (stuck bits, transient upsets) rewrites the
   word actually applied.  A healthy receiver has no hook and pays
   nothing. *)
let applied_config t config =
  match t.fabric with
  | None -> config
  | Some f -> f config

let slice_to_bit x = Array.map (fun v -> if v >= 0.0 then 1.0 else -1.0) x

let sdm_of_config t config = Sdm.of_draws t.sdm_draws (applied_config t config)

let runs = Telemetry.Counter.make "receiver.runs"
let samples = Telemetry.Counter.make "receiver.samples"

(* Workspace slots of the analog half (see DESIGN §15 for the full map
   and aliasing argument): the settle-extended, VGLNA-conditioned record
   (6, or 14 for a tagged two-tone stimulus) and the bitstream (7). *)
let extended_slot = 6
let two_tone_slot = 14
let mod_slot = 7

(* Prepend the settle prefix by repeating the record head: for periodic
   test tones this keeps the steady-state phase coherent.  Cell [i] of
   [dst] gets [input.((i + n - settle mod n) mod n)], as blits; every
   cell is overwritten. *)
let settle_copy input ~settle dst =
  let n = Array.length input and total = Array.length dst in
  if total > 0 then begin
    let src = ref ((n - (settle mod n)) mod n) and pos = ref 0 in
    while !pos < total do
      let len = min (n - !src) (total - !pos) in
      Array.blit input !src dst !pos len;
      pos := !pos + len;
      src := 0
    done
  end

(* The front end proper: settle copy, VGLNA.  [fault] is the untagged
   path's [rf_fault] hook; the tagged path has none. *)
let build_front t ~code ~settle ?fault input extended =
  settle_copy input ~settle extended;
  (* The fault hook may return its argument or a fresh array; it must
     not retain the scratch buffer it was handed (inject.ml's hooks map
     into fresh arrays). *)
  let extended =
    match fault with
    | None -> extended
    | Some f -> f extended
  in
  Vglna.run_inplace t.vglna ~code extended;
  extended

(* The [receiver.front] span, built only when spans record: off, it is
   one flag load and a branch. *)
let front t ~code ~settle ?fault input extended =
  if Telemetry.Control.enabled () then
    Telemetry.Span.with_ ~name:"receiver.front" (fun () ->
        build_front t ~code ~settle ?fault input extended)
  else build_front t ~code ~settle ?fault input extended

let modulate t ~analog ?(settle = 1024) ?stimulus ~input () =
  Telemetry.Counter.incr runs;
  Telemetry.Counter.add samples (Array.length input);
  Telemetry.Span.with_ ~name:"receiver.modulate" (fun () ->
  let analog = applied_config t analog in
  let code = analog.Config.vglna_gain in
  let n = Array.length input in
  let total = settle + n in
  let ws = Sigkit.Workspace.get () in
  let extended =
    match stimulus, t.rf_fault with
    | Some stimulus, None ->
      (* The conditioned record is a function of the stimulus, the
         settle length and what the VGLNA adds at this code; the tag
         names all three (and [n], the length being the slot's), so a
         hit is the record a fill would write. *)
      let slot, stimulus_tag =
        match stimulus with
        | Tone tag -> (extended_slot, tag)
        | Two_tone tag ->
          (* A two-tone hit touches neither slot 6 nor the VGLNA's noise
             slot, so a long capture's record and batch there would stay
             live; at any other length than [total] the next tone eval
             replaces them anyway. *)
          Sigkit.Workspace.trim ws ~slot:extended_slot ~len:total;
          Sigkit.Workspace.trim ws ~slot:Vglna.noise_slot ~len:total;
          (two_tone_slot, tag)
      in
      Sigkit.Workspace.filled ws ~slot ~len:total
        ~tag:
          (String.concat "|"
             [ Vglna.tag t.vglna ~code; stimulus_tag; string_of_int settle; string_of_int n ])
        ~fill:(fun extended -> ignore (front t ~code ~settle input extended))
    | _ ->
      front t ~code ~settle ?fault:t.rf_fault input
        (Sigkit.Workspace.arr ws ~slot:extended_slot ~len:total)
  in
  let mod_full = Sigkit.Workspace.arr ws ~slot:mod_slot ~len:total in
  Sdm.run_into (Sdm.of_draws t.sdm_draws analog) extended mod_full;
  mod_full)

(* The mixer's I/Q are fresh arrays, not scratch: a modulator-only eval
   never visits the mixer, so scratch slots for it would stay pinned at
   the last long capture's length (DESIGN §15). *)
let baseband ?(digital = Decimator.default_config) ?(slice = true) bits ~n =
  let pos = Array.length bits - n in
  let i_ch = Array.make n 0.0 and q_ch = Array.make n 0.0 in
  Mixer.downconvert_into ~slice bits ~pos ~n ~i_out:i_ch ~q_out:q_ch;
  Decimator.run_iq digital (i_ch, q_ch)

let run t ~analog ?(digital = Decimator.default_config) ?settle ?slice ~input () =
  Telemetry.Span.with_ ~name:"receiver.run" (fun () ->
  let n = Array.length input in
  let bits = modulate t ~analog ?settle ~input () in
  let baseband_i, baseband_q = baseband ~digital ?slice bits ~n in
  {
    mod_output = Array.sub bits (Array.length bits - n) n;
    baseband_i;
    baseband_q;
    fs = fs t;
    fs_baseband = fs t /. float_of_int (Decimator.ratio digital);
  })

(* Offset the coherent test tone by a quarter of the band: far enough
   from the carrier bin for clean binning, while the aliased third
   harmonic (at -3x the offset) stays outside the band of interest —
   the paper's measurement at exactly F0 hides that alias under the
   carrier. *)
let test_tone_frequency t ~n =
  let f0 = t.standard.Standards.f0_hz in
  let offset = Standards.band_hz t.standard /. 4.0 in
  Sigkit.Waveform.coherent_frequency ~freq:(f0 +. offset) ~fs:(fs t) ~n
