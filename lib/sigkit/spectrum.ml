type t = {
  power : float array;
  fs : float;
  n : int;
  window : Window.kind;
}

let periodograms = Telemetry.Counter.make "spectrum.periodograms"

(* The whole pipeline — window, pack, real FFT, one-sided fold — runs
   in the calling domain's workspace, reading the record window in
   place; only the returned [power] array is allocated.  The seed path allocated 5+ arrays per call (record
   copy, windowed copy, re/im pair, |X|^2) and ran a full complex
   transform where the packed n/2 one suffices for real input. *)
let periodogram ?(window = Window.Hann) ?(pos = 0) ?len ~fs x =
  Telemetry.Counter.incr periodograms;
  Telemetry.Span.with_ ~name:"spectrum.periodogram" (fun () ->
  let len = match len with Some l -> l | None -> Array.length x - pos in
  if pos < 0 || len < 0 || pos + len > Array.length x then
    invalid_arg "Spectrum.periodogram: window outside the record";
  let n = if Fft.is_pow2 len then len else Fft.next_pow2 len / 2 in
  if n < 2 then invalid_arg "Spectrum.periodogram: record too short";
  let m = n / 2 in
  let half = m + 1 in
  let ws = Workspace.get () in
  let w = Window.table window n in
  let zre = Workspace.arr ws ~slot:2 ~len:m in
  let zim = Workspace.arr ws ~slot:3 ~len:m in
  (* Windowing fused with the even/odd packing of the real transform. *)
  for k = 0 to m - 1 do
    let e = 2 * k in
    Array.unsafe_set zre k (Array.unsafe_get x (pos + e) *. Array.unsafe_get w e);
    Array.unsafe_set zim k (Array.unsafe_get x (pos + e + 1) *. Array.unsafe_get w (e + 1))
  done;
  let re = Workspace.arr ws ~slot:4 ~len:half in
  let im = Workspace.arr ws ~slot:5 ~len:half in
  Plan.real_forward_packed (Plan.real_get n) ~packed_re:zre ~packed_im:zim ~re ~im;
  (* One-sided: double interior bins to account for negative frequencies. *)
  let power = Array.make half 0.0 in
  for k = 0 to half - 1 do
    let xr = Array.unsafe_get re k and xi = Array.unsafe_get im k in
    let p = (xr *. xr) +. (xi *. xi) in
    Array.unsafe_set power k (if k = 0 || k = m then p else 2.0 *. p)
  done;
  { power; fs; n; window })

let bin_of_freq t f =
  let k = int_of_float (Float.round (f *. float_of_int t.n /. t.fs)) in
  max 0 (min (Array.length t.power - 1) k)

let freq_of_bin t k = float_of_int k *. t.fs /. float_of_int t.n

let clamp t k = max 0 (min (Array.length t.power - 1) k)

let band_power t ~f_lo ~f_hi =
  let lo = bin_of_freq t f_lo and hi = bin_of_freq t f_hi in
  let acc = ref 0.0 in
  for k = lo to hi do
    acc := !acc +. t.power.(k)
  done;
  !acc

let band_power_excluding t ~f_lo ~f_hi ~exclude =
  let lo = bin_of_freq t f_lo and hi = bin_of_freq t f_hi in
  let excluded k = List.exists (fun (a, b) -> k >= a && k <= b) exclude in
  let acc = ref 0.0 in
  for k = lo to hi do
    if not (excluded k) then acc := !acc +. t.power.(k)
  done;
  !acc

let peak_in_band t ~f_lo ~f_hi =
  let lo = bin_of_freq t f_lo and hi = bin_of_freq t f_hi in
  let best = ref lo in
  for k = lo to hi do
    if t.power.(k) > t.power.(!best) then best := k
  done;
  (!best, t.power.(!best))

let tone_bins t ~freq =
  let centre = bin_of_freq t freq in
  let search = 4 in
  let peak = ref (clamp t centre) in
  for k = clamp t (centre - search) to clamp t (centre + search) do
    if t.power.(k) > t.power.(!peak) then peak := k
  done;
  let lobe = Window.main_lobe_bins t.window in
  (clamp t (!peak - lobe), clamp t (!peak + lobe))

let tone_power t ~freq =
  let lo, hi = tone_bins t ~freq in
  let acc = ref 0.0 in
  for k = lo to hi do
    acc := !acc +. t.power.(k)
  done;
  !acc

let psd_db t = Array.map Decibel.db_of_power_ratio t.power
