let tone_spacing_hz = 10e6

let tones_for ~f0 ~fs ~n =
  let half = tone_spacing_hz /. 2.0 in
  ( Sigkit.Waveform.coherent_frequency ~freq:(f0 -. half) ~fs ~n,
    Sigkit.Waveform.coherent_frequency ~freq:(f0 +. half) ~fs ~n )

let of_bandpass ?(n_fft = Snr.default_fft_points) ~fs ~f1 ~f2 ~osr record =
  let len = Array.length record in
  let n = min n_fft len in
  let n = if Sigkit.Fft.is_pow2 n then n else Sigkit.Fft.next_pow2 n / 2 in
  let spec =
    Sigkit.Spectrum.periodogram ~window:Sigkit.Window.Hann ~pos:(len - n) ~len:n ~fs record
  in
  let centre = fs /. 4.0 in
  let half_band = fs /. (2.0 *. float_of_int osr) /. 2.0 in
  let p1 = Sigkit.Spectrum.tone_power spec ~freq:f1 in
  let p2 = Sigkit.Spectrum.tone_power spec ~freq:f2 in
  let fundamental = Float.max p1 p2 in
  let bins1 = Sigkit.Spectrum.tone_bins spec ~freq:f1 in
  let bins2 = Sigkit.Spectrum.tone_bins spec ~freq:f2 in
  (* Strongest remaining bin in band = the worst spur. *)
  let lo = Sigkit.Spectrum.bin_of_freq spec (centre -. half_band) in
  let hi = Sigkit.Spectrum.bin_of_freq spec (centre +. half_band) in
  let excluded k = List.exists (fun (a, b) -> k >= a && k <= b) [ bins1; bins2 ] in
  let power = spec.Sigkit.Spectrum.power in
  let spur_bin = ref lo in
  for k = lo to hi do
    if (not (excluded k)) && power.(k) > power.(!spur_bin) then spur_bin := k
  done;
  (* Integrate the spur's window lobe (excluding any fundamental bins)
     so spur and fundamental powers are measured identically. *)
  let lobe = Sigkit.Window.main_lobe_bins spec.Sigkit.Spectrum.window in
  let spur = ref 0.0 in
  for k = max lo (!spur_bin - lobe) to min hi (!spur_bin + lobe) do
    if not (excluded k) then spur := !spur +. power.(k)
  done;
  if !spur <= 0.0 then infinity
  else Sigkit.Decibel.db_of_power_ratio (fundamental /. !spur)
