(** Domain-local scratch arenas for zero-allocation hot paths.

    Measurement kernels (periodogram, real FFT, the fused modulator
    loop) need several same-sized float arrays per call.  Allocating
    them fresh per measurement is what made the seed periodogram cost
    5+ arrays per call.  A workspace holds one array per slot and
    hands it out again while the requested length stays the same.

    Retention rule: a request for a slot at a different length replaces
    that slot's array with a fresh one, and the old array becomes
    garbage at once.  The live scratch of a domain is therefore the sum
    of the slots' current lengths, not of every length a slot ever
    served.  That matters because the GC sizes the major heap as
    [(1 + space_overhead)] times the live data, on every domain the
    pool engages (DESIGN §15).

    Thread-safety contract: the arena is stored in {!Domain.DLS}, so
    each domain of the engine's pool owns a private workspace and no
    locking is needed.  Arrays returned by {!arr} are only valid until
    the next call with the same slot {e on the same domain};
    callers must fully overwrite them before reading and must not
    retain them across yields to other work wanting the same slot.
    Data returned to callers (e.g. [Spectrum.t.power]) must be copied
    out into fresh arrays.

    Tagged slots: {!filled} names a slot's contents with a string tag
    and skips the fill while the same tag and length are asked for
    again.  This is how a domain keeps one die's noise batches and one
    test stimulus across consecutive evals without a separate cache:
    the tag rides on the slot, so no memory is added.  {!arr} clears
    its slot's tag and {!release} clears every tag, so a slot that
    anyone else wrote is never mistaken for tagged contents.

    Slot discipline (keeps concurrent users of one domain apart; the
    full map and per-stage liveness argument are in DESIGN §15):
    0-1 [Fft] convenience wrappers, 2-5 [Spectrum],
    6-14 the evaluation chain (6 settle-extended, VGLNA-conditioned
    record (tagged for a named stimulus), 7 modulator output, 8-9
    [Sdm] noise batches (tagged), 10-11 [Metrics.Measure] single-tone
    and two-tone stimuli (tagged), 12 [Decimator] CIC intermediate,
    13 [Vglna] noise batch (tagged), 14 the conditioned two-tone record
    (tagged)), 15 tests. *)

type t

val get : unit -> t
(** The calling domain's workspace (created on first use). *)

val arr : t -> slot:int -> len:int -> float array
(** [arr t ~slot ~len] returns [slot]'s scratch array, of length
    [len].  Contents are unspecified.  [slot] must be in [0..15].
    Repeated calls with equal arguments on the same domain return the
    same physical array without allocating; a call with a different
    [len] allocates a fresh array and drops the slot's old one.  The
    slot's tag is cleared. *)

val filled :
  t -> slot:int -> len:int -> tag:string -> fill:(float array -> unit) -> float array
(** [filled t ~slot ~len ~tag ~fill] returns [slot]'s array of length
    [len] holding the contents [tag] names.  [fill] runs only when the
    slot's length or tag differs from the request (a miss); on a hit
    the array is returned as the last fill left it.  [fill] must
    overwrite every cell, and its result must be a function of [tag]
    and [len] alone.  The tag is set after [fill] returns, so a fill
    that raises leaves the slot untagged.  Callers must treat the
    array as read-only: a write would leave the tag naming contents
    the slot no longer holds. *)

val trim : t -> slot:int -> len:int -> unit
(** [trim t ~slot ~len] drops [slot]'s array, and its tag, unless its
    length is [len].  For a caller that skips a slot's usual writer and
    knows the slot's next request is at [len]: a request at any other
    length would replace the array anyway, so dropping it now only ends
    its retention early. *)

val release : unit -> unit
(** Drop every slot's array of the calling domain's workspace.  The
    pool's worker lanes call this before they park, so an idle worker
    domain holds no scratch: neither its memory nor its share of every
    major GC cycle, which parked domains still pay (DESIGN §15).  The
    next request on that domain allocates afresh.  Every tag is
    cleared too. *)

val footprint : t -> int
(** The workspace's live scratch: the sum of its slots' current array
    lengths, in floats. *)

val allocations : unit -> int
(** Process-wide count of scratch arrays materialised so far, length
    changes included; a steady value under load means the hot path has
    stopped allocating. *)
