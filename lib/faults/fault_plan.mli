(** Deterministic fault plans for resilient characterization.

    A plan decides, from a seed alone, which SRB experiments of a
    characterization run hang, lose shots, or come back from the
    fitter with non-physical rates ([nan], negative, far above 1 — all
    of which validation must reject), at fixed rates aggressive enough
    that a few days of experiments exercise every fault class.
    Decisions are keyed on [(seed, site)] the way
    [Qcx_device.Drift.on_day] keys its perturbations, so the same seed
    produces the identical fault sequence at every [--jobs] and
    regardless of evaluation order — which is what lets fault-injected
    runs be compared bit for bit.  The string damagers below corrupt
    persisted files the same way for the store and calibration
    tests. *)

type t

val create : seed:int -> t

val inject :
  t ->
  day:int ->
  experiment:int ->
  attempt:int ->
  Qcx_characterization.Policy.injected_fault option
(** The fault (if any) striking attempt [attempt] of experiment
    [experiment] on [day].  [inject t ~day] partially applied is
    exactly the [?inject] hook
    {!Qcx_characterization.Policy.characterize_resilient} expects. *)

val truncate_string : rng:Qcx_util.Rng.t -> string -> string
(** Keep a strict prefix from the first half of the string. *)

val bitflip_string : rng:Qcx_util.Rng.t -> string -> string
(** Flip one bit of a random alphanumeric byte — always a meaningful
    token character, so the damage is never benign. *)
