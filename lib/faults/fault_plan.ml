module Rng = Qcx_util.Rng
module Policy = Qcx_characterization.Policy

(* Per-attempt probabilities, aggressive enough that a few days of
   experiments exercise every fault class; a dropout keeps this
   fraction of the shots. *)
let hang = 0.06
let dropout = 0.08
let dropout_keep = 0.25
let corrupt_fit = 0.08

(* Non-physical fitted rates a corrupt fit reports: nan, negative, far
   above 1 — all of which validation must reject. *)
let corrupt_rates = [| Float.nan; -0.25; 64.0 |]

type t = { seed : int }

let create ~seed = { seed }

(* Every decision draws from a generator keyed on (plan seed, site):
   the same (day, experiment, attempt) always sees the same fault no
   matter in which order — or on how many domains — sites are
   evaluated.  Same recipe as [Qcx_device.Drift.on_day]. *)
let keyed t key = Rng.create (Hashtbl.hash (t.seed, "qcx-fault-plan", key))

let inject t ~day ~experiment ~attempt =
  let rng = keyed t (day, experiment, attempt, "experiment") in
  let u = Rng.unit_float rng in
  if u < hang then Some Policy.Inject_hang
  else if u < hang +. dropout then Some (Policy.Inject_dropout dropout_keep)
  else if u < hang +. dropout +. corrupt_fit then
    Some (Policy.Inject_corrupt_rate corrupt_rates.(Rng.int rng (Array.length corrupt_rates)))
  else None

(* Cut within the first half so the damage can never amount to
   dropping only trailing whitespace: a proper prefix of a JSON
   document this short always fails to parse. *)
let truncate_string ~rng s =
  let n = String.length s in
  if n <= 1 then "" else String.sub s 0 (1 + Rng.int rng (n / 2))

(* Flip a bit of an alphanumeric byte: the victim is always a
   meaningful token character (a tag, a key, a digit, a checksum hex
   digit), never separator whitespace, so the damage is guaranteed to
   break parsing, the format tag, or checksum verification — a benign
   flip would let a test that expects every corruption to be caught
   pass vacuously. *)
let bitflip_string ~rng s =
  let is_alnum c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  in
  let positions = ref [] in
  String.iteri (fun i c -> if is_alnum c then positions := i :: !positions) s;
  match !positions with
  | [] -> s
  | positions ->
    let positions = Array.of_list positions in
    let i = positions.(Rng.int rng (Array.length positions)) in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x02));
    Bytes.to_string b
